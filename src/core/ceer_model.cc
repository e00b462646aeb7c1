#include "core/ceer_model.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "core/regression.h"
#include "io/cbf.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/strings.h"

namespace ceer {
namespace core {

using graph::OpType;
using hw::GpuModel;

double
OpTimeModel::predictUs(const std::vector<double> &features) const
{
    double predicted;
    if (usable) {
        predicted = quadratic ? model.predict(quadraticExpand(features))
                              : model.predict(features);
    } else {
        predicted = medianUs;
    }
    // Regressions can dip below zero for tiny inputs outside the
    // training range; kernels cannot beat launch overhead.
    return std::max(predicted, 1.0);
}

double
CommModel::overheadUs(GpuModel gpu, int num_gpus,
                      double param_count) const
{
    if (num_gpus < 1)
        util::panic("CommModel::overheadUs: num_gpus must be >= 1");
    const auto it = fits.find(gpu);
    if (it == fits.end() || it->second.empty() || !it->second[0].valid)
        util::panic("CommModel::overheadUs: no fit for GPU " +
                    hw::gpuModelName(gpu));
    const auto &per_k = it->second;
    const std::span<const double> x(&param_count, 1);

    double total = per_k[0].model.predict(x);
    if (num_gpus == 1)
        return std::max(total, 0.0);

    const std::size_t idx = static_cast<std::size_t>(num_gpus) - 1;
    if (idx < per_k.size() && per_k[idx].valid)
        return std::max(total + per_k[idx].model.predict(x), 0.0);

    // Extrapolate D_k linearly in k from the last two trained widths.
    std::size_t last = per_k.size();
    while (last > 1 && !per_k[last - 1].valid)
        --last;
    if (last < 2)
        util::panic("CommModel::overheadUs: no multi-GPU fits for " +
                    hw::gpuModelName(gpu));
    const double d_last = per_k[last - 1].model.predict(x);
    const double d_prev =
        last >= 3 && per_k[last - 2].valid
            ? per_k[last - 2].model.predict(x)
            : 0.0;
    const double slope = d_last - d_prev;
    const double extra = static_cast<double>(num_gpus) -
                         static_cast<double>(last);
    return std::max(total + d_last + slope * extra, 0.0);
}

OpClass
CeerModel::classify(OpType op) const
{
    if (graph::opTypeInfo(op).device == graph::Device::Cpu)
        return OpClass::Cpu;
    return heavyOps.count(op) ? OpClass::Heavy : OpClass::Light;
}

const OpTimeModel *
CeerModel::opModel(GpuModel gpu, OpType op) const
{
    const auto it = opModels.find({gpu, op});
    return it == opModels.end() ? nullptr : &it->second;
}

std::pair<double, double>
CeerModel::opModelR2Range() const
{
    double lo = 1.0, hi = 0.0;
    bool any = false;
    for (const auto &[key, model] : opModels) {
        if (!model.usable)
            continue;
        lo = std::min(lo, model.r2);
        hi = std::max(hi, model.r2);
        any = true;
    }
    if (!any)
        return {0.0, 0.0};
    return {lo, hi};
}

void
CeerModel::save(std::ostream &out) const
{
    out << "ceer_model v1\n";
    out << "heavy_threshold_us " << util::format("%.17g", heavyThresholdUs)
        << "\n";
    out << "light_median_us " << util::format("%.17g", lightMedianUs)
        << "\n";
    out << "cpu_median_us " << util::format("%.17g", cpuMedianUs) << "\n";
    out << "heavy_ops";
    for (OpType op : heavyOps)
        out << " " << graph::opTypeName(op);
    out << "\n";
    for (const auto &[key, model] : opModels) {
        out << "op_model " << hw::gpuModelName(key.first) << " "
            << graph::opTypeName(key.second) << " "
            << (model.quadratic ? 1 : 0) << " " << (model.usable ? 1 : 0)
            << " " << util::format("%.17g", model.r2) << " "
            << util::format("%.17g", model.medianUs) << " "
            << model.points << " " << model.model.serialize() << "\n";
    }
    for (const auto &[gpu, per_k] : comm.fits) {
        for (std::size_t i = 0; i < per_k.size(); ++i) {
            if (!per_k[i].valid)
                continue;
            out << "comm_fit " << hw::gpuModelName(gpu) << " " << (i + 1)
                << " " << util::format("%.17g", per_k[i].r2) << " "
                << per_k[i].model.serialize() << "\n";
        }
    }
}

CeerModel
CeerModel::load(std::istream &in)
{
    CeerModel model;
    std::string error;
    if (!tryLoad(in, &model, &error))
        util::fatal("CeerModel::load: " + error);
    return model;
}

bool
CeerModel::tryLoad(std::istream &in, CeerModel *model,
                   std::string *error)
{
    CeerModel parsed;
    std::string line;
    std::size_t line_no = 1;
    if (!std::getline(in, line) ||
        !util::startsWith(line, "ceer_model")) {
        *error = "missing header";
        return false;
    }
    // All failure paths funnel through fail()/failField() so every
    // message carries the offending line number.
    const auto fail = [&](const std::string &what) {
        *error = util::format("line %zu: ", line_no) + what;
        return false;
    };
    const auto parse_double = [&](const std::string &field,
                                  const char *what, double *out) {
        const auto result = util::parseDouble(field);
        if (!result) {
            *error = util::format("line %zu: bad %s '%s': %s", line_no,
                                  what, field.c_str(), result.error);
            return false;
        }
        *out = result.value;
        return true;
    };
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const auto fields = util::split(line, ' ');
        const std::string &tag = fields[0];
        const auto require = [&](std::size_t count) {
            if (fields.size() >= count)
                return true;
            *error = util::format(
                "line %zu: truncated '%s' line (%zu of %zu fields)",
                line_no, tag.c_str(), fields.size(), count);
            return false;
        };
        if (tag == "heavy_threshold_us") {
            if (!require(2) ||
                !parse_double(fields[1], "threshold",
                              &parsed.heavyThresholdUs))
                return false;
        } else if (tag == "light_median_us") {
            if (!require(2) ||
                !parse_double(fields[1], "median",
                              &parsed.lightMedianUs))
                return false;
        } else if (tag == "cpu_median_us") {
            if (!require(2) ||
                !parse_double(fields[1], "median", &parsed.cpuMedianUs))
                return false;
        } else if (tag == "heavy_ops") {
            for (std::size_t i = 1; i < fields.size(); ++i) {
                OpType op;
                if (!graph::opTypeFromName(fields[i], op))
                    return fail("bad op " + fields[i]);
                parsed.heavyOps.insert(op);
            }
        } else if (tag == "op_model") {
            if (!require(9))
                return false;
            GpuModel gpu;
            OpType op;
            if (!hw::gpuModelFromName(fields[1], gpu) ||
                !graph::opTypeFromName(fields[2], op))
                return fail("bad op_model line");
            OpTimeModel entry;
            entry.gpu = gpu;
            entry.op = op;
            entry.quadratic = fields[3] == "1";
            entry.usable = fields[4] == "1";
            if (!parse_double(fields[5], "r2", &entry.r2) ||
                !parse_double(fields[6], "median", &entry.medianUs))
                return false;
            const auto points = util::parseSize(fields[7]);
            if (!points)
                return fail("bad op_model points '" + fields[7] +
                            "': " + points.error);
            entry.points = points.value;
            std::string model_error;
            if (!LinearModel::tryDeserialize(fields[8], &entry.model,
                                             &model_error))
                return fail("op_model fit: " + model_error);
            parsed.opModels.emplace(std::make_pair(gpu, op),
                                    std::move(entry));
        } else if (tag == "comm_fit") {
            if (!require(5))
                return false;
            GpuModel gpu;
            if (!hw::gpuModelFromName(fields[1], gpu))
                return fail("bad comm_fit line");
            const auto k_parsed = util::parseSize(fields[2]);
            if (!k_parsed)
                return fail("bad comm_fit k '" + fields[2] + "': " +
                            k_parsed.error);
            const std::size_t k = k_parsed.value;
            if (k == 0)
                return fail("comm_fit k must be >= 1");
            auto &per_k = parsed.comm.fits[gpu];
            if (per_k.size() < k)
                per_k.resize(k);
            std::string model_error;
            if (!parse_double(fields[3], "r2", &per_k[k - 1].r2))
                return false;
            if (!LinearModel::tryDeserialize(fields[4],
                                             &per_k[k - 1].model,
                                             &model_error))
                return fail("comm_fit: " + model_error);
            per_k[k - 1].valid = true;
        } else {
            return fail("unknown tag '" + tag + "'");
        }
    }
    *model = std::move(parsed);
    return true;
}

void
CeerModel::saveCbf(std::ostream &out) const
{
    io::CbfBuilder builder;
    builder.addBytes("schema", "ceer.model.v1");
    builder.addF64("scalar.heavy_threshold_us", {heavyThresholdUs});
    builder.addF64("scalar.light_median_us", {lightMedianUs});
    builder.addF64("scalar.cpu_median_us", {cpuMedianUs});

    std::vector<std::string> heavy;
    for (OpType op : heavyOps)
        heavy.push_back(graph::opTypeName(op));
    io::addStringColumn(&builder, "heavy_ops", heavy);

    // Map iteration order (sorted by key) matches save()'s line order.
    std::vector<std::string> om_gpu, om_op, om_fit;
    std::vector<std::uint8_t> om_quadratic, om_usable;
    std::vector<double> om_r2, om_median;
    std::vector<std::uint64_t> om_points;
    for (const auto &[key, entry] : opModels) {
        om_gpu.push_back(hw::gpuModelName(key.first));
        om_op.push_back(graph::opTypeName(key.second));
        om_quadratic.push_back(entry.quadratic ? 1 : 0);
        om_usable.push_back(entry.usable ? 1 : 0);
        om_r2.push_back(entry.r2);
        om_median.push_back(entry.medianUs);
        om_points.push_back(entry.points);
        om_fit.push_back(entry.model.serialize());
    }
    io::addStringColumn(&builder, "om.gpu", om_gpu);
    io::addStringColumn(&builder, "om.op", om_op);
    builder.addU8("om.quadratic", om_quadratic);
    builder.addU8("om.usable", om_usable);
    builder.addF64("om.r2", om_r2);
    builder.addF64("om.median_us", om_median);
    builder.addU64("om.points", om_points);
    io::addStringColumn(&builder, "om.fit", om_fit);

    // Only valid fits are stored, k is 1-based — same as save().
    std::vector<std::string> cf_gpu, cf_fit;
    std::vector<std::uint64_t> cf_k;
    std::vector<double> cf_r2;
    for (const auto &[gpu, per_k] : comm.fits) {
        for (std::size_t i = 0; i < per_k.size(); ++i) {
            if (!per_k[i].valid)
                continue;
            cf_gpu.push_back(hw::gpuModelName(gpu));
            cf_k.push_back(i + 1);
            cf_r2.push_back(per_k[i].r2);
            cf_fit.push_back(per_k[i].model.serialize());
        }
    }
    io::addStringColumn(&builder, "cf.gpu", cf_gpu);
    builder.addU64("cf.k", cf_k);
    builder.addF64("cf.r2", cf_r2);
    io::addStringColumn(&builder, "cf.fit", cf_fit);

    builder.write(out);
}

bool
CeerModel::tryLoadCbf(const io::CbfFile &file, CeerModel *model,
                      std::string *error)
{
    const char *schema = nullptr;
    std::size_t schema_size = 0;
    if (!file.bytes("schema", &schema, &schema_size, error))
        return false;
    const std::string schema_name(schema, schema_size);
    if (schema_name != "ceer.model.v1") {
        *error = "schema '" + schema_name +
                 "' is not ceer.model.v1 (wrong container?)";
        return false;
    }

    CeerModel parsed;
    const auto scalar = [&](const char *name, double *out) {
        const double *data = nullptr;
        std::size_t count = 0;
        if (!file.f64(name, &data, &count, error))
            return false;
        if (count != 1) {
            *error = util::format(
                "column '%s' has %zu values, expected 1", name, count);
            return false;
        }
        *out = data[0];
        return true;
    };
    if (!scalar("scalar.heavy_threshold_us", &parsed.heavyThresholdUs) ||
        !scalar("scalar.light_median_us", &parsed.lightMedianUs) ||
        !scalar("scalar.cpu_median_us", &parsed.cpuMedianUs))
        return false;

    std::vector<std::string> heavy;
    if (!io::readStringColumn(file, "heavy_ops", &heavy, error))
        return false;
    for (std::size_t i = 0; i < heavy.size(); ++i) {
        OpType op;
        if (!graph::opTypeFromName(heavy[i], op)) {
            *error = util::format("heavy_ops row %zu: bad op '%s'", i,
                                  heavy[i].c_str());
            return false;
        }
        parsed.heavyOps.insert(op);
    }

    const auto sized = [&](std::size_t count, std::size_t rows,
                           const char *name) {
        if (count == rows)
            return true;
        *error = util::format("column '%s' has %zu rows, expected %zu",
                              name, count, rows);
        return false;
    };

    std::vector<std::string> om_gpu, om_op, om_fit;
    if (!io::readStringColumn(file, "om.gpu", &om_gpu, error) ||
        !io::readStringColumn(file, "om.op", &om_op, error) ||
        !io::readStringColumn(file, "om.fit", &om_fit, error))
        return false;
    const std::size_t om_rows = om_gpu.size();
    const std::uint8_t *om_quadratic = nullptr, *om_usable = nullptr;
    const double *om_r2 = nullptr, *om_median = nullptr;
    const std::uint64_t *om_points = nullptr;
    std::size_t n = 0;
    if (!(file.u8("om.quadratic", &om_quadratic, &n, error) &&
          sized(n, om_rows, "om.quadratic")) ||
        !(file.u8("om.usable", &om_usable, &n, error) &&
          sized(n, om_rows, "om.usable")) ||
        !(file.f64("om.r2", &om_r2, &n, error) &&
          sized(n, om_rows, "om.r2")) ||
        !(file.f64("om.median_us", &om_median, &n, error) &&
          sized(n, om_rows, "om.median_us")) ||
        !(file.u64("om.points", &om_points, &n, error) &&
          sized(n, om_rows, "om.points")) ||
        !sized(om_op.size(), om_rows, "om.op") ||
        !sized(om_fit.size(), om_rows, "om.fit"))
        return false;
    for (std::size_t i = 0; i < om_rows; ++i) {
        OpTimeModel entry;
        if (!hw::gpuModelFromName(om_gpu[i], entry.gpu)) {
            *error = util::format("om row %zu: bad GPU '%s'", i,
                                  om_gpu[i].c_str());
            return false;
        }
        if (!graph::opTypeFromName(om_op[i], entry.op)) {
            *error = util::format("om row %zu: bad op '%s'", i,
                                  om_op[i].c_str());
            return false;
        }
        entry.quadratic = om_quadratic[i] != 0;
        entry.usable = om_usable[i] != 0;
        entry.r2 = om_r2[i];
        entry.medianUs = om_median[i];
        entry.points = om_points[i];
        std::string model_error;
        if (!LinearModel::tryDeserialize(om_fit[i], &entry.model,
                                         &model_error)) {
            *error = util::format("om row %zu: fit: ", i) + model_error;
            return false;
        }
        parsed.opModels.emplace(std::make_pair(entry.gpu, entry.op),
                                std::move(entry));
    }

    std::vector<std::string> cf_gpu, cf_fit;
    if (!io::readStringColumn(file, "cf.gpu", &cf_gpu, error) ||
        !io::readStringColumn(file, "cf.fit", &cf_fit, error))
        return false;
    const std::size_t cf_rows = cf_gpu.size();
    const std::uint64_t *cf_k = nullptr;
    const double *cf_r2 = nullptr;
    if (!(file.u64("cf.k", &cf_k, &n, error) &&
          sized(n, cf_rows, "cf.k")) ||
        !(file.f64("cf.r2", &cf_r2, &n, error) &&
          sized(n, cf_rows, "cf.r2")) ||
        !sized(cf_fit.size(), cf_rows, "cf.fit"))
        return false;
    for (std::size_t i = 0; i < cf_rows; ++i) {
        GpuModel gpu;
        if (!hw::gpuModelFromName(cf_gpu[i], gpu)) {
            *error = util::format("cf row %zu: bad GPU '%s'", i,
                                  cf_gpu[i].c_str());
            return false;
        }
        const std::uint64_t k = cf_k[i];
        if (k == 0 || k > 1024) {
            *error = util::format(
                "cf row %zu: bad k %llu", i,
                static_cast<unsigned long long>(k));
            return false;
        }
        auto &per_k = parsed.comm.fits[gpu];
        if (per_k.size() < k)
            per_k.resize(k);
        per_k[k - 1].r2 = cf_r2[i];
        std::string model_error;
        if (!LinearModel::tryDeserialize(cf_fit[i],
                                         &per_k[k - 1].model,
                                         &model_error)) {
            *error = util::format("cf row %zu: fit: ", i) + model_error;
            return false;
        }
        per_k[k - 1].valid = true;
    }

    *model = std::move(parsed);
    return true;
}

bool
CeerModel::tryLoadFile(const std::string &path, CeerModel *model,
                       std::string *error)
{
    return io::tryLoadSniffed(
        path,
        [model](const io::CbfFile &file, std::string *err) {
            return tryLoadCbf(file, model, err);
        },
        [model](std::istream &in, std::string *err) {
            return tryLoad(in, model, err);
        },
        error);
}

CeerModel
CeerModel::loadFile(const std::string &path)
{
    CeerModel model;
    std::string error;
    if (!tryLoadFile(path, &model, &error))
        util::fatal("CeerModel::loadFile: " + error);
    return model;
}

} // namespace core
} // namespace ceer
