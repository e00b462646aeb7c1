#include "core/ceer_model.h"

#include <algorithm>
#include <istream>
#include <ostream>

#include "core/regression.h"
#include "io/schema.h"
#include "util/logging.h"
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

namespace {

/** One heavy op type: a row of the heavy_ops table. */
struct HeavyOp
{
    OpType op = OpType::Identity;
};

/** One valid per-(GPU, k) comm fit: a row of the comm_fit table. */
struct CommRow
{
    GpuModel gpu = GpuModel::V100;
    std::uint64_t k = 1; ///< 1-based width of S_k.
    double r2 = 0.0;
    LinearModel model;
};

/** Largest width a comm fit may name. */
constexpr std::int64_t kMaxCommK = 1024;

/** A LinearModel member, stored as its %.17g serialize() text. */
template <auto M, class Row = io::ClassOf<M>>
io::Column<Row>
fitColumn(const char *name, int text)
{
    return {name, text, true, io::ColType::Str, nullptr,
            [](const Row &row, io::Value *value) {
                value->str = (row.*M).serialize();
            },
            [](Row *row, io::Value *value, std::string *why) {
                return LinearModel::tryDeserialize(value->str,
                                                   &(row->*M), why);
            }};
}

/**
 * The model's tables. CBF stores them as column groups; the text
 * dialect is sectioned "tag field..." lines, which do not fit one
 * column table (each scalar has its own line, and heavy_ops puts all
 * its rows on one line), so save()/tryLoad() keep their own line
 * loop and run every field through these columns.
 */
struct ModelSchema
{
    io::Table<CeerModel, CeerModel> scalars{
        nullptr, "scalar.",
        {io::field<&CeerModel::heavyThresholdUs>("heavy_threshold_us", 1,
                                                 "%.17g"),
         io::field<&CeerModel::lightMedianUs>("light_median_us", 1,
                                              "%.17g"),
         io::field<&CeerModel::cpuMedianUs>("cpu_median_us", 1, "%.17g")},
        [](const CeerModel &model, const auto &emit) { emit(model); },
        [](CeerModel *model, CeerModel &&row, io::Dialect, std::string *) {
            model->heavyThresholdUs = row.heavyThresholdUs;
            model->lightMedianUs = row.lightMedianUs;
            model->cpuMedianUs = row.cpuMedianUs;
            return true;
        },
        /*single=*/true};
    io::Table<CeerModel, HeavyOp> heavyOps{
        "heavy_ops", "",
        {io::opColumn<&HeavyOp::op>("heavy_ops", 1)},
        [](const CeerModel &model, const auto &emit) {
            for (OpType op : model.heavyOps)
                emit(HeavyOp{op});
        },
        [](CeerModel *model, HeavyOp &&row, io::Dialect, std::string *) {
            model->heavyOps.insert(row.op);
            return true;
        }};
    io::Table<CeerModel, OpTimeModel> opModels{
        "op_model", "om.",
        {io::gpuColumn<&OpTimeModel::gpu>("gpu", 1),
         io::opColumn<&OpTimeModel::op>("op", 2),
         io::field<&OpTimeModel::quadratic>("quadratic", 3, "0|1"),
         io::field<&OpTimeModel::usable>("usable", 4, "0|1"),
         io::field<&OpTimeModel::r2>("r2", 5, "%.17g"),
         io::field<&OpTimeModel::medianUs>("median_us", 6, "%.17g"),
         io::field<&OpTimeModel::points>("points", 7),
         fitColumn<&OpTimeModel::model>("fit", 8)},
        // Map order (sorted by key) is the file order.
        [](const CeerModel &model, const auto &emit) {
            for (const auto &[key, entry] : model.opModels)
                emit(entry);
        },
        [](CeerModel *model, OpTimeModel &&row, io::Dialect,
           std::string *) {
            model->opModels.emplace(std::make_pair(row.gpu, row.op),
                                    std::move(row));
            return true;
        }};
    io::Table<CeerModel, CommRow> commFits{
        "comm_fit", "cf.",
        {io::gpuColumn<&CommRow::gpu>("gpu", 1),
         io::ranged<&CommRow::k, 1, kMaxCommK>("k", 2),
         io::field<&CommRow::r2>("r2", 3, "%.17g"),
         fitColumn<&CommRow::model>("fit", 4)},
        // Only valid fits are stored.
        [](const CeerModel &model, const auto &emit) {
            for (const auto &[gpu, per_k] : model.comm.fits) {
                for (std::size_t i = 0; i < per_k.size(); ++i) {
                    if (per_k[i].valid)
                        emit(CommRow{gpu, i + 1, per_k[i].r2,
                                     per_k[i].model});
                }
            }
        },
        [](CeerModel *model, CommRow &&row, io::Dialect, std::string *) {
            auto &per_k = model->comm.fits[row.gpu];
            if (per_k.size() < row.k)
                per_k.resize(row.k);
            per_k[row.k - 1] = {std::move(row.model), row.r2, true};
            return true;
        }};
    io::FileSchema<CeerModel> file{
        "ceer.model.v1", {}, {&scalars, &heavyOps, &opModels, &commFits}};
};

const ModelSchema &
modelSchema()
{
    static const ModelSchema schema;
    return schema;
}

} // namespace

void
CeerModel::save(std::ostream &out) const
{
    const ModelSchema &schema = modelSchema();
    out << "ceer_model v1\n";
    for (const auto &column : schema.scalars.columns)
        out << column.name << ' ' << io::encodeField(column, *this)
            << '\n';
    out << schema.heavyOps.tag;
    for (OpType op : heavyOps)
        out << ' ' << io::encodeField(schema.heavyOps.columns[0],
                                      HeavyOp{op});
    out << '\n';
    const auto line = [&out](const std::vector<std::string> &fields) {
        out << util::join(fields, " ") << '\n';
    };
    schema.opModels.writeText(*this, 0, line);
    schema.commFits.writeText(*this, 0, line);
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
    const ModelSchema &schema = modelSchema();
    CeerModel parsed;
    std::string line;
    std::size_t line_no = 1;
    if (!std::getline(in, line) ||
        !util::startsWith(line, "ceer_model")) {
        *error = "missing header";
        return false;
    }
    std::string why;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        const auto fields = util::split(line, ' ');
        const std::string &tag = fields[0];
        using Base = io::TableBase<CeerModel>;
        const Base *table =
            tag == schema.opModels.tag    ? static_cast<const Base *>(
                                                &schema.opModels)
            : tag == schema.commFits.tag ? &schema.commFits
                                         : nullptr;
        if (table) {
            if (!table->readText(fields, "line", line_no, &parsed, error))
                return false;
            continue;
        }
        if (tag == schema.heavyOps.tag) {
            for (std::size_t i = 1; i < fields.size(); ++i) {
                HeavyOp row;
                if (!io::decodeField(schema.heavyOps.columns[0],
                                     fields[i], i, "line", line_no, &row,
                                     error))
                    return false;
                schema.heavyOps.finish(&parsed, std::move(row),
                                       io::Dialect::Text, &why);
            }
            continue;
        }
        const auto &scalars = schema.scalars.columns;
        const auto scalar =
            std::find_if(scalars.begin(), scalars.end(),
                         [&](const auto &column) {
                             return tag == column.name;
                         });
        if (scalar == scalars.end()) {
            *error = util::format("line %zu: unknown tag '%s'", line_no,
                                  tag.c_str());
            return false;
        }
        if (fields.size() < 2) {
            *error = util::format("line %zu: truncated row (1 of 2 "
                                  "fields)",
                                  line_no);
            return false;
        }
        if (!io::decodeField(*scalar, fields[1], 1, "line", line_no,
                             &parsed, error))
            return false;
    }
    *model = std::move(parsed);
    return true;
}

void
CeerModel::saveCbf(std::ostream &out) const
{
    modelSchema().file.saveCbf(*this, out);
}

bool
CeerModel::tryLoadCbf(const io::CbfFile &file, CeerModel *model,
                      std::string *error)
{
    return modelSchema().file.tryLoadCbf(file, model, error);
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
