#include "cloud/instances.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>

#include "io/cbf.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/parse.h"
#include "util/random.h"
#include "util/strings.h"

namespace ceer {
namespace cloud {

using hw::GpuModel;

namespace {

/** Real AWS instance names for the 1-GPU and multi-GPU offerings. */
struct FamilyOffering
{
    GpuModel gpu;
    const char *singleName;
    double singleUsd;
    const char *multiName;
    int multiGpus;
    double multiUsd;
};

constexpr FamilyOffering kAws[] = {
    {GpuModel::V100, "p3.2xlarge", 3.06, "p3.8xlarge", 4, 12.24},
    {GpuModel::K80, "p2.xlarge", 0.90, "p2.8xlarge", 8, 7.20},
    {GpuModel::T4, "g4dn.2xlarge", 0.752, "g4dn.12xlarge", 4, 3.912},
    {GpuModel::M60, "g3s.xlarge", 0.75, "g3.16xlarge", 4, 4.56},
};

} // namespace

InstanceCatalog
InstanceCatalog::awsOnDemand()
{
    InstanceCatalog catalog;
    for (const auto &family : kAws) {
        catalog.add({family.singleName, family.gpu, 1, family.singleUsd,
                     false});
        const double per_gpu =
            family.multiUsd / static_cast<double>(family.multiGpus);
        for (int k = 2; k <= 4; ++k) {
            if (k == family.multiGpus) {
                catalog.add({family.multiName, family.gpu, k,
                             family.multiUsd, false});
            } else {
                // Paper's proxy rule: use the multi-GPU instance with
                // only k GPUs active, at k/N of its rental cost.
                catalog.add({util::format("%s-%dgpu-proxy",
                                          family.multiName, k),
                             family.gpu, k, per_gpu * k, true});
            }
        }
    }
    return catalog;
}

InstanceCatalog
InstanceCatalog::marketPriced()
{
    // Per-GPU hourly prices from commodity market ratios (Sec. V).
    const std::map<GpuModel, double> per_gpu = {
        {GpuModel::V100, 3.06},
        {GpuModel::T4, 0.95},
        {GpuModel::M60, 0.55},
        {GpuModel::K80, 0.15},
    };
    InstanceCatalog catalog;
    for (const auto &family : kAws) {
        const double unit = per_gpu.at(family.gpu);
        for (int k = 1; k <= 4; ++k) {
            catalog.add({util::format("%s-market-%dgpu",
                                      hw::gpuFamilyName(family.gpu)
                                          .c_str(),
                                      k),
                         family.gpu, k, unit * k, k != 1});
        }
    }
    return catalog;
}

void
InstanceCatalog::add(GpuInstance instance)
{
    instances_.push_back(std::move(instance));
}

bool
InstanceCatalog::tryFromCsv(std::istream &in, InstanceCatalog *catalog,
                            std::string *error)
{
    InstanceCatalog parsed;
    std::vector<std::vector<std::string>> rows;
    if (!util::tryReadCsv(in, &rows, error))
        return false;
    for (std::size_t i = 1; i < rows.size(); ++i) {
        const auto &row = rows[i];
        if (row.size() < 4) {
            *error = util::format(
                "row %zu has %zu fields (need name,gpu,gpus,"
                "hourly_usd)", i, row.size());
            return false;
        }
        GpuInstance instance;
        instance.name = row[0];
        if (!hw::gpuModelFromName(row[1], instance.gpu)) {
            *error = util::format("row %zu: unknown GPU '%s'", i,
                                  row[1].c_str());
            return false;
        }
        const auto gpus = util::parseInt64(row[2]);
        if (!gpus) {
            *error = util::format("row %zu column 3 (gpus): %s: '%s'",
                                  i, gpus.error, row[2].c_str());
            return false;
        }
        instance.numGpus = static_cast<int>(gpus.value);
        const auto price = util::parseDouble(row[3]);
        if (!price) {
            *error = util::format(
                "row %zu column 4 (hourly_usd): %s: '%s'", i,
                price.error, row[3].c_str());
            return false;
        }
        instance.hourlyUsd = price.value;
        if (instance.numGpus < 1 || !(instance.hourlyUsd > 0.0) ||
            !std::isfinite(instance.hourlyUsd)) {
            *error = util::format("row %zu: bad row for '%s'", i,
                                  instance.name.c_str());
            return false;
        }
        parsed.add(std::move(instance));
    }
    *catalog = std::move(parsed);
    return true;
}

void
InstanceCatalog::saveCsv(std::ostream &out) const
{
    util::CsvWriter writer(out);
    writer.writeRow({"name", "gpu", "gpus", "hourly_usd"});
    for (const auto &instance : instances_) {
        writer.writeRow({instance.name, hw::gpuModelName(instance.gpu),
                         std::to_string(instance.numGpus),
                         util::format("%.6g", instance.hourlyUsd)});
    }
}

void
InstanceCatalog::saveCbf(std::ostream &out) const
{
    io::CbfBuilder builder;
    builder.addBytes("schema", "ceer.catalog.v1");
    std::vector<std::string> names, gpus;
    std::vector<std::int64_t> num_gpus;
    std::vector<double> prices;
    for (const auto &instance : instances_) {
        names.push_back(instance.name);
        gpus.push_back(hw::gpuModelName(instance.gpu));
        num_gpus.push_back(instance.numGpus);
        prices.push_back(instance.hourlyUsd);
    }
    io::addStringColumn(&builder, "cat.name", names);
    io::addStringColumn(&builder, "cat.gpu", gpus);
    builder.addI64("cat.gpus", num_gpus);
    builder.addF64("cat.hourly_usd", prices);
    builder.write(out);
}

bool
InstanceCatalog::tryLoadCbf(const io::CbfFile &file,
                            InstanceCatalog *catalog, std::string *error)
{
    const char *schema = nullptr;
    std::size_t schema_size = 0;
    if (!file.bytes("schema", &schema, &schema_size, error))
        return false;
    const std::string schema_name(schema, schema_size);
    if (schema_name != "ceer.catalog.v1") {
        *error = "schema '" + schema_name +
                 "' is not ceer.catalog.v1 (wrong container?)";
        return false;
    }
    std::vector<std::string> names, gpus;
    if (!io::readStringColumn(file, "cat.name", &names, error) ||
        !io::readStringColumn(file, "cat.gpu", &gpus, error))
        return false;
    const std::size_t rows = names.size();
    const std::int64_t *num_gpus = nullptr;
    const double *prices = nullptr;
    std::size_t n = 0;
    const auto sized = [&](std::size_t count, const char *name) {
        if (count == rows)
            return true;
        *error = util::format("column '%s' has %zu rows, expected %zu",
                              name, count, rows);
        return false;
    };
    if (!(file.i64("cat.gpus", &num_gpus, &n, error) &&
          sized(n, "cat.gpus")) ||
        !(file.f64("cat.hourly_usd", &prices, &n, error) &&
          sized(n, "cat.hourly_usd")) ||
        !sized(gpus.size(), "cat.gpu"))
        return false;
    InstanceCatalog parsed;
    for (std::size_t i = 0; i < rows; ++i) {
        GpuInstance instance;
        instance.name = std::move(names[i]);
        if (!hw::gpuModelFromName(gpus[i], instance.gpu)) {
            *error = util::format("row %zu: unknown GPU '%s'", i,
                                  gpus[i].c_str());
            return false;
        }
        if (num_gpus[i] < 1 || num_gpus[i] > 1 << 20) {
            *error = util::format(
                "row %zu: bad gpus %lld", i,
                static_cast<long long>(num_gpus[i]));
            return false;
        }
        instance.numGpus = static_cast<int>(num_gpus[i]);
        instance.hourlyUsd = prices[i];
        if (!(instance.hourlyUsd > 0.0) ||
            !std::isfinite(instance.hourlyUsd)) {
            *error = util::format("row %zu: bad hourly price for '%s'",
                                  i, instance.name.c_str());
            return false;
        }
        parsed.add(std::move(instance));
    }
    *catalog = std::move(parsed);
    return true;
}

bool
InstanceCatalog::tryLoadFile(const std::string &path,
                             InstanceCatalog *catalog, std::string *error)
{
    return io::tryLoadSniffed(
        path,
        [catalog](const io::CbfFile &file, std::string *err) {
            return tryLoadCbf(file, catalog, err);
        },
        [catalog](std::istream &in, std::string *err) {
            return tryFromCsv(in, catalog, err);
        },
        error);
}

InstanceCatalog
InstanceCatalog::fromFile(const std::string &path)
{
    InstanceCatalog catalog;
    std::string error;
    if (!tryLoadFile(path, &catalog, &error))
        util::fatal("InstanceCatalog::fromFile: " + error);
    return catalog;
}

InstanceCatalog
InstanceCatalog::syntheticFleet(std::size_t count, std::uint64_t seed)
{
    // Per-GPU hourly price anchors, as in marketPriced().
    const std::map<GpuModel, double> per_gpu = {
        {GpuModel::V100, 3.06},
        {GpuModel::T4, 0.95},
        {GpuModel::M60, 0.55},
        {GpuModel::K80, 0.15},
    };
    util::Rng rng(util::hashMix(seed, std::string("ceer-fleet")));
    const auto &silicons = hw::allGpuModels();
    InstanceCatalog catalog;
    for (std::size_t i = 0; i < count; ++i) {
        GpuInstance instance;
        instance.gpu = silicons[rng.uniformInt(silicons.size())];
        instance.numGpus = 1 + static_cast<int>(rng.uniformInt(8));
        const double raw = per_gpu.at(instance.gpu) *
                           instance.numGpus * rng.uniform(0.7, 1.3);
        // Canonicalize through the CSV %.6g price dialect so CSV and
        // CBF serializations of a fleet convert byte-exactly.
        instance.hourlyUsd =
            util::parseDouble(util::format("%.6g", raw)).value;
        instance.name = util::format(
            "fleet-%s-%dgpu-%06zu",
            hw::gpuFamilyName(instance.gpu).c_str(), instance.numGpus,
            i);
        catalog.add(std::move(instance));
    }
    return catalog;
}

const GpuInstance &
InstanceCatalog::find(const std::string &name) const
{
    for (const auto &instance : instances_)
        if (instance.name == name)
            return instance;
    util::fatal("InstanceCatalog: no instance named '" + name + "'");
}

const GpuInstance &
InstanceCatalog::find(hw::GpuModel gpu, int num_gpus) const
{
    for (const auto &instance : instances_)
        if (instance.gpu == gpu && instance.numGpus == num_gpus)
            return instance;
    util::fatal(util::format("InstanceCatalog: no %d-GPU %s instance",
                             num_gpus, hw::gpuModelName(gpu).c_str()));
}

std::vector<GpuInstance>
InstanceCatalog::largestPerFamilyWithin(double hourly_budget,
                                        double tolerance) const
{
    std::vector<GpuInstance> out;
    for (GpuModel gpu : hw::allGpuModels()) {
        const GpuInstance *best = nullptr;
        for (const auto &instance : instances_) {
            if (instance.gpu != gpu ||
                instance.hourlyUsd > hourly_budget + tolerance) {
                continue;
            }
            if (!best || instance.numGpus > best->numGpus)
                best = &instance;
        }
        if (best)
            out.push_back(*best);
    }
    return out;
}

} // namespace cloud
} // namespace ceer
