#include "cloud/instances.h"

#include <algorithm>
#include <map>
#include <ostream>

#include "io/schema.h"
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

const io::FileSchema<InstanceCatalog> &
InstanceCatalog::schema()
{
    using I = GpuInstance;
    static const auto instances =
        io::Table<InstanceCatalog, I>::of<&InstanceCatalog::instances_>(
            nullptr, "cat.",
            {io::field<&I::name>("name", 0),
             io::gpuColumn<&I::gpu>("gpu", 1),
             io::ranged<&I::numGpus, 1, hw::kMaxGpus>("gpus", 2),
             io::positive<&I::hourlyUsd>("hourly_usd", 3, "%.6g")});
    static const io::FileSchema<InstanceCatalog> schema(
        "ceer.catalog.v1", {"name", "gpu", "gpus", "hourly_usd"},
        {&instances});
    return schema;
}

void
InstanceCatalog::saveCsv(std::ostream &out) const
{
    schema().saveCsv(*this, out);
}

void
InstanceCatalog::saveCbf(std::ostream &out) const
{
    schema().saveCbf(*this, out);
}

bool
InstanceCatalog::tryLoadCbf(const io::CbfFile &file,
                            InstanceCatalog *catalog, std::string *error)
{
    return schema().tryLoadCbf(file, catalog, error);
}

bool
InstanceCatalog::tryLoadFile(const std::string &path,
                             InstanceCatalog *catalog, std::string *error)
{
    return schema().tryLoadFile(path, catalog, error);
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
