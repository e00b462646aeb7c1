/**
 * @file
 * Figure 5: CDF of the normalized standard deviation (stddev / mean)
 * of compute times across {heavy GPU op, input size} instances, one
 * CDF per GPU model.
 *
 * Paper claim checked: ~95% of instances have normalized stddev below
 * 0.1 on every GPU model; light/CPU ops (excluded from the CDF, as in
 * the paper) are far noisier.
 */

#include "bench/common.h"

#include "util/stats.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;
    using hw::GpuModel;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(
        std::cout,
        "Figure 5: CDF of normalized stddev of heavy-op compute times");
    const profile::ProfileDataset dataset =
        bench::collectTrainingProfiles(config, /*multiGpu=*/false);

    // Heavy classification by mean time on P2, as in the paper.
    std::set<graph::OpType> heavy;
    for (graph::OpType op : dataset.opTypes(GpuModel::K80)) {
        if (graph::opTypeInfo(op).device == graph::Device::Gpu &&
            dataset.meanTimeUs(GpuModel::K80, op) >= 500.0) {
            heavy.insert(op);
        }
    }

    // The paper's Fig. 5 additionally "omit[s] operations that have
    // negligible compute times": apply the same 0.5ms-on-P2 criterion
    // at instance granularity, matching instances across GPUs by their
    // (model, op, input sizes) identity.
    auto instance_key = [](const profile::OpProfile &profile) {
        std::string key =
            profile.model + "|" + graph::opTypeName(profile.op);
        for (double f : profile.features) {
            key += '|';
            key += util::format("%.0f", f);
        }
        return key;
    };
    std::set<std::string> significant;
    for (const auto *profile : dataset.opsFor(GpuModel::K80)) {
        if (!profile->onCpu && profile->timeUs.mean() >= 500.0)
            significant.insert(instance_key(*profile));
    }

    bench::CheckSummary summary;
    util::TablePrinter table({"GPU", "instances", "p50", "p90", "p95",
                              "p99", "frac < 0.1"});
    for (GpuModel gpu : hw::allGpuModels()) {
        std::vector<double> normalized;
        double light_sum = 0.0;
        std::size_t light_count = 0;
        for (const auto *profile : dataset.opsFor(gpu)) {
            if (profile->onCpu)
                continue;
            if (heavy.count(profile->op)) {
                if (significant.count(instance_key(*profile))) {
                    normalized.push_back(
                        profile->timeUs.normalizedStddev());
                }
            } else {
                light_sum += profile->timeUs.normalizedStddev();
                ++light_count;
            }
        }
        const double below =
            static_cast<double>(std::count_if(
                normalized.begin(), normalized.end(),
                [](double v) { return v < 0.1; })) /
            static_cast<double>(normalized.size());
        table.addRow({hw::gpuModelName(gpu),
                      std::to_string(normalized.size()),
                      util::format("%.3f",
                                   util::percentile(normalized, 50)),
                      util::format("%.3f",
                                   util::percentile(normalized, 90)),
                      util::format("%.3f",
                                   util::percentile(normalized, 95)),
                      util::format("%.3f",
                                   util::percentile(normalized, 99)),
                      util::format("%.3f", below)});
        summary.check("fraction of heavy instances with CV < 0.1 on " +
                          hw::gpuModelName(gpu) + " (paper ~0.95)",
                      below, 0.88, 1.0);
        if (light_count) {
            summary.check(
                "light ops noisier than heavy on " +
                    hw::gpuModelName(gpu),
                (light_sum / static_cast<double>(light_count)) /
                    util::percentile(normalized, 50),
                2.0, 1e9);
        }
    }
    table.print(std::cout);

    // Print one CDF (K80) as the figure's series.
    std::vector<double> k80;
    for (const auto *profile : dataset.opsFor(GpuModel::K80)) {
        if (!profile->onCpu && heavy.count(profile->op) &&
            significant.count(instance_key(*profile))) {
            k80.push_back(profile->timeUs.normalizedStddev());
        }
    }
    std::cout << "\nK80 CDF series (normalized stddev, cumulative "
                 "fraction):\n";
    for (const auto &point : util::empiricalCdf(k80, 20)) {
        std::cout << util::format("  %.4f  %.3f\n", point.value,
                                  point.cumulative);
    }
    return summary.finish();
}
