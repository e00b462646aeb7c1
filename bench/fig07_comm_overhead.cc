/**
 * @file
 * Figure 7: per-iteration communication overhead of data parallelism
 * at 2 GPUs vs the CNN's trainable-parameter count, for each GPU
 * model, with Ceer's linear fits.
 *
 * Each marker is one training-set CNN; the overhead is obtained by the
 * paper's subtraction method (mean multi-GPU iteration time minus mean
 * 1-GPU iteration time at equal per-GPU batch). Paper claims checked:
 * the relationship is close to linear (regression R^2 0.88-0.98) and
 * the same holds at 3 and 4 GPUs.
 */

#include "bench/common.h"

#include <map>

#include "core/trainer.h"
#include "util/strings.h"

int
main(int argc, char **argv)
{
    using namespace ceer;
    using hw::GpuModel;

    const bench::BenchConfig config = bench::parseBenchFlags(argc, argv);
    util::printBanner(std::cout,
                      "Figure 7: comm overhead vs model parameters "
                      "(k = 2), per GPU model");
    const bench::TrainedCeer trained =
        bench::trainOnPaperTrainingSet(config);

    // Reassemble the subtraction-method data points per GPU.
    struct Point
    {
        double params = 0.0;
        double iter1 = 0.0;
        double iter2 = 0.0;
    };
    std::map<GpuModel, std::map<std::string, Point>> points;
    for (const auto &run : trained.dataset.iterations()) {
        Point &point = points[run.gpu][run.model];
        point.params = static_cast<double>(run.paramCount);
        if (run.numGpus == 1)
            point.iter1 = run.meanIterationUs;
        if (run.numGpus == 2)
            point.iter2 = run.meanIterationUs;
    }

    bench::CheckSummary summary;
    for (GpuModel gpu : hw::allGpuModels()) {
        std::cout << "\n" << hw::gpuModelName(gpu) << " ("
                  << hw::gpuFamilyName(gpu) << "):\n";
        util::TablePrinter table({"CNN", "params (M)",
                                  "overhead (ms)", "fit (ms)"});
        const auto &fits = trained.model.comm.fits.at(gpu);
        const auto &fit2 = fits.at(1); // D_2 fit.
        for (const auto &[name, point] : points.at(gpu)) {
            const double overhead_ms =
                (point.iter2 - point.iter1) / 1e3;
            const double fitted_ms =
                fit2.model.predict(std::vector<double>{point.params}) / 1e3;
            table.addRow({name,
                          util::format("%.1f", point.params / 1e6),
                          util::format("%.1f", overhead_ms),
                          util::format("%.1f", fitted_ms)});
        }
        table.print(std::cout);
        std::cout << "linear fit R^2 = "
                  << util::format("%.3f", fit2.r2) << "\n";
        summary.check("comm fit R^2 (k=2) on " + hw::gpuModelName(gpu) +
                          " (paper band 0.88-0.98+)",
                      fit2.r2, 0.88, 1.0);
        for (int k = 3; k <= 4; ++k) {
            summary.check(util::format("comm fit R^2 (k=%d) on ", k) +
                              hw::gpuModelName(gpu),
                          fits.at(static_cast<std::size_t>(k) - 1).r2,
                          0.85, 1.0);
        }
        // Linear trend: overhead at 140M params well above 10M params.
        const double lo = fit2.model.predict(std::vector<double>{10e6});
        const double hi = fit2.model.predict(std::vector<double>{140e6});
        summary.check("overhead grows with params on " +
                          hw::gpuModelName(gpu),
                      hi > 3.0 * lo ? 1.0 : 0.0, 1.0, 1.0);
    }
    return summary.finish();
}
