/**
 * @file
 * Quickstart: build a CNN from the zoo, simulate training on each AWS
 * GPU model, and print per-iteration timings and data-parallel scaling.
 *
 * Usage:
 *   quickstart [--model inception_v1] [--batch 32] [--iters 40]
 */

#include <cstdio>
#include <iostream>

#include <fstream>

#include "models/model_zoo.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/logging.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

int
main(int argc, char **argv)
{
    using namespace ceer;

    util::Flags flags;
    flags.defineString("model", "inception_v1", "zoo model to simulate");
    flags.defineInt("batch", 32, "per-GPU batch size");
    flags.defineInt("iters", 40, "iterations to simulate per point");
    flags.defineString("trace", "",
                       "write a chrome://tracing timeline of one "
                       "V100 iteration to this file");
    flags.parse(argc, argv);

    const std::string model_name = flags.getString("model");
    const std::int64_t batch = flags.getInt("batch");
    const int iters = flags.getIntAs<int>("iters");

    const graph::Graph g = models::buildModel(model_name, batch);
    std::cout << "model: " << g.name() << "\n"
              << "  ops: " << g.size() << " (" << g.gpuOpCount()
              << " GPU, " << g.cpuOpCount() << " CPU)\n"
              << "  trainable parameters: "
              << util::format("%.1fM",
                              static_cast<double>(g.totalParameters()) /
                                  1e6)
              << "\n\n";

    util::TablePrinter table({"GPU (family)", "1 GPU", "2 GPUs",
                              "3 GPUs", "4 GPUs", "comm@4 (%)"});
    for (hw::GpuModel gpu : hw::allGpuModels()) {
        std::vector<std::string> row{hw::gpuModelName(gpu) + " (" +
                                     hw::gpuFamilyName(gpu) + ")"};
        double comm_fraction = 0.0;
        for (int k = 1; k <= 4; ++k) {
            sim::SimConfig config;
            config.gpu = gpu;
            config.numGpus = k;
            sim::TrainingSimulator simulator(g, config);
            const sim::RunStats stats = simulator.run(iters);
            row.push_back(util::humanMicros(stats.iterationUs.mean()));
            if (k == 4) {
                comm_fraction = 100.0 * stats.commUs.mean() /
                                stats.iterationUs.mean();
            }
        }
        row.push_back(util::format("%.1f", comm_fraction));
        table.addRow(row);
    }
    std::cout << "per-iteration training time (batch " << batch
              << "/GPU, data parallelism):\n";
    table.print(std::cout);

    const std::string trace_path = flags.getString("trace");
    if (!trace_path.empty()) {
        sim::SimConfig config;
        const sim::IterationTrace trace =
            sim::traceIteration(g, config);
        std::ofstream out(trace_path);
        if (!out)
            util::fatal("cannot open " + trace_path);
        trace.writeChromeTrace(out);
        std::cout << "\nwrote " << trace.events().size()
                  << "-event timeline to " << trace_path
                  << " (open in chrome://tracing)\n";
    }
    return 0;
}
