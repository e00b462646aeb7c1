// perfbench: runs one workload of the repo benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-dir <dir>]
//
// Workloads: cold_pipeline, serve_hot, serve_fleet, serve_churn. Exit
// status 0 when every output passed the correctness gate, 1 otherwise,
// 2 on a usage error. perfbench/run.py builds this binary and forwards
// its arguments.

#include <signal.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "obs/metrics.h"
#include "perfbench.h"
#include "util/logging.h"

namespace {

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload cold_pipeline|serve_hot|"
                 "serve_fleet|serve_churn --seed N --seconds S --trace 0|1 "
                 "[--data-dir DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc > 1 && std::string(argv[1]) == "serve-child")
        return serveChildMain(argc, argv);

    Options options;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value.c_str(), &end, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value.c_str(), &end);
        else if (flag == "--trace")
            options.trace = value == "1";
        else if (flag == "--data-dir")
            options.dataDir = value;
        else
            return usage("unknown flag " + flag);
        if (end && *end)
            return usage("bad value for " + flag + ": " + value);
    }
    if (!(options.seconds > 0.0))
        return usage("--seconds must be positive");

    // Replies to a dead peer must fail the call, not kill the process;
    // library-internal observability stays off so it costs nothing.
    ::signal(SIGPIPE, SIG_IGN);
    obs::setEnabled(false);
    util::setLogThreshold(LogLevel::Warn);

    RunResult result;
    if (options.workload == "cold_pipeline")
        result = runColdPipeline(options);
    else if (options.workload == "serve_hot" ||
             options.workload == "serve_fleet" ||
             options.workload == "serve_churn")
        result = runServe(options);
    else
        return usage("unknown workload '" + options.workload + "'");
    printResult(result);
    return result.correct ? 0 : 1;
}
