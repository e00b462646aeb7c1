// The `serve-child` role: a ceerd (serve::Server with default options)
// in its own process, so that the server's peak RSS, CPU time and heap
// allocations are measured apart from the load generator's.
//
// Protocol on stdin/stdout, one line each way:
//   child  -> "port <n>"                 once listening
//   parent -> "stats"  child -> "stats <cpu_s> <allocs> <hits> <misses>
//                                      <entries>"
//   parent -> "quit" (or EOF)            child stops the server, exits 0
// The control loop formats into fixed buffers so that, while counting,
// every counted allocation is the server's.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "obs/metrics.h"
#include "perfbench.h"
#include "serve/server.h"
#include "util/logging.h"

namespace perfbench {

namespace {

bool
writeLine(const char *line)
{
    const std::size_t size = std::strlen(line);
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(STDOUT_FILENO, line + done, size - done);
        if (n <= 0)
            return false;
        done += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

int
serveChildMain(int argc, char **argv)
{
    std::string model_path, catalog_path;
    bool count_allocs = false;
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--model")
            model_path = argv[i + 1];
        else if (flag == "--catalog")
            catalog_path = argv[i + 1];
        else if (flag == "--count-allocs")
            count_allocs = std::string(argv[i + 1]) == "1";
    }
    obs::setEnabled(false);
    util::setLogThreshold(LogLevel::Warn);

    std::string error;
    core::CeerModel model;
    if (!core::CeerModel::tryLoadFile(model_path, &model, &error)) {
        std::cerr << "serve-child: " << error << "\n";
        return 1;
    }
    cloud::InstanceCatalog catalog = cloud::InstanceCatalog::awsOnDemand();
    if (catalog_path != "aws" &&
        !cloud::InstanceCatalog::tryLoadFile(catalog_path, &catalog,
                                             &error)) {
        std::cerr << "serve-child: " << error << "\n";
        return 1;
    }
    serve::Server server(std::move(model), std::move(catalog));
    if (!server.tryStart(&error)) {
        std::cerr << "serve-child: " << error << "\n";
        return 1;
    }
    char line[256];
    std::snprintf(line, sizeof line, "port %d\n", server.port());
    if (!writeLine(line))
        return 1;
    setAllocCounting(count_allocs);

    char input[256];
    std::size_t used = 0;
    bool running = true;
    while (running) {
        const ssize_t n =
            ::read(STDIN_FILENO, input + used, sizeof input - 1 - used);
        if (n <= 0)
            break;
        used += static_cast<std::size_t>(n);
        char *newline;
        while (running &&
               (newline = static_cast<char *>(
                    std::memchr(input, '\n', used))) != nullptr) {
            *newline = '\0';
            if (std::strcmp(input, "stats") == 0) {
                const serve::PlanCache::Stats stats =
                    server.planCacheStats();
                std::snprintf(
                    line, sizeof line,
                    "stats %.9f %llu %llu %llu %zu\n", processCpuSeconds(),
                    static_cast<unsigned long long>(allocCount()),
                    static_cast<unsigned long long>(stats.hits),
                    static_cast<unsigned long long>(stats.misses),
                    stats.entries);
                running = writeLine(line);
            } else {
                running = false; // "quit" or anything unexpected.
            }
            const std::size_t consumed =
                static_cast<std::size_t>(newline - input) + 1;
            std::memmove(input, newline + 1, used - consumed);
            used -= consumed;
        }
        if (used == sizeof input - 1)
            break; // An overlong line: not our parent talking.
    }
    setAllocCounting(false);
    server.stop();
    return 0;
}

} // namespace perfbench
