#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <thread>

#include "perfbench.h"

namespace perfbench {

void
RunResult::fail(const std::string &why)
{
    correct = false;
    ++failed;
    std::cout << "FAIL: " << why << "\n";
}

void
printResult(const RunResult &result)
{
    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    char number[64];
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &metric = result.metrics[i];
        // JSON has no NaN/inf: a non-finite value is a benchmark bug.
        std::snprintf(number, sizeof number, "%.17g",
                      std::isfinite(metric.value) ? metric.value : -1.0);
        json += (i ? ", \"" : "\"") + metric.name +
                "\": {\"value\": " + number + ", \"unit\": \"" +
                metric.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const std::size_t mid = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + mid, values.end());
    if (values.size() % 2)
        return values[mid];
    const double upper = values[mid];
    return (upper + *std::max_element(values.begin(),
                                      values.begin() + mid)) /
           2.0;
}

std::size_t
samplesForQuantile(double q)
{
    // n * (1 - q) >= kTailSamples, robust to 1 - q being inexact.
    return static_cast<std::size_t>(
        std::ceil(static_cast<double>(kTailSamples) / (1.0 - q) - 1e-9));
}

std::optional<double>
publishedQuantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty() || sorted.size() < samplesForQuantile(q))
        return std::nullopt;
    // Nearest rank: the smallest sample with at least q of the
    // sample at or below it.
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

namespace {

/** Busy time before the probe; see warmAndProbeHost(). */
constexpr double kHostWarmSeconds = 1.5;

/** A fixed amount of register-only integer work. */
std::uint64_t
spin(std::uint64_t rounds)
{
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint64_t i = 0; i < rounds; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/** Wall seconds for @p threads threads each spinning @p rounds. */
double
timedSpin(int threads, std::uint64_t rounds)
{
    std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    const double start = nowSeconds();
    for (int t = 0; t < threads; ++t)
        workers.emplace_back(
            [&sinks, t, rounds] { sinks[t] = spin(rounds); });
    for (std::thread &worker : workers)
        worker.join();
    const double elapsed = nowSeconds() - start;
    volatile std::uint64_t keep = 0;
    for (std::uint64_t s : sinks)
        keep = keep + s;
    return elapsed;
}

/** Median of three timed spins. */
double
spinSeconds(int threads, std::uint64_t rounds)
{
    return median({timedSpin(threads, rounds), timedSpin(threads, rounds),
                   timedSpin(threads, rounds)});
}

/** Keeps @p threads threads spinning for @p seconds. */
void
warmHost(int threads, double seconds)
{
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t)
        workers.emplace_back([&stop] {
            volatile std::uint64_t sink = 0;
            while (!stop.load(std::memory_order_relaxed))
                sink = sink + spin(1 << 14);
        });
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread &worker : workers)
        worker.join();
}

} // namespace

HostProbe
warmAndProbeHost(int threads)
{
    warmHost(threads, kHostWarmSeconds);
    // Calibrate to ~25 ms of single-thread work.
    std::uint64_t rounds = 1 << 20;
    while (timedSpin(1, rounds) < 0.025 && rounds < (1ull << 36))
        rounds *= 2;
    HostProbe probe;
    const double t1 = spinSeconds(1, rounds);
    probe.scaling2 = 2.0 * t1 / spinSeconds(2, rounds);
    probe.scalingN = threads * t1 / spinSeconds(threads, rounds);
    std::cout << "host: " << threads << " threads, spin scaling "
              << probe.scaling2 << "x at 2, " << probe.scalingN << "x at "
              << threads << "\n";
    return probe;
}

} // namespace perfbench
