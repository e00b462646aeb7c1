// serve_hot / serve_fleet / serve_churn: a ceerd with default options
// (1 reactor, inline execution, 256-entry plan cache) in a child
// process, driven by kConnections closed-loop connections from this
// process.
//
// The closed loop is the benchmark's own rather than serve::runLoadgen:
// runLoadgen starts every connection at mix entry 0, so on the churn
// stream both connections would ask for the same key at the same time
// and the second would ride on the first one's compile. Here each
// connection starts at its own offset of the request list.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/recommender.h"
#include "io/cbf.h"
#include "perfbench.h"
#include "serve/net.h"
#include "spans.h"
#include "util/strings.h"

extern char **environ;

namespace perfbench {

namespace {

constexpr int kConnections = 2;
constexpr int kSetupReps = 5;
constexpr double kServeTailQ = 0.99;
constexpr std::size_t kChurnChecks = 32;
constexpr int kReplyTimeoutMs = 30000;
/** Warm-up stops early at this many churn requests even if the plan
 *  cache has not reported every slot full. */
constexpr std::size_t kChurnWarmupCap = 16384;
/** Slices of a timed window; its figures are medians over them. */
constexpr int kSlices = 10;
/** Sequential client passes of the traced run (spans off, then on). */
constexpr int kClientRounds = 10;

/**
 * Sends @p frame on @p fd and reads one reply frame into @p payload.
 * True only for a checksummed Response frame: typed errors (the
 * server closes the connection after one), `overloaded` and transport
 * failures all count as failed operations.
 */
bool
exchange(int fd, const std::string &frame, std::string *payload)
{
    std::string error;
    char header_buf[serve::kFrameHeaderBytes];
    serve::FrameHeader header;
    if (!serve::sendAll(fd, frame.data(), frame.size(), &error) ||
        !serve::recvAll(fd, header_buf, sizeof header_buf, &error) ||
        !serve::decodeFrameHeader(header_buf, &header, &error))
        return false;
    payload->resize(header.payloadBytes);
    if (header.payloadBytes > 0 &&
        !serve::recvAll(fd, &(*payload)[0], header.payloadBytes, &error))
        return false;
    return header.type == serve::FrameType::Response &&
           io::xxhash64(payload->data(), payload->size()) ==
               header.checksum;
}

int
openConnection(int port)
{
    std::string error;
    const int fd = serve::connectTcp("127.0.0.1", port, &error);
    if (fd >= 0 && !serve::setRecvTimeoutMs(fd, kReplyTimeoutMs, &error)) {
        serve::closeFd(fd);
        return -1;
    }
    return fd;
}

/** One reply of the timed window. */
struct Completion
{
    double atS = 0.0; ///< Seconds from the window's start.
    double latencyUs = 0.0;
};

/** Counters of one closed-loop phase. */
struct LoadResult
{
    std::int64_t sent = 0;
    std::int64_t ok = 0;
    std::int64_t failed = 0; ///< Overloaded, typed errors, transport.
    std::vector<Completion> completions;
};

/** Plan-cache and process counters the server child reports. */
struct ServerStats
{
    double cpuS = 0.0;
    std::uint64_t allocs = 0, hits = 0, misses = 0, entries = 0;
};

/** A server child process (see server_child.cc for the protocol). */
class ServerProcess
{
  public:
    ServerProcess() = default;
    ~ServerProcess() { stop(nullptr); }
    ServerProcess(const ServerProcess &) = delete;
    ServerProcess &operator=(const ServerProcess &) = delete;

    bool start(const std::vector<std::string> &args, std::string *error)
    {
        int to_child[2], from_child[2];
        if (pipe2(to_child, O_CLOEXEC) != 0) {
            *error = "pipe failed";
            return false;
        }
        if (pipe2(from_child, O_CLOEXEC) != 0) {
            ::close(to_child[0]);
            ::close(to_child[1]);
            *error = "pipe failed";
            return false;
        }
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
        posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
        std::vector<char *> argv;
        for (const std::string &arg : args)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);
        const int rc = posix_spawn(&pid_, args[0].c_str(), &actions,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        ::close(to_child[0]);
        ::close(from_child[1]);
        toChild_ = to_child[1];
        fromChild_ = from_child[0];
        if (rc != 0) {
            pid_ = -1;
            *error = std::string("posix_spawn: ") + std::strerror(rc);
            return false;
        }
        std::string line;
        if (!readLine(&line) ||
            std::sscanf(line.c_str(), "port %d", &port_) != 1) {
            *error = "server child did not report a port";
            return false;
        }
        return true;
    }

    int port() const { return port_; }

    bool stats(ServerStats *out)
    {
        std::string line;
        if (!writeAll("stats\n") || !readLine(&line))
            return false;
        std::istringstream in(line);
        std::string tag;
        in >> tag >> out->cpuS >> out->allocs >> out->hits >>
            out->misses >> out->entries;
        return tag == "stats" && static_cast<bool>(in);
    }

    /** Stops the child and reaps it; @p peak_rss_mib gets its peak RSS. */
    bool stop(double *peak_rss_mib)
    {
        if (pid_ < 0)
            return false;
        writeAll("quit\n");
        ::close(toChild_);
        ::close(fromChild_);
        int status = 0;
        rusage usage{};
        pid_t done = 0;
        for (int waited = 0; waited < 2000 && done == 0; ++waited) {
            done = wait4(pid_, &status, WNOHANG, &usage);
            if (done == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (done == 0) {
            ::kill(pid_, SIGKILL);
            done = wait4(pid_, &status, 0, &usage);
        }
        pid_ = -1;
        if (peak_rss_mib)
            *peak_rss_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
        return done > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    bool writeAll(const char *text)
    {
        const std::size_t size = std::strlen(text);
        for (std::size_t done = 0; done < size;) {
            const ssize_t n = ::write(toChild_, text + done, size - done);
            if (n <= 0)
                return false;
            done += static_cast<std::size_t>(n);
        }
        return true;
    }

    bool readLine(std::string *line)
    {
        for (;;) {
            const std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                *line = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return true;
            }
            pollfd p{fromChild_, POLLIN, 0};
            if (::poll(&p, 1, 60000) <= 0)
                return false;
            char chunk[256];
            const ssize_t n = ::read(fromChild_, chunk, sizeof chunk);
            if (n <= 0)
                return false;
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    pid_t pid_ = -1;
    int toChild_ = -1;
    int fromChild_ = -1;
    int port_ = 0;
    std::string buffer_;
};

/**
 * Closed loop: one thread per entry of @p starts, each replaying
 * @p frames in order from its start offset and sending its next
 * request only after the previous reply, for @p seconds. The calling
 * thread runs @p tick(k) at the end of each of the kSlices equal
 * slices of the window.
 */
LoadResult
closedLoop(int port, const std::vector<std::string> &frames,
           const std::vector<std::size_t> &starts, double seconds,
           const std::function<void(int)> &tick)
{
    std::vector<LoadResult> perThread(starts.size());
    const double start = nowSeconds();
    const double deadline = start + seconds;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < starts.size(); ++t) {
        threads.emplace_back([&, t] {
            LoadResult &mine = perThread[t];
            mine.completions.reserve(1 << 20);
            std::string payload;
            int fd = -1;
            for (std::size_t i = starts[t]; nowSeconds() < deadline; ++i) {
                if (fd < 0 && (fd = openConnection(port)) < 0) {
                    ++mine.failed;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(10));
                    continue;
                }
                ++mine.sent;
                const double sentAt = nowSeconds();
                const bool ok =
                    exchange(fd, frames[i % frames.size()], &payload);
                const double doneAt = nowSeconds();
                if (ok) {
                    mine.completions.push_back(
                        {doneAt - start, (doneAt - sentAt) * 1e6});
                    ++mine.ok;
                } else {
                    ++mine.failed;
                    serve::closeFd(fd);
                    fd = -1;
                }
            }
            serve::closeFd(fd);
        });
    }
    for (int k = 1; k <= kSlices; ++k) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            start + seconds * k / kSlices - nowSeconds()));
        tick(k);
    }
    for (std::thread &thread : threads)
        thread.join();
    LoadResult merged;
    for (LoadResult &part : perThread) {
        merged.sent += part.sent;
        merged.ok += part.ok;
        merged.failed += part.failed;
        merged.completions.insert(merged.completions.end(),
                                  part.completions.begin(),
                                  part.completions.end());
    }
    return merged;
}

/**
 * End-to-end figures of a timed window, each the median over its
 * kSlices slices. A host that slows down for less than half the
 * window then does not move them. @p cpu_at holds the server's CPU
 * seconds at the window's start and at the end of every slice.
 */
struct WindowFigures
{
    double throughputRps = 0.0;
    double p50Us = 0.0;
    double tailUs = -1.0; ///< -1 when no slice can publish it.
    double cpuPerOpUs = 0.0;
};

WindowFigures
sliceFigures(const LoadResult &load, double seconds,
             const std::vector<double> &cpu_at)
{
    const double slice = seconds / kSlices;
    std::vector<std::vector<double>> latencies(kSlices);
    for (const Completion &c : load.completions)
        latencies[std::min(kSlices - 1, static_cast<int>(c.atS / slice))]
            .push_back(c.latencyUs);
    std::vector<double> rates, p50s, tails, cpus;
    for (int k = 0; k < kSlices; ++k) {
        std::vector<double> &sample = latencies[k];
        std::sort(sample.begin(), sample.end());
        const double replies = static_cast<double>(sample.size());
        rates.push_back(replies / slice);
        if (replies == 0)
            continue;
        if (const auto p50 = publishedQuantile(sample, 0.5))
            p50s.push_back(*p50);
        if (const auto tail = publishedQuantile(sample, kServeTailQ))
            tails.push_back(*tail);
        cpus.push_back((cpu_at[k + 1] - cpu_at[k]) / replies * 1e6);
    }
    WindowFigures figures;
    figures.throughputRps = median(rates);
    figures.p50Us = median(p50s);
    if (!tails.empty())
        figures.tailUs = median(tails);
    figures.cpuPerOpUs = median(cpus);
    return figures;
}

/**
 * Warm-up on one connection. The zoo mixes send every entry once,
 * which compiles every plan. The churn stream is replayed from its
 * start until the plan cache reports every slot full. Returns the
 * number of stream entries sent.
 */
std::size_t
warmUp(ServerProcess &server, const std::vector<std::string> &frames,
       bool churn, RunResult *result)
{
    const int fd = openConnection(server.port());
    std::string payload;
    std::size_t sent = 0;
    for (; fd >= 0 && sent < frames.size(); ++sent) {
        if (churn && sent % 64 == 0) {
            ServerStats stats;
            if (!server.stats(&stats) ||
                stats.entries >= kPlanCacheCapacity ||
                sent >= kChurnWarmupCap)
                break;
        }
        ++result->attempted;
        if (!exchange(fd, frames[sent], &payload)) {
            ++result->failed;
            break;
        }
    }
    serve::closeFd(fd);
    if (fd < 0)
        ++result->failed;
    return sent;
}

/** Correctness gate: replies byte-equal to in-process recommend(). */
void
verifyReplies(int port, const std::vector<serve::RecommendRequest> &requests,
              const std::vector<std::string> &frames,
              const std::vector<std::size_t> &checks,
              const core::CeerPredictor &predictor,
              const cloud::InstanceCatalog &catalog, RunResult *result)
{
    int fd = openConnection(port);
    std::string payload;
    for (std::size_t index : checks) {
        ++result->attempted;
        if (fd < 0 || !exchange(fd, frames[index], &payload)) {
            result->fail("no reply for " + requestKey(requests[index]));
            serve::closeFd(fd);
            fd = openConnection(port);
            continue;
        }
        if (payload !=
            expectedReply(predictor, catalog.instances(), requests[index]))
            result->fail("reply for " + requestKey(requests[index]) + " " +
                         requests[index].objective +
                         " differs from in-process recommend()");
    }
    serve::closeFd(fd);
}

/**
 * Sequential client passes over @p checks, alternating spans off and
 * on. Returns the median latencies of each mode.
 */
bool
clientPasses(int port, const std::vector<std::string> &frames,
             const std::vector<std::size_t> &checks, double *off_us,
             double *on_us)
{
    const int fd = openConnection(port);
    if (fd < 0)
        return false;
    std::string payload;
    std::vector<double> off, on;
    bool ok = true;
    for (int round = 0; round <= 2 * kClientRounds && ok; ++round) {
        // Round 0 only warms (a churn key may have been evicted).
        const bool traced = round > 0 && round % 2 == 0;
        SpanRecorder::instance().setEnabled(traced);
        for (std::size_t index : checks) {
            const auto t0 = std::chrono::steady_clock::now();
            bool replied;
            {
                Scope span("client.request",
                           static_cast<std::int64_t>(index));
                replied = exchange(fd, frames[index], &payload);
            }
            const double us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
            ok = ok && replied;
            if (round > 0)
                (traced ? on : off).push_back(us);
        }
    }
    SpanRecorder::instance().setEnabled(false);
    serve::closeFd(fd);
    *off_us = median(off);
    *on_us = median(on);
    return ok;
}

} // namespace

RunResult
runServe(const Options &options)
{
    RunResult result;
    const bool fleet = options.workload == "serve_fleet";
    const bool churn = options.workload == "serve_churn";
    const int threads = hostThreads();
    SpanRecorder &recorder = SpanRecorder::instance();
    LayerReport layers;
    layers.host = warmAndProbeHost(threads);

    // Input preparation (outside setup_s): train the served model with
    // the cold pipeline and write the model and fleet files.
    const std::string dir = seedDir(options);
    const std::string modelPath = dir + "/model.cbf";
    const std::string fleetPath = dir + "/fleet.cbf";
    recorder.setEnabled(options.trace);
    const PipelineRun trained = runPipeline(options.seed, threads, 0);
    recorder.setEnabled(false);
    std::string error;
    core::CeerModel served;
    if (!saveModel(trained.model, modelPath) ||
        ((fleet || options.trace) && !saveFleet(options.seed, fleetPath)) ||
        !core::CeerModel::tryLoadFile(modelPath, &served, &error)) {
        result.fail("writing the input files failed " + error);
        return result;
    }
    const core::CeerPredictor predictor(served);
    const cloud::InstanceCatalog catalog =
        fleet ? fleetCatalog(options.seed)
              : cloud::InstanceCatalog::awsOnDemand();
    const std::vector<serve::RecommendRequest> requests =
        churn ? churnStream(options.seed) : zooMix(options.seed);
    std::vector<std::string> frames;
    for (const serve::RecommendRequest &request : requests)
        frames.push_back(serve::buildFrame(
            serve::FrameType::Request,
            serve::encodeRecommendRequest(request)));
    std::vector<std::size_t> checks;
    if (churn) {
        SplitMix64 rng(options.seed ^ 0x434845434B000000ull); // "CHECK"
        while (checks.size() < kChurnChecks)
            checks.push_back(rng.below(requests.size()));
    } else {
        for (std::size_t i = 0; i < requests.size(); ++i)
            checks.push_back(i);
    }

    // Set-up: start the server (model + catalog load, listen), warm up.
    ServerProcess server;
    std::vector<double> setups;
    std::size_t warmed = 0;
    const int reps = options.trace ? 1 : kSetupReps;
    for (int rep = 0; rep < reps; ++rep) {
        const double start = nowSeconds();
        if (!server.start({"/proc/self/exe", "serve-child", "--model",
                           modelPath, "--catalog",
                           fleet ? fleetPath : "aws", "--count-allocs",
                           options.trace ? "1" : "0"},
                          &error)) {
            result.fail(error);
            return result;
        }
        warmed = warmUp(server, frames, churn, &result);
        setups.push_back(nowSeconds() - start);
        if (rep + 1 < reps)
            server.stop(nullptr);
    }

    // Timed window.
    std::vector<std::size_t> starts;
    for (int c = 0; c < kConnections; ++c)
        starts.push_back(warmed + c * requests.size() / kConnections);
    const double window =
        options.trace ? options.seconds / 2 : options.seconds;
    ServerStats before, after;
    bool answering = server.stats(&before);
    std::vector<double> cpuAt{before.cpuS};
    const LoadResult load = closedLoop(
        server.port(), frames, starts, window, [&](int) {
            answering = answering && server.stats(&after);
            cpuAt.push_back(after.cpuS);
        });
    if (!answering) {
        result.fail("server child stopped answering");
        return result;
    }
    result.attempted += load.sent;
    result.failed += load.failed;
    const double replies = static_cast<double>(std::max<std::int64_t>(
        load.ok, 1));
    const double lookups =
        static_cast<double>(after.hits - before.hits) +
        static_cast<double>(after.misses - before.misses);
    std::cout << util::format(
        "%s: %lld replies in %.2f s over %d connections, %zu requests "
        "(%zu distinct keys), %zu warm-up, plan-cache hits %.3f\n",
        options.workload.c_str(), static_cast<long long>(load.ok),
        window, kConnections, requests.size(),
        distinctKeys(requests), warmed,
        lookups > 0 ? static_cast<double>(after.hits - before.hits) /
                          lookups
                    : 0.0);

    verifyReplies(server.port(), requests, frames, checks, predictor,
                  catalog, &result);

    if (!options.trace) {
        double rss = 0.0;
        if (!server.stop(&rss))
            result.fail("server child did not exit cleanly");
        const WindowFigures figures = sliceFigures(load, window, cpuAt);
        result.add("setup_s", median(setups), "s");
        result.add("latency_p50_us", figures.p50Us, "us");
        result.add("latency_tail_us", figures.tailUs, "us");
        result.add("throughput_rps", figures.throughputRps, "req/s");
        result.add("cpu_per_op_us", figures.cpuPerOpUs, "us");
        result.add("peak_rss_mb", rss, "MiB");
        return result;
    }

    // Traced run: per-layer figures.
    layers.hitRatio = lookups > 0 ? static_cast<double>(after.hits -
                                                        before.hits) /
                                        lookups
                                  : 0.0;
    layers.compilesPerKreq =
        static_cast<double>(after.misses - before.misses) * 1e3 / replies;
    layers.allocsPerReq =
        static_cast<double>(after.allocs - before.allocs) / replies;
    double offUs = 0.0, onUs = 0.0;
    if (!clientPasses(server.port(), frames, checks, &offUs, &onUs))
        result.fail("sequential client pass failed");
    server.stop(nullptr);
    layers.traceOverhead = onUs / offUs;
    addPipelineLayers({trained}, threads, &layers);
    recorder.setEnabled(true);
    layers.sim = replaySimulator(options.seed);
    std::vector<serve::RecommendRequest> checked;
    for (std::size_t index : checks)
        checked.push_back(requests[index]);
    if (!replayStages(predictor, catalog.instances(), checked,
                      &layers.stages))
        result.fail("in-process stage replay: warm plan lookup missed");
    if (!measureLoads(modelPath, fleetPath, &layers.io))
        result.fail("loading the input files failed");
    recorder.setEnabled(false);
    layers.transportUs = onUs - layers.stages.warmRequestUs();
    addLayerMetrics(layers, &result);
    finishTrace(options, &result);
    return result;
}

} // namespace perfbench
