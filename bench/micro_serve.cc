/**
 * @file
 * ceerd serving-path microbenchmark (emits BENCH_serve.json).
 *
 * Boots in-process serve::Servers on ephemeral ports, replays
 * zoo-wide recommend traffic through serve::runLoadgen at a ladder of
 * target rates (finishing with an unthrottled closed-loop point), and
 * reports throughput plus p50/p99/p999 latency per point. On
 * multi-core hosts the ladder repeats per reactor count so the
 * multi-reactor scaling shows up in the JSON.
 *
 * Three correctness gates ride along:
 *  - byte identity: for every model in the mix at 1 and 2 reactors,
 *    the raw Response payload bytes from the server must equal the
 *    locally encoded result of an in-process recommend() on the same
 *    model, catalog and constraints — including across a hot reload.
 *  - hot reload: reloading the identical model mid-run must bump the
 *    engine generation and keep the reply bytes unchanged.
 *  - allocation budget: a warm recommend request against a
 *    single-reactor server must perform at most --alloc-budget
 *    heap allocations, counted by a replaced operator new. This pins
 *    the allocation-light steady state the server documents.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/alloc_count.h"
#include "bench/common.h"
#include "cloud/instances.h"
#include "core/recommender.h"
#include "io/cbf.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/net.h"
#include "serve/server.h"
#include "util/flags.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace ceer;

/** One throughput/latency point of the rate ladder. */
struct Point
{
    int reactors = 1;
    double targetQps = 0.0;
    serve::LoadgenResult result;
};

std::vector<std::string>
parseModelList(const std::string &csv)
{
    std::vector<std::string> names = models::allModelNames();
    if (csv.empty())
        return names;
    names.clear();
    for (const auto &name : util::split(csv, ','))
        if (!name.empty())
            names.push_back(util::trim(name));
    return names;
}

/**
 * Byte-identity + hot-reload gates against one server configuration:
 * every reply must equal @p expected (the locally encoded in-process
 * recommend() results), before AND after a hot reload that must bump
 * the generation to 2.
 */
bool
runIdentityAndReloadGates(serve::Server &server,
                          const std::vector<serve::RecommendRequest> &mix,
                          const std::vector<std::string> &expected,
                          const std::string &reload_path,
                          const std::string &label)
{
    bool ok = true;
    serve::ServeClient client;
    std::string error;
    if (!client.tryConnect("127.0.0.1", server.port(), 30000,
                           &error)) {
        std::cerr << "micro_serve: " << label << ": " << error << "\n";
        return false;
    }
    for (std::size_t i = 0; i < mix.size() && ok; ++i) {
        serve::RecommendResponse response;
        std::string raw;
        const serve::CallOutcome outcome =
            client.recommend(mix[i], &response, &raw);
        if (!outcome.ok) {
            std::cerr << "micro_serve: " << label << ": recommend("
                      << mix[i].model
                      << ") failed: " << outcome.errorMessage << "\n";
            ok = false;
        } else if (raw != expected[i]) {
            std::cerr << "micro_serve: " << label << ": reply for "
                      << mix[i].model
                      << " differs from in-process recommend()\n";
            ok = false;
        }
    }
    if (ok) {
        std::uint64_t generation = 0;
        const serve::CallOutcome reload_outcome =
            client.reload(reload_path, &generation);
        if (!reload_outcome.ok || generation != 2) {
            std::cerr << "micro_serve: " << label << ": reload failed: "
                      << reload_outcome.errorMessage << "\n";
            ok = false;
        }
    }
    for (std::size_t i = 0; i < mix.size() && ok; ++i) {
        serve::RecommendResponse response;
        std::string raw;
        if (!client.recommend(mix[i], &response, &raw).ok ||
            raw != expected[i]) {
            std::cerr << "micro_serve: " << label
                      << ": post-reload reply for " << mix[i].model
                      << " changed\n";
            ok = false;
        }
    }
    client.close();
    return ok;
}

/** Outcome of the allocation-budget measurement. */
struct AllocGate
{
    bool hookAvailable = false;
    double allocsPerRequest = -1.0;
    bool ok = true; ///< Vacuously true when the hook is unavailable.
};

/**
 * Counts heap allocations per warm recommend request against
 * @p server (which must run one reactor over the AWS catalog, so the
 * sweep is serial).
 * The client side of this loop is allocation-free by construction —
 * a pre-encoded frame, recvAll into reused buffers — so the counter
 * sees the serving path plus nothing.
 */
AllocGate
measureAllocBudget(serve::Server &server,
                   const serve::RecommendRequest &request,
                   double budget)
{
    AllocGate gate;
    gate.hookAvailable = bench::allocHookAvailable();
    if (!gate.hookAvailable)
        return gate;

    // Keep observability off for the measurement: metric handles and
    // span names are allowed to allocate when tracing is on.
    obs::ScopedEnable obs_off(false);

    std::string error;
    const int fd =
        serve::connectTcp("127.0.0.1", server.port(), &error);
    if (fd < 0) {
        std::cerr << "micro_serve: alloc gate: " << error << "\n";
        gate.ok = false;
        return gate;
    }
    const std::string frame = serve::buildFrame(
        serve::FrameType::Request,
        serve::encodeRecommendRequest(request));
    std::string payload;
    payload.reserve(1 << 20);

    const auto roundtrip = [&]() -> bool {
        if (!serve::sendAll(fd, frame.data(), frame.size(), &error))
            return false;
        char header_buf[serve::kFrameHeaderBytes];
        if (!serve::recvAll(fd, header_buf, sizeof header_buf, &error))
            return false;
        serve::FrameHeader header;
        if (!serve::decodeFrameHeader(header_buf, &header, &error))
            return false;
        if (header.type != serve::FrameType::Response)
            return false;
        payload.resize(header.payloadBytes);
        return header.payloadBytes == 0 ||
               serve::recvAll(fd, &payload[0], header.payloadBytes,
                              &error);
    };

    constexpr int kWarm = 64;
    constexpr int kMeasured = 256;
    bool ok = true;
    std::uint64_t allocs = 0;
    for (int i = 0; i < kWarm && ok; ++i)
        ok = roundtrip();
    if (ok) {
        bench::startAllocCount();
        for (int i = 0; i < kMeasured && ok; ++i)
            ok = roundtrip();
        allocs = bench::stopAllocCount();
    }
    serve::closeFd(fd);
    if (!ok) {
        std::cerr << "micro_serve: alloc gate: request loop failed: "
                  << error << "\n";
        gate.ok = false;
        return gate;
    }
    gate.allocsPerRequest = static_cast<double>(allocs) / kMeasured;
    gate.ok = gate.allocsPerRequest <= budget;
    return gate;
}

} // namespace

int
main(int argc, char **argv)
{
    util::Flags flags;
    flags.defineInt("train-iters", 12,
                    "profiling iterations for the in-process model");
    flags.defineDouble("seconds", 1.5, "seconds per rate point");
    flags.defineInt("connections", 4, "loadgen connections");
    flags.defineString("models", "",
                       "comma-separated request mix (default: the "
                       "full 12-CNN zoo)");
    flags.defineString("qps-targets", "50,200,0",
                       "comma-separated target QPS ladder (0 = "
                       "unthrottled closed loop)");
    flags.defineDouble("alloc-budget", 0.0,
                       "max heap allocations per warm recommend "
                       "request");
    bench::parseMicroFlags(flags, "BENCH_serve.json", argc, argv);

    const unsigned hardware = bench::hardwareThreads();
    util::printBanner(std::cout,
                      "micro_serve: ceerd serving path "
                      "(loadgen over loopback TCP)");
    std::cout << "hardware threads: " << hardware << "\n";

    // A cheap but real model: the training set profiled briefly, then
    // the standard trainer. Serving latency does not depend on the fit
    // quality, only on the plan-evaluation shape.
    const core::CeerModel model =
        bench::trainOnPaperTrainingSet(
            bench::fixtureConfig(
                static_cast<int>(flags.getInt("train-iters"))))
            .model;
    const core::CeerPredictor predictor(model);
    const cloud::InstanceCatalog catalog =
        cloud::InstanceCatalog::awsOnDemand();

    const std::vector<std::string> names =
        parseModelList(flags.getString("models"));
    std::vector<serve::RecommendRequest> mix;
    for (const std::string &name : names) {
        serve::RecommendRequest request;
        request.model = name;
        mix.push_back(std::move(request));
    }

    // Expected reply bytes: the locally encoded in-process
    // recommend() result per mix entry, computed once and compared
    // against every server configuration.
    std::vector<std::string> expected;
    for (const serve::RecommendRequest &request : mix) {
        const graph::Graph g =
            models::buildModel(request.model, request.batch);
        core::WorkloadSpec workload{&g, request.datasetSamples,
                                    request.batch};
        core::Constraints constraints;
        constraints.hourlyBudgetUsd = request.hourlyBudgetUsd;
        constraints.hourlyToleranceUsd = request.hourlyToleranceUsd;
        constraints.totalBudgetUsd = request.totalBudgetUsd;
        constraints.enforceGpuMemory = request.enforceGpuMemory;
        expected.push_back(serve::encodeRecommendResponse(
            serve::responseFromRecommendation(core::recommend(
                predictor, workload, catalog.instances(),
                core::objectiveFunction(core::Objective::MinCost),
                constraints))));
    }

    const std::string reload_path =
        "micro_serve_reload_model.tmp.txt";
    {
        std::ofstream out(reload_path);
        model.save(out);
    }

    // --- Identity + reload gates -------------------------------------
    // Every reactor count must produce the same bytes, before and
    // after a hot reload. Two reactors still run on a 1-core host —
    // correctness does not need spare cores, only the throughput rows
    // do.
    bool identity_ok = true;
    std::string error;
    for (const int reactors : {1, 2}) {
        serve::ServerOptions options;
        options.port = 0;
        options.reactors = reactors;
        serve::Server server(model, catalog, options);
        if (!server.tryStart(&error)) {
            std::cerr << "micro_serve: " << error << "\n";
            return 1;
        }
        const std::string label =
            util::format("reactors=%d", reactors);
        if (!runIdentityAndReloadGates(server, mix, expected,
                                       reload_path, label))
            identity_ok = false;
        server.stop();
    }
    std::remove(reload_path.c_str());
    std::cout << (identity_ok ? "[PASS]" : "[FAIL]")
              << " replies byte-identical to in-process recommend() "
                 "at every reactor count, including across hot "
                 "reload\n";

    // --- Allocation-budget gate ---------------------------------------
    const double alloc_budget = flags.getDouble("alloc-budget");
    AllocGate alloc_gate;
    {
        serve::ServerOptions options;
        options.port = 0;
        options.reactors = 1;
        serve::Server server(model, catalog, options);
        if (!server.tryStart(&error)) {
            std::cerr << "micro_serve: " << error << "\n";
            return 1;
        }
        alloc_gate = measureAllocBudget(server, mix[0], alloc_budget);
        server.stop();
    }
    if (alloc_gate.hookAvailable)
        std::cout << (alloc_gate.ok ? "[PASS]" : "[FAIL]")
                  << util::format(
                         " warm recommend request allocates %.2f "
                         "times (budget %.0f)\n",
                         alloc_gate.allocsPerRequest, alloc_budget);
    else
        std::cout << "[SKIP] allocation gate (sanitizer build owns "
                     "operator new)\n";

    // --- Rate ladder, per reactor count -------------------------------
    // A 1-core host only gets the 1-reactor rows: piling reactors onto
    // one core measures scheduler noise, not scaling.
    std::vector<int> ladder_reactors{1};
    if (hardware >= 2)
        ladder_reactors.push_back(2);
    std::vector<Point> points;
    bool load_ok = true;
    for (const int reactors : ladder_reactors) {
        serve::ServerOptions options;
        options.port = 0;
        options.reactors = reactors;
        serve::Server server(model, catalog, options);
        if (!server.tryStart(&error)) {
            std::cerr << "micro_serve: " << error << "\n";
            return 1;
        }
        for (const auto &token :
             util::split(flags.getString("qps-targets"), ',')) {
            if (token.empty())
                continue;
            Point point;
            point.reactors = reactors;
            point.targetQps = std::stod(token);
            serve::LoadgenOptions load;
            load.port = server.port();
            load.connections =
                static_cast<int>(flags.getInt("connections"));
            load.seconds = flags.getDouble("seconds");
            load.targetQps = point.targetQps;
            load.requests = mix;
            if (!serve::runLoadgen(load, &point.result, &error)) {
                std::cerr << "micro_serve: loadgen: " << error << "\n";
                return 1;
            }
            load_ok = load_ok && point.result.succeeded > 0 &&
                      point.result.transportErrors == 0;
            points.push_back(std::move(point));
        }
        server.stop();
    }

    const auto quantile_cell = [](const serve::LoadgenResult &result,
                                  double q, double value) {
        return serve::percentileResolvable(result.latenciesUs.size(),
                                           q)
                   ? util::format("%.0f", value)
                   : std::string("n/a");
    };
    util::TablePrinter table({"reactors", "target qps", "achieved",
                              "sent", "ok", "warmup", "p50 (us)",
                              "p99 (us)", "p99.9 (us)"});
    for (const Point &point : points) {
        table.addRow(
            {std::to_string(point.reactors),
             point.targetQps <= 0.0
                 ? std::string("max")
                 : util::format("%.0f", point.targetQps),
             util::format("%.1f", point.result.achievedQps),
             std::to_string(point.result.sent),
             std::to_string(point.result.succeeded),
             std::to_string(point.result.warmupRequests),
             quantile_cell(point.result, 0.50, point.result.p50Us),
             quantile_cell(point.result, 0.99, point.result.p99Us),
             quantile_cell(point.result, 0.999,
                           point.result.p999Us)});
    }
    table.print(std::cout);
    std::cout << (load_ok ? "[PASS]" : "[FAIL]")
              << " every rate point completed without transport "
                 "errors\n";

    bench::JsonObject doc;
    doc.str("bench", "micro_serve");
    bench::addScalingFields(doc, hardware);
    doc.num("request_mix_models",
            static_cast<std::int64_t>(mix.size()));
    doc.num("connections", flags.getInt("connections"));
    doc.boolean("identity_ok", identity_ok);
    doc.boolean("reload_ok", identity_ok);
    doc.boolean("alloc_hook", alloc_gate.hookAvailable);
    if (alloc_gate.hookAvailable)
        doc.num("allocs_per_request", alloc_gate.allocsPerRequest,
                "%.2f");
    else
        doc.nul("allocs_per_request");
    doc.num("alloc_budget", alloc_budget, "%.0f");
    doc.boolean("alloc_gate_ok", alloc_gate.ok);
    std::vector<bench::JsonObject> rows;
    for (const Point &point : points) {
        const std::size_t samples = point.result.latenciesUs.size();
        bench::JsonObject row;
        row.num("reactors", point.reactors)
            .num("target_qps", point.targetQps, "%.1f")
            .num("achieved_qps", point.result.achievedQps, "%.1f")
            .num("sent", point.result.sent)
            .num("succeeded", point.result.succeeded)
            .num("overloaded", point.result.overloaded)
            .num("transport_errors", point.result.transportErrors)
            .num("warmup_requests", point.result.warmupRequests)
            .num("p50_us", point.result.p50Us, "%.1f")
            .num("p90_us", point.result.p90Us, "%.1f");
        // Tail quantiles a small sample cannot resolve are null, not
        // a number that silently repeats the maximum.
        if (serve::percentileResolvable(samples, 0.99))
            row.num("p99_us", point.result.p99Us, "%.1f");
        else
            row.nul("p99_us");
        if (serve::percentileResolvable(samples, 0.999))
            row.num("p999_us", point.result.p999Us, "%.1f");
        else
            row.nul("p999_us");
        row.num("mean_us", point.result.meanUs, "%.1f");
        rows.push_back(std::move(row));
    }
    doc.array("points", std::move(rows));
    return bench::finishBench(flags.getString("out"), doc,
                              identity_ok && alloc_gate.ok && load_ok);
}
