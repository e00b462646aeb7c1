/**
 * @file
 * Tests for the ceerd serving stack: protocol codecs, frame-header
 * validation, the server's fail-closed edge cases (malformed frames,
 * oversized payloads, checksum mismatches, slow-loris stalls,
 * admission overload), byte identity against in-process recommend(),
 * hot reload, and the loadgen percentile math.
 *
 * Every rejection test asserts the same contract: the client receives
 * a typed Error frame (protocol.h errc::), the connection is closed
 * (fail closed), and the `serve.rejected` counter advances.
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/instances.h"
#include "core/recommender.h"
#include "core/trainer.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "profile/profiler.h"
#include "serve/client.h"
#include "serve/loadgen.h"
#include "serve/net.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace ceer {
namespace serve {
namespace {

/** A cheap but real trained model, shared across tests. */
const core::CeerModel &
cheapModel()
{
    static const core::CeerModel model = [] {
        profile::CollectOptions options;
        options.iterations = 12;
        const profile::ProfileDataset dataset = profile::collectProfiles(
            {"vgg_11", "inception_v1"}, options);
        return core::trainCeer(dataset);
    }();
    return model;
}

/** Boots a server on an ephemeral port; asserts the bind worked. */
std::unique_ptr<Server>
startServer(ServerOptions options = {},
            cloud::InstanceCatalog catalog =
                cloud::InstanceCatalog::awsOnDemand())
{
    options.port = 0;
    auto server = std::make_unique<Server>(
        cheapModel(), std::move(catalog), options);
    std::string error;
    EXPECT_TRUE(server->tryStart(&error)) << error;
    return server;
}

/** Connects a raw socket (no client framing) to a test server. */
Fd
rawConnect(int port)
{
    std::string error;
    const int fd = connectTcp("127.0.0.1", port, &error);
    EXPECT_GE(fd, 0) << error;
    EXPECT_TRUE(setRecvTimeoutMs(fd, 5000, &error)) << error;
    return Fd(fd);
}

/** Reads one complete frame off a raw socket. */
bool
readFrame(int fd, FrameHeader *header, std::string *payload)
{
    char raw[kFrameHeaderBytes];
    std::string error;
    if (!recvAll(fd, raw, sizeof raw, &error))
        return false;
    if (!decodeFrameHeader(raw, header, &error))
        return false;
    payload->assign(header->payloadBytes, '\0');
    return header->payloadBytes == 0 ||
           recvAll(fd, payload->data(), payload->size(), &error);
}

/**
 * The fail-closed contract: a typed Error frame with @p code, then
 * EOF. Observing EOF also sequences the test after the server's
 * `serve.rejected` increment (the reactor closes the fd after
 * counting).
 */
void
expectErrorThenEof(int fd, const std::string &code)
{
    FrameHeader header;
    std::string payload;
    ASSERT_TRUE(readFrame(fd, &header, &payload));
    EXPECT_EQ(header.type, FrameType::Error);
    ErrorInfo info;
    std::string error;
    ASSERT_TRUE(decodeError(payload, &info, &error)) << error;
    EXPECT_EQ(info.code, code);
    char byte = 0;
    std::string eof_error;
    EXPECT_FALSE(recvAll(fd, &byte, 1, &eof_error));
}

/**
 * Waits for a counter to reach @p at_least. The increment and the
 * courtesy Error frame are not strictly ordered for a client that
 * does not wait for EOF, so counter assertions poll briefly.
 */
bool
waitForCounter(const std::string &name, std::uint64_t at_least)
{
    for (int i = 0; i < 500; ++i) {
        if (obs::snapshotMetrics().counterValue(name) >= at_least)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

/** The reply bytes a serial in-process recommend() would produce. */
std::string
localReplyBytes(const RecommendRequest &request,
                const cloud::InstanceCatalog &catalog =
                    cloud::InstanceCatalog::awsOnDemand())
{
    const core::CeerPredictor predictor(cheapModel());
    const graph::Graph g =
        models::buildModel(request.model, request.batch);
    core::WorkloadSpec workload{&g, request.datasetSamples,
                                request.batch};
    core::Constraints constraints;
    constraints.hourlyBudgetUsd = request.hourlyBudgetUsd;
    constraints.hourlyToleranceUsd = request.hourlyToleranceUsd;
    constraints.totalBudgetUsd = request.totalBudgetUsd;
    constraints.enforceGpuMemory = request.enforceGpuMemory;
    const core::Objective objective =
        request.objective == "time" ? core::Objective::MinTrainingTime
                                    : core::Objective::MinCost;
    return encodeRecommendResponse(
        responseFromRecommendation(core::recommend(
            predictor, workload, catalog.instances(),
            core::objectiveFunction(objective), constraints,
            /*threads=*/1)));
}

// --- Protocol codecs ---------------------------------------------------

TEST(ServeProtocolTest, FrameHeaderRoundTrips)
{
    FrameHeader header;
    header.type = FrameType::Request;
    header.payloadBytes = 12345;
    header.checksum = 0x0123456789abcdefULL;
    char raw[kFrameHeaderBytes];
    encodeFrameHeader(header, raw);

    FrameHeader decoded;
    std::string error;
    ASSERT_TRUE(decodeFrameHeader(raw, &decoded, &error)) << error;
    EXPECT_EQ(decoded.type, FrameType::Request);
    EXPECT_EQ(decoded.payloadBytes, 12345u);
    EXPECT_EQ(decoded.checksum, header.checksum);
}

TEST(ServeProtocolTest, FrameHeaderRejectsCorruption)
{
    FrameHeader header;
    header.type = FrameType::Ping;
    char good[kFrameHeaderBytes];
    encodeFrameHeader(header, good);

    const auto rejects = [&](std::size_t offset, char value) {
        char raw[kFrameHeaderBytes];
        std::memcpy(raw, good, sizeof raw);
        raw[offset] = value;
        FrameHeader out;
        std::string error;
        const bool ok = decodeFrameHeader(raw, &out, &error);
        EXPECT_FALSE(ok) << "offset " << offset << " accepted";
        if (!ok) {
            EXPECT_FALSE(error.empty());
        }
        return !ok;
    };
    EXPECT_TRUE(rejects(0, 'X'));   // Magic.
    EXPECT_TRUE(rejects(4, 99));    // Unknown version.
    EXPECT_TRUE(rejects(5, 0));     // Frame type 0 is invalid.
    EXPECT_TRUE(rejects(5, 42));    // Unknown frame type.
    EXPECT_TRUE(rejects(6, 1));     // Reserved u16 must be zero.
    EXPECT_TRUE(rejects(12, 1));    // Reserved u32 must be zero.
}

TEST(ServeProtocolTest, BuildFrameIsHeaderPlusPayload)
{
    const std::string payload = "hello ceerd";
    const std::string frame = buildFrame(FrameType::Error, payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
    FrameHeader header;
    std::string error;
    ASSERT_TRUE(decodeFrameHeader(frame.data(), &header, &error));
    EXPECT_EQ(header.type, FrameType::Error);
    EXPECT_EQ(header.payloadBytes, payload.size());
    EXPECT_EQ(frame.substr(kFrameHeaderBytes), payload);
}

/** decodeRecommendRequestView over a whole payload string. */
bool
decodeRequest(const std::string &payload, RecommendRequest *out,
              std::string *error)
{
    io::CbfFile scratch;
    return decodeRecommendRequestView(payload.data(), payload.size(),
                                      &scratch, out, error);
}

TEST(ServeProtocolTest, RequestCodecRoundTrips)
{
    RecommendRequest request;
    request.model = "resnet_152";
    request.batch = 64;
    request.datasetSamples = 987654;
    request.objective = "time";
    request.hourlyBudgetUsd = 12.5;
    request.hourlyToleranceUsd = 0.75;
    request.totalBudgetUsd = 4000.0;
    request.enforceGpuMemory = false;

    RecommendRequest decoded;
    std::string error;
    ASSERT_TRUE(
        decodeRequest(encodeRecommendRequest(request), &decoded, &error))
        << error;
    EXPECT_EQ(decoded.model, request.model);
    EXPECT_EQ(decoded.batch, request.batch);
    EXPECT_EQ(decoded.datasetSamples, request.datasetSamples);
    EXPECT_EQ(decoded.objective, request.objective);
    EXPECT_DOUBLE_EQ(decoded.hourlyBudgetUsd, request.hourlyBudgetUsd);
    EXPECT_DOUBLE_EQ(decoded.hourlyToleranceUsd,
                     request.hourlyToleranceUsd);
    EXPECT_DOUBLE_EQ(decoded.totalBudgetUsd, request.totalBudgetUsd);
    EXPECT_FALSE(decoded.enforceGpuMemory);

    // Defaults (infinite budgets) survive the wire too.
    RecommendRequest defaults;
    defaults.model = "alexnet";
    RecommendRequest decoded_defaults;
    ASSERT_TRUE(decodeRequest(encodeRecommendRequest(defaults),
                              &decoded_defaults, &error))
        << error;
    EXPECT_TRUE(std::isinf(decoded_defaults.hourlyBudgetUsd));
    EXPECT_TRUE(std::isinf(decoded_defaults.totalBudgetUsd));
    EXPECT_TRUE(decoded_defaults.enforceGpuMemory);
}

TEST(ServeProtocolTest, RequestCodecRejectsBadPayloads)
{
    RecommendRequest out;
    std::string error;
    EXPECT_FALSE(decodeRequest("not a CBF document", &out, &error));
    EXPECT_FALSE(error.empty());

    RecommendRequest bad_objective;
    bad_objective.model = "alexnet";
    bad_objective.objective = "speed";
    error.clear();
    EXPECT_FALSE(
        decodeRequest(encodeRecommendRequest(bad_objective), &out, &error));
    EXPECT_NE(error.find("objective"), std::string::npos);
}

TEST(ServeProtocolTest, ResponseCodecRoundTrips)
{
    RecommendResponse response;
    response.bestIndex = 1;
    response.instances = {"p2.xlarge", "p3.2xlarge"};
    response.hourlyUsd = {0.9, 3.06};
    response.hours = {12.0, 4.0};
    response.costUsd = {10.8, 12.24};
    response.iterationUs = {125000.0, 41000.0};
    response.feasible = {1, 1};

    RecommendResponse decoded;
    std::string error;
    ASSERT_TRUE(decodeRecommendResponse(
        encodeRecommendResponse(response), &decoded, &error))
        << error;
    EXPECT_EQ(decoded.bestIndex, 1);
    EXPECT_EQ(decoded.instances, response.instances);
    EXPECT_EQ(decoded.hourlyUsd, response.hourlyUsd);
    EXPECT_EQ(decoded.hours, response.hours);
    EXPECT_EQ(decoded.costUsd, response.costUsd);
    EXPECT_EQ(decoded.iterationUs, response.iterationUs);
    EXPECT_EQ(decoded.feasible, response.feasible);

    RecommendResponse garbage;
    EXPECT_FALSE(decodeRecommendResponse("junk", &garbage, &error));
}

TEST(ServeProtocolTest, ErrorAndReloadCodecsRoundTrip)
{
    ErrorInfo info{errc::kOverloaded, "queue full"};
    ErrorInfo decoded_info;
    std::string error;
    ASSERT_TRUE(
        decodeError(encodeError(info), &decoded_info, &error));
    EXPECT_EQ(decoded_info.code, errc::kOverloaded);
    EXPECT_EQ(decoded_info.message, "queue full");

    ReloadRequest reload{"/tmp/model.txt"};
    ReloadRequest decoded_reload;
    ASSERT_TRUE(decodeReloadRequest(encodeReloadRequest(reload),
                                    &decoded_reload, &error));
    EXPECT_EQ(decoded_reload.modelPath, reload.modelPath);

    ReloadDone done{7};
    ReloadDone decoded_done;
    ASSERT_TRUE(
        decodeReloadDone(encodeReloadDone(done), &decoded_done,
                         &error));
    EXPECT_EQ(decoded_done.generation, 7u);
}

TEST(ServeProtocolTest, GraphFingerprintDiscriminates)
{
    const std::uint64_t alexnet32 =
        graphFingerprint(models::buildModel("alexnet", 32));
    // Stable: rebuilding the identical graph reproduces the hash
    // (this is what makes it a valid plan-cache key).
    EXPECT_EQ(alexnet32,
              graphFingerprint(models::buildModel("alexnet", 32)));
    // Different model or batch size must change the plan key.
    EXPECT_NE(alexnet32,
              graphFingerprint(models::buildModel("vgg_11", 32)));
    EXPECT_NE(alexnet32,
              graphFingerprint(models::buildModel("alexnet", 64)));
}

// --- Loadgen math ------------------------------------------------------

TEST(ServeLoadgenTest, LatencyPercentileUsesNearestRank)
{
    std::vector<double> sorted;
    EXPECT_EQ(latencyPercentile(sorted, 0.5), 0.0);
    for (int i = 1; i <= 100; ++i)
        sorted.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 0.50), 50.0);
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 0.99), 99.0);
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 0.999), 100.0);
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 1.0), 100.0);
    // Out-of-range quantiles clamp instead of indexing out of bounds.
    EXPECT_DOUBLE_EQ(latencyPercentile(sorted, 2.0), 100.0);
}

// --- End-to-end server behaviour ---------------------------------------

TEST(ServeServerTest, RecommendMatchesInProcessRecommendByteForByte)
{
    auto server = startServer();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;

    RecommendRequest request;
    request.model = "vgg_19";
    RecommendResponse response;
    std::string raw;
    const CallOutcome outcome =
        client.recommend(request, &response, &raw);
    ASSERT_TRUE(outcome.ok) << outcome.errorMessage;
    EXPECT_EQ(raw, localReplyBytes(request));
    ASSERT_FALSE(response.instances.empty());
    ASSERT_GE(response.bestIndex, 0);
    ASSERT_LT(static_cast<std::size_t>(response.bestIndex),
              response.instances.size());
    EXPECT_EQ(response.hours.size(), response.instances.size());
    EXPECT_TRUE(response.feasible[static_cast<std::size_t>(
        response.bestIndex)]);

    // A second identical request rides the session plan cache and
    // must still produce the same bytes.
    std::string cached_raw;
    ASSERT_TRUE(client.recommend(request, &response, &cached_raw).ok);
    EXPECT_EQ(cached_raw, raw);
}

TEST(ServeServerTest, PingPongRoundTrips)
{
    auto server = startServer();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    EXPECT_TRUE(client.ping().ok);
    // The session survives a ping: a real request still works.
    RecommendRequest request;
    request.model = "alexnet";
    RecommendResponse response;
    EXPECT_TRUE(client.recommend(request, &response).ok);
}

TEST(ServeServerTest, UnknownModelIsRejectedWithTypedError)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendRequest request;
    request.model = "definitely_not_a_model";
    RecommendResponse response;
    const CallOutcome outcome = client.recommend(request, &response);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.errorCode, errc::kUnknownModel);
    EXPECT_FALSE(client.connected()); // Fail closed.
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, InvalidBatchIsRejectedAsBadRequest)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendRequest request;
    request.model = "alexnet";
    request.batch = 0;
    RecommendResponse response;
    const CallOutcome outcome = client.recommend(request, &response);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.errorCode, errc::kBadRequest);
    EXPECT_FALSE(client.connected());
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, MalformedFrameFailsClosed)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    Fd fd = rawConnect(server->port());
    ASSERT_TRUE(fd);
    const std::string garbage(kFrameHeaderBytes, 'X');
    std::string error;
    ASSERT_TRUE(
        sendAll(fd.get(), garbage.data(), garbage.size(), &error))
        << error;
    expectErrorThenEof(fd.get(), errc::kBadFrame);
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, OversizedPayloadIsRejectedFromTheHeaderAlone)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    Fd fd = rawConnect(server->port());
    ASSERT_TRUE(fd);
    // A hostile length field (~4 GiB) with no payload behind it: the
    // server must answer from the header alone, without ever trying
    // to buffer (or allocate) the claimed bytes.
    FrameHeader header;
    header.type = FrameType::Request;
    header.payloadBytes = 0xfffffff0u;
    char raw[kFrameHeaderBytes];
    encodeFrameHeader(header, raw);
    std::string error;
    ASSERT_TRUE(sendAll(fd.get(), raw, sizeof raw, &error)) << error;
    expectErrorThenEof(fd.get(), errc::kPayloadTooLarge);
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, ChecksumMismatchFailsClosed)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    auto server = startServer();
    Fd fd = rawConnect(server->port());
    ASSERT_TRUE(fd);
    RecommendRequest request;
    request.model = "alexnet";
    std::string frame =
        buildFrame(FrameType::Request, encodeRecommendRequest(request));
    frame.back() ^= 0x01; // Corrupt the payload; header keeps the
                          // checksum of the original bytes.
    std::string error;
    ASSERT_TRUE(sendAll(fd.get(), frame.data(), frame.size(), &error))
        << error;
    expectErrorThenEof(fd.get(), errc::kChecksumMismatch);
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, SlowLorisClientHitsReadTimeout)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    ServerOptions options;
    options.readTimeoutMs = 150;
    auto server = startServer(options);
    Fd fd = rawConnect(server->port());
    ASSERT_TRUE(fd);
    // Four bytes of a 24-byte header, then silence: the stall sweep
    // must disconnect us shortly after readTimeoutMs.
    std::string error;
    ASSERT_TRUE(sendAll(fd.get(), kFrameMagic, sizeof kFrameMagic,
                        &error))
        << error;
    expectErrorThenEof(fd.get(), errc::kReadTimeout);
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, FullAdmissionQueueRefusesWithBackpressure)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    ServerOptions options;
    options.maxQueueDepth = 0; // Deterministic overload: admit nothing.
    auto server = startServer(options);
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendRequest request;
    request.model = "alexnet";
    RecommendResponse response;
    const CallOutcome outcome = client.recommend(request, &response);
    EXPECT_FALSE(outcome.ok);
    EXPECT_EQ(outcome.errorCode, errc::kOverloaded);
    EXPECT_FALSE(client.connected()); // Refused, not silently dropped.
    EXPECT_TRUE(waitForCounter("serve.rejected", 1));
}

TEST(ServeServerTest, HotReloadBumpsGenerationAndKeepsReplies)
{
    auto server = startServer();
    EXPECT_EQ(server->generation(), 1u);
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;

    RecommendRequest request;
    request.model = "alexnet";
    RecommendResponse response;
    std::string before;
    ASSERT_TRUE(client.recommend(request, &response, &before).ok);

    const std::string path = "serve_test_reload_model.tmp.txt";
    {
        std::ofstream out(path);
        cheapModel().save(out);
    }
    std::uint64_t generation = 0;
    const CallOutcome outcome = client.reload(path, &generation);
    std::remove(path.c_str());
    ASSERT_TRUE(outcome.ok) << outcome.errorMessage;
    EXPECT_EQ(generation, 2u);
    EXPECT_EQ(server->generation(), 2u);

    // The same model was reloaded, so the (lazily recompiled) plan
    // must reproduce the identical reply bytes on the same session.
    std::string after;
    ASSERT_TRUE(client.recommend(request, &response, &after).ok);
    EXPECT_EQ(after, before);

    // A failed reload over the wire gets a typed error reply and keeps
    // the old engine serving.
    const CallOutcome failed =
        client.reload("/nonexistent/model/path.txt", &generation);
    EXPECT_FALSE(failed.ok);
    EXPECT_EQ(failed.errorCode, errc::kBadRequest);
    EXPECT_NE(failed.errorMessage.find("reload failed"),
              std::string::npos)
        << failed.errorMessage;
    EXPECT_EQ(server->generation(), 2u);

    // A text model naming an out-of-range comm_fit width is a typed
    // error too (it used to throw out of the loader and end ceerd);
    // the next request to the same server still answers. A failed
    // reload closes its session, so each step dials a new client.
    const std::string bad_path = "serve_test_reload_bad_k.tmp.txt";
    {
        std::ofstream out(bad_path);
        out << "ceer_model v1\n"
               "comm_fit V100 1000000000000000000 0.9 1;1,1\n";
    }
    ServeClient reloader;
    ASSERT_TRUE(
        reloader.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    const CallOutcome rejected = reloader.reload(bad_path, &generation);
    std::remove(bad_path.c_str());
    EXPECT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.errorCode, errc::kBadRequest);
    EXPECT_NE(rejected.errorMessage.find("line 2 column 3 (k)"),
              std::string::npos)
        << rejected.errorMessage;
    EXPECT_EQ(server->generation(), 2u);
    ServeClient next;
    ASSERT_TRUE(
        next.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    std::string still;
    ASSERT_TRUE(next.recommend(request, &response, &still).ok);
    EXPECT_EQ(still, before);
}

TEST(ServeServerTest, LoadgenDrivesTheServerCleanly)
{
    auto server = startServer();
    LoadgenOptions options;
    options.port = server->port();
    options.connections = 2;
    options.seconds = 0.3;
    RecommendRequest request;
    request.model = "alexnet";
    options.requests = {request};
    LoadgenResult result;
    std::string error;
    ASSERT_TRUE(runLoadgen(options, &result, &error)) << error;
    EXPECT_GT(result.succeeded, 0);
    EXPECT_EQ(result.transportErrors, 0);
    EXPECT_EQ(result.serverErrors, 0);
    EXPECT_GT(result.p50Us, 0.0);
    EXPECT_LE(result.p50Us, result.p999Us);
    EXPECT_GT(result.achievedQps, 0.0);
    server->stop();
    server->stop(); // Idempotent.
}

// --- Plan cache --------------------------------------------------------

/** A PlanEntry whose plan pointer carries no weight (the cache never
 *  dereferences it); @p bytes drives the accounting. */
PlanEntry
fakeEntry(std::uint64_t fingerprint, std::uint64_t generation,
          std::size_t bytes = 64)
{
    PlanEntry entry;
    entry.fingerprint = fingerprint;
    entry.generation = generation;
    entry.bytes = bytes;
    return entry;
}

TEST(PlanCacheTest, AccountsHitsAndMissesAcrossCallers)
{
    PlanCache cache(4);
    int compiles = 0;
    const auto compile = [&] {
        ++compiles;
        return fakeEntry(7, 1);
    };

    // Cold: tryGet declines without charging a miss; getOrCompile
    // compiles and charges exactly one.
    EXPECT_EQ(cache.tryGet(7, 1), nullptr);
    EXPECT_EQ(cache.stats().misses, 0u);
    const auto first = cache.getOrCompile(7, 1, compile);
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(compiles, 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);

    // Warm: both paths hit and share the same pinned entry —
    // a second "session" asking for the same graph compiles nothing.
    const auto hit = cache.tryGet(7, 1);
    EXPECT_EQ(hit.get(), first.get());
    EXPECT_EQ(cache.getOrCompile(7, 1, compile).get(), first.get());
    EXPECT_EQ(compiles, 1);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().bytes, 64u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsedUnderTinyCap)
{
    PlanCache cache(2);
    const auto compileFor = [](std::uint64_t fp) {
        return [fp] { return fakeEntry(fp, 1); };
    };
    cache.getOrCompile(1, 1, compileFor(1));
    cache.getOrCompile(2, 1, compileFor(2));
    // Touch 1 so 2 becomes the LRU victim.
    EXPECT_NE(cache.tryGet(1, 1), nullptr);
    cache.getOrCompile(3, 1, compileFor(3));

    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.tryGet(2, 1), nullptr);
    EXPECT_NE(cache.tryGet(1, 1), nullptr);
    EXPECT_NE(cache.tryGet(3, 1), nullptr);
}

TEST(PlanCacheTest, CapacityIsExactAcrossKeys)
{
    // The cap is one total over every fingerprint, whatever their
    // bits: 8 distinct keys into a cache of 3 leave exactly the 3 most
    // recently used, and every eviction takes the global LRU entry.
    PlanCache cache(3);
    for (std::uint64_t fp = 1; fp <= 8; ++fp) {
        cache.getOrCompile(fp, 1, [fp] { return fakeEntry(fp, 1); });
        EXPECT_LE(cache.stats().entries, 3u);
    }
    EXPECT_EQ(cache.stats().entries, 3u);
    EXPECT_EQ(cache.stats().evictions, 5u);
    EXPECT_EQ(cache.stats().bytes, 3u * 64u);
    for (std::uint64_t fp = 1; fp <= 5; ++fp)
        EXPECT_EQ(cache.tryGet(fp, 1), nullptr) << fp;

    // Touch 6 so 7 is now the oldest: the next insert evicts 7, the
    // one after evicts 8.
    EXPECT_NE(cache.tryGet(6, 1), nullptr);
    cache.getOrCompile(9, 1, [] { return fakeEntry(9, 1); });
    EXPECT_EQ(cache.tryGet(7, 1), nullptr);
    cache.getOrCompile(10, 1, [] { return fakeEntry(10, 1); });
    EXPECT_EQ(cache.tryGet(8, 1), nullptr);
    EXPECT_NE(cache.tryGet(6, 1), nullptr);
    EXPECT_NE(cache.tryGet(9, 1), nullptr);
    EXPECT_NE(cache.tryGet(10, 1), nullptr);
    EXPECT_EQ(cache.stats().entries, 3u);
    EXPECT_EQ(cache.stats().evictions, 7u);
}

TEST(PlanCacheTest, StaleGenerationMissesButKeepsPinnedEntries)
{
    PlanCache cache(4);
    int compiles = 0;
    const auto old_entry = cache.getOrCompile(5, 1, [&] {
        ++compiles;
        return fakeEntry(5, 1);
    });

    // After a hot reload (generation 2) the old entry is invisible...
    EXPECT_EQ(cache.tryGet(5, 2), nullptr);
    const auto fresh = cache.getOrCompile(5, 2, [&] {
        ++compiles;
        return fakeEntry(5, 2);
    });
    EXPECT_EQ(compiles, 2);
    EXPECT_EQ(fresh->generation, 2u);

    // ...but an in-flight request that pinned it before the reload
    // still holds a valid generation-1 entry.
    EXPECT_EQ(old_entry->generation, 1u);
    EXPECT_EQ(old_entry->fingerprint, 5u);
}

TEST(PlanCacheTest, ConcurrentRequestsCompileExactlyOnce)
{
    PlanCache cache(8);
    std::atomic<int> compiles{0};
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const PlanEntry>> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&cache, &compiles, &results, i] {
            results[static_cast<std::size_t>(i)] =
                cache.getOrCompile(42, 1, [&compiles] {
                    compiles.fetch_add(1);
                    // Widen the race window: every other thread must
                    // wait on the cache's cv, not re-compile.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return fakeEntry(42, 1);
                });
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(compiles.load(), 1);
    EXPECT_EQ(cache.stats().misses, 1u);
    for (const auto &result : results) {
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result.get(), results[0].get());
    }
}

TEST(ServeServerTest, PlanCacheIsSharedAcrossSessions)
{
    auto server = startServer();
    RecommendRequest request;
    request.model = "alexnet";

    // Two independent connections ask for the same graph: the second
    // session must reuse the first session's compiled plan.
    for (int i = 0; i < 2; ++i) {
        ServeClient client;
        std::string error;
        ASSERT_TRUE(client.tryConnect("127.0.0.1", server->port(),
                                      30000, &error))
            << error;
        RecommendResponse response;
        ASSERT_TRUE(client.recommend(request, &response).ok);
        client.close();
    }

    const PlanCache::Stats stats = server->planCacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_GE(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeServerTest, PlanCacheEntriesHoldPlansAndFitsOnly)
{
    auto server = startServer();
    ServeClient client;
    std::string error;
    ASSERT_TRUE(
        client.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;

    // Each key compiles cold, then answers warm from its entry.
    const std::vector<std::pair<std::string, std::int64_t>> keys = {
        {"alexnet", 32}, {"vgg_11", 32}, {"alexnet", 16}};
    for (const auto &[model, batch] : keys) {
        RecommendRequest request;
        request.model = model;
        request.batch = batch;
        RecommendResponse response;
        for (int i = 0; i < 2; ++i)
            ASSERT_TRUE(client.recommend(request, &response).ok);
    }

    // The cache's byte account is its plans and nothing else: no
    // entry pins the graph it was compiled from.
    const PlanCache::Stats stats = server->planCacheStats();
    EXPECT_EQ(stats.entries, keys.size());
    std::size_t plan_bytes = 0;
    for (const auto &[model, batch] : keys) {
        const std::optional<std::uint64_t> key = planKey(model, batch);
        ASSERT_TRUE(key.has_value()) << model;
        const std::shared_ptr<const PlanEntry> entry =
            server->planCache().tryGet(*key, server->generation());
        ASSERT_NE(entry, nullptr) << model << " at batch " << batch;
        EXPECT_EQ(entry->fingerprint, *key);
        EXPECT_EQ(entry->graph, nullptr);
        EXPECT_EQ(entry->plan->batchSize(), batch);
        plan_bytes += entry->plan->approxBytes();
    }
    EXPECT_EQ(stats.bytes, plan_bytes);
}

TEST(ServeServerTest, PlanKeyIsExactPerRequest)
{
    std::vector<std::string> names = models::allModelNames();
    names.insert(names.end(),
                 {"transformer_encoder", "lstm_classifier", "mobilenet_v1"});
    std::set<std::uint64_t> keys;
    for (const std::string &name : names) {
        for (std::int64_t batch : {std::int64_t{1}, std::int64_t{32},
                                   kMaxRequestBatch}) {
            const std::optional<std::uint64_t> key = planKey(name, batch);
            ASSERT_TRUE(key.has_value()) << name;
            EXPECT_EQ(planKey(name, batch), key) << name;
            EXPECT_TRUE(keys.insert(*key).second)
                << name << " at batch " << batch << " shares a key";
        }
    }
    EXPECT_EQ(keys.size(), names.size() * 3);
    EXPECT_FALSE(planKey("definitely_not_a_model", 32).has_value());
    EXPECT_FALSE(planKey("", 32).has_value());
    EXPECT_FALSE(planKey("alexnet_", 32).has_value());
}

TEST(ServeServerTest, RepeatedRequestsCompileOncePerKey)
{
    obs::ScopedEnable metrics(true);
    obs::resetMetrics();
    ServerOptions options;
    options.planCacheCapacity = 3;
    auto server = startServer(options);

    // Three distinct (model, batch) keys, repeated across two
    // connections, fit a 3-entry cache: each compiles exactly once and
    // every reply matches an in-process recommend().
    const std::vector<std::pair<std::string, std::int64_t>> stream = {
        {"alexnet", 32}, {"vgg_11", 32}, {"alexnet", 16},
        {"alexnet", 32}, {"alexnet", 16}, {"vgg_11", 32},
        {"alexnet", 32}};
    std::map<std::pair<std::string, std::int64_t>, std::string> expected;
    for (int connection = 0; connection < 2; ++connection) {
        ServeClient client;
        std::string error;
        ASSERT_TRUE(client.tryConnect("127.0.0.1", server->port(), 30000,
                                      &error))
            << error;
        for (const auto &request_key : stream) {
            RecommendRequest request;
            request.model = request_key.first;
            request.batch = request_key.second;
            auto [it, fresh] = expected.try_emplace(request_key);
            if (fresh)
                it->second = localReplyBytes(request);
            RecommendResponse response;
            std::string raw;
            ASSERT_TRUE(client.recommend(request, &response, &raw).ok);
            EXPECT_EQ(raw, it->second)
                << request.model << " at batch " << request.batch;
        }
    }
    EXPECT_EQ(
        obs::snapshotMetrics().counterValue("serve.plan_compiles"),
        expected.size());
    EXPECT_EQ(server->planCacheStats().misses, expected.size());
}

// --- Multi-reactor -----------------------------------------------------

/** Byte-identity across several concurrent connections against
 *  @p options (the caller picks the reactor count). */
void
expectIdenticalRepliesAcrossConnections(ServerOptions options)
{
    auto server = startServer(options);
    RecommendRequest request;
    request.model = "alexnet";
    const std::string expected = localReplyBytes(request);

    // More connections than reactors, dealt round-robin, so every
    // reactor serves at least one session.
    constexpr int kConnections = 5;
    std::vector<std::unique_ptr<ServeClient>> clients;
    for (int i = 0; i < kConnections; ++i) {
        auto client = std::make_unique<ServeClient>();
        std::string error;
        ASSERT_TRUE(client->tryConnect("127.0.0.1", server->port(),
                                       30000, &error))
            << error;
        clients.push_back(std::move(client));
    }
    for (auto &client : clients) {
        RecommendResponse response;
        std::string raw;
        ASSERT_TRUE(client->recommend(request, &response, &raw).ok);
        EXPECT_EQ(raw, expected);
    }
    server->stop();
}

TEST(ServeServerTest, MultiReactorRepliesMatchInProcessRecommend)
{
    ServerOptions options;
    options.reactors = 2;
    expectIdenticalRepliesAcrossConnections(options);
}

TEST(ServeServerTest, MultiReactorHotReloadKeepsReplies)
{
    ServerOptions options;
    options.reactors = 2;
    auto server = startServer(options);
    RecommendRequest request;
    request.model = "alexnet";

    ServeClient a;
    ServeClient b;
    std::string error;
    ASSERT_TRUE(
        a.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    ASSERT_TRUE(
        b.tryConnect("127.0.0.1", server->port(), 30000, &error))
        << error;
    RecommendResponse response;
    std::string before_a;
    std::string before_b;
    ASSERT_TRUE(a.recommend(request, &response, &before_a).ok);
    ASSERT_TRUE(b.recommend(request, &response, &before_b).ok);
    EXPECT_EQ(before_a, before_b);

    const std::string path = "serve_test_reactor_reload.tmp.txt";
    {
        std::ofstream out(path);
        cheapModel().save(out);
    }
    std::uint64_t generation = 0;
    const CallOutcome outcome = a.reload(path, &generation);
    std::remove(path.c_str());
    ASSERT_TRUE(outcome.ok) << outcome.errorMessage;
    EXPECT_EQ(generation, 2u);

    // Both sessions — including the one on the reactor that did NOT
    // process the reload — must serve identical bytes afterwards.
    std::string after_a;
    std::string after_b;
    ASSERT_TRUE(a.recommend(request, &response, &after_a).ok);
    ASSERT_TRUE(b.recommend(request, &response, &after_b).ok);
    EXPECT_EQ(after_a, before_a);
    EXPECT_EQ(after_b, before_b);
}

TEST(ServeServerTest, MultiReactorStopsCleanlyUnderLoad)
{
    ServerOptions options;
    options.reactors = 2;
    auto server = startServer(options);
    LoadgenOptions load;
    load.port = server->port();
    load.connections = 3;
    load.seconds = 0.3;
    RecommendRequest request;
    request.model = "alexnet";
    load.requests = {request};
    LoadgenResult result;
    std::string error;
    ASSERT_TRUE(runLoadgen(load, &result, &error)) << error;
    EXPECT_GT(result.succeeded, 0);
    EXPECT_EQ(result.transportErrors, 0);
    server->stop();
    server->stop(); // Idempotent with reactors too.
}

TEST(ServeServerTest, FleetCatalogParallelSweepMatchesSerialRecommend)
{
    // 2048 instances is above the server's parallel-sweep threshold,
    // so each request forks its candidate sweep onto the shared pool
    // from its reactor thread — with two reactors, from both at once.
    // Replies must equal a serial in-process sweep byte for byte.
    obs::ScopedEnable metrics(true);
    const cloud::InstanceCatalog fleet =
        cloud::InstanceCatalog::syntheticFleet(2048);
    RecommendRequest request;
    request.model = "alexnet";
    const std::string expected = localReplyBytes(request, fleet);

    for (const int reactors : {1, 2}) {
        SCOPED_TRACE(reactors);
        obs::counter("pool.tasks").reset();
        ServerOptions options;
        options.reactors = reactors;
        // The listener hands accepts out round-robin, so with two
        // reactors the two connections land on different ones.
        auto server = startServer(options, fleet);
        std::vector<std::thread> clients;
        for (int c = 0; c < 2; ++c) {
            clients.emplace_back([&] {
                ServeClient client;
                std::string error;
                if (!client.tryConnect("127.0.0.1", server->port(),
                                       30000, &error)) {
                    ADD_FAILURE() << error;
                    return;
                }
                for (int i = 0; i < 4; ++i) {
                    RecommendResponse response;
                    std::string raw;
                    const CallOutcome outcome =
                        client.recommend(request, &response, &raw);
                    EXPECT_TRUE(outcome.ok) << outcome.errorMessage;
                    EXPECT_EQ(raw, expected);
                }
            });
        }
        for (std::thread &client : clients)
            client.join();
        server->stop();
        // The sweep fans out only where the host has spare cores.
        if (std::thread::hardware_concurrency() > 1) {
            EXPECT_GT(obs::snapshotMetrics().counterValue("pool.tasks"),
                      0u);
        }
    }
}

// --- Percentile resolvability ------------------------------------------

TEST(ServeLoadgenTest, PercentileResolvableNeedsEnoughSamples)
{
    // n * (1 - q) >= 1: the sample must be able to place at least one
    // observation above the quantile.
    EXPECT_FALSE(percentileResolvable(0, 0.50));
    EXPECT_TRUE(percentileResolvable(2, 0.50));
    EXPECT_TRUE(percentileResolvable(76, 0.90));
    // The BENCH_serve regression: 76 samples cannot resolve p99, so
    // p99 == p999 == max was a reporting artifact, not a latency fact.
    EXPECT_FALSE(percentileResolvable(76, 0.99));
    EXPECT_FALSE(percentileResolvable(76, 0.999));
    EXPECT_TRUE(percentileResolvable(100, 0.99));
    EXPECT_FALSE(percentileResolvable(999, 0.999));
    EXPECT_TRUE(percentileResolvable(1000, 0.999));
}

TEST(ServeLoadgenTest, WarmupIsExcludedFromTimedPercentiles)
{
    auto server = startServer();
    LoadgenOptions options;
    options.port = server->port();
    options.connections = 1;
    options.seconds = 0.2;
    options.warmupRequests = 3;
    RecommendRequest request;
    request.model = "alexnet";
    options.requests = {request};
    LoadgenResult result;
    std::string error;
    ASSERT_TRUE(runLoadgen(options, &result, &error)) << error;

    EXPECT_EQ(result.warmupRequests, 3);
    EXPECT_GT(result.warmupMeanUs, 0.0);
    EXPECT_GE(result.warmupMaxUs, result.warmupMeanUs);
    // The timed phase reports only its own samples: the cold-start
    // compile landed in the warmup fields, not the percentile pool.
    EXPECT_EQ(static_cast<std::int64_t>(result.latenciesUs.size()),
              result.succeeded);
}

} // namespace
} // namespace serve
} // namespace ceer
