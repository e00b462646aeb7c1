#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "io/cbf.h"
#include "models/model_zoo.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "serve/net.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ceer {
namespace serve {

namespace {

/** listen(2) backlog of the server's one listener. */
constexpr int kListenBacklog = 64;

/**
 * Every name models::buildModel accepts (the 12-CNN zoo plus the
 * out-of-family extras), sorted. buildModel fatals on any other name,
 * so the server validates against this table and answers
 * `unknown_model` instead of dying; a name's index here is the model
 * half of its plan key.
 */
const std::vector<std::string> &
buildableModelNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> all = models::allModelNames();
        all.insert(all.end(), {"transformer_encoder", "lstm_classifier",
                               "mobilenet_v1"});
        std::sort(all.begin(), all.end());
        return all;
    }();
    return names;
}

/** Sends a typed Error frame and counts the rejection. */
void
sendTypedError(int fd, const std::string &code,
               const std::string &message)
{
    ErrorInfo info;
    info.code = code;
    info.message = message;
    const std::string frame =
        buildFrame(FrameType::Error, encodeError(info));
    std::string send_error;
    // Best effort: the connection is closing either way; a peer that
    // already vanished just skips the courtesy reply.
    sendAll(fd, frame.data(), frame.size(), &send_error);
    OBS_COUNTER_INC("serve.rejected");
}

} // namespace

std::optional<std::uint64_t>
planKey(std::string_view model, std::int64_t batch)
{
    const std::vector<std::string> &names = buildableModelNames();
    const auto it = std::lower_bound(names.begin(), names.end(), model);
    if (it == names.end() || *it != model)
        return std::nullopt;
    const auto index = static_cast<std::uint64_t>(it - names.begin());
    return (index << 32) | static_cast<std::uint32_t>(batch);
}

Server::Session::~Session() { closeFd(fd); }

Server::Server(core::CeerModel model, cloud::InstanceCatalog catalog,
               ServerOptions options)
    : options_(std::move(options)),
      candidates_(catalog.instances()),
      engine_(std::make_shared<const Engine>(std::move(model), 1)),
      planCache_(options_.planCacheCapacity)
{
}

Server::~Server() { stop(); }

std::shared_ptr<const Server::Engine>
Server::currentEngine() const
{
    std::lock_guard<std::mutex> lock(engineMutex_);
    return engine_;
}

std::uint64_t
Server::generation() const
{
    return currentEngine()->generation;
}

bool
Server::tryStart(std::string *error)
{
    if (started_) {
        if (error)
            *error = "server already started";
        return false;
    }
    const int reactor_count =
        options_.reactors < 1 ? 1 : options_.reactors;
    reactors_.clear();
    for (int i = 0; i < reactor_count; ++i) {
        reactors_.push_back(std::make_unique<Reactor>());
        reactors_.back()->index = static_cast<std::size_t>(i);
    }
    const auto cleanup = [this] {
        closeFd(listenFd_);
        listenFd_ = -1;
        for (auto &reactor : reactors_) {
            closeFd(reactor->wakeRead);
            closeFd(reactor->wakeWrite);
        }
        reactors_.clear();
    };

    std::string nb_error;
    for (auto &reactor : reactors_) {
        int pipe_fds[2];
        if (::pipe(pipe_fds) != 0) {
            if (error)
                *error = "pipe: " + std::string(std::strerror(errno));
            cleanup();
            return false;
        }
        reactor->wakeRead = pipe_fds[0];
        reactor->wakeWrite = pipe_fds[1];
        if (!setNonBlocking(reactor->wakeRead, &nb_error) ||
            !setNonBlocking(reactor->wakeWrite, &nb_error)) {
            if (error)
                *error = nb_error;
            cleanup();
            return false;
        }
    }

    // One listener, polled by reactor 0 alone, which hands accepted
    // fds to its peers round-robin.
    listenFd_ = listenTcp(options_.host, options_.port, kListenBacklog,
                          &port_, error);
    if (listenFd_ < 0) {
        cleanup();
        return false;
    }
    if (!setNonBlocking(listenFd_, &nb_error)) {
        if (error)
            *error = nb_error;
        cleanup();
        return false;
    }

    started_ = true;
    stopping_ = false;
    for (auto &reactor : reactors_) {
        Reactor *r = reactor.get();
        r->thread = std::thread([this, r] { reactorLoop(*r); });
    }
    return true;
}

void
Server::stop()
{
    if (!started_)
        return;
    stopping_ = true;
    for (auto &reactor : reactors_)
        wake(*reactor);
    // Requests execute on their reactor, so every admitted request has
    // been answered once its reactor joins.
    for (auto &reactor : reactors_)
        if (reactor->thread.joinable())
            reactor->thread.join();
    closeFd(listenFd_);
    listenFd_ = -1;
    for (auto &reactor : reactors_) {
        closeFd(reactor->wakeRead);
        closeFd(reactor->wakeWrite);
    }
    reactors_.clear();
    started_ = false;
}

void
Server::wake(Reactor &reactor)
{
    if (reactor.wakeWrite < 0)
        return;
    const char byte = 1;
    while (::write(reactor.wakeWrite, &byte, 1) < 0) {
        if (errno == EINTR)
            continue;
        // EAGAIN: the pipe already holds unread wake bytes, which is
        // all a wake needs.
        break;
    }
}

void
Server::adoptSession(Reactor &reactor, int fd)
{
    std::string nb_error;
    if (!setNonBlocking(fd, &nb_error)) {
        closeFd(fd);
        return;
    }
    auto session = std::make_unique<Session>();
    session->fd = fd;
    session->lastActivity = std::chrono::steady_clock::now();
    session->id =
        nextSessionId_.fetch_add(1, std::memory_order_relaxed);
    reactor.sessions.emplace(session->id, std::move(session));
    OBS_COUNTER_INC("serve.connections");
}

void
Server::reactorLoop(Reactor &reactor)
{
    // Everything below is hoisted so a steady-state iteration reuses
    // capacity instead of allocating.
    std::vector<int> inbox;
    std::vector<pollfd> fds;
    std::vector<Session *> polled;
    const int listen_fd = reactor.index == 0 ? listenFd_ : -1;
    std::size_t next_target = 0; // Round-robin cursor (reactor 0).
    while (true) {
        // Adopt fds handed over by reactor 0.
        inbox.clear();
        {
            std::lock_guard<std::mutex> lock(reactor.mutex);
            inbox.swap(reactor.inbox);
        }
        for (const int fd : inbox)
            adoptSession(reactor, fd);
        if (stopping_.load())
            break;

        fds.clear();
        polled.clear();
        fds.push_back(pollfd{reactor.wakeRead, POLLIN, 0});
        if (listen_fd >= 0)
            fds.push_back(pollfd{listen_fd, POLLIN, 0});
        const std::size_t fixed = fds.size();
        int timeout_ms = -1;
        const auto now = std::chrono::steady_clock::now();
        for (const auto &[id, session] : reactor.sessions) {
            fds.push_back(pollfd{session->fd, POLLIN, 0});
            polled.push_back(session.get());
            if (options_.readTimeoutMs > 0 &&
                !session->inBuf.empty()) {
                const auto deadline =
                    session->lastActivity +
                    std::chrono::milliseconds(options_.readTimeoutMs);
                const auto remaining =
                    std::chrono::duration_cast<
                        std::chrono::milliseconds>(deadline - now)
                        .count();
                const int clamped =
                    remaining < 0 ? 0
                                  : static_cast<int>(remaining) + 1;
                if (timeout_ms < 0 || clamped < timeout_ms)
                    timeout_ms = clamped;
            }
        }

        const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            util::fatal(util::format("ceerd poll: %s",
                                     std::strerror(errno)));
        }

        if (fds[0].revents & POLLIN) {
            char drain[64];
            while (::read(reactor.wakeRead, drain, sizeof drain) > 0) {
            }
        }

        if (listen_fd >= 0 && (fds[1].revents & POLLIN)) {
            while (true) {
                bool again = false;
                std::string accept_error;
                const int fd =
                    acceptRetry(listen_fd, &again, &accept_error);
                if (fd < 0)
                    break;
                const std::size_t target =
                    next_target++ % reactors_.size();
                if (target == reactor.index) {
                    adoptSession(reactor, fd);
                    continue;
                }
                Reactor &peer = *reactors_[target];
                {
                    std::lock_guard<std::mutex> lock(peer.mutex);
                    peer.inbox.push_back(fd);
                }
                wake(peer);
            }
        }

        for (std::size_t i = 0; i < polled.size(); ++i) {
            const pollfd &entry = fds[fixed + i];
            Session *session = polled[i];
            bool keep = true;
            if (entry.revents & (POLLIN | POLLHUP | POLLERR))
                keep = readSession(*session);
            if (keep && options_.readTimeoutMs > 0 &&
                !session->inBuf.empty()) {
                const auto stalled =
                    std::chrono::steady_clock::now() -
                    session->lastActivity;
                if (stalled > std::chrono::milliseconds(
                                  options_.readTimeoutMs)) {
                    sendTypedError(
                        session->fd, errc::kReadTimeout,
                        "frame not completed within read timeout");
                    keep = false;
                }
            }
            if (!keep) {
                // Copy the key: erase destroys the session holding it.
                const std::uint64_t id = session->id;
                reactor.sessions.erase(id);
            }
        }
    }

    // Shutdown: drop every session this reactor owns; the destructor
    // closes the fd.
    reactor.sessions.clear();
    // Close any handed-over fds that never became sessions.
    inbox.clear();
    {
        std::lock_guard<std::mutex> lock(reactor.mutex);
        inbox.swap(reactor.inbox);
    }
    for (const int fd : inbox)
        closeFd(fd);
}

bool
Server::readSession(Session &session)
{
    char chunk[65536];
    bool got_data = false;
    while (true) {
        const ssize_t n = ::recv(session.fd, chunk, sizeof chunk, 0);
        if (n > 0) {
            session.inBuf.append(chunk, static_cast<std::size_t>(n));
            got_data = true;
            continue;
        }
        if (n == 0)
            return false; // Peer closed; nothing left to answer.
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        return false;
    }
    if (got_data)
        session.lastActivity = std::chrono::steady_clock::now();
    return processSession(session);
}

bool
Server::processSession(Session &session)
{
    while (session.inBuf.size() >= kFrameHeaderBytes) {
        FrameHeader header;
        std::string decode_error;
        if (!decodeFrameHeader(session.inBuf.data(), &header,
                               &decode_error)) {
            sendTypedError(session.fd, errc::kBadFrame, decode_error);
            return false;
        }
        // Length check straight off the header: a hostile length
        // field is refused before a single payload byte is buffered
        // or allocated.
        if (header.payloadBytes > options_.maxPayloadBytes) {
            sendTypedError(
                session.fd, errc::kPayloadTooLarge,
                util::format("payload of %u bytes exceeds limit %zu",
                             header.payloadBytes,
                             options_.maxPayloadBytes));
            return false;
        }
        const std::size_t frame_bytes =
            kFrameHeaderBytes + header.payloadBytes;
        if (session.inBuf.size() < frame_bytes)
            return true; // Wait for the rest of the frame.
        // The payload is decoded IN PLACE from the input buffer (it
        // sits at offset 24, which keeps CBF's 8-byte alignment); the
        // frame is erased only after it has been fully handled.
        const char *payload =
            session.inBuf.data() + kFrameHeaderBytes;
        if (io::xxhash64(payload, header.payloadBytes) !=
            header.checksum) {
            sendTypedError(session.fd, errc::kChecksumMismatch,
                           "payload checksum mismatch");
            return false;
        }
        switch (header.type) {
          case FrameType::Ping: {
            // One process-wide allocation, ever: the pong frame is a
            // constant.
            static const std::string pong =
                buildFrame(FrameType::Pong, "");
            std::string send_error;
            if (!sendAll(session.fd, pong.data(), pong.size(),
                         &send_error))
                return false;
            session.inBuf.erase(0, frame_bytes);
            continue;
          }
          case FrameType::Request:
          case FrameType::Reload: {
            if (inFlight_.load(std::memory_order_relaxed) >=
                options_.maxQueueDepth) {
                // Explicit backpressure: the client sees a typed
                // `overloaded` reply, never a silent drop.
                sendTypedError(session.fd, errc::kOverloaded,
                               util::format(
                                   "admission queue full (depth %zu)",
                                   options_.maxQueueDepth));
                return false;
            }
            const std::size_t depth =
                inFlight_.fetch_add(1, std::memory_order_relaxed) + 1;
            OBS_GAUGE_SET("serve.queue_depth",
                          static_cast<double>(depth));
            const bool ok = dispatch(session, header.type, payload,
                                     header.payloadBytes);
            const std::size_t after =
                inFlight_.fetch_sub(1, std::memory_order_relaxed) - 1;
            OBS_GAUGE_SET("serve.queue_depth",
                          static_cast<double>(after));
            if (!ok)
                return false;
            session.inBuf.erase(0, frame_bytes);
            session.lastActivity = std::chrono::steady_clock::now();
            continue;
          }
          default:
            sendTypedError(
                session.fd, errc::kBadFrame,
                util::format("frame type %u is not a client request",
                             static_cast<unsigned>(header.type)));
            return false;
        }
    }
    return true;
}

bool
Server::dispatch(Session &session, FrameType type, const char *payload,
                 std::size_t size)
{
    // The span name is only materialized when tracing is on; the
    // request path must not allocate otherwise.
    obs::ScopedSpan span(
        obs::enabled()
            ? util::format("serve.session.%llu",
                           static_cast<unsigned long long>(session.id))
            : std::string(),
        "serve");
    OBS_TIMER("serve.request_us");
    return type == FrameType::Request
               ? handleRequest(session, payload, size)
               : handleReload(session, payload, size);
}

bool
Server::handleRequest(Session &session, const char *payload,
                      std::size_t size)
{
    RecommendRequest &request = session.requestScratch;
    std::string error;
    if (!decodeRecommendRequestView(payload, size,
                                    &session.requestFile, &request,
                                    &error)) {
        sendTypedError(session.fd, errc::kBadRequest, error);
        return false;
    }
    const std::optional<std::uint64_t> key =
        planKey(request.model, request.batch);
    if (!key) {
        sendTypedError(session.fd, errc::kUnknownModel,
                       "unknown model '" + request.model + "'");
        return false;
    }
    if (request.batch < 1 || request.batch > kMaxRequestBatch) {
        sendTypedError(session.fd, errc::kBadRequest,
                       util::format("batch %lld out of range [1, %lld]",
                                    static_cast<long long>(
                                        request.batch),
                                    static_cast<long long>(
                                        kMaxRequestBatch)));
        return false;
    }
    if (request.datasetSamples < 1) {
        sendTypedError(session.fd, errc::kBadRequest,
                       "samples must be >= 1");
        return false;
    }

    const std::shared_ptr<const Engine> engine = currentEngine();

    // Process-wide shared plan cache: a (model, batch) compiles once
    // no matter how many connections ask for it, and the entry is
    // pinned for the duration of this request even if a hot reload
    // lands mid-flight. tryGet is the allocation-free hit path;
    // getOrCompile coordinates the (cold) compile across sessions.
    // Only a miss builds the graph, and an entry keeps the plan and
    // the memory fits only: the graph dies with the lambda.
    std::shared_ptr<const PlanEntry> entry =
        planCache_.tryGet(*key, engine->generation);
    if (!entry) {
        entry = planCache_.getOrCompile(
            *key, engine->generation, [&]() {
                const graph::Graph graph =
                    models::buildModel(request.model, request.batch);
                PlanEntry fresh;
                fresh.fingerprint = *key;
                fresh.generation = engine->generation;
                OBS_TIMER("serve.compile_us");
                OBS_COUNTER_INC("serve.plan_compiles");
                auto plan =
                    std::make_shared<const core::PredictPlan>(
                        engine->predictor.compile(graph));
                // The memory-fit walk is the recommender's only
                // O(nodes) per-query step; bake the verdicts into the
                // entry so warm sweeps skip it.
                fresh.fits = core::computeMemoryFits(graph);
                fresh.bytes = plan->approxBytes();
                fresh.plan = std::move(plan);
                return fresh;
            });
    }

    // No graph: recommendInto reads the entry's fits and checks the
    // batch against its plan.
    core::WorkloadSpec workload;
    workload.datasetSamples = request.datasetSamples;
    workload.batchPerGpu = request.batch;
    core::Constraints constraints;
    constraints.hourlyBudgetUsd = request.hourlyBudgetUsd;
    constraints.hourlyToleranceUsd = request.hourlyToleranceUsd;
    constraints.totalBudgetUsd = request.totalBudgetUsd;
    constraints.enforceGpuMemory = request.enforceGpuMemory;
    const core::ObjectiveFn objective = core::objectiveFunction(
        request.objective == "time" ? core::Objective::MinTrainingTime
                                    : core::Objective::MinCost);

    // The sweep, projection and encode all write into per-session
    // scratch reused across requests, so a warm request allocates
    // nothing (docs/serving.md). The automatic sweep (threads = 0)
    // forks onto the shared pool only for catalogs at or above
    // core::kParallelSweepMinCandidates.
    core::recommendInto(engine->predictor, *entry->plan, workload,
                        candidates_, objective, constraints,
                        /*threads=*/0, &session.sweepScratch,
                        &entry->fits);
    responseFromRecommendationInto(session.sweepScratch,
                                   &session.responseScratch);
    encodeRecommendResponseInto(session.responseScratch,
                                &session.encodeScratch,
                                &session.payloadScratch);
    buildFrameInto(FrameType::Response, session.payloadScratch,
                   &session.frameScratch);
    if (!sendAll(session.fd, session.frameScratch.data(),
                 session.frameScratch.size(), &error))
        return false;
    OBS_COUNTER_INC("serve.requests");
    return true;
}

bool
Server::handleReload(Session &session, const char *payload,
                     std::size_t size)
{
    const std::string payload_str(payload, size);
    ReloadRequest reload;
    std::string error;
    if (!decodeReloadRequest(payload_str, &reload, &error)) {
        sendTypedError(session.fd, errc::kBadRequest, error);
        return false;
    }
    core::CeerModel model;
    if (!core::CeerModel::tryLoadFile(reload.modelPath, &model,
                                      &error)) {
        sendTypedError(session.fd, errc::kBadRequest,
                       "reload failed: " + error);
        return false;
    }
    ReloadDone done;
    {
        std::lock_guard<std::mutex> lock(engineMutex_);
        done.generation = engine_->generation + 1;
        engine_ = std::make_shared<const Engine>(std::move(model),
                                                 done.generation);
    }
    OBS_COUNTER_INC("serve.reloads");
    const std::string frame =
        buildFrame(FrameType::ReloadDone, encodeReloadDone(done));
    if (!sendAll(session.fd, frame.data(), frame.size(), &error))
        return false;
    OBS_COUNTER_INC("serve.requests");
    return true;
}

} // namespace serve
} // namespace ceer
