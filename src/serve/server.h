/**
 * @file
 * ceerd: a persistent recommendation server.
 *
 * The server runs `reactors` reactor threads (default 1). Each
 * reactor owns its accepted sessions outright — their sockets, frame
 * assembly, poll set and wake pipe — so reactors share no per-session
 * state. The server has one listener, which only reactor 0 polls; it
 * hands accepted fds to the reactors round-robin (itself included), so
 * the k-th connection always lands on reactor k mod `reactors`.
 *
 * Every request executes INLINE on the reactor thread that owns its
 * session: no handoff, no task allocation. Request parallelism comes
 * from running one reactor per core. The
 * candidate sweep inside a request forks onto util::ThreadPool::shared()
 * only when the catalog is large enough for the fork-join to pay for
 * itself (core::kParallelSweepMinCandidates); smaller catalogs —
 * the 16-instance AWS one included — sweep serially. A session has at
 * most one request in flight.
 *
 * Compiled plans live in one process-wide PlanCache
 * (plan_cache.h) keyed by the request itself (planKey: model and
 * batch): the same (model, batch) arriving on different connections
 * compiles exactly once. Only a miss builds the graph; the entry
 * holds the plan and its memory fits, never the graph, which is
 * dropped once compiled. A hot reload invalidates entries lazily by
 * engine generation while in-flight requests keep their pinned entry.
 *
 * A warm request allocates nothing: frames are decoded in place from
 * the session's input buffer (CBF view parse), the candidate sweep,
 * response projection and encode all write into per-session reusable
 * scratch, and the response frame is built into a reusable output
 * buffer. bench/micro_serve enforces that with an operator-new
 * counting gate.
 *
 * Admission control is a bounded queue: once `maxQueueDepth` requests
 * are admitted and not yet answered (across all reactors), further
 * requests are refused with a typed `overloaded` Error frame
 * (backpressure the client can see, never a silent drop). Slow-loris
 * clients that stall mid-frame past `readTimeoutMs` get
 * `read_timeout` and are disconnected.
 *
 * Model hot-reload swaps an atomically published
 * `shared_ptr<const Engine>`; in-flight requests finish on the
 * engine they started with, so a reload never drops work.
 */

#ifndef CEER_SERVE_SERVER_H
#define CEER_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cloud/instances.h"
#include "core/ceer_model.h"
#include "core/predictor.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"

namespace ceer {
namespace serve {

/** Largest per-GPU batch a request may ask for. */
constexpr std::int64_t kMaxRequestBatch = 65536;

/**
 * The plan-cache key of a (model, batch) request: the model's index in
 * the table of names ceerd can build, shifted left 32 bits, OR'd with
 * the batch. Exact (one key per request, no hashing) for every batch
 * in [1, kMaxRequestBatch]. Nullopt when @p model is not buildable,
 * which ceerd answers with `unknown_model`.
 */
std::optional<std::uint64_t> planKey(std::string_view model,
                                     std::int64_t batch);

/** ceerd configuration. */
struct ServerOptions
{
    std::string host = "127.0.0.1"; ///< Bind address.
    int port = 0;                   ///< 0 = kernel-assigned port.

    /**
     * Reactor threads. Each owns its accepted sessions and executes
     * their requests, so this is the request-parallelism knob (one per
     * core is the intended production shape).
     */
    int reactors = 1;

    /**
     * Admission bound: maximum requests admitted (queued or
     * executing) at once across all reactors. Beyond it new requests
     * are refused with an `overloaded` Error frame. 0 refuses
     * everything (useful in tests).
     */
    std::size_t maxQueueDepth = 64;

    /** Payloads larger than this are refused before buffering. */
    std::size_t maxPayloadBytes = 1 << 20;

    /**
     * A connection stalled mid-frame longer than this is disconnected
     * with `read_timeout`. <= 0 disables the guard.
     */
    int readTimeoutMs = 5000;

    /** Shared plan cache: exact entry cap. */
    std::size_t planCacheCapacity = 256;
};

/** A persistent recommendation server over the ceerd protocol. */
class Server
{
  public:
    /**
     * @param model   Trained model served to clients.
     * @param catalog Candidate instances for every recommendation.
     * @param options Server configuration.
     */
    Server(core::CeerModel model, cloud::InstanceCatalog catalog,
           ServerOptions options = {});

    /** Stops the server (drains in-flight requests). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Binds, listens and starts the reactor threads. False with
     * @p error when the sockets cannot be set up (a failed bind
     * included).
     */
    bool tryStart(std::string *error);

    /** The bound port (after tryStart); useful with port 0. */
    int port() const { return port_; }

    /**
     * Graceful shutdown: stop accepting, close idle connections,
     * finish every admitted request, then return. Idempotent.
     */
    void stop();

    /** Engine generation currently serving (starts at 1). */
    std::uint64_t generation() const;

    /** Shared plan cache counters (hits/misses/evictions/bytes). */
    PlanCache::Stats planCacheStats() const
    {
        return planCache_.stats();
    }

    /** The shared plan cache itself, for inspecting its entries. */
    PlanCache &planCache() const { return planCache_; }

  private:
    /** An immutable predictor + its generation, swapped on reload. */
    struct Engine
    {
        core::CeerPredictor predictor;
        std::uint64_t generation = 1;

        Engine(core::CeerModel model, std::uint64_t gen)
            : predictor(std::move(model)), generation(gen)
        {
        }
    };

    /** Per-connection state, owned by exactly one reactor. */
    struct Session
    {
        std::uint64_t id = 0;
        int fd = -1;
        std::string inBuf;
        std::chrono::steady_clock::time_point lastActivity;

        /**
         * Reusable request-path scratch, touched only by the owning
         * reactor thread. Once warm, a recommend request reuses these
         * buffers instead of allocating them.
         */
        RecommendRequest requestScratch;     ///< Decoded request.
        io::CbfFile requestFile;             ///< View-parse scratch.
        core::Recommendation sweepScratch;   ///< Candidate sweep.
        RecommendResponse responseScratch;   ///< Columnar projection.
        ResponseEncodeScratch encodeScratch; ///< CBF encode scratch.
        std::string payloadScratch;          ///< Encoded payload.
        std::string frameScratch;            ///< Outgoing frame.

        ~Session();
    };

    /** One reactor thread and everything it owns. */
    struct Reactor
    {
        std::size_t index = 0;
        int wakeRead = -1;
        int wakeWrite = -1;
        std::thread thread;

        /** Guards inbox — the only state other threads touch.
         *  sessions is reactor-thread-private. */
        std::mutex mutex;
        /** Accepted fds handed over by reactor 0. */
        std::vector<int> inbox;

        std::unordered_map<std::uint64_t, std::unique_ptr<Session>>
            sessions;
    };

    void reactorLoop(Reactor &reactor);
    void wake(Reactor &reactor);
    void adoptSession(Reactor &reactor, int fd);
    bool processSession(Session &session);
    bool readSession(Session &session);
    /** Runs one admitted frame; returns false when the session must
     *  close. */
    bool dispatch(Session &session, FrameType type, const char *payload,
                  std::size_t size);
    bool handleRequest(Session &session, const char *payload,
                       std::size_t size);
    bool handleReload(Session &session, const char *payload,
                      std::size_t size);
    std::shared_ptr<const Engine> currentEngine() const;

    ServerOptions options_;
    std::vector<cloud::GpuInstance> candidates_;

    mutable std::mutex engineMutex_;
    std::shared_ptr<const Engine> engine_;

    /** Shared across all sessions and reactors. */
    mutable PlanCache planCache_;

    std::vector<std::unique_ptr<Reactor>> reactors_;
    int listenFd_ = -1; ///< The one listener; reactor 0 polls it.
    int port_ = 0;
    std::atomic<bool> stopping_{false};
    bool started_ = false;

    std::atomic<std::uint64_t> nextSessionId_{1};

    /** Admitted (executing) requests, all reactors. */
    std::atomic<std::size_t> inFlight_{0};
};

} // namespace serve
} // namespace ceer

#endif // CEER_SERVE_SERVER_H
