/**
 * @file
 * ceerd wire protocol: length-prefixed binary frames over TCP.
 *
 * Every message is a 24-byte fixed header followed by a payload whose
 * integrity is guarded by the same xxhash64 used for CBF file frames
 * (io/cbf.h). The payload itself is a CBF document built with the
 * column encodings from src/io, so the server and client reuse the
 * validated columnar codecs instead of inventing a second
 * serialization dialect.
 *
 * Header layout (little-endian):
 *
 *   offset  size  field
 *        0     4  magic "CERF"
 *        4     1  protocol version (kProtocolVersion)
 *        5     1  frame type (FrameType)
 *        6     2  reserved, must be zero
 *        8     4  payload length in bytes
 *       12     4  reserved, must be zero
 *       16     8  xxhash64(payload, seed 0)
 *
 * The receiver validates magic/version/type as soon as the header is
 * complete and rejects oversized payloads *before* buffering them, so
 * a hostile length field never drives an allocation. Checksum
 * verification happens once the payload is fully buffered. Every
 * violation is answered with a typed Error frame and the connection
 * is closed (fail closed; see docs/serving.md).
 */

#ifndef CEER_SERVE_PROTOCOL_H
#define CEER_SERVE_PROTOCOL_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/recommender.h"
#include "graph/graph.h"
#include "io/cbf.h"

namespace ceer {
namespace serve {

/** Bytes in the fixed frame header. */
constexpr std::size_t kFrameHeaderBytes = 24;

/** Wire magic; first bytes of every frame. */
constexpr char kFrameMagic[4] = {'C', 'E', 'R', 'F'};

/** Current protocol version. */
constexpr std::uint8_t kProtocolVersion = 1;

/** What a frame carries. */
enum class FrameType : std::uint8_t
{
    Request = 1,    ///< RecommendRequest payload (client -> server).
    Response = 2,   ///< RecommendResponse payload (server -> client).
    Error = 3,      ///< ErrorInfo payload (server -> client).
    Ping = 4,       ///< Empty payload; liveness probe.
    Pong = 5,       ///< Empty payload; Ping reply.
    Reload = 6,     ///< ReloadRequest payload: hot-swap the model.
    ReloadDone = 7, ///< ReloadDone payload: reload acknowledgement.
};

/** True for the FrameType values the protocol defines. */
bool isKnownFrameType(std::uint8_t type);

/** Decoded frame header. */
struct FrameHeader
{
    FrameType type = FrameType::Error; ///< Frame type.
    std::uint32_t payloadBytes = 0;    ///< Payload length.
    std::uint64_t checksum = 0;        ///< xxhash64 of the payload.
};

/**
 * Typed error codes carried by Error frames. Stable wire strings:
 * clients branch on these, so they never change spelling.
 */
namespace errc {
constexpr const char *kOverloaded = "overloaded";
constexpr const char *kBadFrame = "bad_frame";
constexpr const char *kPayloadTooLarge = "payload_too_large";
constexpr const char *kChecksumMismatch = "checksum_mismatch";
constexpr const char *kReadTimeout = "read_timeout";
constexpr const char *kBadRequest = "bad_request";
constexpr const char *kUnknownModel = "unknown_model";
constexpr const char *kInternal = "internal";
} // namespace errc

/** Encodes @p header into exactly kFrameHeaderBytes at @p out. */
void encodeFrameHeader(const FrameHeader &header, char *out);

/**
 * Decodes and validates a frame header from @p data (which must hold
 * at least kFrameHeaderBytes). Rejects bad magic, unknown versions,
 * unknown frame types and nonzero reserved fields. @p out is
 * untouched on failure.
 */
bool decodeFrameHeader(const char *data, FrameHeader *out,
                       std::string *error);

/** Builds a complete frame (header + payload) ready to send. */
std::string buildFrame(FrameType type, const std::string &payload);

/**
 * Builds a complete frame into @p out (cleared first), reusing its
 * capacity. Byte-identical to buildFrame().
 */
void buildFrameInto(FrameType type, const std::string &payload,
                    std::string *out);

/** One recommendation query. */
struct RecommendRequest
{
    std::string model;                 ///< Zoo model name.
    std::int64_t batch = 32;           ///< Per-GPU batch B.
    std::int64_t datasetSamples = 1200000; ///< Dataset size D.
    std::string objective = "cost";    ///< "cost" or "time".
    double hourlyBudgetUsd =
        std::numeric_limits<double>::infinity(); ///< Hourly cap.
    double hourlyToleranceUsd = 0.0;   ///< Tolerated hourly overshoot.
    double totalBudgetUsd =
        std::numeric_limits<double>::infinity(); ///< Total cap.
    bool enforceGpuMemory = true;      ///< Reject OOM instances.
};

/** Serializes a request as a CBF payload. */
std::string encodeRecommendRequest(const RecommendRequest &request);

/**
 * Parses a Request payload: @p size bytes at @p payload, in place (no
 * payload copy), through @p scratch, whose column table is reused
 * across calls, assigning into @p out's existing storage. On a warm
 * (scratch, out) pair decoding allocates nothing — this is ceerd's
 * request path. @p out may be partially written on failure; @p error
 * explains the first violation.
 */
bool decodeRecommendRequestView(const char *payload, std::size_t size,
                                io::CbfFile *scratch,
                                RecommendRequest *out,
                                std::string *error);

/**
 * One recommendation reply: the full candidate sweep in columnar
 * form plus the winner index. A pure function of (request, model,
 * catalog) — deliberately no timestamps or server identity, so a
 * reply is byte-comparable against an in-process recommend() run.
 */
struct RecommendResponse
{
    std::int64_t bestIndex = -1;           ///< Winner, -1 if none.
    std::vector<std::string> instances;    ///< Candidate names.
    std::vector<double> hourlyUsd;         ///< Rental price / hour.
    std::vector<double> hours;             ///< Predicted hours.
    std::vector<double> costUsd;           ///< Predicted total cost.
    std::vector<double> iterationUs;       ///< Per-iteration time.
    std::vector<std::uint8_t> feasible;    ///< 1 = meets constraints.
};

/** Columnar projection of a Recommendation. */
RecommendResponse
responseFromRecommendation(const core::Recommendation &recommendation);

/**
 * Out-parameter variant of responseFromRecommendation: overwrites
 * @p out element-wise, reusing vector and string capacity. A warm
 * @p out makes the projection allocation-free.
 */
void
responseFromRecommendationInto(const core::Recommendation &recommendation,
                               RecommendResponse *out);

/** Serializes a response as a CBF payload. */
std::string encodeRecommendResponse(const RecommendResponse &response);

/** Reusable state for encodeRecommendResponseInto. */
struct ResponseEncodeScratch
{
    io::CbfBuilder builder;
    std::string blob;                   ///< Concatenated instance names.
    std::vector<std::uint64_t> offsets; ///< String-column offsets.
};

/**
 * Serializes a response into @p payload through @p scratch.
 * Byte-identical to encodeRecommendResponse(); allocation-free once
 * both are warm.
 */
void encodeRecommendResponseInto(const RecommendResponse &response,
                                 ResponseEncodeScratch *scratch,
                                 std::string *payload);

/** Parses a Response payload; @p out untouched on failure. */
bool decodeRecommendResponse(const std::string &payload,
                             RecommendResponse *out,
                             std::string *error);

/** Typed error reply. */
struct ErrorInfo
{
    std::string code;    ///< One of the errc:: strings.
    std::string message; ///< Human-readable detail.
};

/** Serializes an error as a CBF payload. */
std::string encodeError(const ErrorInfo &info);

/** Parses an Error payload; @p out untouched on failure. */
bool decodeError(const std::string &payload, ErrorInfo *out,
                 std::string *error);

/** Hot-reload command: load a new model from a server-local path. */
struct ReloadRequest
{
    std::string modelPath; ///< Path readable by the server process.
};

/** Serializes a reload command as a CBF payload. */
std::string encodeReloadRequest(const ReloadRequest &request);

/** Parses a Reload payload; @p out untouched on failure. */
bool decodeReloadRequest(const std::string &payload, ReloadRequest *out,
                         std::string *error);

/** Reload acknowledgement. */
struct ReloadDone
{
    std::uint64_t generation = 0; ///< Engine generation now serving.
};

/** Serializes a reload ack as a CBF payload. */
std::string encodeReloadDone(const ReloadDone &done);

/** Parses a ReloadDone payload; @p out untouched on failure. */
bool decodeReloadDone(const std::string &payload, ReloadDone *out,
                      std::string *error);

/**
 * Structural fingerprint of a graph: a 64-bit hash over the graph
 * name, batch size, every node (type, dtype, gradient flag, inputs,
 * shapes, attributes) and every trainable variable. Two graphs with
 * the same fingerprint predict identically. The golden graph digests
 * pin every builder's output with it; ceerd keys plans by request
 * (planKey), so a request never builds a graph just to hash it.
 */
std::uint64_t graphFingerprint(const graph::Graph &g);

} // namespace serve
} // namespace ceer

#endif // CEER_SERVE_PROTOCOL_H
