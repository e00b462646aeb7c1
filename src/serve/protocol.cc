#include "serve/protocol.h"

#include <cstring>
#include <string_view>

#include "io/cbf.h"
#include "util/random.h"
#include "util/strings.h"

namespace ceer {
namespace serve {

namespace {

void
putU16(char *out, std::uint16_t v)
{
    out[0] = static_cast<char>(v & 0xff);
    out[1] = static_cast<char>((v >> 8) & 0xff);
}

void
putU32(char *out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void
putU64(char *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint16_t
getU16(const char *data)
{
    const auto *u = reinterpret_cast<const unsigned char *>(data);
    return static_cast<std::uint16_t>(u[0] |
                                      (static_cast<unsigned>(u[1]) << 8));
}

std::uint32_t
getU32(const char *data)
{
    const auto *u = reinterpret_cast<const unsigned char *>(data);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(u[i]) << (8 * i);
    return v;
}

std::uint64_t
getU64(const char *data)
{
    const auto *u = reinterpret_cast<const unsigned char *>(data);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(u[i]) << (8 * i);
    return v;
}

/** Parses @p payload as CBF with a protocol-level error message. */
bool
parsePayload(const std::string &payload, const char *what,
             io::CbfFile *file, std::string *error)
{
    std::string parse_error;
    if (!io::CbfFile::tryParse(payload, file, &parse_error)) {
        if (error)
            *error = std::string(what) + ": " + parse_error;
        return false;
    }
    return true;
}

/** Reads the single element of a required scalar i64 column. */
bool
readScalarI64(const io::CbfFile &file, std::string_view name,
              std::int64_t *out, std::string *error)
{
    const std::int64_t *data = nullptr;
    std::size_t count = 0;
    if (!file.i64(name, &data, &count, error))
        return false;
    if (count != 1) {
        if (error)
            *error = "column '" + std::string(name) +
                     "' must hold exactly 1 value";
        return false;
    }
    *out = data[0];
    return true;
}

/** Reads the single element of a required scalar f64 column. */
bool
readScalarF64(const io::CbfFile &file, std::string_view name,
              double *out, std::string *error)
{
    const double *data = nullptr;
    std::size_t count = 0;
    if (!file.f64(name, &data, &count, error))
        return false;
    if (count != 1) {
        if (error)
            *error = "column '" + std::string(name) +
                     "' must hold exactly 1 value";
        return false;
    }
    *out = data[0];
    return true;
}

/** Reads a required bytes column into a string. */
bool
readBytes(const io::CbfFile &file, std::string_view name,
          std::string *out, std::string *error)
{
    const char *data = nullptr;
    std::size_t size = 0;
    if (!file.bytes(name, &data, &size, error))
        return false;
    out->assign(data, size);
    return true;
}

/** Reads a required f64 column into a vector. */
bool
readF64Vector(const io::CbfFile &file, std::string_view name,
              std::vector<double> *out, std::string *error)
{
    const double *data = nullptr;
    std::size_t count = 0;
    if (!file.f64(name, &data, &count, error))
        return false;
    out->assign(data, data + count);
    return true;
}

} // namespace

bool
isKnownFrameType(std::uint8_t type)
{
    return type >= static_cast<std::uint8_t>(FrameType::Request) &&
           type <= static_cast<std::uint8_t>(FrameType::ReloadDone);
}

void
encodeFrameHeader(const FrameHeader &header, char *out)
{
    std::memcpy(out, kFrameMagic, 4);
    out[4] = static_cast<char>(kProtocolVersion);
    out[5] = static_cast<char>(header.type);
    putU16(out + 6, 0);
    putU32(out + 8, header.payloadBytes);
    putU32(out + 12, 0);
    putU64(out + 16, header.checksum);
}

bool
decodeFrameHeader(const char *data, FrameHeader *out,
                  std::string *error)
{
    if (std::memcmp(data, kFrameMagic, 4) != 0) {
        if (error)
            *error = "bad frame magic";
        return false;
    }
    const auto version = static_cast<std::uint8_t>(data[4]);
    if (version != kProtocolVersion) {
        if (error)
            *error = util::format("unsupported protocol version %u",
                                  static_cast<unsigned>(version));
        return false;
    }
    const auto type = static_cast<std::uint8_t>(data[5]);
    if (!isKnownFrameType(type)) {
        if (error)
            *error = util::format("unknown frame type %u",
                                  static_cast<unsigned>(type));
        return false;
    }
    if (getU16(data + 6) != 0 || getU32(data + 12) != 0) {
        if (error)
            *error = "reserved header fields must be zero";
        return false;
    }
    out->type = static_cast<FrameType>(type);
    out->payloadBytes = getU32(data + 8);
    out->checksum = getU64(data + 16);
    return true;
}

void
buildFrameInto(FrameType type, const std::string &payload,
               std::string *out)
{
    FrameHeader header;
    header.type = type;
    header.payloadBytes = static_cast<std::uint32_t>(payload.size());
    header.checksum = io::xxhash64(payload.data(), payload.size());
    out->clear();
    out->reserve(kFrameHeaderBytes + payload.size());
    out->resize(kFrameHeaderBytes);
    encodeFrameHeader(header, out->data());
    out->append(payload);
}

std::string
buildFrame(FrameType type, const std::string &payload)
{
    std::string frame;
    buildFrameInto(type, payload, &frame);
    return frame;
}

std::string
encodeRecommendRequest(const RecommendRequest &request)
{
    io::CbfBuilder builder;
    builder.addBytes("model", request.model);
    builder.addI64("batch", {request.batch});
    builder.addI64("samples", {request.datasetSamples});
    builder.addBytes("objective", request.objective);
    builder.addF64("hourly_budget", {request.hourlyBudgetUsd});
    builder.addF64("hourly_tolerance", {request.hourlyToleranceUsd});
    builder.addF64("total_budget", {request.totalBudgetUsd});
    builder.addU8("enforce_memory",
                  {request.enforceGpuMemory ? std::uint8_t(1)
                                            : std::uint8_t(0)});
    return builder.build();
}

bool
decodeRecommendRequestView(const char *payload, std::size_t size,
                           io::CbfFile *scratch, RecommendRequest *out,
                           std::string *error)
{
    std::string parse_error;
    if (!io::CbfFile::tryParseView(payload, size, scratch,
                                   &parse_error)) {
        if (error)
            *error = "recommend request: " + parse_error;
        return false;
    }
    const io::CbfFile &file = *scratch;
    RecommendRequest &request = *out;
    if (!readBytes(file, "model", &request.model, error) ||
        !readScalarI64(file, "batch", &request.batch, error) ||
        !readScalarI64(file, "samples", &request.datasetSamples,
                       error) ||
        !readBytes(file, "objective", &request.objective, error) ||
        !readScalarF64(file, "hourly_budget", &request.hourlyBudgetUsd,
                       error) ||
        !readScalarF64(file, "hourly_tolerance",
                       &request.hourlyToleranceUsd, error) ||
        !readScalarF64(file, "total_budget", &request.totalBudgetUsd,
                       error)) {
        return false;
    }
    const std::uint8_t *enforce = nullptr;
    std::size_t count = 0;
    if (!file.u8("enforce_memory", &enforce, &count, error))
        return false;
    if (count != 1) {
        if (error)
            *error = "column 'enforce_memory' must hold exactly 1 value";
        return false;
    }
    request.enforceGpuMemory = enforce[0] != 0;
    if (request.objective != "cost" && request.objective != "time") {
        if (error)
            *error = "objective must be 'cost' or 'time', got '" +
                     request.objective + "'";
        return false;
    }
    return true;
}

void
responseFromRecommendationInto(
    const core::Recommendation &recommendation, RecommendResponse *out)
{
    out->bestIndex = recommendation.bestIndex;
    const std::size_t n = recommendation.evaluations.size();
    out->instances.resize(n);
    out->hourlyUsd.resize(n);
    out->hours.resize(n);
    out->costUsd.resize(n);
    out->iterationUs.resize(n);
    out->feasible.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const core::CandidateEvaluation &evaluation =
            recommendation.evaluations[i];
        out->instances[i] = evaluation.instance.name;
        out->hourlyUsd[i] = evaluation.instance.hourlyUsd;
        out->hours[i] = evaluation.prediction.hours;
        out->costUsd[i] = evaluation.costUsd;
        out->iterationUs[i] = evaluation.prediction.iterationUs;
        out->feasible[i] = evaluation.feasible() ? 1 : 0;
    }
}

RecommendResponse
responseFromRecommendation(const core::Recommendation &recommendation)
{
    RecommendResponse response;
    responseFromRecommendationInto(recommendation, &response);
    return response;
}

void
encodeRecommendResponseInto(const RecommendResponse &response,
                            ResponseEncodeScratch *scratch,
                            std::string *payload)
{
    io::CbfBuilder &builder = scratch->builder;
    builder.clear();
    builder.addI64("best_index", &response.bestIndex, 1);
    // The "instance" string column, laid out exactly as
    // io::addStringColumn does but through reusable scratch buffers.
    std::string &blob = scratch->blob;
    std::vector<std::uint64_t> &offsets = scratch->offsets;
    blob.clear();
    offsets.clear();
    offsets.reserve(response.instances.size() + 1);
    offsets.push_back(0);
    for (const std::string &name : response.instances) {
        blob += name;
        offsets.push_back(blob.size());
    }
    builder.addBytes("instance", blob);
    builder.addU64("instance.off", offsets.data(), offsets.size());
    builder.addF64("hourly_usd", response.hourlyUsd.data(),
                   response.hourlyUsd.size());
    builder.addF64("hours", response.hours.data(),
                   response.hours.size());
    builder.addF64("cost_usd", response.costUsd.data(),
                   response.costUsd.size());
    builder.addF64("iteration_us", response.iterationUs.data(),
                   response.iterationUs.size());
    builder.addU8("feasible", response.feasible.data(),
                  response.feasible.size());
    builder.buildInto(payload);
}

std::string
encodeRecommendResponse(const RecommendResponse &response)
{
    ResponseEncodeScratch scratch;
    std::string payload;
    encodeRecommendResponseInto(response, &scratch, &payload);
    return payload;
}

bool
decodeRecommendResponse(const std::string &payload,
                        RecommendResponse *out, std::string *error)
{
    io::CbfFile file;
    if (!parsePayload(payload, "recommend response", &file, error))
        return false;
    RecommendResponse response;
    if (!readScalarI64(file, "best_index", &response.bestIndex, error))
        return false;
    if (!io::readStringColumn(file, "instance", &response.instances,
                              error))
        return false;
    if (!readF64Vector(file, "hourly_usd", &response.hourlyUsd, error) ||
        !readF64Vector(file, "hours", &response.hours, error) ||
        !readF64Vector(file, "cost_usd", &response.costUsd, error) ||
        !readF64Vector(file, "iteration_us", &response.iterationUs,
                       error)) {
        return false;
    }
    const std::uint8_t *feasible = nullptr;
    std::size_t count = 0;
    if (!file.u8("feasible", &feasible, &count, error))
        return false;
    response.feasible.assign(feasible, feasible + count);
    const std::size_t n = response.instances.size();
    if (response.hourlyUsd.size() != n || response.hours.size() != n ||
        response.costUsd.size() != n ||
        response.iterationUs.size() != n ||
        response.feasible.size() != n) {
        if (error)
            *error = "response columns disagree on candidate count";
        return false;
    }
    if (response.bestIndex >= static_cast<std::int64_t>(n)) {
        if (error)
            *error = util::format(
                "best_index %lld out of range for %zu candidates",
                static_cast<long long>(response.bestIndex), n);
        return false;
    }
    *out = std::move(response);
    return true;
}

std::string
encodeError(const ErrorInfo &info)
{
    io::CbfBuilder builder;
    builder.addBytes("code", info.code);
    builder.addBytes("message", info.message);
    return builder.build();
}

bool
decodeError(const std::string &payload, ErrorInfo *out,
            std::string *error)
{
    io::CbfFile file;
    if (!parsePayload(payload, "error payload", &file, error))
        return false;
    ErrorInfo info;
    if (!readBytes(file, "code", &info.code, error) ||
        !readBytes(file, "message", &info.message, error)) {
        return false;
    }
    *out = std::move(info);
    return true;
}

std::string
encodeReloadRequest(const ReloadRequest &request)
{
    io::CbfBuilder builder;
    builder.addBytes("model_path", request.modelPath);
    return builder.build();
}

bool
decodeReloadRequest(const std::string &payload, ReloadRequest *out,
                    std::string *error)
{
    io::CbfFile file;
    if (!parsePayload(payload, "reload request", &file, error))
        return false;
    ReloadRequest request;
    if (!readBytes(file, "model_path", &request.modelPath, error))
        return false;
    if (request.modelPath.empty()) {
        if (error)
            *error = "reload request has an empty model path";
        return false;
    }
    *out = std::move(request);
    return true;
}

std::string
encodeReloadDone(const ReloadDone &done)
{
    io::CbfBuilder builder;
    builder.addU64("generation", {done.generation});
    return builder.build();
}

bool
decodeReloadDone(const std::string &payload, ReloadDone *out,
                 std::string *error)
{
    io::CbfFile file;
    if (!parsePayload(payload, "reload ack", &file, error))
        return false;
    const std::uint64_t *data = nullptr;
    std::size_t count = 0;
    if (!file.u64("generation", &data, &count, error))
        return false;
    if (count != 1) {
        if (error)
            *error = "column 'generation' must hold exactly 1 value";
        return false;
    }
    out->generation = data[0];
    return true;
}

namespace {

std::uint64_t
mixShape(std::uint64_t h, const graph::TensorShape &shape)
{
    h = util::hashMix(h, shape.rank());
    for (std::int64_t dim : shape.dims())
        h = util::hashMix(h, static_cast<std::uint64_t>(dim));
    return h;
}

} // namespace

std::uint64_t
graphFingerprint(const graph::Graph &g)
{
    std::uint64_t h = util::hashMix(0x6365657264ULL, g.name());
    h = util::hashMix(h, static_cast<std::uint64_t>(g.batchSize()));
    h = util::hashMix(h, g.nodes().size());
    for (const graph::Node &node : g.nodes()) {
        h = util::hashMix(h, static_cast<std::uint64_t>(node.type));
        h = util::hashMix(h, static_cast<std::uint64_t>(node.dtype));
        h = util::hashMix(h, node.isGradient ? 1u : 0u);
        h = util::hashMix(h, node.inputs.size());
        for (graph::NodeId input : node.inputs)
            h = util::hashMix(h, static_cast<std::uint64_t>(input));
        h = util::hashMix(h, node.inputShapes.size());
        for (const graph::TensorShape &shape : node.inputShapes)
            h = mixShape(h, shape);
        h = mixShape(h, node.outputShape);
        const graph::OpAttrs &attrs = node.attrs;
        h = util::hashMix(h, static_cast<std::uint64_t>(attrs.kernelH));
        h = util::hashMix(h, static_cast<std::uint64_t>(attrs.kernelW));
        h = util::hashMix(h, static_cast<std::uint64_t>(attrs.strideH));
        h = util::hashMix(h, static_cast<std::uint64_t>(attrs.strideW));
        h = util::hashMix(h,
                          static_cast<std::uint64_t>(attrs.padding));
        h = mixShape(h, attrs.filterShape);
        h = util::hashMix(h,
                          static_cast<std::uint64_t>(attrs.paramCount));
        h = util::hashMix(h,
                          static_cast<std::uint64_t>(attrs.depthRadius));
        h = util::hashMix(h, static_cast<std::uint64_t>(attrs.axis));
    }
    h = util::hashMix(h, g.paramVars().size());
    for (const graph::ParamVar &param : g.paramVars()) {
        h = util::hashMix(h, param.name);
        h = mixShape(h, param.shape);
    }
    return h;
}

} // namespace serve
} // namespace ceer
