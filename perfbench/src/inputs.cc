#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "core/recommender.h"
#include "models/model_zoo.h"
#include "perfbench.h"

namespace perfbench {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
SplitMix64::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
SplitMix64::below(std::uint64_t n)
{
    return next() % n;
}

cloud::InstanceCatalog
fleetCatalog(std::uint64_t seed)
{
    return cloud::InstanceCatalog::syntheticFleet(kFleetInstances, seed);
}

std::vector<serve::RecommendRequest>
zooMix(std::uint64_t seed)
{
    std::vector<serve::RecommendRequest> mix;
    for (const char *objective : {"cost", "time"}) {
        for (const std::string &name : models::allModelNames()) {
            serve::RecommendRequest request;
            request.model = name;
            request.objective = objective;
            mix.push_back(std::move(request));
        }
    }
    SplitMix64 rng(seed ^ 0x4D49580000000000ull); // "MIX"
    for (std::size_t i = mix.size(); i > 1; --i)
        std::swap(mix[i - 1], mix[rng.below(i)]);
    return mix;
}

std::vector<serve::RecommendRequest>
churnStream(std::uint64_t seed)
{
    const std::vector<std::string> &names = models::allModelNames();
    const std::size_t keys =
        names.size() * static_cast<std::size_t>(kChurnMaxBatch);

    // Popularity rank -> key, by a seeded permutation of the key space.
    SplitMix64 rng(seed ^ 0x4348524E00000000ull); // "CHRN"
    std::vector<std::size_t> byRank(keys);
    std::iota(byRank.begin(), byRank.end(), std::size_t{0});
    for (std::size_t i = keys; i > 1; --i)
        std::swap(byRank[i - 1], byRank[rng.below(i)]);

    // Zipf over ranks: P(rank r) ~ (r + 1)^-kChurnZipfExponent.
    std::vector<double> cdf(keys);
    double total = 0.0;
    for (std::size_t r = 0; r < keys; ++r)
        cdf[r] = (total += std::pow(static_cast<double>(r + 1),
                                    -kChurnZipfExponent));

    std::vector<serve::RecommendRequest> stream(kChurnStreamLength);
    for (serve::RecommendRequest &request : stream) {
        const double u = rng.uniform() * total;
        const std::size_t rank = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const std::size_t key = byRank[std::min(rank, keys - 1)];
        request.model = names[key % names.size()];
        request.batch =
            static_cast<std::int64_t>(key / names.size()) + 1;
        request.objective = (rng.next() & 1) ? "time" : "cost";
    }
    return stream;
}

std::string
requestKey(const serve::RecommendRequest &request)
{
    return request.model + ":" + std::to_string(request.batch);
}

std::size_t
distinctKeys(const std::vector<serve::RecommendRequest> &requests)
{
    std::unordered_set<std::string> keys;
    for (const serve::RecommendRequest &request : requests)
        keys.insert(requestKey(request));
    return keys.size();
}

serve::RecommendRequest
pipelineRequest()
{
    serve::RecommendRequest request;
    request.model = kPipelineTarget;
    return request;
}

std::string
expectedReply(const core::CeerPredictor &predictor,
              const std::vector<cloud::GpuInstance> &catalog,
              const serve::RecommendRequest &request)
{
    const graph::Graph g =
        models::buildModel(request.model, request.batch);
    const core::WorkloadSpec workload{&g, request.datasetSamples,
                                      request.batch};
    core::Constraints constraints;
    constraints.hourlyBudgetUsd = request.hourlyBudgetUsd;
    constraints.hourlyToleranceUsd = request.hourlyToleranceUsd;
    constraints.totalBudgetUsd = request.totalBudgetUsd;
    constraints.enforceGpuMemory = request.enforceGpuMemory;
    const core::Objective objective =
        request.objective == "time" ? core::Objective::MinTrainingTime
                                    : core::Objective::MinCost;
    return serve::encodeRecommendResponse(
        serve::responseFromRecommendation(core::recommend(
            predictor, workload, catalog, objective, constraints)));
}

} // namespace perfbench
