// Self-tests of the benchmark's own code: seeded inputs are pure
// functions of the seed, the churn stream is large against the plan
// cache, and quantiles publish only with enough samples beyond them.
// Run by perfbench/run.py before every benchmark run; exits 1 on the
// first failed check.

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void
check(bool ok, const std::string &what)
{
    std::cout << (ok ? "[PASS] " : "[FAIL] ") << what << "\n";
    g_failures += ok ? 0 : 1;
}

std::string
csv(const cloud::InstanceCatalog &catalog)
{
    std::ostringstream out;
    catalog.saveCsv(out);
    return out.str();
}

std::string
flatten(const std::vector<serve::RecommendRequest> &requests)
{
    std::string out;
    for (const serve::RecommendRequest &request : requests)
        out += requestKey(request) + "/" + request.objective + ";";
    return out;
}

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i)
        values[i] = static_cast<double>(i + 1);
    return values;
}

} // namespace

int
main()
{
    check(csv(fleetCatalog(7)) == csv(fleetCatalog(7)),
          "same seed gives an identical fleet catalog");
    check(csv(fleetCatalog(7)) != csv(fleetCatalog(8)),
          "another seed gives another fleet catalog");
    check(fleetCatalog(7).instances().size() == kFleetInstances,
          "the fleet has kFleetInstances instances");

    check(flatten(zooMix(7)) == flatten(zooMix(7)),
          "same seed gives an identical request list");
    check(flatten(zooMix(7)) != flatten(zooMix(8)),
          "another seed gives another request order");
    check(zooMix(7).size() == 24 && distinctKeys(zooMix(7)) == 12,
          "the zoo mix is 12 CNNs x 2 objectives");

    const std::vector<serve::RecommendRequest> churn = churnStream(7);
    check(flatten(churn) == flatten(churnStream(7)),
          "same seed gives an identical churn key stream");
    check(flatten(churn) != flatten(churnStream(8)),
          "another seed gives another churn key stream");
    const std::size_t distinct = distinctKeys(churn);
    std::cout << "churn stream: " << churn.size() << " requests, "
              << distinct << " distinct keys\n";
    check(distinct >= 8 * kPlanCacheCapacity,
          "churn distinct keys are at least 8x the plan-cache capacity");

    check(!publishedQuantile(ramp(999), 0.99).has_value(),
          "p99 of 999 samples is not published (9.99 beyond it)");
    check(publishedQuantile(ramp(1000), 0.99) == 990.0,
          "p99 of 1000 samples is published (10 beyond it)");
    check(!publishedQuantile(ramp(39), 0.75).has_value() &&
              publishedQuantile(ramp(40), 0.75) == 30.0,
          "p75 publishes from 40 samples on");
    check(publishedQuantile(ramp(20), 0.5) == 10.0,
          "p50 of 20 samples is the nearest-rank median");
    check(!publishedQuantile({}, 0.5).has_value(),
          "an empty sample publishes nothing");
    check(median({3.0, 1.0, 2.0, 4.0}) == 2.5, "median of an even sample");

    std::cout << (g_failures ? "SELF-TEST FAILED" : "SELF-TEST OK")
              << "\n";
    return g_failures ? 1 : 0;
}
