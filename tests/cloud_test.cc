/**
 * @file
 * Tests for the instance catalog: the paper's 8 real instances and
 * prices, the proxy rule, budget filters, the market repricing, and
 * the fail-closed CSV loader.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/instances.h"
#include "io/cbf.h"

namespace ceer {
namespace cloud {
namespace {

using hw::GpuModel;

/**
 * Writes @p csv to a file named after the running test and loads it
 * through InstanceCatalog::tryLoadFile, the path the CLI and ceerd
 * load catalogs through.
 */
bool
tryLoadCsvText(const std::string &csv, InstanceCatalog *catalog,
               std::string *error)
{
    const std::string path =
        ::testing::TempDir() + "ceer-catalog-" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv";
    {
        std::ofstream out(path);
        out << csv;
    }
    const bool ok = InstanceCatalog::tryLoadFile(path, catalog, error);
    std::remove(path.c_str());
    return ok;
}

TEST(CatalogTest, PaperRealInstancesAndPrices)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    EXPECT_DOUBLE_EQ(catalog.find("p3.2xlarge").hourlyUsd, 3.06);
    EXPECT_DOUBLE_EQ(catalog.find("p2.xlarge").hourlyUsd, 0.90);
    EXPECT_DOUBLE_EQ(catalog.find("g4dn.2xlarge").hourlyUsd, 0.752);
    EXPECT_DOUBLE_EQ(catalog.find("g3s.xlarge").hourlyUsd, 0.75);
    EXPECT_DOUBLE_EQ(catalog.find("p3.8xlarge").hourlyUsd, 12.24);
    EXPECT_DOUBLE_EQ(catalog.find("p2.8xlarge-4gpu-proxy").hourlyUsd,
                     3.60);
    EXPECT_DOUBLE_EQ(catalog.find("g4dn.12xlarge").hourlyUsd, 3.912);
    EXPECT_DOUBLE_EQ(catalog.find("g3.16xlarge").hourlyUsd, 4.56);

    EXPECT_FALSE(catalog.find("p3.2xlarge").isProxy);
    EXPECT_EQ(catalog.find("p3.8xlarge").numGpus, 4);
}

TEST(CatalogTest, ProxyPricingFollowsPaperRule)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    // 3-GPU P2 proxy: 3/8 of p2.8xlarge ($7.20) = $2.70 (Sec. V).
    const GpuInstance &p2_3gpu = catalog.find(GpuModel::K80, 3);
    EXPECT_TRUE(p2_3gpu.isProxy);
    EXPECT_DOUBLE_EQ(p2_3gpu.hourlyUsd, 2.70);
    // 3-GPU G3 proxy: 3/4 of g3.16xlarge ($4.56) = $3.42.
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::M60, 3).hourlyUsd, 3.42);
    // 3-GPU G4 proxy: 3/4 of g4dn.12xlarge ($3.912) = $2.934.
    EXPECT_NEAR(catalog.find(GpuModel::T4, 3).hourlyUsd, 2.934, 1e-9);
    // 2-GPU P3 proxy: 2/4 of p3.8xlarge = $6.12.
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::V100, 2).hourlyUsd, 6.12);
}

TEST(CatalogTest, SixteenInstancesCoverFourFamilies)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    EXPECT_EQ(catalog.instances().size(), 16u);
    // Every family offers exactly one instance of each width 1..4.
    for (GpuModel gpu : hw::allGpuModels()) {
        for (int k = 1; k <= 4; ++k) {
            int matches = 0;
            for (const GpuInstance &instance : catalog.instances())
                matches += instance.gpu == gpu && instance.numGpus == k;
            EXPECT_EQ(matches, 1) << hw::gpuModelName(gpu) << " k=" << k;
        }
    }
}

TEST(CatalogTest, HourlyBudgetFilter)
{
    // A strict $1/hr budget admits only p2.xlarge ($0.90), g4dn.2xlarge
    // and g3s.xlarge; no P3 instance fits at all.
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    const auto affordable = catalog.largestPerFamilyWithin(1.0, 0.0);
    std::vector<std::string> names;
    for (const auto &instance : affordable) {
        EXPECT_LE(instance.hourlyUsd, 1.0);
        names.push_back(instance.name);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{"g3s.xlarge", "g4dn.2xlarge",
                                               "p2.xlarge"}));
}

TEST(CatalogTest, HourlyBudgetScenarioSelection)
{
    // Paper Sec. V ($3/hr, tolerance $0.42): P2 -> 3 GPUs, G3 -> 3,
    // G4 -> 3, P3 -> 1.
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    const auto picks = catalog.largestPerFamilyWithin(3.0, 0.42);
    ASSERT_EQ(picks.size(), 4u);
    std::map<GpuModel, int> gpus;
    for (const auto &instance : picks)
        gpus[instance.gpu] = instance.numGpus;
    EXPECT_EQ(gpus[GpuModel::V100], 1);
    EXPECT_EQ(gpus[GpuModel::K80], 3);
    EXPECT_EQ(gpus[GpuModel::T4], 3);
    EXPECT_EQ(gpus[GpuModel::M60], 3);
}

TEST(CatalogTest, MarketPricingRatios)
{
    // Sec. V: per-GPU $3.06 / $0.95 / $0.55 / $0.15, linear in GPUs.
    const InstanceCatalog catalog = InstanceCatalog::marketPriced();
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::V100, 1).hourlyUsd, 3.06);
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::T4, 1).hourlyUsd, 0.95);
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::M60, 1).hourlyUsd, 0.55);
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::K80, 1).hourlyUsd, 0.15);
    EXPECT_DOUBLE_EQ(catalog.find(GpuModel::K80, 4).hourlyUsd, 0.60);
    // Under market prices P2 is by far the cheapest per GPU.
    EXPECT_LT(catalog.find(GpuModel::K80, 4).hourlyUsd,
              catalog.find(GpuModel::M60, 2).hourlyUsd);
}

TEST(CatalogTest, PerSecondPricing)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    EXPECT_NEAR(catalog.find("p3.2xlarge").perSecondUsd(), 3.06 / 3600,
                1e-12);
}

TEST(CatalogTest, CsvRoundTrip)
{
    const InstanceCatalog original = InstanceCatalog::awsOnDemand();
    std::stringstream buffer;
    original.saveCsv(buffer);
    InstanceCatalog loaded;
    std::string error;
    ASSERT_TRUE(tryLoadCsvText(buffer.str(), &loaded, &error)) << error;
    ASSERT_EQ(loaded.instances().size(), original.instances().size());
    for (std::size_t i = 0; i < loaded.instances().size(); ++i) {
        EXPECT_EQ(loaded.instances()[i].name,
                  original.instances()[i].name);
        EXPECT_EQ(loaded.instances()[i].gpu,
                  original.instances()[i].gpu);
        EXPECT_EQ(loaded.instances()[i].numGpus,
                  original.instances()[i].numGpus);
        EXPECT_NEAR(loaded.instances()[i].hourlyUsd,
                    original.instances()[i].hourlyUsd, 1e-6);
    }
}

TEST(CatalogTest, CsvAcceptsCustomOfferings)
{
    InstanceCatalog catalog;
    std::string error;
    ASSERT_TRUE(tryLoadCsvText("name,gpu,gpus,hourly_usd\n"
                               "spot-v100,V100,1,0.92\n"
                               "other-cloud-t4,g4,2,0.41\n",
                               &catalog, &error))
        << error;
    ASSERT_EQ(catalog.instances().size(), 2u);
    EXPECT_EQ(catalog.find("spot-v100").gpu, GpuModel::V100);
    EXPECT_EQ(catalog.find("other-cloud-t4").numGpus, 2);
    EXPECT_DOUBLE_EQ(catalog.find("other-cloud-t4").hourlyUsd, 0.41);
}

TEST(CatalogTest, CsvRejectsMalformedRows)
{
    // Each bad file fails closed: a typed error, the catalog untouched.
    const struct
    {
        const char *csv;
        const char *error;
    } cases[] = {
        {"name,gpu,gpus,hourly_usd\nfoo,V100\n", "fields"},
        {"name,gpu,gpus,hourly_usd\nfoo,H100,1,2.0\n", "unknown GPU"},
        {"name,gpu,gpus,hourly_usd\nfoo,V100,1,-2.0\n",
         "row 1 column 4 (hourly_usd): not a finite positive number: "
         "'-2.0'"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.csv);
        InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
        std::string error;
        EXPECT_FALSE(tryLoadCsvText(c.csv, &catalog, &error));
        EXPECT_NE(error.find(c.error), std::string::npos) << error;
        EXPECT_EQ(catalog.instances().size(), 16u);
    }
}

TEST(CatalogTest, OversizedGpuCountsAreRejectedInBothDialects)
{
    // Both dialects run the one gpus validator (1..hw::kMaxGpus). The
    // CSV reader used to cast the int64 to int, so 4294967297 loaded
    // as a 1-GPU instance.
    for (const std::string gpus : {"4294967297", "2147483648"}) {
        SCOPED_TRACE(gpus);
        const std::string reason = "out of range [1, 1048576]: '" + gpus +
                                   "'";
        InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
        std::string error;
        EXPECT_FALSE(tryLoadCsvText(
            "name,gpu,gpus,hourly_usd\nbig,V100," + gpus + ",1.5\n",
            &catalog, &error));
        EXPECT_NE(error.find("row 1 column 3 (gpus): " + reason),
                  std::string::npos)
            << error;

        io::CbfBuilder builder;
        builder.addBytes("schema", "ceer.catalog.v1");
        io::addStringColumn(&builder, "cat.name", {"big"});
        io::addStringColumn(&builder, "cat.gpu", {"V100"});
        builder.addI64("cat.gpus",
                       std::vector<std::int64_t>{std::stoll(gpus)});
        builder.addF64("cat.hourly_usd", std::vector<double>{1.5});
        io::CbfFile file;
        ASSERT_TRUE(io::CbfFile::tryParse(builder.build(), &file, &error))
            << error;
        EXPECT_FALSE(InstanceCatalog::tryLoadCbf(file, &catalog, &error));
        EXPECT_NE(error.find("row 0 column cat.gpus: " + reason),
                  std::string::npos)
            << error;
        EXPECT_EQ(catalog.instances().size(), 16u);
    }
}

TEST(CatalogTest, MissingInstanceIsFatal)
{
    const InstanceCatalog catalog = InstanceCatalog::awsOnDemand();
    EXPECT_DEATH(catalog.find("p4d.24xlarge"), "no instance");
    EXPECT_DEATH(catalog.find(GpuModel::V100, 7), "no 7-GPU");
}

} // namespace
} // namespace cloud
} // namespace ceer
