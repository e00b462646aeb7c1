/**
 * @file
 * Seeded randomized round-trip harness for every serialization format
 * in the repo: CSV documents (CsvWriter <-> tryReadCsv), LinearModel
 * strings, CeerModel text files and ProfileDataset CSVs, over
 * adversarial contents — quotes, commas, CR/LF, multi-line fields,
 * extreme magnitudes and full-precision doubles.
 *
 * All generators are seeded Rngs, so every trial is reproducible.
 */

#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/evaluate.h"
#include "cloud/instances.h"
#include "core/ceer_model.h"
#include "core/regression.h"
#include "graph/op_type.h"
#include "hw/gpu_spec.h"
#include "io/schema.h"
#include "profile/profiler.h"
#include "util/csv.h"
#include "util/random.h"
#include "util/strings.h"

namespace ceer {
namespace {

using core::CeerModel;
using core::LinearModel;
using core::OpTimeModel;
using graph::OpType;
using hw::GpuModel;

/** Characters deliberately hostile to naive CSV code. */
const std::string kCsvAlphabet = "ab0,\";\n\r \tx";

std::string
randomField(util::Rng &rng)
{
    std::string field;
    const std::size_t length = rng.uniformInt(10);
    for (std::size_t i = 0; i < length; ++i)
        field += kCsvAlphabet[rng.uniformInt(kCsvAlphabet.size())];
    return field;
}

/** A finite double spanning ~24 decades of magnitude, either sign. */
double
randomDouble(util::Rng &rng)
{
    const double magnitude = std::pow(10.0, rng.uniform(-12.0, 12.0));
    return (rng.uniform() * 2.0 - 1.0) * magnitude;
}

double
randomPositive(util::Rng &rng)
{
    return std::pow(10.0, rng.uniform(-6.0, 9.0));
}

std::string
fmt17(double value)
{
    return util::format("%.17g", value);
}

/**
 * Appends one random ";weight,scale" term to a LinearModel string. The
 * scale is drawn before the weight: the order these seeds' fixtures
 * were generated in.
 */
void
appendTerm(util::Rng &rng, std::string *text)
{
    const std::string scale = fmt17(randomPositive(rng));
    *text += ';';
    *text += fmt17(randomDouble(rng));
    *text += ',';
    *text += scale;
}

/** tryDeserialize of text the harness built, which must parse. */
LinearModel
parseLinearModel(const std::string &text)
{
    LinearModel model;
    std::string error;
    EXPECT_TRUE(LinearModel::tryDeserialize(text, &model, &error))
        << text << ": " << error;
    return model;
}

TEST(RoundTripTest, RandomizedCsvDocumentsSurviveWriteRead)
{
    util::Rng rng(20260806);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<std::vector<std::string>> rows;
        const std::size_t num_rows = 1 + rng.uniformInt(6);
        for (std::size_t r = 0; r < num_rows; ++r) {
            std::vector<std::string> row;
            const std::size_t num_fields = 1 + rng.uniformInt(5);
            for (std::size_t f = 0; f < num_fields; ++f)
                row.push_back(randomField(rng));
            rows.push_back(std::move(row));
        }
        std::stringstream buffer;
        util::CsvWriter writer(buffer);
        for (const auto &row : rows)
            writer.writeRow(row);
        std::vector<std::vector<std::string>> reread;
        std::string error;
        ASSERT_TRUE(util::tryReadCsv(buffer, &reread, &error))
            << "trial " << trial << ": " << error;
        ASSERT_EQ(reread, rows) << "trial " << trial;
    }
}

TEST(RoundTripTest, RandomizedLinearModelsSerializeBitIdentically)
{
    util::Rng rng(7);
    for (int trial = 0; trial < 500; ++trial) {
        const std::size_t arity = rng.uniformInt(4);
        std::string text = fmt17(randomDouble(rng));
        for (std::size_t j = 0; j < arity; ++j)
            appendTerm(rng, &text);
        LinearModel first;
        std::string error;
        ASSERT_TRUE(LinearModel::tryDeserialize(text, &first, &error))
            << text << ": " << error;
        // serialize() is %.17g, which round-trips a double exactly:
        // one trip must reach a fixed point, and the reloaded model
        // must predict bit-identically.
        const std::string serialized = first.serialize();
        const LinearModel second = parseLinearModel(serialized);
        EXPECT_EQ(second.serialize(), serialized) << "trial " << trial;
        std::vector<double> x;
        for (std::size_t j = 0; j < arity; ++j)
            x.push_back(randomDouble(rng));
        EXPECT_EQ(second.predict(x), first.predict(x))
            << "trial " << trial;
    }
}

/** Op types used for randomized models (any valid subset works). */
const std::vector<OpType> &
someOps()
{
    static const std::vector<OpType> ops = {
        OpType::Conv2D,  OpType::MaxPool, OpType::Relu,
        OpType::MatMul,  OpType::BiasAdd, OpType::AddV2,
        OpType::AvgPool, OpType::Mul,
    };
    return ops;
}

std::string
randomLinearModelText(util::Rng &rng, std::size_t arity)
{
    std::string text = fmt17(randomDouble(rng));
    for (std::size_t j = 0; j < arity; ++j)
        appendTerm(rng, &text);
    return text;
}

CeerModel
randomCeerModel(util::Rng &rng)
{
    CeerModel model;
    model.heavyThresholdUs = randomPositive(rng);
    model.lightMedianUs = randomPositive(rng);
    model.cpuMedianUs = randomPositive(rng);
    for (GpuModel gpu : hw::allGpuModels()) {
        for (OpType op : someOps()) {
            if (rng.uniform() < 0.4)
                continue;
            OpTimeModel entry;
            entry.gpu = gpu;
            entry.op = op;
            entry.quadratic = rng.uniform() < 0.5;
            entry.usable = rng.uniform() < 0.8;
            entry.r2 = rng.uniform();
            entry.medianUs = randomPositive(rng);
            entry.points = rng.uniformInt(1000);
            entry.model = parseLinearModel(
                randomLinearModelText(rng, 1 + rng.uniformInt(2)));
            model.opModels.emplace(std::make_pair(gpu, op),
                                   std::move(entry));
            if (rng.uniform() < 0.7)
                model.heavyOps.insert(op);
        }
        auto &per_k = model.comm.fits[gpu];
        per_k.resize(1 + rng.uniformInt(4));
        for (auto &fit : per_k) {
            if (rng.uniform() < 0.3)
                continue;
            fit.valid = true;
            fit.r2 = rng.uniform();
            fit.model = parseLinearModel(randomLinearModelText(rng, 1));
        }
    }
    return model;
}

TEST(RoundTripTest, RandomizedCeerModelsSaveLoadSaveByteIdentically)
{
    // save() emits every coefficient at %.17g and iterates sorted
    // containers, so save -> load -> save must reproduce the document
    // byte for byte, whatever the model contents.
    util::Rng rng(41);
    for (int trial = 0; trial < 50; ++trial) {
        const CeerModel original = randomCeerModel(rng);
        std::stringstream first;
        original.save(first);
        const CeerModel reloaded = CeerModel::load(first);
        std::stringstream second;
        reloaded.save(second);
        ASSERT_EQ(second.str(), first.str()) << "trial " << trial;
    }
}

/** CNN names hostile to the CSV layer. */
std::string
randomModelName(util::Rng &rng)
{
    static const std::vector<std::string> names = {
        "alexnet", "a,b", "q\"uote", "multi\nline", "cr\rname",
        "trailing ", "", "semi;colon",
    };
    return names[rng.uniformInt(names.size())];
}

profile::OpProfile
randomOpProfile(util::Rng &rng, std::size_t count)
{
    profile::OpProfile profile;
    profile.model = randomModelName(rng);
    const auto &gpus = hw::allGpuModels();
    profile.gpu = gpus[rng.uniformInt(gpus.size())];
    profile.op = someOps()[rng.uniformInt(someOps().size())];
    profile.onCpu = rng.uniform() < 0.2;
    profile.occurrences = 1 + rng.uniformInt(50);
    const std::size_t num_features = 1 + rng.uniformInt(4);
    for (std::size_t f = 0; f < num_features; ++f)
        profile.features.push_back(randomPositive(rng));
    const double mean = randomPositive(rng);
    const double spread = mean * rng.uniform(0.0, 0.05);
    for (std::size_t j = 0; j < count; ++j)
        profile.timeUs.add(j % 2 == 0 ? mean + spread : mean - spread);
    const std::size_t num_samples = rng.uniformInt(8);
    for (std::size_t s = 0; s < num_samples; ++s)
        profile.samples.add(randomPositive(rng));
    return profile;
}

profile::IterationProfile
randomIterationProfile(util::Rng &rng)
{
    profile::IterationProfile run;
    run.model = randomModelName(rng);
    const auto &gpus = hw::allGpuModels();
    run.gpu = gpus[rng.uniformInt(gpus.size())];
    run.numGpus = 1 + static_cast<int>(rng.uniformInt(4));
    run.paramCount = static_cast<std::int64_t>(rng.uniformInt(1u << 30));
    run.meanIterationUs = randomPositive(rng);
    run.meanComputeUs = randomPositive(rng);
    run.meanCommUs = randomPositive(rng);
    return run;
}

std::string
datasetCsv(const profile::ProfileDataset &dataset)
{
    std::stringstream out;
    dataset.saveCsv(out);
    return out.str();
}

TEST(RoundTripTest, SingleCountDatasetsRoundTripByteIdentically)
{
    // With count == 1 the moment reconstruction in loadCsv is exact
    // (the single sample IS the mean), and every numeric column's
    // decimal rendering survives a parse/re-print cycle, so the CSV
    // itself must round-trip byte for byte.
    util::Rng rng(113);
    for (int trial = 0; trial < 40; ++trial) {
        profile::ProfileDataset dataset;
        std::vector<profile::OpProfile> ops;
        const std::size_t num_ops = 1 + rng.uniformInt(12);
        for (std::size_t i = 0; i < num_ops; ++i)
            ops.push_back(randomOpProfile(rng, 1));
        dataset.add(std::move(ops));
        const std::size_t num_iters = rng.uniformInt(6);
        for (std::size_t i = 0; i < num_iters; ++i)
            dataset.addIteration(randomIterationProfile(rng));

        const std::string first = datasetCsv(dataset);
        std::istringstream in(first);
        const profile::ProfileDataset reloaded =
            profile::ProfileDataset::loadCsv(in);
        ASSERT_EQ(datasetCsv(reloaded), first) << "trial " << trial;
    }
}

TEST(RoundTripTest, MultiCountDatasetsReachAFixedPointAfterOneTrip)
{
    // Multi-sample stats are stored as (count, mean, stddev) and
    // reconstructed as a two-point distribution: the first save ->
    // load trip is mildly lossy by design, but the result must be
    // stable — a second trip reproduces the CSV byte for byte.
    util::Rng rng(229);
    for (int trial = 0; trial < 40; ++trial) {
        profile::ProfileDataset dataset;
        std::vector<profile::OpProfile> ops;
        const std::size_t num_ops = 1 + rng.uniformInt(10);
        for (std::size_t i = 0; i < num_ops; ++i)
            ops.push_back(
                randomOpProfile(rng, 2 * (1 + rng.uniformInt(20))));
        dataset.add(std::move(ops));

        const std::string first = datasetCsv(dataset);
        std::istringstream in_first(first);
        const profile::ProfileDataset once =
            profile::ProfileDataset::loadCsv(in_first);
        const std::string second = datasetCsv(once);
        std::istringstream in_second(second);
        const profile::ProfileDataset twice =
            profile::ProfileDataset::loadCsv(in_second);
        ASSERT_EQ(datasetCsv(twice), second) << "trial " << trial;

        // The lossy step stays small: even counts make the two-point
        // reconstruction exact up to floating-point rounding.
        ASSERT_EQ(once.ops().size(), dataset.ops().size());
        for (std::size_t i = 0; i < once.ops().size(); ++i) {
            const auto &a = dataset.ops()[i];
            const auto &b = once.ops()[i];
            EXPECT_EQ(b.model, a.model);
            EXPECT_EQ(b.occurrences, a.occurrences);
            EXPECT_EQ(b.features, a.features);
            EXPECT_EQ(b.timeUs.count(), a.timeUs.count());
            EXPECT_NEAR(b.timeUs.mean(), a.timeUs.mean(),
                        1e-6 * a.timeUs.mean());
            EXPECT_NEAR(b.timeUs.stddev(), a.timeUs.stddev(),
                        1e-6 * a.timeUs.stddev() + 1e-9);
        }
    }
}

// ---------------------------------------------------------------------
// CBF (binary) round-trips. Unlike CSV, the CBF codec stores the
// exact accumulator state, so round-trips are bit-identical for ANY
// dataset — odd counts, overflowed reservoirs, hostile names.

std::string
datasetCbf(const profile::ProfileDataset &dataset)
{
    std::stringstream out;
    dataset.saveCbf(out);
    return out.str();
}

profile::ProfileDataset
parseCbfDataset(const std::string &bytes)
{
    io::CbfFile file;
    std::string error;
    EXPECT_TRUE(io::CbfFile::tryParse(bytes, &file, &error)) << error;
    profile::ProfileDataset dataset;
    EXPECT_TRUE(
        profile::ProfileDataset::tryLoadCbf(file, &dataset, &error))
        << error;
    return dataset;
}

TEST(RoundTripTest, RandomizedDatasetsCbfRoundTripExactly)
{
    util::Rng rng(307);
    for (int trial = 0; trial < 40; ++trial) {
        profile::ProfileDataset dataset;
        std::vector<profile::OpProfile> ops;
        const std::size_t num_ops = 1 + rng.uniformInt(10);
        for (std::size_t i = 0; i < num_ops; ++i) {
            // Odd counts and overflowed reservoirs on purpose: the
            // binary codec must not depend on CSV-representability.
            profile::OpProfile op =
                randomOpProfile(rng, 1 + rng.uniformInt(41));
            const std::size_t extra = rng.uniformInt(150);
            for (std::size_t s = 0; s < extra; ++s)
                op.samples.add(randomPositive(rng));
            ops.push_back(std::move(op));
        }
        dataset.add(std::move(ops));
        const std::size_t num_iters = rng.uniformInt(6);
        for (std::size_t i = 0; i < num_iters; ++i)
            dataset.addIteration(randomIterationProfile(rng));

        const std::string bytes = datasetCbf(dataset);
        const profile::ProfileDataset reloaded = parseCbfDataset(bytes);
        ASSERT_EQ(datasetCbf(reloaded), bytes) << "trial " << trial;
        // Spot-check the exactness claim on the lossiest CSV fields.
        ASSERT_EQ(reloaded.ops().size(), dataset.ops().size());
        for (std::size_t i = 0; i < dataset.ops().size(); ++i) {
            const auto &a = dataset.ops()[i];
            const auto &b = reloaded.ops()[i];
            EXPECT_EQ(b.timeUs.count(), a.timeUs.count());
            EXPECT_EQ(b.timeUs.mean(), a.timeUs.mean());
            EXPECT_EQ(b.timeUs.stddev(), a.timeUs.stddev());
            EXPECT_EQ(b.samples.offered(), a.samples.offered());
            EXPECT_EQ(b.samples.samples(), a.samples.samples());
        }
        // And the CSV rendering agrees, since the contents do.
        EXPECT_EQ(datasetCsv(reloaded), datasetCsv(dataset))
            << "trial " << trial;
    }
}

TEST(RoundTripTest, CsvToCbfToCsvReproducesTheCanonicalCsv)
{
    // CSV -> CBF -> CSV: starting from a canonical CSV (one save/load
    // trip puts any dataset there), converting through the binary
    // dialect and back must reproduce the text byte for byte.
    util::Rng rng(401);
    for (int trial = 0; trial < 30; ++trial) {
        profile::ProfileDataset dataset;
        std::vector<profile::OpProfile> ops;
        const std::size_t num_ops = 1 + rng.uniformInt(10);
        for (std::size_t i = 0; i < num_ops; ++i)
            ops.push_back(
                randomOpProfile(rng, 1 + rng.uniformInt(30)));
        dataset.add(std::move(ops));
        const std::size_t num_iters = rng.uniformInt(4);
        for (std::size_t i = 0; i < num_iters; ++i)
            dataset.addIteration(randomIterationProfile(rng));

        std::istringstream raw(datasetCsv(dataset));
        const profile::ProfileDataset canonical_dataset =
            profile::ProfileDataset::loadCsv(raw);
        const std::string canonical = datasetCsv(canonical_dataset);

        const profile::ProfileDataset from_cbf =
            parseCbfDataset(datasetCbf(canonical_dataset));
        ASSERT_EQ(datasetCsv(from_cbf), canonical) << "trial " << trial;
    }
}

TEST(RoundTripTest, CbfToCsvToCbfIsExactForCsvRepresentableDatasets)
{
    // CBF -> CSV -> CBF: exact whenever the dataset is inside CSV's
    // representable set — canonical values and single-sample stats
    // (count == 1 makes the moment reconstruction lossless).
    util::Rng rng(503);
    for (int trial = 0; trial < 30; ++trial) {
        profile::ProfileDataset dataset;
        std::vector<profile::OpProfile> ops;
        const std::size_t num_ops = 1 + rng.uniformInt(10);
        for (std::size_t i = 0; i < num_ops; ++i)
            ops.push_back(randomOpProfile(rng, 1));
        dataset.add(std::move(ops));
        std::istringstream raw(datasetCsv(dataset));
        const profile::ProfileDataset canonical =
            profile::ProfileDataset::loadCsv(raw);

        const std::string cbf_first = datasetCbf(canonical);
        std::istringstream csv_in(datasetCsv(canonical));
        const profile::ProfileDataset via_csv =
            profile::ProfileDataset::loadCsv(csv_in);
        ASSERT_EQ(datasetCbf(via_csv), cbf_first) << "trial " << trial;
    }
}

TEST(RoundTripTest, RandomizedCeerModelsCbfRoundTripByteIdentically)
{
    util::Rng rng(601);
    for (int trial = 0; trial < 50; ++trial) {
        const CeerModel original = randomCeerModel(rng);
        std::stringstream first;
        original.saveCbf(first);

        io::CbfFile file;
        std::string error;
        ASSERT_TRUE(io::CbfFile::tryParse(first.str(), &file, &error))
            << error;
        CeerModel reloaded;
        ASSERT_TRUE(CeerModel::tryLoadCbf(file, &reloaded, &error))
            << error;
        std::stringstream second;
        reloaded.saveCbf(second);
        ASSERT_EQ(second.str(), first.str()) << "trial " << trial;

        // The text dialect agrees too, since the contents do.
        std::stringstream text_a, text_b;
        original.save(text_a);
        reloaded.save(text_b);
        EXPECT_EQ(text_b.str(), text_a.str()) << "trial " << trial;
    }
}

TEST(RoundTripTest, CatalogCbfRoundTripsByteIdentically)
{
    for (const cloud::InstanceCatalog &catalog :
         {cloud::InstanceCatalog::awsOnDemand(),
          cloud::InstanceCatalog::syntheticFleet(500)}) {
        std::stringstream first;
        catalog.saveCbf(first);
        io::CbfFile file;
        std::string error;
        ASSERT_TRUE(io::CbfFile::tryParse(first.str(), &file, &error))
            << error;
        cloud::InstanceCatalog reloaded;
        ASSERT_TRUE(cloud::InstanceCatalog::tryLoadCbf(file, &reloaded,
                                                       &error))
            << error;
        std::stringstream second;
        reloaded.saveCbf(second);
        ASSERT_EQ(second.str(), first.str());
        ASSERT_EQ(reloaded.instances().size(),
                  catalog.instances().size());
    }
}

/** The report's loaders: the generic reader over its schema. */
const io::FileSchema<baselines::EvalReport> &
reportSchema()
{
    return baselines::EvalReport::schema();
}

/** A synthetic evaluation report with full-precision doubles. */
baselines::EvalReport
randomEvalReport(util::Rng &rng)
{
    baselines::EvalReport report;
    const std::vector<std::string> predictors = {"ceer", "profet",
                                                 "dnnabacus"};
    const std::vector<std::string> models = {"alexnet", "vgg_19"};
    for (const std::string &predictor : predictors) {
        for (const std::string &model : models) {
            for (const GpuModel gpu : hw::allGpuModels()) {
                for (const int k : {1, 2, 4, 8}) {
                    baselines::EvalCell cell;
                    cell.predictor = predictor;
                    cell.model = model;
                    cell.gpu = gpu;
                    cell.k = k;
                    cell.observedUs = std::abs(randomDouble(rng));
                    cell.predictedUs = std::abs(randomDouble(rng));
                    cell.apePct = std::abs(randomDouble(rng));
                    report.cells.push_back(std::move(cell));
                }
            }
            baselines::EvalModelRow row;
            row.predictor = predictor;
            row.model = model;
            row.mapePct = std::abs(randomDouble(rng));
            row.rmseUs = std::abs(randomDouble(rng));
            row.spearman = rng.uniform() * 2.0 - 1.0;
            row.recommended = "p3.2xlarge";
            row.observedBest =
                rng.uniform() < 0.5 ? "p3.2xlarge" : "";
            row.agree = row.recommended == row.observedBest;
            report.modelRows.push_back(std::move(row));
        }
        baselines::EvalSummaryRow sum;
        sum.predictor = predictor;
        sum.mapePct = std::abs(randomDouble(rng));
        sum.rmseUs = std::abs(randomDouble(rng));
        sum.meanSpearman = rng.uniform() * 2.0 - 1.0;
        sum.agreementRate = rng.uniform();
        report.summary.push_back(std::move(sum));
    }
    return report;
}

TEST(RoundTripTest, RandomizedEvalReportsCsvRoundTripByteIdentically)
{
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        util::Rng rng(7100 + seed);
        const baselines::EvalReport report = randomEvalReport(rng);
        std::stringstream first;
        report.saveCsv(first);
        baselines::EvalReport reloaded;
        std::string error;
        ASSERT_TRUE(reportSchema().tryLoadCsv(first, &reloaded, &error))
            << "seed " << seed << ": " << error;
        std::stringstream second;
        reloaded.saveCsv(second);
        ASSERT_EQ(second.str(), first.str()) << "seed " << seed;
        ASSERT_EQ(reloaded.cells.size(), report.cells.size());
        ASSERT_EQ(reloaded.modelRows.size(), report.modelRows.size());
        ASSERT_EQ(reloaded.summary.size(), report.summary.size());
    }
}

TEST(RoundTripTest, RandomizedEvalReportsCbfRoundTripByteIdentically)
{
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
        util::Rng rng(7200 + seed);
        const baselines::EvalReport report = randomEvalReport(rng);
        std::stringstream first;
        report.saveCbf(first);
        io::CbfFile file;
        std::string error;
        ASSERT_TRUE(io::CbfFile::tryParse(first.str(), &file, &error))
            << "seed " << seed << ": " << error;
        baselines::EvalReport reloaded;
        ASSERT_TRUE(reportSchema().tryLoadCbf(file, &reloaded, &error))
            << "seed " << seed << ": " << error;
        std::stringstream second;
        reloaded.saveCbf(second);
        ASSERT_EQ(second.str(), first.str()) << "seed " << seed;
    }
}

TEST(RoundTripTest, EvalReportCsvAndCbfDialectsAgree)
{
    util::Rng rng(7300);
    const baselines::EvalReport report = randomEvalReport(rng);
    // CBF -> load -> CSV must equal CSV written directly: the two
    // dialects carry exactly the same information.
    std::stringstream direct_csv;
    report.saveCsv(direct_csv);
    std::stringstream cbf;
    report.saveCbf(cbf);
    io::CbfFile file;
    std::string error;
    ASSERT_TRUE(io::CbfFile::tryParse(cbf.str(), &file, &error))
        << error;
    baselines::EvalReport via_cbf;
    ASSERT_TRUE(reportSchema().tryLoadCbf(file, &via_cbf, &error))
        << error;
    std::stringstream csv_via_cbf;
    via_cbf.saveCsv(csv_via_cbf);
    EXPECT_EQ(csv_via_cbf.str(), direct_csv.str());
}

/** A valid one-row-per-kind report CSV to mutate from. */
std::string
validEvalCsv()
{
    util::Rng rng(7400);
    std::stringstream out;
    randomEvalReport(rng).saveCsv(out);
    return out.str();
}

/** The report CSV as lines (trailing newline stripped). */
std::vector<std::string>
csvLines(const std::string &csv)
{
    std::vector<std::string> lines = util::split(csv, '\n');
    while (!lines.empty() && lines.back().empty())
        lines.pop_back();
    return lines;
}

/** Replaces field @p column (0-based) of 1-based data row @p row. */
std::string
withField(const std::string &csv, std::size_t row, std::size_t column,
          const std::string &value)
{
    std::vector<std::string> lines = csvLines(csv);
    std::vector<std::string> fields = util::split(lines[row], ',');
    fields[column] = value;
    lines[row] = util::join(fields, ",");
    return util::join(lines, "\n") + "\n";
}

TEST(RoundTripTest, EvalReportCsvLoaderRejectsMalformedInputs)
{
    const std::string valid = validEvalCsv();
    const struct {
        std::string csv;
        const char *expect;
    } cases[] = {
        {"", "row 0: expected the header"},
        {"kind,predictor\ncell,x\n", "row 0: expected the header"},
        {withField(valid, 1, 0, "banana"),
         "row 1 column 1 (kind): unknown row kind: 'banana'"},
        {withField(valid, 1, 3, "H200"),
         "row 1 column 4 (gpu): unknown GPU: 'H200'"},
        {withField(valid, 1, 4, "two"),
         "row 1 column 5 (k): not an integer: 'two'"},
        {withField(valid, 1, 5, "fast"),
         "row 1 column 6 (observed_us): not a number: 'fast'"},
        {withField(valid, 1, 6, "?"),
         "row 1 column 7 (predicted_us): not a number: '?'"},
        {withField(valid, 1, 7, "?"),
         "row 1 column 8 (ape_pct): not a number: '?'"},
    };
    for (const auto &c : cases) {
        std::istringstream in(c.csv);
        baselines::EvalReport report;
        std::string error;
        EXPECT_FALSE(reportSchema().tryLoadCsv(in, &report, &error));
        EXPECT_NE(error.find(c.expect), std::string::npos)
            << "wanted '" << c.expect << "' in: " << error;
    }
    // Short row: drop the last field of the first data row.
    std::vector<std::string> lines = csvLines(valid);
    lines[1] = lines[1].substr(0, lines[1].rfind(','));
    std::istringstream in(util::join(lines, "\n") + "\n");
    baselines::EvalReport report;
    std::string error;
    EXPECT_FALSE(reportSchema().tryLoadCsv(in, &report, &error));
    EXPECT_NE(error.find("expected 14 fields, got 13"),
              std::string::npos)
        << error;
}

TEST(RoundTripTest, EvalReportCsvLoaderRejectsBadModelAndSummaryRows)
{
    const std::string valid = validEvalCsv();
    // Locate the first model and summary rows (cells come first).
    const std::vector<std::string> lines = csvLines(valid);
    std::size_t model_row = 0, summary_row = 0;
    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (!model_row && lines[i].rfind("model,", 0) == 0)
            model_row = i;
        if (!summary_row && lines[i].rfind("summary,", 0) == 0)
            summary_row = i;
    }
    ASSERT_NE(model_row, 0u);
    ASSERT_NE(summary_row, 0u);
    const struct {
        std::size_t row;
        std::size_t column;
        const char *expect;
    } cases[] = {
        {model_row, 8, "column 9 (mape_pct): not a number: 'x'"},
        {model_row, 9, "column 10 (rmse_us): not a number: 'x'"},
        {model_row, 10, "column 11 (spearman): not a number: 'x'"},
        {model_row, 13, "column 14 (agree): expected '0' or '1': 'x'"},
        {summary_row, 8, "column 9 (mape_pct): not a number: 'x'"},
        {summary_row, 13,
         "column 14 (agreement_rate): not a number: 'x'"},
    };
    for (const auto &c : cases) {
        std::istringstream in(withField(valid, c.row, c.column, "x"));
        baselines::EvalReport report;
        std::string error;
        EXPECT_FALSE(reportSchema().tryLoadCsv(in, &report, &error));
        EXPECT_NE(error.find(c.expect), std::string::npos)
            << "wanted '" << c.expect << "' in: " << error;
    }
}

TEST(RoundTripTest, EvalReportCbfLoaderRejectsMalformedFiles)
{
    std::string error;

    // Wrong schema string.
    {
        io::CbfBuilder builder;
        builder.addBytes("schema", "ceer.profiles.v1");
        std::stringstream out;
        builder.write(out);
        io::CbfFile file;
        ASSERT_TRUE(io::CbfFile::tryParse(out.str(), &file, &error))
            << error;
        baselines::EvalReport report;
        EXPECT_FALSE(reportSchema().tryLoadCbf(file, &report, &error));
        EXPECT_NE(error.find("is not ceer.evalreport.v1"),
                  std::string::npos)
            << error;
    }

    // Right schema, cell strings present but numeric columns missing.
    {
        io::CbfBuilder builder;
        builder.addBytes("schema", "ceer.evalreport.v1");
        io::addStringColumn(&builder, "cell.predictor", {"ceer"});
        io::addStringColumn(&builder, "cell.model", {"alexnet"});
        io::addStringColumn(&builder, "cell.gpu", {"V100"});
        std::stringstream out;
        builder.write(out);
        io::CbfFile file;
        ASSERT_TRUE(io::CbfFile::tryParse(out.str(), &file, &error))
            << error;
        baselines::EvalReport report;
        EXPECT_FALSE(reportSchema().tryLoadCbf(file, &report, &error));
        EXPECT_NE(error.find("missing column 'cell.k'"),
                  std::string::npos)
            << error;
    }

    // Column groups disagreeing on row count.
    {
        io::CbfBuilder builder;
        builder.addBytes("schema", "ceer.evalreport.v1");
        io::addStringColumn(&builder, "cell.predictor", {"ceer"});
        io::addStringColumn(&builder, "cell.model",
                            {"alexnet", "vgg_19"});
        io::addStringColumn(&builder, "cell.gpu", {"V100"});
        std::stringstream out;
        builder.write(out);
        io::CbfFile file;
        ASSERT_TRUE(io::CbfFile::tryParse(out.str(), &file, &error))
            << error;
        baselines::EvalReport report;
        EXPECT_FALSE(reportSchema().tryLoadCbf(file, &report, &error));
        EXPECT_NE(error.find("column 'cell.model' has 2 rows, expected 1"),
                  std::string::npos)
            << error;
    }

    // Sized column with the wrong row count.
    {
        io::CbfBuilder builder;
        builder.addBytes("schema", "ceer.evalreport.v1");
        io::addStringColumn(&builder, "cell.predictor", {"ceer"});
        io::addStringColumn(&builder, "cell.model", {"alexnet"});
        io::addStringColumn(&builder, "cell.gpu", {"V100"});
        builder.addI64("cell.k", std::vector<std::int64_t>{1, 2});
        std::stringstream out;
        builder.write(out);
        io::CbfFile file;
        ASSERT_TRUE(io::CbfFile::tryParse(out.str(), &file, &error))
            << error;
        baselines::EvalReport report;
        EXPECT_FALSE(reportSchema().tryLoadCbf(file, &report, &error));
        EXPECT_NE(error.find("column 'cell.k' has 2 rows, expected 1"),
                  std::string::npos)
            << error;
    }

    // Unknown GPU name inside an otherwise well-formed cell group.
    {
        io::CbfBuilder builder;
        builder.addBytes("schema", "ceer.evalreport.v1");
        io::addStringColumn(&builder, "cell.predictor", {"ceer"});
        io::addStringColumn(&builder, "cell.model", {"alexnet"});
        io::addStringColumn(&builder, "cell.gpu", {"H200"});
        builder.addI64("cell.k", std::vector<std::int64_t>{1});
        builder.addF64("cell.observed_us", std::vector<double>{1.0});
        builder.addF64("cell.predicted_us", std::vector<double>{1.0});
        builder.addF64("cell.ape_pct", std::vector<double>{0.0});
        std::stringstream out;
        builder.write(out);
        io::CbfFile file;
        ASSERT_TRUE(io::CbfFile::tryParse(out.str(), &file, &error))
            << error;
        baselines::EvalReport report;
        EXPECT_FALSE(reportSchema().tryLoadCbf(file, &report, &error));
        EXPECT_NE(error.find("row 0 column cell.gpu: unknown GPU: 'H200'"),
                  std::string::npos)
            << error;
    }
}

TEST(RoundTripTest, EvalReportLoadsFromDiskInEitherDialect)
{
    util::Rng rng(7500);
    const baselines::EvalReport report = randomEvalReport(rng);
    const std::string dir = ::testing::TempDir();
    std::string error;

    const std::string csv_path = dir + "ceer-eval-report.csv";
    {
        std::ofstream out(csv_path);
        report.saveCsv(out);
    }
    baselines::EvalReport from_csv;
    ASSERT_TRUE(reportSchema().tryLoadFile(csv_path, &from_csv, &error))
        << error;

    const std::string cbf_path = dir + "ceer-eval-report.cbf";
    {
        std::ofstream out(cbf_path, std::ios::binary);
        report.saveCbf(out);
    }
    baselines::EvalReport from_cbf;
    ASSERT_TRUE(reportSchema().tryLoadFile(cbf_path, &from_cbf, &error))
        << error;

    // Same canonical CSV from both on-disk dialects.
    std::stringstream direct, via_csv, via_cbf;
    report.saveCsv(direct);
    from_csv.saveCsv(via_csv);
    from_cbf.saveCsv(via_cbf);
    EXPECT_EQ(via_csv.str(), direct.str());
    EXPECT_EQ(via_cbf.str(), direct.str());

    baselines::EvalReport missing;
    EXPECT_FALSE(reportSchema().tryLoadFile(
        dir + "ceer-eval-nonexistent.csv", &missing, &error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// Cross-dialect rejection: every validated column of every file kind
// runs one validator, so the same out-of-range or unknown value is
// rejected from the text dialect and from CBF alike, with the row, the
// column and the value in the error and the output object untouched.

/** @p text with field @p field of text row @p row set to @p value. */
std::string
withTextField(const std::string &text, bool lines, std::size_t row,
              std::size_t field, const std::string &value)
{
    std::vector<std::vector<std::string>> rows;
    if (lines) {
        for (const std::string &line : csvLines(text))
            rows.push_back(util::split(line, ' '));
        rows[row - 1][field] = value; // Model lines count from 1.
        std::string out;
        for (const auto &fields : rows)
            out += util::join(fields, " ") + "\n";
        return out;
    }
    std::istringstream in(text);
    std::string error;
    EXPECT_TRUE(util::tryReadCsv(in, &rows, &error)) << error;
    rows[row][field] = value;
    std::ostringstream out;
    util::CsvWriter writer(out);
    for (const auto &fields : rows)
        writer.writeRow(fields);
    return out.str();
}

/** @p cbf with row 0 of column @p column set to @p value. */
std::string
withCbfValue(const std::string &cbf, const std::string &column,
             const std::string &value)
{
    io::CbfFile file;
    std::string error;
    EXPECT_TRUE(io::CbfFile::tryParse(cbf, &file, &error)) << error;
    io::CbfBuilder builder;
    for (const io::ColumnDesc &desc : file.columns()) {
        const std::string &name = desc.name;
        const bool target = name == column;
        std::size_t n = 0;
        if (name == column + ".off")
            continue;
        if (desc.dtype == io::DType::Bytes && target) {
            std::vector<std::string> strings;
            EXPECT_TRUE(io::readStringColumn(file, name, &strings, &error));
            strings[0] = value;
            io::addStringColumn(&builder, name, strings);
        } else if (desc.dtype == io::DType::Bytes) {
            const char *data = nullptr;
            EXPECT_TRUE(file.bytes(name, &data, &n, &error));
            builder.addBytes(name, data, n);
        } else if (desc.dtype == io::DType::F64) {
            const double *data = nullptr;
            EXPECT_TRUE(file.f64(name, &data, &n, &error));
            std::vector<double> v(data, data + n);
            if (target)
                v[0] = std::stod(value);
            builder.addF64(name, v);
        } else if (desc.dtype == io::DType::I64) {
            const std::int64_t *data = nullptr;
            EXPECT_TRUE(file.i64(name, &data, &n, &error));
            std::vector<std::int64_t> v(data, data + n);
            if (target)
                v[0] = std::stoll(value);
            builder.addI64(name, v);
        } else if (desc.dtype == io::DType::U64) {
            const std::uint64_t *data = nullptr;
            EXPECT_TRUE(file.u64(name, &data, &n, &error));
            std::vector<std::uint64_t> v(data, data + n);
            if (target)
                v[0] = std::stoull(value);
            builder.addU64(name, v);
        } else {
            const std::uint8_t *data = nullptr;
            EXPECT_TRUE(file.u8(name, &data, &n, &error));
            std::vector<std::uint8_t> v(data, data + n);
            if (target)
                v[0] = static_cast<std::uint8_t>(std::stoul(value));
            builder.addU8(name, v);
        }
    }
    return builder.build();
}

/** One file kind: a valid fixture in both dialects and its loaders. */
struct KindUnderTest
{
    std::string text; ///< CSV, or model lines.
    std::string cbf;
    bool lines;       ///< Text rows are model-file lines.
    /// Loads @p bytes into a sentinel; reports whether it stayed
    /// untouched.
    std::function<bool(const std::string &bytes, bool cbf,
                       std::string *error, bool *untouched)>
        load;
};

template <class T, class LoadText, class LoadCbf>
KindUnderTest
kindUnderTest(const T &fixture, const T &sentinel, bool lines,
              LoadText load_text, LoadCbf load_cbf)
{
    const auto cbf_bytes = [](const T &object) {
        std::ostringstream out;
        object.saveCbf(out);
        return out.str();
    };
    std::ostringstream text;
    if constexpr (std::is_same_v<T, CeerModel>)
        fixture.save(text);
    else
        fixture.saveCsv(text);
    KindUnderTest kind{text.str(), cbf_bytes(fixture), lines, nullptr};
    kind.load = [=](const std::string &bytes, bool cbf, std::string *error,
                    bool *untouched) {
        T object = sentinel;
        bool ok;
        if (cbf) {
            io::CbfFile file;
            ok = io::CbfFile::tryParse(bytes, &file, error) &&
                 load_cbf(file, &object, error);
        } else {
            std::istringstream in(bytes);
            ok = load_text(in, &object, error);
        }
        *untouched = cbf_bytes(object) == cbf_bytes(sentinel);
        return ok;
    };
    return kind;
}

TEST(RoundTripTest, BothDialectsRejectTheSameValues)
{
    using profile::ProfileDataset;
    profile::ProfileDataset dataset;
    {
        util::Rng rng(901);
        std::vector<profile::OpProfile> ops;
        ops.push_back(randomOpProfile(rng, 3));
        dataset.add(std::move(ops));
        dataset.addIteration(randomIterationProfile(rng));
    }
    CeerModel model;
    {
        OpTimeModel entry;
        entry.model = parseLinearModel("1;2,3");
        model.opModels.emplace(std::make_pair(entry.gpu, entry.op),
                               entry);
        model.heavyOps.insert(OpType::Conv2D);
        model.comm.fits[GpuModel::V100].resize(1);
        model.comm.fits[GpuModel::V100][0] = {
            parseLinearModel("1;2,3"), 0.5, true};
    }
    baselines::EvalReport report;
    report.cells.push_back({"ceer", "alexnet", GpuModel::V100, 1, 1.0,
                            1.0, 0.0});
    report.modelRows.push_back(
        {"ceer", "alexnet", 1.0, 1.0, 1.0, "p3", "p3", true});
    report.summary.push_back({"ceer", 1.0, 1.0, 1.0, 1.0});

    const KindUnderTest catalog = kindUnderTest(
        cloud::InstanceCatalog::awsOnDemand(),
        cloud::InstanceCatalog::syntheticFleet(2), false,
        [](std::istream &in, cloud::InstanceCatalog *out,
           std::string *error) {
            return cloud::InstanceCatalog::schema().tryLoadCsv(in, out,
                                                               error);
        },
        cloud::InstanceCatalog::tryLoadCbf);
    const KindUnderTest profiles = kindUnderTest(
        dataset, profile::ProfileDataset(), false,
        ProfileDataset::tryLoadCsv, ProfileDataset::tryLoadCbf);
    util::Rng sentinel_rng(903);
    const KindUnderTest models =
        kindUnderTest(model, randomCeerModel(sentinel_rng), true,
                      CeerModel::tryLoad, CeerModel::tryLoadCbf);
    const KindUnderTest reports = kindUnderTest(
        report, randomEvalReport(sentinel_rng), false,
        [](std::istream &in, baselines::EvalReport *out,
           std::string *error) {
            return reportSchema().tryLoadCsv(in, out, error);
        },
        [](const io::CbfFile &file, baselines::EvalReport *out,
           std::string *error) {
            return reportSchema().tryLoadCbf(file, out, error);
        });

    const struct
    {
        const KindUnderTest *kind;
        std::size_t row;   ///< Text row (model: line number).
        std::size_t field; ///< 0-based field of that row.
        const char *column; ///< CBF column; row 0 of it.
        const char *value;
    } cases[] = {
        {&catalog, 1, 1, "cat.gpu", "H100"},
        {&catalog, 1, 2, "cat.gpus", "4294967297"},
        {&catalog, 1, 2, "cat.gpus", "0"},
        {&catalog, 1, 3, "cat.hourly_usd", "-2"},
        {&catalog, 1, 3, "cat.hourly_usd", "inf"},
        {&profiles, 1, 2, "iter.gpu", "H100"},
        {&profiles, 1, 3, "iter.num_gpus", "0"},
        {&profiles, 1, 3, "iter.num_gpus", "4294967297"},
        {&profiles, 1, 4, "iter.param_count", "-1"},
        {&profiles, 2, 2, "op.gpu", "H100"},
        {&profiles, 2, 3, "op.op", "FlashAttention"},
        {&profiles, 2, 4, "op.on_cpu", "2"},
        {&models, 5, 1, "heavy_ops", "NotAnOp"},
        {&models, 6, 1, "om.gpu", "H100"},
        {&models, 6, 2, "om.op", "NotAnOp"},
        {&models, 6, 3, "om.quadratic", "2"},
        {&models, 6, 4, "om.usable", "2"},
        {&models, 6, 8, "om.fit", "x"},
        {&models, 7, 1, "cf.gpu", "H100"},
        {&models, 7, 2, "cf.k", "1025"},
        {&models, 7, 2, "cf.k", "0"},
        {&models, 7, 4, "cf.fit", "1;2,-3"},
        {&reports, 1, 3, "cell.gpu", "H200"},
        {&reports, 1, 4, "cell.k", "0"},
        {&reports, 1, 4, "cell.k", "4294967297"},
        {&reports, 2, 13, "model.agree", "2"},
    };
    for (const auto &c : cases) {
        const std::string column = c.column;
        const std::string name = column.substr(column.find('.') + 1);
        const std::string value = std::string("'") + c.value + "'";
        SCOPED_TRACE(column + " = " + c.value);
        std::string error;
        bool untouched = false;

        const std::string text = withTextField(
            c.kind->text, c.kind->lines, c.row, c.field, c.value);
        EXPECT_FALSE(c.kind->load(text, false, &error, &untouched));
        EXPECT_NE(error.find(util::format(
                      "%s %zu column %zu (%s): ",
                      c.kind->lines ? "line" : "row", c.row, c.field + 1,
                      name.c_str())),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find(value), std::string::npos) << error;
        EXPECT_TRUE(untouched);

        const std::string cbf =
            withCbfValue(c.kind->cbf, column, c.value);
        EXPECT_FALSE(c.kind->load(cbf, true, &error, &untouched));
        EXPECT_NE(error.find("row 0 column " + column + ": "),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find(value), std::string::npos) << error;
        EXPECT_TRUE(untouched);
    }
}

} // namespace
} // namespace ceer
