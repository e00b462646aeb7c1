/**
 * @file
 * Failure-injection tests: malformed persisted artifacts, bad flag
 * input and misuse of the public API must fail loudly (fatal/panic)
 * rather than silently corrupting an experiment.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/ceer_model.h"
#include "graph/builder.h"
#include "graph/shape_inference.h"
#include "profile/profiler.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/stats.h"

namespace ceer {
namespace {

// --- ProfileDataset CSV ---

TEST(CsvRobustnessTest, TruncatedRowIsFatal)
{
    std::istringstream in(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "op,vgg_11,V100,Conv2D\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(in), "fields");
}

TEST(CsvRobustnessTest, UnknownGpuIsFatal)
{
    std::istringstream in(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "op,vgg_11,H100,Conv2D,gpu,1,1,5,0,1;1;0;1,5\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(in),
                 "column 3 \\(gpu\\): unknown GPU: 'H100'");
}

TEST(CsvRobustnessTest, UnknownOpIsFatal)
{
    std::istringstream in(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "op,vgg_11,V100,FlashAttention,gpu,1,1,5,0,1;1;0;1,5\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(in),
                 "column 4 \\(op\\): unknown op: 'FlashAttention'");
}

TEST(CsvRobustnessTest, UnknownRowKindIsFatal)
{
    std::istringstream in(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "blob,vgg_11,V100,Conv2D,gpu,1,1,5,0,1;1;0;1,5\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(in), "row kind");
}

TEST(CsvRobustnessTest, UnknownDeviceIsFatal)
{
    // Only "cpu" and "gpu" name a placement; anything else used to
    // load silently as a GPU op.
    for (const char *device : {"GPU", "tpu", ""}) {
        SCOPED_TRACE(device);
        std::istringstream in(
            std::string("kind,model,gpu,op,device,occurrences,count,"
                        "mean_us,stddev_us,features,samples\n"
                        "op,vgg_11,V100,Conv2D,") +
            device + ",1,1,5,0,1;1;0;1,5\n");
        profile::ProfileDataset dataset;
        std::string error;
        EXPECT_FALSE(
            profile::ProfileDataset::tryLoadCsv(in, &dataset, &error));
        EXPECT_NE(error.find("row 1 column 5 (on_cpu)"),
                  std::string::npos)
            << error;
    }
    std::istringstream fatal(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "op,vgg_11,V100,Conv2D,gpu0,1,1,5,0,1;1;0;1,5\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(fatal),
                 "column 5 \\(on_cpu\\).*'gpu0'");
}

TEST(CsvRobustnessTest, EmptyDocumentLoadsEmptyDataset)
{
    std::istringstream in(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n");
    const auto dataset = profile::ProfileDataset::loadCsv(in);
    EXPECT_TRUE(dataset.ops().empty());
    EXPECT_TRUE(dataset.iterations().empty());
}

TEST(CsvRobustnessTest, GarbledNumericFieldIsFatalWithContext)
{
    // A single garbled byte in a numeric field used to escape as an
    // uncaught std::invalid_argument; it must now die through fatal()
    // with row/column context.
    std::istringstream in(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "op,vgg_11,V100,Conv2D,gpu,1,1,5x0,0,1;1;0;1,5\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(in), "mean_us");
}

TEST(CsvRobustnessTest, GarbledCountAndFeaturesAreFatal)
{
    std::istringstream bad_count(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "op,vgg_11,V100,Conv2D,gpu,1,-4,5,0,1;1;0;1,5\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(bad_count), "count");
    std::istringstream bad_feature(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "op,vgg_11,V100,Conv2D,gpu,1,1,5,0,1;zap;0;1,5\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(bad_feature),
                 "features");
}

TEST(CsvRobustnessTest, ImplausiblyLargeCountIsFatalNotAHang)
{
    // The moment reconstruction loops `count` times; a corrupt count
    // must be rejected, not spun on for 10^18 iterations.
    std::istringstream in(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "op,vgg_11,V100,Conv2D,gpu,1,999999999999999999,5,0,1;1;0;1,"
        "5\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(in), "count");
}

TEST(CsvRobustnessTest, GarbledIterationRowIsFatal)
{
    std::istringstream in(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "iter,vgg_11,V100,2,12??34,,,100,90,10,\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(in), "param_count");
}

TEST(CsvRobustnessTest, UnterminatedQuoteIsFatal)
{
    std::istringstream in(
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\n"
        "op,\"vgg_11,V100,Conv2D,gpu,1,1,5,0,1;1;0;1,5\n");
    EXPECT_DEATH(profile::ProfileDataset::loadCsv(in), "unterminated");
}

TEST(CsvRobustnessTest, TryLoadRecoversInsteadOfDying)
{
    // The cache-facing entry point must degrade every corruption to a
    // boolean failure the caller can turn into a miss.
    const char *broken[] = {
        // Truncated mid-row.
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\nop,vgg_11,V100,Conv2D,gpu,1,1,5",
        // Garbled numeric field.
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\nop,vgg_11,V100,Conv2D,gpu,1,1,#,0,1,5",
        // Broken quoting.
        "kind,model,gpu,op,device,occurrences,count,mean_us,stddev_us,"
        "features,samples\nop,vgg_11,V100,Conv2D,\"gpu,1,1,5,0,1,5",
    };
    for (const char *text : broken) {
        SCOPED_TRACE(text);
        std::istringstream in(text);
        profile::ProfileDataset dataset;
        std::string error;
        EXPECT_FALSE(profile::ProfileDataset::tryLoadCsv(in, &dataset,
                                                         &error));
        EXPECT_FALSE(error.empty());
    }
}

// --- CeerModel text files ---

TEST(ModelFileTest, MissingHeaderIsFatal)
{
    std::istringstream in("not a ceer model\n");
    EXPECT_DEATH(core::CeerModel::load(in), "header");
}

TEST(ModelFileTest, UnknownTagIsFatal)
{
    std::istringstream in("ceer_model v1\nflux_capacitor 1.21\n");
    EXPECT_DEATH(core::CeerModel::load(in), "unknown tag");
}

TEST(ModelFileTest, BadOpNameIsFatal)
{
    std::istringstream in("ceer_model v1\nheavy_ops NotAnOp\n");
    EXPECT_DEATH(core::CeerModel::load(in),
                 "line 2 column 2 \\(heavy_ops\\): unknown op: 'NotAnOp'");
}

TEST(ModelFileTest, TruncatedLinesAreFatal)
{
    std::istringstream short_median("ceer_model v1\nlight_median_us\n");
    EXPECT_DEATH(core::CeerModel::load(short_median), "truncated");
    std::istringstream short_fit(
        "ceer_model v1\ncomm_fit V100 2\n");
    EXPECT_DEATH(core::CeerModel::load(short_fit), "truncated");
    std::istringstream zero_k(
        "ceer_model v1\ncomm_fit V100 0 0.9 1;1,1\n");
    EXPECT_DEATH(core::CeerModel::load(zero_k),
                 "line 2 column 3 \\(k\\): out of range.*'0'");
}

TEST(ModelFileTest, CommFitWidthIsBoundedLikeTheCbfReader)
{
    // The text reader shares cf.k's 1..1024 bound; a larger k used to
    // resize the fit table to k entries.
    std::istringstream in(
        "ceer_model v1\nlight_median_us 3\ncomm_fit V100 1025 0.9 1;1,1\n");
    core::CeerModel model;
    model.lightMedianUs = 7.0;
    std::string error;
    EXPECT_FALSE(core::CeerModel::tryLoad(in, &model, &error));
    EXPECT_NE(error.find("line 3 column 3 (k): out of range [1, 1024]: "
                         "'1025'"),
              std::string::npos)
        << error;
    EXPECT_EQ(model.lightMedianUs, 7.0); // untouched
}

TEST(ModelFileTest, EmptyStreamIsFatal)
{
    std::istringstream in("");
    EXPECT_DEATH(core::CeerModel::load(in), "header");
}

// --- Flags ---

TEST(FlagsRobustnessTest, UnknownFlagIsFatal)
{
    util::Flags flags;
    flags.defineInt("iters", 10, "iterations");
    const char *argv[] = {"prog", "--itres", "10"};
    EXPECT_DEATH(flags.parse(3, const_cast<char **>(argv)),
                 "unknown flag");
}

TEST(FlagsRobustnessTest, NonNumericValueIsFatal)
{
    util::Flags flags;
    flags.defineInt("iters", 10, "iterations");
    const char *argv[] = {"prog", "--iters", "ten"};
    EXPECT_DEATH(flags.parse(3, const_cast<char **>(argv)), "integer");
}

TEST(FlagsRobustnessTest, MissingValueIsFatal)
{
    util::Flags flags;
    flags.defineString("out", "", "output");
    const char *argv[] = {"prog", "--out"};
    EXPECT_DEATH(flags.parse(2, const_cast<char **>(argv)),
                 "expects a value");
}

TEST(FlagsRobustnessTest, WrongTypeAccessPanics)
{
    util::Flags flags;
    flags.defineInt("iters", 10, "iterations");
    const char *argv[] = {"prog"};
    flags.parse(1, const_cast<char **>(argv));
    EXPECT_DEATH(flags.getString("iters"), "accessed as");
    EXPECT_DEATH(flags.getInt("missing"), "never defined");
}

// --- Graph construction misuse ---

TEST(GraphRobustnessTest, ForwardReferenceInputPanics)
{
    graph::Graph g("bad");
    EXPECT_DEATH(g.addNode("x", graph::OpType::Relu, {0}, {},
                           graph::TensorShape{4}),
                 "invalid");
}

TEST(GraphRobustnessTest, ValidKernelLargerThanInputPanics)
{
    EXPECT_DEATH(graph::convOutputDim(5, 7, 1,
                                      graph::PaddingMode::Valid),
                 "larger than");
}

TEST(GraphRobustnessTest, MismatchedResidualAddPanics)
{
    graph::GraphBuilder b("bad", 4);
    const auto x = b.imageInput(8, 8, 3);
    graph::ConvOptions options;
    options.batchNorm = false;
    options.relu = false;
    const auto a = b.conv2d(x, 8, 3, 3, options, "a");
    const auto c = b.conv2d(x, 16, 3, 3, options, "c");
    EXPECT_DEATH(b.add(a, c, "residual"), "shape mismatch");
}

TEST(GraphRobustnessTest, ZeroBatchPanics)
{
    EXPECT_DEATH(graph::GraphBuilder("bad", 0), "batch");
}

// --- Statistics misuse ---

TEST(StatsRobustnessTest, ZeroCapacityReservoirPanics)
{
    EXPECT_DEATH(util::SampleReservoir(0), "capacity");
    EXPECT_DEATH(util::ReservoirSchedule(0, 10), "capacity");
    EXPECT_DEATH(util::ReservoirSchedule(256, 10), "capacity");
}

} // namespace
} // namespace ceer
