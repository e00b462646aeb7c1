/**
 * @file
 * Tests for the CBF columnar binary format (src/io/cbf.h): xxhash64
 * reference vectors, builder round-trips through all three load paths
 * (owned parse, streaming read, mmap), the variable-length column
 * helpers, and the corruption matrix — every malformed byte must be
 * rejected with byte-offset context, outputs untouched. Container
 * codec failure modes (wrong schema, semantic garbage behind valid
 * checksums) are exercised through ProfileDataset and
 * InstanceCatalog; the happy-path container round-trips live in
 * roundtrip_test.cc.
 */

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/instances.h"
#include "core/ceer_model.h"
#include "io/cbf.h"
#include "io/schema.h"
#include "obs/metrics.h"
#include "profile/profiler.h"

namespace ceer {
namespace io {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "ceer-io-" + name;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    ASSERT_TRUE(out.good());
}

std::uint32_t
loadU32At(const std::string &image, std::size_t offset)
{
    std::uint32_t v;
    std::memcpy(&v, image.data() + offset, sizeof v);
    return v;
}

std::uint64_t
loadU64At(const std::string &image, std::size_t offset)
{
    std::uint64_t v;
    std::memcpy(&v, image.data() + offset, sizeof v);
    return v;
}

void
storeU64At(std::string *image, std::size_t offset, std::uint64_t v)
{
    std::memcpy(image->data() + offset, &v, sizeof v);
}

void
storeU32At(std::string *image, std::size_t offset, std::uint32_t v)
{
    std::memcpy(image->data() + offset, &v, sizeof v);
}

constexpr std::size_t kHeader = 32;
constexpr std::size_t kEntry = 72;

/** Recomputes the column-table checksum after a table mutation. */
void
fixTableHash(std::string *image)
{
    const std::uint64_t table_bytes =
        std::uint64_t{loadU32At(*image, 12)} * kEntry;
    storeU64At(image, 24, xxhash64(image->data() + kHeader, table_bytes));
}

/** Recomputes column @p index's payload checksum after a payload
    mutation (call fixTableHash afterwards). */
void
fixColumnChecksum(std::string *image, std::size_t index)
{
    const std::size_t entry = kHeader + index * kEntry;
    const std::uint64_t offset = loadU64At(*image, entry + 48);
    const std::uint64_t length = loadU64At(*image, entry + 56);
    storeU64At(image, entry + 64,
               xxhash64(image->data() + offset, length));
}

/** Index of the named column in @p file, or aborts the test. */
std::size_t
columnIndex(const CbfFile &file, const std::string &name)
{
    for (std::size_t i = 0; i < file.columns().size(); ++i)
        if (file.columns()[i].name == name)
            return i;
    ADD_FAILURE() << "no column " << name;
    return 0;
}

TEST(XxHashTest, MatchesPublishedReferenceVectors)
{
    // The four vectors from the xxHash reference documentation; the
    // local implementation must agree before any checksum means
    // anything.
    EXPECT_EQ(xxhash64("", 0), 0xEF46DB3751D8E999ull);
    EXPECT_EQ(xxhash64("abc", 3), 0x44BC2CF5AD770999ull);
    const std::string spam = "Nobody inspects the spammish repetition";
    EXPECT_EQ(xxhash64(spam.data(), spam.size()), 0xFBCEA83C8A378BF1ull);
    EXPECT_EQ(xxhash64("xxhash", 6, 20141025), 0xB559B98D844E0635ull);
}

TEST(XxHashTest, CoversEveryTailLength)
{
    // The algorithm has distinct 8/4/1-byte tail steps; walk every
    // length 0..64 and require distinct, deterministic digests.
    std::string data;
    std::vector<std::uint64_t> seen;
    for (std::size_t n = 0; n <= 64; ++n) {
        const std::uint64_t h = xxhash64(data.data(), data.size());
        EXPECT_EQ(h, xxhash64(data.data(), data.size()));
        for (std::uint64_t prior : seen)
            EXPECT_NE(h, prior) << "collision at length " << n;
        seen.push_back(h);
        data.push_back(static_cast<char>('a' + (n % 26)));
    }
}

/** A small file exercising every dtype, including an empty column and
    a blob with an embedded NUL. */
CbfBuilder
sampleBuilder()
{
    CbfBuilder builder;
    builder.addU8("flags", {1, 0, 1});
    builder.addF64("values", {1.5, -2.25, 1e300, -0.0});
    builder.addU64("counts", {7, 0xFFFFFFFFFFFFFFFFull});
    builder.addI64("deltas", {-1, 2});
    builder.addF64("empty", {});
    builder.addBytes("blob", std::string("hel\0lo", 6));
    return builder;
}

void
expectSampleContents(const CbfFile &file)
{
    ASSERT_EQ(file.columns().size(), 6u);
    EXPECT_EQ(file.columns()[0].name, "flags");
    EXPECT_EQ(file.columns()[1].name, "values");

    std::string error;
    const std::uint8_t *flags = nullptr;
    const double *values = nullptr;
    const std::uint64_t *counts = nullptr;
    const std::int64_t *deltas = nullptr;
    const double *empty = nullptr;
    const char *blob = nullptr;
    std::size_t n = 0;
    ASSERT_TRUE(file.u8("flags", &flags, &n, &error)) << error;
    ASSERT_EQ(n, 3u);
    EXPECT_EQ(flags[0], 1u);
    EXPECT_EQ(flags[1], 0u);
    ASSERT_TRUE(file.f64("values", &values, &n, &error)) << error;
    ASSERT_EQ(n, 4u);
    EXPECT_EQ(values[0], 1.5);
    EXPECT_EQ(values[2], 1e300);
    EXPECT_TRUE(std::signbit(values[3]));
    ASSERT_TRUE(file.u64("counts", &counts, &n, &error)) << error;
    ASSERT_EQ(n, 2u);
    EXPECT_EQ(counts[1], 0xFFFFFFFFFFFFFFFFull);
    ASSERT_TRUE(file.i64("deltas", &deltas, &n, &error)) << error;
    ASSERT_EQ(n, 2u);
    EXPECT_EQ(deltas[0], -1);
    ASSERT_TRUE(file.f64("empty", &empty, &n, &error)) << error;
    EXPECT_EQ(n, 0u);
    ASSERT_TRUE(file.bytes("blob", &blob, &n, &error)) << error;
    ASSERT_EQ(n, 6u);
    EXPECT_EQ(std::string(blob, n), std::string("hel\0lo", 6));
}

TEST(CbfTest, BuilderRoundTripsThroughAllThreeLoadPaths)
{
    const CbfBuilder builder = sampleBuilder();
    const std::string image = builder.build();

    CbfFile parsed;
    std::string error;
    ASSERT_TRUE(CbfFile::tryParse(image, &parsed, &error)) << error;
    EXPECT_FALSE(parsed.mapped());
    EXPECT_EQ(parsed.size(), image.size());
    expectSampleContents(parsed);

    const std::string path = tempPath("roundtrip.cbf");
    ASSERT_TRUE(builder.tryWriteFile(path, &error)) << error;

    CbfFile streamed;
    ASSERT_TRUE(CbfFile::tryLoad(path, &streamed, &error)) << error;
    EXPECT_FALSE(streamed.mapped());
    expectSampleContents(streamed);

    CbfFile mapped;
    ASSERT_TRUE(CbfFile::tryMap(path, &mapped, &error)) << error;
    EXPECT_TRUE(mapped.mapped());
    EXPECT_EQ(mapped.size(), image.size());
    expectSampleContents(mapped);

    // Re-serializing the parsed columns reproduces the file byte for
    // byte (column order is preserved end to end).
    CbfBuilder again;
    again.addU8("flags", {1, 0, 1});
    again.addF64("values", {1.5, -2.25, 1e300, -0.0});
    again.addU64("counts", {7, 0xFFFFFFFFFFFFFFFFull});
    again.addI64("deltas", {-1, 2});
    again.addF64("empty", {});
    again.addBytes("blob", std::string("hel\0lo", 6));
    EXPECT_EQ(again.build(), image);
}

TEST(CbfTest, AccessorsRejectMissingAndMistypedColumns)
{
    CbfFile file;
    std::string error;
    ASSERT_TRUE(CbfFile::tryParse(sampleBuilder().build(), &file, &error));

    const double *f = nullptr;
    std::size_t n = 0;
    EXPECT_FALSE(file.f64("nope", &f, &n, &error));
    EXPECT_NE(error.find("missing column 'nope'"), std::string::npos)
        << error;
    EXPECT_FALSE(file.f64("flags", &f, &n, &error));
    EXPECT_NE(error.find("dtype"), std::string::npos) << error;
    EXPECT_EQ(file.find("nope"), nullptr);
    ASSERT_NE(file.find("flags"), nullptr);
    EXPECT_EQ(file.find("flags")->count, 3u);
}

TEST(CbfTest, StringAndF64ListColumnsRoundTrip)
{
    // Hostile strings are fine in CBF: the blob+offsets encoding never
    // inspects the payload (unlike CSV, which must quote them).
    const std::vector<std::string> strings = {
        "plain", "", "comma,quote\"", "new\nline",
        std::string("nul\0byte", 8), "trailing ",
    };
    const std::vector<std::vector<double>> lists = {
        {1.0, 2.5}, {}, {-0.0, 1e-300, 1e300}, {42.0},
    };
    CbfBuilder builder;
    addStringColumn(&builder, "names", strings);
    addF64ListColumn(&builder, "series", lists);

    CbfFile file;
    std::string error;
    ASSERT_TRUE(CbfFile::tryParse(builder.build(), &file, &error))
        << error;
    std::vector<std::string> names;
    std::vector<std::vector<double>> series;
    ASSERT_TRUE(readStringColumn(file, "names", &names, &error)) << error;
    ASSERT_TRUE(readF64ListColumn(file, "series", &series, &error))
        << error;
    EXPECT_EQ(names, strings);
    ASSERT_EQ(series.size(), lists.size());
    for (std::size_t i = 0; i < lists.size(); ++i)
        EXPECT_EQ(series[i], lists[i]) << "list " << i;
}

TEST(CbfTest, CorruptOffsetVectorsAreRejectedWithColumnContext)
{
    CbfBuilder builder;
    addStringColumn(&builder, "names", {"a", "bc"});
    std::string image = builder.build();

    // The offsets column ("names.off") follows the blob; make its last
    // offset overshoot the blob and re-checksum so only the semantic
    // validation can catch it.
    CbfFile probe;
    std::string error;
    ASSERT_TRUE(CbfFile::tryParse(image, &probe, &error)) << error;
    const std::size_t off_index = columnIndex(probe, "names.off");
    const std::uint64_t off_col =
        loadU64At(image, kHeader + off_index * kEntry + 48);
    storeU64At(&image, off_col + 2 * 8, 999); // offsets[2], the end.
    fixColumnChecksum(&image, off_index);
    fixTableHash(&image);

    CbfFile reparsed;
    ASSERT_TRUE(CbfFile::tryParse(image, &reparsed, &error)) << error;
    std::vector<std::string> names;
    EXPECT_FALSE(readStringColumn(reparsed, "names", &names, &error));
    EXPECT_NE(error.find("names"), std::string::npos) << error;
    EXPECT_TRUE(names.empty());
}

struct Corruption
{
    const char *name;
    std::string image;        ///< The corrupted bytes.
    const char *expect;       ///< Required error substring.
};

/** The corruption matrix over a valid sample image. */
std::vector<Corruption>
corruptions()
{
    const std::string good = sampleBuilder().build();
    std::vector<Corruption> out;

    out.push_back({"truncated header", good.substr(0, 10),
                   "truncated file"});
    {
        std::string bad = good;
        bad[0] ^= 0x40;
        out.push_back({"bad magic", bad, "bad magic at offset 0"});
    }
    {
        std::string bad = good;
        bad[8] ^= 0x02; // version 1 -> 3.
        out.push_back(
            {"wrong version", bad, "unsupported format version 3"});
    }
    out.push_back({"truncated tail", good.substr(0, good.size() - 3),
                   "declares"});
    {
        std::string bad = good;
        bad[kHeader + 3] ^= 0x01; // inside entry 0's name.
        out.push_back({"flipped table bit", bad,
                       "column table checksum mismatch"});
    }
    {
        std::string bad = good;
        bad.back() ^= 0x01; // last payload byte ("blob" has no padding).
        out.push_back({"flipped payload bit", bad,
                       "payload checksum mismatch"});
    }
    {
        // Stretch column 0 ("flags", u8 so count == length stays
        // consistent) just past EOF; small enough to dodge the
        // implausible-count guard, so only the bounds check objects.
        std::string bad = good;
        const std::uint64_t stretch = bad.size() - 1;
        storeU64At(&bad, kHeader + 40, stretch);
        storeU64At(&bad, kHeader + 56, stretch);
        fixTableHash(&bad);
        out.push_back({"short section", bad, "short section"});
    }
    {
        // Shift column 1 ("values", f64) off 8-byte alignment; the
        // aligned-access rule is a validation failure, not UB.
        std::string bad = good;
        const std::size_t entry = kHeader + 1 * kEntry;
        storeU64At(&bad, entry + 48, loadU64At(bad, entry + 48) + 1);
        fixTableHash(&bad);
        out.push_back({"misaligned section", bad, "misaligned section"});
    }
    {
        std::string bad = good;
        bad[kHeader + 32] = 9; // entry 0 dtype.
        fixTableHash(&bad);
        out.push_back({"bad dtype", bad, "bad dtype 9"});
    }
    {
        std::string bad = good;
        std::memset(bad.data() + kHeader, 'x', 32); // entry 0 name,
        fixTableHash(&bad);                         // unterminated.
        out.push_back({"unterminated name", bad, "unterminated name"});
    }
    {
        std::string bad = good;
        bad[kHeader] = '\0'; // entry 0 name emptied.
        fixTableHash(&bad);
        out.push_back({"empty name", bad, "empty name"});
    }
    {
        // Entry 1 renamed to entry 0's name ("flags").
        std::string bad = good;
        std::memcpy(bad.data() + kHeader + kEntry, bad.data() + kHeader,
                    32);
        fixTableHash(&bad);
        out.push_back({"duplicate name", bad, "duplicate name"});
    }
    {
        std::string bad = good;
        storeU32At(&bad, 12, (1u << 20) + 1);
        out.push_back({"implausible column count", bad,
                       "implausible column count"});
    }
    {
        // A plausible column count the file is far too small to hold.
        std::string bad = good;
        storeU32At(&bad, 12, 1000);
        out.push_back({"truncated column table", bad,
                       "truncated column table at offset 32"});
    }
    {
        // Entry 2 ("counts", u64): count no longer matches length.
        std::string bad = good;
        const std::size_t entry = kHeader + 2 * kEntry;
        storeU64At(&bad, entry + 40, loadU64At(bad, entry + 40) + 1);
        fixTableHash(&bad);
        out.push_back({"count/length mismatch", bad,
                       "does not match 3 u64 elements"});
    }
    return out;
}

TEST(CbfTest, CorruptionMatrixRejectsParseLoadAndMapAlike)
{
    const std::string good = sampleBuilder().build();
    for (const Corruption &corruption : corruptions()) {
        // Output stays untouched across a failed parse: preload the
        // target with valid contents and require them intact after.
        CbfFile out;
        std::string error;
        ASSERT_TRUE(CbfFile::tryParse(good, &out, &error)) << error;
        EXPECT_FALSE(CbfFile::tryParse(corruption.image, &out, &error))
            << corruption.name;
        EXPECT_NE(error.find(corruption.expect), std::string::npos)
            << corruption.name << ": " << error;
        EXPECT_NE(error.find("offset"), std::string::npos)
            << corruption.name
            << " error lacks byte-offset context: " << error;
        expectSampleContents(out); // untouched

        // Both file-backed paths agree with the in-memory verdict.
        const std::string path = tempPath("corrupt.cbf");
        writeFile(path, corruption.image);
        CbfFile streamed, mapped;
        std::string load_error, map_error;
        EXPECT_FALSE(CbfFile::tryLoad(path, &streamed, &load_error))
            << corruption.name;
        EXPECT_NE(load_error.find(corruption.expect), std::string::npos)
            << corruption.name << ": " << load_error;
        EXPECT_FALSE(CbfFile::tryMap(path, &mapped, &map_error))
            << corruption.name;
        EXPECT_NE(map_error.find(corruption.expect), std::string::npos)
            << corruption.name << ": " << map_error;
    }
}

TEST(CbfTest, DtypeNamesAndSizesAreStable)
{
    // These are on-disk contract values; renaming or resizing a dtype
    // is a format change and must bump the version instead.
    EXPECT_EQ(dtypeName(DType::F64), "f64");
    EXPECT_EQ(dtypeName(DType::U64), "u64");
    EXPECT_EQ(dtypeName(DType::I64), "i64");
    EXPECT_EQ(dtypeName(DType::U8), "u8");
    EXPECT_EQ(dtypeName(DType::Bytes), "bytes");
    EXPECT_EQ(dtypeSize(DType::F64), 8u);
    EXPECT_EQ(dtypeSize(DType::U64), 8u);
    EXPECT_EQ(dtypeSize(DType::I64), 8u);
    EXPECT_EQ(dtypeSize(DType::U8), 1u);
    EXPECT_EQ(dtypeSize(DType::Bytes), 1u);
}

TEST(CbfTest, MovedFromFilesTransferTheirContents)
{
    const std::string path = tempPath("move.cbf");
    std::string error;
    ASSERT_TRUE(sampleBuilder().tryWriteFile(path, &error)) << error;
    CbfFile mapped;
    ASSERT_TRUE(CbfFile::tryMap(path, &mapped, &error)) << error;

    CbfFile moved(std::move(mapped));
    EXPECT_TRUE(moved.mapped());
    expectSampleContents(moved);

    CbfFile assigned;
    assigned = std::move(moved);
    EXPECT_TRUE(assigned.mapped());
    expectSampleContents(assigned);
}

TEST(CbfTest, WriteFailuresAreReportedNotFatal)
{
    std::string error;
    EXPECT_FALSE(sampleBuilder().tryWriteFile(
        tempPath("no-such-dir") + "/x.cbf", &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;

    CbfFile file;
    EXPECT_FALSE(
        CbfFile::tryLoad(tempPath("absent.cbf"), &file, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
    EXPECT_FALSE(
        CbfFile::tryMap(tempPath("absent.cbf"), &file, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(CbfTest, BuilderRejectsBadColumnNames)
{
    EXPECT_DEATH(
        {
            CbfBuilder builder;
            builder.addU8(std::string(32, 'n'), {1});
        },
        "1-31 bytes");
    EXPECT_DEATH(
        {
            CbfBuilder builder;
            builder.addU8("twin", {1});
            builder.addF64("twin", {2.0});
        },
        "duplicate column");
}

TEST(CbfTest, OffsetVectorReadersRejectInconsistentShapes)
{
    // Hand-build offset vectors the helpers would never write; the
    // readers must reject each shape with column context.
    CbfBuilder builder;
    builder.addBytes("no_off", "abc");
    builder.addBytes("short_off", "abc");
    builder.addU64("short_off.off", {0, 1, 2}); // last != blob size
    builder.addF64("disorder", {1.0, 2.0, 3.0});
    builder.addU64("disorder.off", {0, 3, 1, 3}); // not monotonic
    CbfFile file;
    std::string error;
    ASSERT_TRUE(CbfFile::tryParse(builder.build(), &file, &error))
        << error;

    std::vector<std::string> strings{"sentinel"};
    EXPECT_FALSE(readStringColumn(file, "no_off", &strings, &error));
    EXPECT_NE(error.find("missing column 'no_off.off'"),
              std::string::npos)
        << error;
    EXPECT_FALSE(readStringColumn(file, "short_off", &strings, &error));
    EXPECT_NE(error.find("short_off.off"), std::string::npos) << error;
    EXPECT_NE(error.find("bad offset vector"), std::string::npos)
        << error;
    ASSERT_EQ(strings.size(), 1u); // untouched through both failures
    EXPECT_EQ(strings[0], "sentinel");

    std::vector<std::vector<double>> lists;
    EXPECT_FALSE(readF64ListColumn(file, "disorder", &lists, &error));
    EXPECT_NE(error.find("out of order"), std::string::npos) << error;
    EXPECT_TRUE(lists.empty());
}

TEST(CbfTest, ChecksumFailuresTickTheCounter)
{
    obs::ScopedEnable on(true);
    obs::resetMetrics();
    std::string bad = sampleBuilder().build();
    bad.back() ^= 0x01;
    CbfFile out;
    std::string error;
    EXPECT_FALSE(CbfFile::tryParse(bad, &out, &error));
    EXPECT_GE(obs::snapshotMetrics().counterValue(
                  "io.checksum_failures"), 1u);
}

TEST(CbfTest, CorruptFileIsValidatedOnceWhenOpened)
{
    // A file that maps but fails validation must not be re-read by the
    // streaming fallback: one open, one checksum failure, and the
    // mapped read's error.
    obs::ScopedEnable on(true);
    obs::resetMetrics();
    std::string bad = sampleBuilder().build();
    bad.back() ^= 0x01;
    const std::string path = tempPath("flipped.cbf");
    writeFile(path, bad);
    CbfFile out;
    std::string error;
    EXPECT_FALSE(tryOpenCbf(path, &out, &error));
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos)
        << error;
    EXPECT_EQ(obs::snapshotMetrics().counterValue(
                  "io.checksum_failures"), 1u);
}

TEST(CbfTest, SniffFileSeparatesDialects)
{
    const std::string cbf_path = tempPath("sniff.cbf");
    const std::string csv_path = tempPath("sniff.csv");
    const std::string stub_path = tempPath("sniff.stub");
    std::string error;
    ASSERT_TRUE(sampleBuilder().tryWriteFile(cbf_path, &error)) << error;
    writeFile(csv_path, "kind,model,gpu\n");
    writeFile(stub_path, "x"); // shorter than the magic.

    FileFormat format = FileFormat::Text;
    ASSERT_TRUE(sniffFile(cbf_path, &format, &error)) << error;
    EXPECT_EQ(format, FileFormat::Cbf);
    ASSERT_TRUE(sniffFile(csv_path, &format, &error)) << error;
    EXPECT_EQ(format, FileFormat::Text);
    ASSERT_TRUE(sniffFile(stub_path, &format, &error)) << error;
    EXPECT_EQ(format, FileFormat::Text);
    EXPECT_FALSE(
        sniffFile(tempPath("does-not-exist"), &format, &error));
}

// ---------------------------------------------------------------------
// Container-level rejection: valid CBF envelope, wrong or nonsensical
// contents. The loaders must fail with context and leave outputs
// untouched.

/** One-op dataset used as both fixture and untouched-sentinel. */
profile::ProfileDataset
tinyDataset(const std::string &model_name)
{
    profile::ProfileDataset dataset;
    profile::OpProfile op;
    op.model = model_name;
    op.gpu = hw::GpuModel::V100;
    op.op = graph::OpType::Conv2D;
    op.occurrences = 2;
    op.features = {1.0, 2.0, 3.0};
    op.timeUs.add(5.0);
    op.timeUs.add(7.0);
    op.samples.add(5.0);
    op.samples.add(7.0);
    op.samples.add(6.0);
    std::vector<profile::OpProfile> ops;
    ops.push_back(std::move(op));
    dataset.add(std::move(ops));
    return dataset;
}

std::string
datasetCbf(const profile::ProfileDataset &dataset)
{
    std::ostringstream out;
    dataset.saveCbf(out);
    return out.str();
}

TEST(CbfContainerTest, WrongSchemaIsRejectedAndOutputUntouched)
{
    std::ostringstream catalog_bytes;
    cloud::InstanceCatalog::awsOnDemand().saveCbf(catalog_bytes);
    CbfFile catalog_file;
    std::string error;
    ASSERT_TRUE(CbfFile::tryParse(catalog_bytes.str(), &catalog_file,
                                  &error))
        << error;

    profile::ProfileDataset dataset = tinyDataset("sentinel");
    EXPECT_FALSE(profile::ProfileDataset::tryLoadCbf(
        catalog_file, &dataset, &error));
    EXPECT_NE(error.find("ceer.profiles.v1"), std::string::npos)
        << error;
    ASSERT_EQ(dataset.ops().size(), 1u);
    EXPECT_EQ(dataset.ops()[0].model, "sentinel"); // untouched

    core::CeerModel model;
    EXPECT_FALSE(
        core::CeerModel::tryLoadCbf(catalog_file, &model, &error));
    EXPECT_NE(error.find("ceer.model.v1"), std::string::npos) << error;

    CbfFile profiles_file;
    ASSERT_TRUE(CbfFile::tryParse(datasetCbf(tinyDataset("x")),
                                  &profiles_file, &error))
        << error;
    cloud::InstanceCatalog catalog;
    EXPECT_FALSE(cloud::InstanceCatalog::tryLoadCbf(profiles_file,
                                                    &catalog, &error));
    EXPECT_NE(error.find("ceer.catalog.v1"), std::string::npos) << error;
}

TEST(CbfContainerTest, SemanticGarbageBehindValidChecksumsIsRejected)
{
    const std::string good = datasetCbf(tinyDataset("alexnet"));
    CbfFile probe;
    std::string error;
    ASSERT_TRUE(CbfFile::tryParse(good, &probe, &error)) << error;

    // An inconsistent sample reservoir: claim 5 offered while only 3
    // samples are retained (with capacity far above both).
    {
        std::string bad = good;
        const std::size_t index = columnIndex(probe, "op.sample_offered");
        const std::uint64_t offset =
            loadU64At(bad, kHeader + index * kEntry + 48);
        storeU64At(&bad, offset, 5);
        fixColumnChecksum(&bad, index);
        fixTableHash(&bad);
        CbfFile file;
        ASSERT_TRUE(CbfFile::tryParse(bad, &file, &error)) << error;
        profile::ProfileDataset dataset = tinyDataset("sentinel");
        EXPECT_FALSE(profile::ProfileDataset::tryLoadCbf(file, &dataset,
                                                         &error));
        EXPECT_NE(error.find("inconsistent sample reservoir"),
                  std::string::npos)
            << error;
        EXPECT_EQ(dataset.ops()[0].model, "sentinel");
    }

    // An unknown GPU name in the op.gpu blob.
    {
        std::string bad = good;
        const std::size_t index = columnIndex(probe, "op.gpu");
        const std::uint64_t offset =
            loadU64At(bad, kHeader + index * kEntry + 48);
        bad[offset] = 'Q'; // "V100" -> "Q100".
        fixColumnChecksum(&bad, index);
        fixTableHash(&bad);
        CbfFile file;
        ASSERT_TRUE(CbfFile::tryParse(bad, &file, &error)) << error;
        profile::ProfileDataset dataset = tinyDataset("sentinel");
        EXPECT_FALSE(profile::ProfileDataset::tryLoadCbf(file, &dataset,
                                                         &error));
        EXPECT_NE(error.find("row 0 column op.gpu: unknown GPU: 'Q100'"),
                  std::string::npos)
            << error;
        EXPECT_EQ(dataset.ops()[0].model, "sentinel");
    }
}

TEST(CbfContainerTest, TryLoadFileSniffsTakesMmapAndFallsBack)
{
    obs::ScopedEnable on(true);
    obs::resetMetrics();
    const profile::ProfileDataset fixture = tinyDataset("alexnet");

    const std::string cbf_path = tempPath("dataset.cbf");
    const std::string csv_path = tempPath("dataset.csv");
    {
        std::ofstream cbf(cbf_path, std::ios::binary | std::ios::trunc);
        fixture.saveCbf(cbf);
        std::ofstream csv(csv_path, std::ios::trunc);
        fixture.saveCsv(csv);
    }

    // CBF file: loaded via mmap (the counter proves the path taken),
    // decoding the exact accumulator state.
    profile::ProfileDataset from_cbf;
    std::string error;
    ASSERT_TRUE(profile::ProfileDataset::tryLoadFile(cbf_path, &from_cbf,
                                                     &error))
        << error;
    EXPECT_GE(obs::snapshotMetrics().counterValue("io.mmap_hits"), 1u);
    EXPECT_EQ(datasetCbf(from_cbf), datasetCbf(fixture));

    // CSV file: sniffed as text and parsed by the CSV loader.
    profile::ProfileDataset from_csv;
    ASSERT_TRUE(profile::ProfileDataset::tryLoadFile(csv_path, &from_csv,
                                                     &error))
        << error;
    EXPECT_EQ(from_csv.ops().size(), fixture.ops().size());

    // A corrupt CBF file fails with the path and offset context, and
    // the output dataset stays untouched.
    std::string corrupt;
    {
        std::ifstream in(cbf_path, std::ios::binary);
        std::stringstream buffer;
        buffer << in.rdbuf();
        corrupt = buffer.str();
    }
    corrupt.back() ^= 0x01;
    const std::string corrupt_path = tempPath("dataset-corrupt.cbf");
    writeFile(corrupt_path, corrupt);
    profile::ProfileDataset untouched = tinyDataset("sentinel");
    EXPECT_FALSE(profile::ProfileDataset::tryLoadFile(
        corrupt_path, &untouched, &error));
    EXPECT_NE(error.find(corrupt_path), std::string::npos) << error;
    EXPECT_NE(error.find("offset"), std::string::npos) << error;
    EXPECT_EQ(untouched.ops()[0].model, "sentinel");
}

TEST(CbfContainerTest, SyntheticFleetIsDeterministicAndDialectExact)
{
    using cloud::InstanceCatalog;
    const InstanceCatalog a = InstanceCatalog::syntheticFleet(200);
    const InstanceCatalog b = InstanceCatalog::syntheticFleet(200);
    std::ostringstream bytes_a, bytes_b;
    a.saveCbf(bytes_a);
    b.saveCbf(bytes_b);
    EXPECT_EQ(bytes_a.str(), bytes_b.str());

    std::ostringstream other;
    InstanceCatalog::syntheticFleet(200, 43).saveCbf(other);
    EXPECT_NE(other.str(), bytes_a.str());

    // Prices are canonicalized at generation time, so the CSV dialect
    // decodes to the same bits as the CBF dialect.
    std::ostringstream csv;
    a.saveCsv(csv);
    std::istringstream csv_in(csv.str());
    InstanceCatalog from_csv;
    std::string error;
    ASSERT_TRUE(
        InstanceCatalog::schema().tryLoadCsv(csv_in, &from_csv, &error))
        << error;
    std::ostringstream csv_cbf;
    from_csv.saveCbf(csv_cbf);
    EXPECT_EQ(csv_cbf.str(), bytes_a.str());
}

} // namespace
} // namespace io
} // namespace ceer
