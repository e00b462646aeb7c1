/**
 * @file
 * I/O-path load-time microbenchmark: CSV parse vs CBF.
 *
 * Writes one profile dataset and one fleet-scale instance catalog to
 * disk in both dialects, then times the three load paths the loaders
 * expose — CSV text parse, streaming CBF read (read() into an owned
 * buffer), and zero-copy CBF mmap — reporting the median/min/max of
 * bench::kTrials loads for each (bench::timeTrials). The CSV files are
 * canonical (one load→save trip), so all three paths must decode
 * bit-identical containers; the bench asserts that by comparing
 * re-serialized CBF bytes and byte-identical trained models
 * downstream. The recommender's thread sweep over a fleet-sized
 * catalog is micro_ceer's (`--catalog-copies 375` sweeps 6,000
 * candidates). Writes BENCH_io.json; docs/performance.md and
 * docs/file_formats.md quote these numbers.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/common.h"
#include "cloud/instances.h"
#include "core/trainer.h"
#include "io/cbf.h"
#include "models/model_zoo.h"
#include "profile/profiler.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace ceer;

std::int64_t
fileBytes(const std::string &path)
{
    return static_cast<std::int64_t>(std::filesystem::file_size(path));
}

/** Container contents as CBF bytes: the bit-identity fingerprint. */
template <typename Container>
std::string
fingerprint(const Container &container)
{
    std::ostringstream out;
    container.saveCbf(out);
    return out.str();
}

/** One timed load path. */
struct Load
{
    std::string name; ///< e.g. "profile_cbf_mmap".
    bench::Trials trials;
};

} // namespace

int
main(int argc, char **argv)
{
    util::Flags flags;
    flags.defineInt("train-iters", 200,
                    "profiling iterations for the dataset fixture "
                    "(200 matches the bench suite's default dataset)");
    flags.defineInt("fleet", 6000,
                    "synthetic fleet size for the catalog loads");
    flags.defineString("scratch", "build/io-scratch",
                       "directory for the on-disk fixtures");
    bench::parseMicroFlags(flags, "BENCH_io.json", argc, argv);

    const std::size_t fleet_size =
        static_cast<std::size_t>(std::max<std::int64_t>(
            1, flags.getInt("fleet")));
    const std::string scratch = flags.getString("scratch");
    std::filesystem::create_directories(scratch);

    util::printBanner(std::cout,
                      "micro_io: CSV parse vs CBF stream vs CBF mmap (" +
                          std::to_string(bench::kTrials) +
                          " trials/path)");
    std::cout << "hardware threads: " << bench::hardwareThreads() << "\n";

    // --- Fixtures: one profile dataset, one fleet catalog, both
    // dialects. The CSV is canonical (written from a dataset that was
    // itself parsed from CSV), so the text and binary files decode to
    // bit-identical containers and the three load paths must agree.
    bench::BenchConfig fixture;
    fixture.iterations = flags.getIntAs<int>("train-iters");
    const profile::ProfileDataset collected =
        bench::collectTrainingProfiles(fixture, true);
    std::ostringstream first_csv;
    collected.saveCsv(first_csv);
    std::istringstream first_csv_in(first_csv.str());
    const profile::ProfileDataset canonical =
        profile::ProfileDataset::loadCsv(first_csv_in);

    const std::string profile_csv = scratch + "/profiles.csv";
    const std::string profile_cbf = scratch + "/profiles.cbf";
    {
        std::ofstream csv(profile_csv);
        canonical.saveCsv(csv);
        std::ofstream cbf(profile_cbf, std::ios::binary);
        canonical.saveCbf(cbf);
        if (!csv.good() || !cbf.good())
            util::fatal("cannot write fixtures under " + scratch);
    }

    const cloud::InstanceCatalog fleet =
        cloud::InstanceCatalog::syntheticFleet(fleet_size);
    const std::string fleet_csv = scratch + "/fleet.csv";
    const std::string fleet_cbf = scratch + "/fleet.cbf";
    {
        std::ofstream csv(fleet_csv);
        fleet.saveCsv(csv);
        std::ofstream cbf(fleet_cbf, std::ios::binary);
        fleet.saveCbf(cbf);
        if (!csv.good() || !cbf.good())
            util::fatal("cannot write fixtures under " + scratch);
    }

    // --- The load paths. tryLoadFile sniffs by magic and takes the
    // mmap path for CBF, so the "csv" and "mmap" rows time the exact
    // entry point every tool uses; the "stream" row times the checked
    // read()-into-buffer fallback.
    const auto load_profile_file = [](const std::string &path) {
        profile::ProfileDataset dataset;
        std::string error;
        if (!profile::ProfileDataset::tryLoadFile(path, &dataset, &error))
            util::fatal(error);
        return dataset;
    };
    const auto load_profile_stream = [&] {
        io::CbfFile file;
        std::string error;
        profile::ProfileDataset dataset;
        if (!io::CbfFile::tryLoad(profile_cbf, &file, &error) ||
            !profile::ProfileDataset::tryLoadCbf(file, &dataset, &error))
            util::fatal(error);
        return dataset;
    };
    const auto load_catalog_file = [](const std::string &path) {
        cloud::InstanceCatalog catalog;
        std::string error;
        if (!cloud::InstanceCatalog::tryLoadFile(path, &catalog, &error))
            util::fatal(error);
        return catalog;
    };
    const auto load_catalog_stream = [&] {
        io::CbfFile file;
        std::string error;
        cloud::InstanceCatalog catalog;
        if (!io::CbfFile::tryLoad(fleet_cbf, &file, &error) ||
            !cloud::InstanceCatalog::tryLoadCbf(file, &catalog, &error))
            util::fatal(error);
        return catalog;
    };

    // Bit-identity across the three paths, fingerprinted as CBF bytes.
    const profile::ProfileDataset from_csv =
        load_profile_file(profile_csv);
    const profile::ProfileDataset from_mmap =
        load_profile_file(profile_cbf);
    const std::string profile_bytes = fingerprint(from_csv);
    bool identity_ok =
        profile_bytes == fingerprint(load_profile_stream()) &&
        profile_bytes == fingerprint(from_mmap);
    if (!identity_ok)
        std::cerr << "FAIL: CSV/stream/mmap datasets are not "
                     "bit-identical\n";

    // Downstream identity: models trained from the CSV-parsed and the
    // mmap-adopted datasets must serialize byte-identically (which
    // pins every prediction made from them).
    std::ostringstream model_a, model_b;
    core::trainCeer(from_csv).save(model_a);
    core::trainCeer(from_mmap).save(model_b);
    if (model_a.str() != model_b.str()) {
        std::cerr << "FAIL: models trained from CSV- and mmap-loaded "
                     "datasets differ\n";
        identity_ok = false;
    }

    const std::string fleet_bytes =
        fingerprint(load_catalog_file(fleet_csv));
    if (fleet_bytes != fingerprint(load_catalog_file(fleet_cbf)) ||
        fleet_bytes != fingerprint(load_catalog_stream())) {
        std::cerr << "FAIL: CSV/stream/mmap catalogs are not "
                     "bit-identical\n";
        identity_ok = false;
    }

    // --- Timed loads: profile dataset, then fleet catalog; each
    // fixture's first row (the CSV parse) is its speedup baseline.
    const std::vector<Load> loads = {
        {"profile_csv_parse",
         bench::timeTrials([&] { return load_profile_file(profile_csv); })},
        {"profile_cbf_stream", bench::timeTrials(load_profile_stream)},
        {"profile_cbf_mmap",
         bench::timeTrials([&] { return load_profile_file(profile_cbf); })},
        {"fleet_csv_parse",
         bench::timeTrials([&] { return load_catalog_file(fleet_csv); })},
        {"fleet_cbf_stream", bench::timeTrials(load_catalog_stream)},
        {"fleet_cbf_mmap",
         bench::timeTrials([&] { return load_catalog_file(fleet_cbf); })},
    };

    util::TablePrinter table({"load path", "median (ms)", "min-max (ms)",
                              "speedup vs CSV"});
    std::vector<bench::JsonObject> rows;
    double csv_ms = 0.0;
    for (std::size_t i = 0; i < loads.size(); ++i) {
        const bench::Trials &trials = loads[i].trials;
        if (i % 3 == 0)
            csv_ms = trials.medianWallMs();
        const double speedup = csv_ms / trials.medianWallMs();
        table.addRow({loads[i].name,
                      util::format("%.3f", trials.medianWallMs()),
                      util::format("%.3f-%.3f", trials.wallMs.front(),
                                   trials.wallMs.back()),
                      util::format("%.2fx", speedup)});
        bench::JsonObject &row = rows.emplace_back();
        row.str("path", loads[i].name);
        trials.addTo(row);
        row.num("speedup_vs_csv", speedup, "%.2f");
    }
    table.print(std::cout);
    std::cout << util::format(
        "profiles: %lld op rows, %lld iter rows, %lld B csv / %lld B "
        "cbf; fleet: %lld instances, %lld B csv / %lld B cbf\n",
        (long long)canonical.ops().size(),
        (long long)canonical.iterations().size(),
        (long long)fileBytes(profile_csv),
        (long long)fileBytes(profile_cbf),
        (long long)fleet.instances().size(),
        (long long)fileBytes(fleet_csv), (long long)fileBytes(fleet_cbf));

    bench::JsonObject doc;
    doc.str("benchmark", "io_load_throughput")
        .num("hardware_threads", bench::hardwareThreads())
        .num("profile_op_rows",
             static_cast<std::int64_t>(canonical.ops().size()))
        .num("profile_iter_rows",
             static_cast<std::int64_t>(canonical.iterations().size()))
        .num("profile_csv_bytes", fileBytes(profile_csv))
        .num("profile_cbf_bytes", fileBytes(profile_cbf))
        .num("fleet_instances",
             static_cast<std::int64_t>(fleet.instances().size()))
        .num("fleet_csv_bytes", fileBytes(fleet_csv))
        .num("fleet_cbf_bytes", fileBytes(fleet_cbf))
        .boolean("identity_ok", identity_ok)
        .array("loads", std::move(rows));
    return bench::finishBench(flags.getString("out"), doc, identity_ok);
}
