#!/usr/bin/env bash
#
# CI-style check driver. Default mode runs seven passes:
#
#   release   Release build + full ctest suite (the 24 paper binaries
#             included: `ctest -L paper` runs just those)
#   werror    Release build of the src/ libraries with -Werror
#   flake     the concurrency tests repeated 20 times in a row, in
#             parallel, against the release build
#   bench     microbenchmark smoke runs (tiny iteration counts)
#   tsan      ThreadSanitizer build of the concurrency-sensitive pieces
#             (thread pool, metrics registry, parallel profiling,
#             iteration-parallel simulation, parallel recommend/train,
#             the parallel cross-predictor evaluation sweep, the ceerd
#             serving stack)
#   ubsan     UBSanitizer build of the serialization/I-O boundary
#             and of the sampling kernel and the radix select
#   asan      AddressSanitizer build of the prediction path (compiled
#             plans, the predictor, the baseline engines), of the
#             profiling path (simulator observer, in-row reservoir
#             replay, the pooled radix select, the sampling kernel's
#             tail pass), of graph
#             construction (inline shapes, name index) and of the
#             file codecs (roundtrip_test, io_test)
#
# `tools/check.sh coverage` instead builds with -DCEER_COVERAGE=ON,
# runs the test suite, and summarizes gcov line coverage for src/
# against the floor in tools/coverage_baseline.txt.
#
# `tools/check.sh deadcode` lists the library functions no binary
# reaches. It builds the tree under build-deadcode/ with -O0
# -fno-inline -ffunction-sections, so no function vanishes by being
# inlined, and links with --gc-sections. The roots are every
# production executable (the bench, example and tools binaries) plus
# perfbench and perfbench_selftest, built through perfbench's own
# CMakeLists.txt. The roots and the libraries are the targets CMake
# configured (its File API codemodel), not the files the build
# directory holds, so a stale binary of a deleted target is no root. A strong (`nm` type T) `ceer::` function defined in
# one of the src/ libraries that survives in none of the roots is
# unreachable: only tests call it. The pass fails on any unreachable
# function missing from tools/deadcode_allow.txt (one demangled name
# and its reason per line), and on any listed name that is no longer
# defined or is reached now, so the list cannot go stale.
#
# `tools/check.sh paper-seeds` runs every paper binary (the 24 ctests
# under the `paper` label) at --seed 1..8, [jobs] runs at a time, and
# fails on any nonzero exit: a binary exits 1 when one of its [CHECK]
# bands is missed, so this catches a band that passes only at the
# default seed. Each run profiles the code it was built from. It prints
# the number of checks in band; each run's stdout is kept under
# build/paper-seeds/.
#
# `tools/check.sh paper-golden` runs the 24 paper ctests, each of
# which also fails when its binary's stdout digest differs from its
# line in tests/data/paper_stdout.sha256. `tools/check.sh paper-golden
# --update` is the reviewed way to change that table: it runs every
# paper binary (any missed band fails the pass and writes nothing),
# rewrites the table from their stdout in sha256sum format, and prints
# the diff to review before committing.
#
# `tools/check.sh scaling` runs the full micro benches and judges
# their thread-sweep rows with tools/scaling_gate.py: it fails on any
# below-serial row and on a recommender sweep under 1.5x at 2 threads.
# On a multi-core host a parallel path running slower than serial is a
# scheduler regression, full stop; on a single-core host the benches
# mark the run "skipped_scaling" and the pass only verifies they said
# so (identity is still enforced by the benches' own exit codes). The
# bench smoke pass checks that the gate rejects the forced-serial
# fixture in tests/data/forced_serial.
#
# Every pass runs even if an earlier one failed; each pass's status is
# checked explicitly, a one-line PASS/FAIL summary is printed at the
# end, and the script exits nonzero if ANY pass failed.
#
# Usage: tools/check.sh [coverage|deadcode|paper-seeds|scaling] [jobs]
#        tools/check.sh paper-golden [--update] [jobs]

set -uo pipefail
cd "$(dirname "$0")/.."

MODE=all
if [[ "${1:-}" == "coverage" ]]; then
    MODE=coverage
    shift
elif [[ "${1:-}" == "deadcode" ]]; then
    MODE=deadcode
    shift
elif [[ "${1:-}" == "paper-seeds" ]]; then
    MODE=paper-seeds
    shift
elif [[ "${1:-}" == "paper-golden" ]]; then
    MODE=paper-golden
    shift
    if [[ "${1:-}" == "--update" ]]; then
        MODE=paper-golden-update
        shift
    fi
elif [[ "${1:-}" == "scaling" ]]; then
    MODE=scaling
    shift
fi
JOBS="${1:-$(nproc)}"

PASS_NAMES=()
PASS_RESULTS=()
FAILED=0

# Runs one named pass (a function) in a `set -e` subshell so the first
# failing command fails the pass, records PASS/FAIL, and keeps going.
#
# The subshell must be a bare statement: putting it in an `if` or `||`
# condition context would make bash ignore `set -e` inside it and let
# a pass "succeed" past its first failing command — exactly the
# swallowed-exit-status bug this helper exists to prevent.
run_pass() {
    local name="$1"
    shift
    echo
    echo "==> ${name}"
    (set -e; "$@")
    local status=$?
    if [[ "${status}" -eq 0 ]]; then
        PASS_NAMES+=("${name}")
        PASS_RESULTS+=("PASS")
    else
        PASS_NAMES+=("${name}")
        PASS_RESULTS+=("FAIL")
        FAILED=1
    fi
}

pass_release() {
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    ctest --test-dir build --output-on-failure -j "$JOBS"
}

pass_werror() {
    # A clean Release build of src/ prints no warnings; this keeps it
    # so. A file that warns never finishes compiling in this tree, so
    # an incremental run retries it until it is fixed. The sanitizer
    # trees build without -Werror: GCC warns differently under
    # instrumentation.
    local libs
    mapfile -t libs < <(sed -n 's/^add_library(\(ceer_[a-z_]*\).*/\1/p' \
                            src/*/CMakeLists.txt)
    cmake -B build-werror -S . -DCEER_WERROR=ON \
          -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-werror -j "$JOBS" --target "${libs[@]}"
}

pass_flake() {
    # A test that depends on scheduling luck fails here sooner or
    # later: each concurrency test must pass 20 runs in a row while
    # the others contend for the cores.
    ctest --test-dir build --output-on-failure -j "$JOBS" \
          --repeat until-fail:20 \
          -R '^(ThreadPoolTest|SeedingTest|ParallelRecommenderTest|ParallelTrainerTest|EvalSweepTest)\.'
}

pass_bench_smoke() {
    # The perf-tracking benches must at least run clean and hold their
    # internal determinism checks ('' disables the JSON artifacts;
    # real numbers come from full runs).
    ./build/bench/micro_sim --iters 50 --out ''
    ./build/bench/micro_profile --iters 5 --out ''
    # micro_ceer's nonzero exit asserts the serial==parallel
    # recommender identity. (Plan bit-identity is proven by the scalar
    # reference in predict_plan_test, which the release pass runs.)
    ./build/bench/micro_ceer --iters 50 --train-iters 10 \
        --catalog-copies 8 --out ''
    # micro_obs doubles as a smoke test of the --metrics-out plumbing.
    ./build/bench/micro_obs --ops 100000 --threads 4 --out '' \
        --metrics-out build/check_obs_metrics.json
    grep -q obs_bench.counter build/check_obs_metrics.json
    # micro_io's nonzero exit asserts bit-identity across the CSV /
    # streaming-CBF / mmap-CBF load paths.
    ./build/bench/micro_io --train-iters 10 --fleet 256 --out ''
    # The scaling gate must reject a sweep that never ran faster than
    # serial (exit 1: a gate failure, not a crash or an unreadable
    # file, which exit 2).
    local gate_status=0
    python3 tools/scaling_gate.py tests/data/forced_serial \
        > build/check_forced_serial_gate.txt || gate_status=$?
    [[ "$gate_status" -eq 1 ]]
    grep -q 'below-serial' build/check_forced_serial_gate.txt
    grep -q 'recommender speedup at 2 threads' \
        build/check_forced_serial_gate.txt
    # micro_serve's nonzero exit asserts the loadgen-vs-in-process
    # byte identity (across every reactor/thread combination, and
    # across hot reload) plus the steady-state allocation budget; the
    # smoke run also checks the emitted JSON carries the latency
    # fields and that the allocation gate actually passed.
    ./build/bench/micro_serve --train-iters 10 --seconds 0.4 \
        --connections 2 --models vgg_19,alexnet --qps-targets 50,0 \
        --out build/check_serve.json
    grep -q identity_ok build/check_serve.json
    grep -q p999_us build/check_serve.json
    grep -q '"alloc_gate_ok": true' build/check_serve.json
    # ceerd smoke through the CLI: serve a freshly trained model,
    # drive it briefly with the loadgen, then require a clean SIGTERM
    # drain (exit 0) and a well-formed loadgen JSON. The server sends
    # with MSG_NOSIGNAL and retries EINTR, so the mid-run signal must
    # not break in-flight replies.
    ./build/tools/ceer profile --iters 15 --models vgg_11,inception_v1 \
        --out build/check_serve_profiles.csv
    ./build/tools/ceer train --profiles build/check_serve_profiles.csv \
        --out build/check_serve_model.txt
    rm -f build/check_serve_port.txt
    ./build/tools/ceer serve --ceer-model build/check_serve_model.txt \
        --port 0 --port-file build/check_serve_port.txt &
    local serve_pid=$!
    for _ in $(seq 1 100); do
        if [[ -s build/check_serve_port.txt ]]; then
            break
        fi
        sleep 0.1
    done
    ./build/tools/ceer loadgen \
        --port "$(cat build/check_serve_port.txt)" \
        --seconds 1 --connections 2 --models vgg_19 \
        --out build/check_serve_loadgen.json
    kill -TERM "$serve_pid"
    wait "$serve_pid"
    grep -q throughput_qps build/check_serve_loadgen.json
    # The same smoke with two reactors: the round-robin handoff of
    # accepted connections from reactor 0 to its peer, cross-reactor
    # sessions and the reactor-aware SIGTERM drain must all survive a
    # real process lifecycle, not just the in-process tests.
    rm -f build/check_serve_port.txt
    ./build/tools/ceer serve --ceer-model build/check_serve_model.txt \
        --port 0 --reactors 2 \
        --port-file build/check_serve_port.txt &
    serve_pid=$!
    for _ in $(seq 1 100); do
        if [[ -s build/check_serve_port.txt ]]; then
            break
        fi
        sleep 0.1
    done
    ./build/tools/ceer loadgen \
        --port "$(cat build/check_serve_port.txt)" \
        --seconds 1 --connections 3 --models vgg_19 \
        --out build/check_serve_loadgen2.json
    kill -TERM "$serve_pid"
    wait "$serve_pid"
    grep -q throughput_qps build/check_serve_loadgen2.json
    # Cross-predictor evaluation smoke: train -> evaluate over the
    # checked-in fixture must reproduce the golden report byte for
    # byte, serially and under a parallel sweep (the same gate ctest
    # runs as cli_evaluate_golden, here exercised through check.sh's
    # release binaries).
    ./build/tools/ceer evaluate \
        --profiles tests/data/eval_fixture_profiles.csv \
        --models alexnet,inception_v1 --ks 1,2,4 --eval-iters 10 \
        --threads 1 --out build/check_eval_report.csv
    cmp tests/data/eval_report_golden.csv build/check_eval_report.csv
    ./build/tools/ceer evaluate \
        --profiles tests/data/eval_fixture_profiles.csv \
        --models alexnet,inception_v1 --ks 1,2,4 --eval-iters 10 \
        --threads 4 --out build/check_eval_report_par.csv
    cmp tests/data/eval_report_golden.csv build/check_eval_report_par.csv
    # The extended Table-5 bench: every registered predictor swept
    # over the held-out test CNNs, with Ceer required to win.
    ./build/bench/tab_predictor_errors --iters 25 --eval-iters 25
}

pass_tsan() {
    cmake -B build-tsan -S . -DCEER_SANITIZE=thread \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-tsan -j "$JOBS" \
          --target obs_test thread_pool_test profile_test sim_test \
                   predict_plan_test serve_test baselines_test

    # Run the TSan binaries directly (ctest discovery would require
    # every test target to be built). TSAN_OPTIONS makes races hard
    # failures.
    export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
    # The sharded metrics registry: 16-thread hammer, snapshots taken
    # mid-record, and the span sink under concurrent writers.
    ./build-tsan/tests/obs_test
    ./build-tsan/tests/thread_pool_test --gtest_repeat=3
    ./build-tsan/tests/profile_test \
        --gtest_filter='SeedingTest.*:DatasetTest.LoadedDatasetServesIndexedQueries:ProfilerTest.*'
    # Exercise the iteration-parallel run() under TSan: chunked
    # fan-out across the thread pool with deterministic merge.
    ./build-tsan/tests/sim_test \
        --gtest_filter='SimulatorTest.ParallelRunIsByteIdenticalToSerial:SimulatorTest.RunIsByteIdenticalWithObservabilityOn'
    # The parallel recommender sweep (one immutable PredictPlan read
    # by every worker) and the parallel trainer fits under TSan, with
    # and without observability.
    ./build-tsan/tests/predict_plan_test \
        --gtest_filter='ParallelRecommenderTest.*:ParallelTrainerTest.*:SerialAndParallel/*'
    # The cross-predictor evaluation sweep under TSan: per-cell
    # simulators, then every engine filling its (predictor, model)
    # slices concurrently, the three Ceer variants reading one shared
    # trained model.
    ./build-tsan/tests/baselines_test \
        --gtest_filter='EvalSweepTest.*'
    # The full ceerd stack under TSan: the multi-reactor accept
    # handoff, the shared plan cache's concurrent compile-once
    # path, large-catalog sweeps forking from reactor threads onto the
    # shared pool, engine hot-swap, admission counters and the
    # loadgen's dedicated client threads all race-checked end to end.
    ./build-tsan/tests/serve_test
}

pass_ubsan() {
    cmake -B build-ubsan -S . -DCEER_SANITIZE=undefined \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-ubsan -j "$JOBS" \
          --target obs_test util_test regression_test robustness_test \
                   roundtrip_test io_test sample_kernel_test

    # Checked parsing must be UB-free on adversarial input:
    # overflowing integers, huge exponents, garbled bytes.
    # halt_on_error turns any report into a hard failure.
    export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
    ./build-ubsan/tests/obs_test --gtest_filter='ObsJsonTest.*'
    ./build-ubsan/tests/util_test --gtest_filter='CsvTest.*:ParseTest.*'
    # The in-place radix select: order keys are bit casts of doubles,
    # shifted and masked digit by digit, over subnormal, huge, signed
    # and NaN inputs.
    ./build-ubsan/tests/util_test \
        --gtest_filter='PercentileTest.*:MedianTest.*'
    ./build-ubsan/tests/regression_test \
        --gtest_filter='LinearModelTest.*'
    ./build-ubsan/tests/robustness_test \
        --gtest_filter='CsvRobustnessTest.*:ModelFileTest.*'
    ./build-ubsan/tests/roundtrip_test
    # The CBF reader's corruption matrix under UBSan: misaligned and
    # short sections must be validation failures, never UB.
    ./build-ubsan/tests/io_test
    # The sampling kernel's tail pass: flag bytes read back as 64-bit
    # words, mask shifts and the uint16 index list, at every block
    # length and offset.
    ./build-ubsan/tests/sample_kernel_test
}

pass_asan() {
    cmake -B build-asan -S . -DCEER_SANITIZE=address \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
    cmake --build build-asan -j "$JOBS" \
          --target predict_plan_test ceer_test baselines_test \
                   profile_test sim_test graph_test models_test \
                   transformer_test sample_kernel_test roundtrip_test \
                   io_test util_test

    # The compiled-plan evaluator end to end: the kernel's blocked
    # reads over the feature matrices, per-group/per-GPU recipe
    # indexing, the breakdown, and every engine built on top of them.
    # halt_on_error turns any report into a hard failure.
    export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
    ./build-asan/tests/predict_plan_test
    ./build-asan/tests/ceer_test
    ./build-asan/tests/baselines_test
    # The profiling sweep: the simulator's graph-order gather, the
    # profiler's node -> instance table into the rows it accumulates
    # into, and the reservoir schedule their in-place replay indexes.
    ./build-asan/tests/profile_test
    # The reservoirs' in-place replay and the radix select that reads
    # the pooled samples through spans without copying them.
    ./build-asan/tests/util_test \
        --gtest_filter='PercentileTest.*:MedianTest.*:SampleReservoirTest.*:ReservoirScheduleTest.*'
    ./build-asan/tests/sim_test
    # The sampling kernel's tail pass: gathers and scatters through the
    # index list over its fixed stack arrays (this build compiles the
    # default, non-clone path).
    ./build-asan/tests/sample_kernel_test
    # Graph construction: inline TensorShape dims viewed through spans,
    # braced addNode argument lists, and the name index that compares
    # against names stored in the (reallocating) node vector.
    ./build-asan/tests/graph_test
    ./build-asan/tests/models_test
    ./build-asan/tests/transformer_test
    # The schema-driven codecs: the generic readers index offset
    # vectors and typed column pointers of every file kind, in both
    # dialects, including the cross-dialect rejection table.
    ./build-asan/tests/roundtrip_test
    ./build-asan/tests/io_test
}

# The paper binaries' names: the ctests under the `paper` label, less
# their `paper_` prefix, sorted.
paper_names() {
    ctest --test-dir build -N -L paper |
        sed -n 's/^ *Test *#[0-9]*: paper_//p' | LC_ALL=C sort
}

pass_paper_seeds() {
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    local out=build/paper-seeds
    local names
    mapfile -t names < <(paper_names)
    [[ "${#names[@]}" -gt 0 ]]
    rm -rf "$out"
    mkdir -p "$out"
    # One line per (binary, seed); a failed run appends its name to
    # $out/failed.
    for name in "${names[@]}"; do
        for seed in $(seq 1 8); do
            echo "$name $seed"
        done
    done | xargs -P "$JOBS" -L 1 sh -c \
        'build/bench/"$0" --seed "$1" > "build/paper-seeds/$0.seed$1.txt" 2>&1 ||
         echo "$0 --seed $1: exit $?" >> build/paper-seeds/failed'
    local runs in_band total
    runs=$(ls "$out"/*.txt | wc -l)
    in_band=$(cat "$out"/*.txt | grep -c '^\[PASS\]' || true)
    total=$(cat "$out"/*.txt | grep -c '^\[\(PASS\|CHECK\)\]' || true)
    echo "${runs} runs of ${#names[@]} binaries: ${in_band}/${total} checks in band"
    if [[ -s "$out/failed" ]]; then
        sort "$out/failed"
        false
    fi
    [[ "$runs" -eq $((8 * ${#names[@]})) && "$in_band" -eq "$total" ]]
}

pass_paper_golden() {
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    ctest --test-dir build --output-on-failure -j "$JOBS" -L paper
}

pass_paper_golden_update() {
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    local out=build/paper-stdout
    local table=tests/data/paper_stdout.sha256
    local names
    mapfile -t names < <(paper_names)
    [[ "${#names[@]}" -gt 0 ]]
    mkdir -p "$out"
    for name in "${names[@]}"; do
        "build/bench/$name" > "$out/$name"
    done
    (cd "$out" && sha256sum "${names[@]}") > "$out.sha256"
    mv "$out.sha256" "$table"
    echo "rewrote $table (${#names[@]} binaries); review before committing:"
    git --no-pager diff -- "$table"
}

pass_scaling() {
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" \
          --target micro_sim micro_profile micro_ceer micro_obs
    mkdir -p build/scaling
    ./build/bench/micro_sim --out build/scaling/BENCH_sim.json
    ./build/bench/micro_profile --out build/scaling/BENCH_profile.json
    ./build/bench/micro_ceer --out build/scaling/BENCH_ceer.json
    ./build/bench/micro_obs --out build/scaling/BENCH_obs.json

    # tools/scaling_gate.py judges the sweep rows: on >= 2 hardware
    # threads any below-serial row fails and the recommender sweep must
    # clear 1.5x at 2 threads; on one hardware thread the benches must
    # have declared the scaling numbers meaningless instead.
    python3 tools/scaling_gate.py build/scaling
}

pass_coverage() {
    cmake -B build-cov -S . -DCEER_COVERAGE=ON \
          -DCMAKE_BUILD_TYPE=Debug >/dev/null
    cmake --build build-cov -j "$JOBS"
    ctest --test-dir build-cov --output-on-failure -j "$JOBS"
    python3 tools/coverage_summary.py --build-dir build-cov
}

pass_deadcode() {
    # No inlining and one section per function, with unreferenced
    # sections dropped at link time: a function nm still finds in a
    # root is one that root reaches.
    local flags=(-DCMAKE_BUILD_TYPE=Debug
                 "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -fno-inline -ffunction-sections"
                 "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
    if command -v ninja >/dev/null; then
        flags+=(-G Ninja)
    fi
    # Ask CMake's File API for the codemodel: the configured targets.
    mkdir -p build-deadcode/tree/.cmake/api/v1/query
    touch build-deadcode/tree/.cmake/api/v1/query/codemodel-v2
    cmake -B build-deadcode/tree -S . "${flags[@]}" >/dev/null
    cmake --build build-deadcode/tree -j "$JOBS" \
          --target bench-build/all examples/all tools/all
    cmake -B build-deadcode/perfbench -S perfbench "${flags[@]}" >/dev/null
    cmake --build build-deadcode/perfbench -j "$JOBS" \
          --target perfbench perfbench_selftest

    python3 - <<'EOF'
import glob, json, os, subprocess, sys

STRING = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
          "std::allocator<char> >")

def defined(path, types):
    """Demangled names of the symbols of the given nm types."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         check=True, capture_output=True,
                         text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in types:
            names.add(parts[2].replace(STRING, "std::string"))
    return names

def configured_targets(build):
    """The target objects of the build's File API codemodel reply."""
    reply = os.path.join(build, ".cmake/api/v1/reply")
    with open(max(glob.glob(os.path.join(reply, "index-*.json")))) as f:
        index = json.load(f)
    with open(os.path.join(
            reply, index["reply"]["codemodel-v2"]["jsonFile"])) as f:
        codemodel = json.load(f)
    for target in codemodel["configurations"][0]["targets"]:
        with open(os.path.join(reply, target["jsonFile"])) as f:
            yield json.load(f)

def artifacts(build, target):
    return [os.path.join(build, artifact["path"])
            for artifact in target.get("artifacts", [])]

TREE = "build-deadcode/tree"
libs, roots = [], []
for target in configured_targets(TREE):
    top = target["paths"]["source"].split("/")[0]
    if (target["type"] == "STATIC_LIBRARY" and
            target["name"].startswith("ceer_")):
        libs += artifacts(TREE, target)
    elif (target["type"] == "EXECUTABLE" and
            top in ("bench", "examples", "tools")):
        roots += artifacts(TREE, target)
libs.sort()
roots.sort()
missing = [path for path in libs + roots if not os.path.isfile(path)]
if missing:
    sys.exit(f"deadcode: configured but not built: {missing}")
roots += ["build-deadcode/perfbench/perfbench",
          "build-deadcode/perfbench/perfbench_selftest"]
if not libs or len(roots) <= 2:
    sys.exit(f"deadcode: found {len(libs)} libraries and {len(roots)} "
             "roots; the build went wrong")

library = {name for lib in libs for name in defined(lib, "T")
           if name.startswith("ceer::")}
reached = set()
for root in roots:
    reached |= defined(root, "TtWw")
unreachable = library - reached

allowed = {}
with open("tools/deadcode_allow.txt") as f:
    for line in f:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" # ")
        if not reason.strip():
            sys.exit(f"deadcode: no reason given for {name}")
        allowed[name.strip()] = reason.strip()

print(f"{len(unreachable)} of {len(library)} strong ceer:: functions in "
      f"{len(libs)} libraries reach none of {len(roots)} roots")
failures = [f"unreachable and not allow-listed: {name}"
            for name in sorted(unreachable - allowed.keys())]
failures += [f"allow-listed but no longer defined: {name}"
             for name in sorted(allowed.keys() - library)]
failures += [f"allow-listed but reached now: {name}"
             for name in sorted((allowed.keys() & library) - unreachable)]
for failure in failures:
    print(f"FAIL: {failure}")
if failures:
    sys.exit(1)
print(f"deadcode gate clean ({len(allowed)} allow-listed)")
EOF
}

if [[ "$MODE" == "coverage" ]]; then
    run_pass "coverage build + tests + line-coverage floor" pass_coverage
elif [[ "$MODE" == "deadcode" ]]; then
    run_pass "unreachable library functions vs allow-list" pass_deadcode
elif [[ "$MODE" == "paper-seeds" ]]; then
    run_pass "paper binaries at seeds 1..8" pass_paper_seeds
elif [[ "$MODE" == "paper-golden" ]]; then
    run_pass "paper binaries: bands + stdout digests" pass_paper_golden
elif [[ "$MODE" == "paper-golden-update" ]]; then
    run_pass "paper binaries: rewrite the stdout digests" \
        pass_paper_golden_update
elif [[ "$MODE" == "scaling" ]]; then
    run_pass "micro-bench scaling gate (below-serial rows)" pass_scaling
else
    run_pass "release build + tests" pass_release
    run_pass "src/ libraries build with -Werror" pass_werror
    run_pass "flake pass (concurrency tests x20)" pass_flake
    run_pass "microbenchmark smoke runs" pass_bench_smoke
    run_pass "ThreadSanitizer (concurrency-sensitive pieces)" pass_tsan
    run_pass "UBSanitizer (serialization/I-O boundary, sampling kernel)" pass_ubsan
    run_pass "AddressSanitizer (prediction, profiling, graph, codec paths)" pass_asan
fi

echo
echo "==> summary"
for i in "${!PASS_NAMES[@]}"; do
    printf '  %-48s %s\n' "${PASS_NAMES[$i]}" "${PASS_RESULTS[$i]}"
done
if [[ "$FAILED" -ne 0 ]]; then
    echo "RESULT: FAIL"
    exit 1
fi
echo "RESULT: PASS"
