#!/usr/bin/env python3
"""Scaling gate over the micro benches' BENCH_*.json files.

Usage: tools/scaling_gate.py <dir>

Reads BENCH_sim.json, BENCH_profile.json, BENCH_ceer.json and
BENCH_obs.json from <dir> and judges their thread-sweep rows (the one
row shape bench::scalingSweep writes: threads, trials, wall_ms/cpu_ms
spreads, speedup, identical, below_serial). On a host the benches saw
with >= 2 hardware threads:

  - no row may be below serial: flagged by the bench, or a row with
    2..hardware_threads threads whose speedup (median over median) is
    under 1.0;
  - the recommender sweep must reach 1.5x at 2 threads.

On one hardware thread the files must say skipped_scaling instead. On
any host every row must be identical to the serial run.

Exits 0 when the gate is clean, 1 when it fails, 2 when a file is
missing or malformed.
"""

import json
import sys

# Each file's thread-sweep array.
SWEEPS = {
    "sim": "results",
    "profile": "results",
    "ceer": "recommender_sweep",
    "obs": "contended_scaling",
}
MIN_RECOMMENDER_SPEEDUP_AT_2 = 1.5


def judge(directory):
    failures = []
    for name, key in SWEEPS.items():
        path = f"{directory}/BENCH_{name}.json"
        with open(path) as f:
            doc = json.load(f)
        hardware = doc["hardware_threads"]
        multi_core = hardware >= 2
        skipped = doc["skipped_scaling"]
        if skipped is not (not multi_core):
            failures.append(f"{path}: skipped_scaling={skipped!r} with "
                            f"{hardware} hardware thread(s)")
        rows = doc[key]
        for row in rows:
            if not row["identical"]:
                failures.append(f"{path}: {row['threads']}-thread result "
                                "differs from the serial one")
        if not multi_core:
            continue
        below = [row["threads"] for row in rows
                 if row["below_serial"] or
                 (1 < row["threads"] <= hardware and row["speedup"] < 1.0)]
        if below:
            failures.append(f"{path}: below-serial scaling row(s) at "
                            f"{below} threads")
        if name == "ceer":
            two = [row for row in rows if row["threads"] == 2]
            if not two:
                failures.append(f"{path}: no 2-thread sweep row")
            elif two[0]["speedup"] < MIN_RECOMMENDER_SPEEDUP_AT_2:
                failures.append(
                    f"{path}: recommender speedup at 2 threads is "
                    f"{two[0]['speedup']:.2f}x (< "
                    f"{MIN_RECOMMENDER_SPEEDUP_AT_2}x)")
    return failures


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        failures = judge(argv[1])
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"scaling gate: cannot read {argv[1]}: {error!r}",
              file=sys.stderr)
        return 2
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"scaling gate clean ({argv[1]})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
