#!/usr/bin/env python3
"""Compare freshly produced BENCH_*.json files against the committed
ones, on machine-independent headline keys with per-key tolerances.

The committed BENCH files record the perf trajectory of the repo; a
fresh CI run on different hardware cannot reproduce absolute µs
numbers, but the RATIO keys (overhead factors, speedups, hit rates,
convergence flags) are hardware-normalized and must stay in band.

Checks, per compared file:

  1. key-set equality — the fresh file must contain exactly the
     committed keys (a bench that silently dropped or renamed a
     headline metric fails here, reminding the author to regenerate
     the committed file);
  2. spec'd headline keys — each (key, mode, bound) row below (a key
     with a '*' is a glob over the committed keys):
       exact     fresh == committed (bit-identical print)
       rel R     |fresh - committed| <= R * |committed|
       max B     fresh <= B  (absolute ceiling, e.g. overhead ratios)
       min B     fresh >= B  (absolute floor, e.g. convergence flags)

Usage:  tools/bench_compare.py --fresh build --committed . \
            BENCH_sched.json [BENCH_overload.json ...]

Exit status 0 = all in band, 1 = any violation (listed on stdout).
"""

import argparse
import fnmatch
import json
import os
import re
import sys

# Keys whose PRESENCE is machine-dependent: the histogram dumps emit
# one key per NONZERO bucket (…_b<index>), and which buckets fill
# depends on the runner's absolute latencies. Excluded from the
# key-set equality check.
DYNAMIC_KEY = re.compile(r"_b\d+$")

# (key, mode, bound) rows per file. Keys here are the headline,
# machine-independent metrics; bounds are wide enough for CI-runner
# noise but tight enough to catch real regressions.
SPEC = {
    "BENCH_sched.json": [
        ("schema_version", "exact", None),
        ("hist_buckets", "exact", None),
        ("hist_sub_buckets", "exact", None),
        ("hist_octaves", "exact", None),
        # Tracing+metrics must stay near-free; streaming adds the
        # aggregator + writer thread. 1.15 absorbs runner noise on
        # top of the committed ≤1.05 acceptance bound.
        ("obs_overhead_ratio", "max", 1.15),
        ("obs_stream_overhead_ratio", "max", 1.15),
        # EDF/QoS throughput cost vs FIFO stays within 30% of the
        # committed factor.
        ("throughput_ratio_edf", "rel", 0.30),
        ("throughput_ratio_qos", "rel", 0.30),
    ],
    "BENCH_overload.json": [
        ("schema_version", "exact", None),
        # Admission control must keep critical deadlines under 2x
        # overload (the headline fault-tolerance claim), where FIFO
        # visibly degrades.
        ("crit_hit_qos_2x", "min", 0.90),
        ("crit_hit_fifo_2x", "max", 0.90),
    ],
    "BENCH_mpc.json": [
        ("schema_version", "exact", None),
        # Every robot x scenario solve must converge, always.
        ("*_converged", "min", 1.0),
        ("serve_deadline_hit_rate", "min", 0.50),
        # The closed loop is deterministic and backend-independent in
        # its numerics: any change here is a change in what the
        # controller computes.
        ("closed_loop_*_tracking_err", "exact", None),
    ],
    "BENCH_e2e.json": [
        ("schema_version", "exact", None),
        # Modeled accelerator time of a deterministic tick stream.
        ("accel_dynamics_us_per_tick_model", "exact", None),
    ],
}


def check_file(name, fresh_dir, committed_dir, failures):
    fresh_path = os.path.join(fresh_dir, name)
    committed_path = os.path.join(committed_dir, name)
    for p in (fresh_path, committed_path):
        if not os.path.exists(p):
            failures.append(f"{name}: missing file {p}")
            return
    with open(fresh_path) as f:
        fresh = json.load(f)
    with open(committed_path) as f:
        committed = json.load(f)

    fresh_keys = {k for k in fresh if not DYNAMIC_KEY.search(k)}
    committed_keys = {k for k in committed if not DYNAMIC_KEY.search(k)}
    only_fresh = sorted(fresh_keys - committed_keys)
    only_committed = sorted(committed_keys - fresh_keys)
    if only_fresh:
        failures.append(
            f"{name}: keys not in committed file (regenerate it): "
            + ", ".join(only_fresh[:10]))
    if only_committed:
        failures.append(
            f"{name}: committed keys missing from fresh run: "
            + ", ".join(only_committed[:10]))

    checked = 0
    for key, mode, bound in SPEC.get(name, []):
        if "*" in key:
            keys = [k for k in committed if fnmatch.fnmatchcase(k, key)]
        else:
            keys = [key] if key in committed else []
        if not keys:
            failures.append(f"{name}: spec key {key} not present")
            continue
        for k in keys:
            if k not in fresh:
                continue  # already reported by the key-set check
            fv, cv = fresh[k], committed[k]
            ok = True
            if mode == "exact":
                ok = fv == cv
                detail = f"fresh {fv} != committed {cv}"
            elif mode == "rel":
                ok = abs(fv - cv) <= bound * abs(cv)
                detail = (f"fresh {fv} vs committed {cv} "
                          f"(tol ±{bound:.0%})")
            elif mode == "max":
                ok = fv <= bound
                detail = f"fresh {fv} > ceiling {bound}"
            elif mode == "min":
                ok = fv >= bound
                detail = f"fresh {fv} < floor {bound}"
            else:
                raise ValueError(f"bad mode {mode}")
            checked += 1
            if not ok:
                failures.append(f"{name}: {k} [{mode}] {detail}")
    print(f"{name}: {len(committed)} committed keys, "
          f"{checked} headline checks")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh", required=True,
                    help="directory with freshly produced BENCH files")
    ap.add_argument("--committed", required=True,
                    help="directory with committed BENCH files")
    ap.add_argument("files", nargs="+", help="BENCH_*.json names")
    args = ap.parse_args()

    failures = []
    for name in args.files:
        check_file(name, args.fresh, args.committed, failures)
    if failures:
        print("\nFAIL:")
        for f in failures:
            print("  " + f)
        return 1
    print("\nall headline metrics in band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
