#!/usr/bin/env python3
"""rbdbench: build the benchmark, run it, check it, report it.

One run, one workload:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

builds benchmark/ (its own CMake project, Release) when needed, runs
workload W in one process, checks its outputs, prints every metric with
its unit and sample count, and prints as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

The whole benchmark:

    python3 benchmark/run.py [--seed S] [--rounds R] [--seconds T]
                             [--quick] [--write-baseline]

runs the four workloads untraced in R interleaved rounds (each run its
own process, every round on seed S), then one traced round; prints the
end-to-end table (median and IQR over the rounds) and the per-layer
table, and writes benchmark/out/results.json, layers.json and
trace.json. --quick is one round at a tenth of the work with every
check (a smoke test). --write-baseline records the rounds and seed S's
exact outputs as benchmark/baseline.json. Exits non-zero when a check
fails or a run is invalid.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BASELINE_PATH = os.path.join(HERE, "baseline.json")
OUT = os.path.join(HERE, "out")
WORKLOADS = ["mpc_arm", "mpc_quadruped", "serve_mixed", "batch_sweep"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
MIN_NPROC = 4


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def run_child(cmd, timeout, **kwargs):
    """Run @cmd to completion; kill and reap it on timeout or signal."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out


def build():
    """Configure (once) and build rbdbench; return the binary's path."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log(f"run.py: {need} is missing: the library sources are not "
                "in this checkout")
            sys.exit(2)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    bdir = os.path.join(os.path.abspath(target), "rbdbench")
    tmp = os.path.join(bdir, "tmp")  # compiler scratch stays in the tree
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "rbdbench", "-j",
                  str(os.cpu_count() or 1)])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        rc, _ = run_child(cmd, max(1.0, deadline - time.monotonic()),
                          stdout=sys.stderr, env=env)
        if rc != 0:
            log("run.py: build failed")
            sys.exit(3)
    return os.path.join(bdir, "rbdbench")


def run_binary(binary, workload, seed, seconds, trace, quick=False,
               trace_out=None):
    """One rbdbench process; returns its parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    rc, out = run_child(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                        text=True)
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        raise RuntimeError(f"rbdbench exited with {rc} on {workload}")
    return json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rc, out = run_child(["git", "-C", ROOT, "rev-parse", "HEAD"], 30,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, env=env)
    except OSError:
        return "unknown"
    return out.strip() if rc == 0 else "unknown"


def machine_stamp(result):
    """The machine and build a result was measured on."""
    s = result["stamp"]
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "compiler": s["compiler"], "cxxflags": s["cxxflags"].strip(),
            "build_type": s["build_type"], "git_rev": git_rev()}


def fingerprint(stamp):
    """What exact outputs depend on: the CPU and the compiler."""
    return [stamp["cpu"], stamp["compiler"], stamp["cxxflags"]]


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def expected_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def check(result, spec, baseline, stamp):
    """Every problem with one result: the program's own checks, the
    metric set of BENCHMARK.json, and the committed exact outputs."""
    problems = list(result["failures"])
    got = result["metrics"]
    names = [m["name"] for m in expected_metrics(spec, result["trace"])]
    missing = [n for n in names if n not in got]
    extra = [n for n in got if n not in names]
    if missing or extra:
        problems.append(f"metric set differs from BENCHMARK.json: missing "
                        f"{missing}, unexpected {extra}")
    for n in names:
        v = got.get(n, {}).get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append(f"{n} is not a finite number")
    # Exact outputs are committed per machine and compiler, for the
    # baseline's seed; elsewhere they are not expected to match bit for
    # bit (every run still checks them slice against slice).
    if baseline and baseline.get("fingerprint") == fingerprint(stamp):
        exact = baseline.get("exact", {}).get(result["workload"], {})
        want = dict(exact.get("*", {}))
        if result["seed"] == baseline.get("seed") and not result["quick"]:
            want.update(exact.get("seed", {}))
        for name, value in want.items():
            if name in result["outputs"]:
                have = result["outputs"][name]
            elif name in got:
                have = got[name]["value"]
            else:
                continue
            if have != value:
                problems.append(f"{name} is {have}, the committed baseline "
                                f"has {value}")
    return problems


def print_result(result, stamp, problems, valid):
    log(f"rbdbench {result['workload']} seed {result['seed']} trace "
        f"{result['trace']}: nproc {stamp['nproc']}, {stamp['cpu']}, "
        f"{stamp['compiler']} {stamp['cxxflags']}, rev {stamp['git_rev']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:16.6g} {m['unit']:15s} "
              f"({m['samples']} samples)")
    for name, m in result["detail"].items():
        if not name.startswith(("sweep.", "kernel.", "engine.", "backend.",
                                "accel.")):
            print(f"  {name:34s} {m['value']:16.6g} {m['unit']:15s} "
                  f"({m['samples']} samples, not a contract metric)")
    for p in problems:
        log(f"  FAILED: {p}")
    if not valid:
        log("  INVALID: " + "; ".join(result["warnings"]))


def validity(result, stamp):
    """A valid run had the load it claims: enough cores, and an open-loop
    generator that kept to its schedule."""
    ok = result["valid"]
    if (stamp["nproc"] or 0) < MIN_NPROC:
        result["warnings"].append(f"nproc {stamp['nproc']} < {MIN_NPROC}")
        ok = False
    return ok


def one_run(args, spec, baseline):
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    trace_out = (os.path.join(OUT, f"trace-{args.workload}.json")
                 if args.trace else None)
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace, args.quick, trace_out)
    stamp = machine_stamp(result)
    problems = check(result, spec, baseline, stamp)
    print_result(result, stamp, problems, validity(result, stamp))
    names = [m["name"] for m in expected_metrics(spec, args.trace)]
    metrics = {n: {"value": result["metrics"][n]["value"],
                   "unit": result["metrics"][n]["unit"]}
               for n in names if n in result["metrics"]}
    print(json.dumps({"correct": not problems,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def spread(values):
    """Median, quartiles and IQR share of the median of @values."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def merge_traces(paths, dest):
    events = []
    dropped = 0
    for pid, path in enumerate(paths, start=1):
        t = load_json(path)
        if not t:
            continue
        for ev in t["traceEvents"]:
            ev["pid"] = pid
            events.append(ev)
        dropped += t.get("droppedEvents", 0)
        os.remove(path)
    with open(dest, "w") as f:
        json.dump({"traceEvents": events, "droppedEvents": dropped}, f)


def full_run(args, spec, baseline):
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    rounds = 1 if args.quick else args.rounds
    runs, problems, invalid = [], [], []
    stamp = None

    def take(result):
        nonlocal stamp
        stamp = stamp or machine_stamp(result)
        where = f"{result['workload']} seed {result['seed']} trace " \
                f"{result['trace']}"
        problems.extend(f"{where}: {p}"
                        for p in check(result, spec, baseline, stamp))
        if not validity(result, stamp):
            invalid.append(f"{where}: " + "; ".join(result["warnings"]))
        runs.append(result)

    for r in range(rounds):
        for w in WORKLOADS:
            log(f"round {r + 1}/{rounds}: {w} seed {args.seed}")
            take(run_binary(binary, w, args.seed, args.seconds, 0,
                            args.quick))
    traces = []
    for w in WORKLOADS:
        log(f"traced round: {w} seed {args.seed}")
        traces.append(os.path.join(OUT, f"trace-{w}.json"))
        take(run_binary(binary, w, args.seed, args.seconds, 1, args.quick,
                        traces[-1]))
    merge_traces(traces, os.path.join(OUT, "trace.json"))

    # The exact outputs must not change from round to round.
    for w in WORKLOADS:
        outs = [res["outputs"] for res in runs if res["workload"] == w]
        if any(o != outs[0] for o in outs):
            problems.append(f"{w}: exact outputs differ between runs: "
                            f"{outs}")

    summary, layers = {}, {}
    print(f"\nend-to-end: median [q1, q3] over {rounds} untraced rounds of "
          f"{args.seconds} s; samples summed over rounds")
    for w in WORKLOADS:
        mine = [res for res in runs if res["workload"] == w
                and not res["trace"]]
        summary[w] = {}
        for m in spec["end_to_end"]:
            vals = [res["metrics"][m["name"]]["value"] for res in mine]
            s = spread(vals)
            s["unit"] = m["unit"]
            s["samples"] = sum(res["metrics"][m["name"]]["samples"]
                               for res in mine)
            summary[w][m["name"]] = s
            print(f"  {w:14s} {m['name']:18s} {s['median']:14.6g} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] {m['unit']:4s} "
                  f"iqr {100 * s['iqr_frac']:5.1f}%  "
                  f"({s['samples']} samples)")
        details = {}
        for res in mine:
            for name, d in res["detail"].items():
                details.setdefault(name, (d["unit"], []))[1].append(
                    d["value"])
        for name, (unit, vals) in details.items():
            if not name.startswith("sweep."):
                print(f"  {w:14s} {name:26s} {statistics.median(vals):14.6g}"
                      f" {unit} (median over rounds; not a contract metric)")
        traced = [res for res in runs if res["workload"] == w
                  and res["trace"]]
        layers[w] = {"metrics": traced[0]["metrics"],
                     "detail": traced[0]["detail"]} if traced else {}

    print("\nper-layer (traced round, seed %d)" % args.seed)
    print("  %-34s %-15s" % ("metric", "unit") +
          "".join("%15s" % w for w in WORKLOADS))
    for m in spec["per_layer"]:
        row = [layers[w]["metrics"].get(m["name"], {}).get("value")
               for w in WORKLOADS]
        print("  %-34s %-15s" % (m["name"], m["unit"]) +
              "".join("%15.6g" % v if v is not None else "%15s" % "-"
                      for v in row))

    results = {"stamp": stamp, "seed": args.seed, "rounds": rounds,
               "seconds": args.seconds, "quick": args.quick,
               "summary": summary, "problems": problems,
               "invalid": invalid, "runs": runs}
    with open(os.path.join(OUT, "results.json"), "w") as f:
        json.dump(results, f, indent=1)
    with open(os.path.join(OUT, "layers.json"), "w") as f:
        json.dump({"stamp": stamp, "seed": args.seed, "layers": layers}, f,
                  indent=1)
    if args.write_baseline:
        write_baseline(runs, summary, stamp, args)
    log(f"\nwrote {OUT}/results.json, layers.json, trace.json")
    for p in problems:
        log("FAILED: " + p)
    for p in invalid:
        log("INVALID: " + p)
    return 1 if problems else 4 if invalid else 0


# Outputs compared exactly against the baseline: the closed-loop
# outputs for the baseline's seed; the modeled accelerator counts, which
# do not depend on the seed, for every seed.
EXACT_ANY_SEED = ("accel.cycles_model.", "accel.fifo_stalls_model")


def write_baseline(runs, summary, stamp, args):
    exact = {}
    for res in runs:
        w = exact.setdefault(res["workload"], {})
        w["seed"] = res["outputs"]
        for name, m in res["metrics"].items():
            if name.startswith(EXACT_ANY_SEED):
                w.setdefault("*", {})[name] = m["value"]
    baseline = {
        "stamp": stamp, "fingerprint": fingerprint(stamp),
        "seconds": args.seconds, "rounds": args.rounds, "seed": args.seed,
        "end_to_end": summary, "exact": exact,
    }
    with open(BASELINE_PATH, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    log(f"wrote {BASELINE_PATH}")


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args()
    if args.write_baseline and (args.quick or args.workload):
        ap.error("--write-baseline records full rounds of every workload")
    spec = load_json(SPEC_PATH)
    if not spec:
        log(f"run.py: cannot read {SPEC_PATH}")
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    baseline = load_json(BASELINE_PATH)
    if args.workload:
        return one_run(args, spec, baseline)
    return full_run(args, spec, baseline)


if __name__ == "__main__":
    sys.exit(main())
