#!/usr/bin/env python3
"""Summarize a dadu Chrome-trace file (trace_*.json).

Reads the trace-event JSON produced by writeChromeTrace / the live
TraceStreamer and prints:

  - per-track (lane / control / client ring) utilization: summed
    ExecBegin..ExecEnd span time over the track's active window;
  - per client track (one that records MPC `tick` spans): the share
    of tick time spent in `ilqr_iter` spans and in the `riccati`
    (iLQR backward sweep) spans nested inside them, and the riccati
    time per tick;
  - scheduler action counts: coalesce, steal, retry, requeue, fault,
    lane-death instants per track;
  - the top-10 slowest completed jobs by end-to-end latency (the
    Completed instant carries e2e microseconds in args.b).

Usage: tools/trace_stats.py trace_sched_qos.json [--top N]

Exits non-zero on a structurally invalid trace, so CI can use it as a
validator as well as a reporter.
"""

import argparse
import json
import sys
from collections import defaultdict


def load(path):
    with open(path) as f:
        t = json.load(f)
    if "traceEvents" not in t or not isinstance(t["traceEvents"], list):
        raise SystemExit(f"{path}: no traceEvents array")
    if "droppedEvents" not in t:
        raise SystemExit(f"{path}: missing droppedEvents footer")
    return t


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trace", help="Chrome-trace JSON file")
    ap.add_argument("--top", type=int, default=10,
                    help="slowest-job count to print (default 10)")
    args = ap.parse_args()

    t = load(args.trace)
    events = t["traceEvents"]

    names = {}          # tid -> track name
    spans = defaultdict(float)    # tid -> summed B..E duration (us)
    open_begin = {}     # tid -> stack of (span name, B timestamp)
    named = defaultdict(lambda: defaultdict(float))  # tid -> name -> us
    named_n = defaultdict(lambda: defaultdict(int))  # tid -> name -> n
    window = {}         # tid -> [min ts, max ts]
    actions = defaultdict(lambda: defaultdict(int))  # tid -> name -> n
    completed = []      # (e2e_us, job, ts)
    counted = {"coalesced_into", "stolen_from", "retry", "requeue",
               "fault", "lane_death"}

    for e in events:
        ph = e.get("ph")
        tid = e.get("tid")
        if ph == "M":
            if e.get("name") == "thread_name":
                names[tid] = e["args"]["name"]
            continue
        ts = e.get("ts")
        if ts is None:
            continue
        lo, hi = window.get(tid, (ts, ts))
        window[tid] = (min(lo, ts), max(hi, ts))
        if ph == "B":
            # Spans nest (tick > ilqr_iter > riccati); only the
            # outermost one counts toward busy time or utilization
            # double-counts.
            open_begin.setdefault(tid, []).append((e.get("name"), ts))
        elif ph == "E":
            stack = open_begin.get(tid)
            # A drop-oldest ring can keep an E whose B was overwritten:
            # only an E that closes the innermost open span counts.
            if stack and stack[-1][0] == e.get("name"):
                name, start = stack.pop()
                named[tid][name] += ts - start
                named_n[tid][name] += 1
                if not stack:
                    spans[tid] += ts - start
        elif ph == "i":
            name = e.get("name", "")
            if name in counted:
                actions[tid][name] += 1
            elif name == "completed":
                a = e.get("args", {})
                completed.append((float(a.get("b", 0.0)),
                                  a.get("job", -1), ts))

    print(f"{args.trace}: {len(events)} events, "
          f"{t['droppedEvents']} dropped")

    print(f"\n{'track':<12} {'window(ms)':>10} "
          f"{'busy(ms)':>9} {'util':>6}  actions")
    for tid in sorted(window):
        lo, hi = window[tid]
        span = hi - lo
        busy = spans.get(tid, 0.0)
        util = busy / span if span > 0 else 0.0
        acts = actions.get(tid, {})
        act_str = " ".join(f"{k}={v}"
                           for k, v in sorted(acts.items())) or "-"
        print(f"{names.get(tid, tid):<12} {span / 1e3:>10.2f} "
              f"{busy / 1e3:>9.2f} {util:>5.1%}  {act_str}")

    clients = [tid for tid in sorted(named) if named[tid].get("tick")]
    if clients:
        print(f"\n{'client':<12} {'ticks':>6} {'tick(ms)':>9} "
              f"{'ilqr_iter':>9} {'riccati':>8} {'riccati/tick(us)':>17}")
    for tid in clients:
        tick_us, ticks = named[tid]["tick"], named_n[tid]["tick"]
        print(f"{names.get(tid, tid):<12} {ticks:>6} {tick_us / 1e3:>9.2f} "
              f"{named[tid]['ilqr_iter'] / tick_us:>9.1%} "
              f"{named[tid]['riccati'] / tick_us:>8.1%} "
              f"{named[tid]['riccati'] / ticks:>17.1f}")

    total_actions = defaultdict(int)
    for per in actions.values():
        for k, v in per.items():
            total_actions[k] += v
    if total_actions:
        print("\ntotals: " + "  ".join(
            f"{k}={v}" for k, v in sorted(total_actions.items())))

    completed.sort(reverse=True)
    if completed:
        print(f"\ntop {min(args.top, len(completed))} slowest jobs "
              f"(of {len(completed)} completed):")
        print(f"{'job':>8} {'e2e(us)':>12} {'completed at(ms)':>17}")
        for e2e, job, ts in completed[:args.top]:
            print(f"{job:>8} {e2e:>12.1f} {ts / 1e3:>17.2f}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
