"""Runs one workload in this process as a closed loop with one client.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--tiny] [--trace-out FILE]

Prints one JSON line on stdout.  ``setup_end`` is the CLOCK_MONOTONIC time
just before the first timed call, so the parent can measure set-up from the
moment it started this process.  The oracle runs after each call, outside
the timed region; an exception or an oracle mismatch counts as a failed call.
Each call is followed by the calibration kernel of common.py, and reported
times are scaled to its reference speed by the kernels nearest the call; raw
times are reported beside them.

Untraced (--trace 0): complete rounds run until the timed calls add up to
--seconds and number at least MIN_CALLS; throughput is the median of the
rounds' rates, latencies are percentiles of all calls.
Traced (--trace 1): a fixed number of rounds, derived from --seconds only,
is generated up front, run once untraced and once traced, so that the
counts repeat exactly for a given seed and the throughput ratio of the two
passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gcakit.cli  # noqa: E402,F401  (timed as part of set-up)
import numpy as np  # noqa: E402

import cli_docs  # noqa: E402
import exact_build  # noqa: E402
import phase_space  # noqa: E402
from common import MIN_CALLS, at_reference_speed, kernel_s, local_kernel, percentile  # noqa: E402

WORKLOADS = {
    "exact_build": exact_build.Workload,
    "phase_space": phase_space.Workload,
    "cli_docs": cli_docs.Workload,
}
# untraced seconds per full round on a 2-core Xeon; sets the traced round count
NOMINAL_ROUND_S = {"exact_build": 3.3, "phase_space": 2.6, "cli_docs": 2.0}


def run_op(op, tracer=None, call_id=0):
    """Time one call, time the calibration kernel, then judge the output.

    Returns (seconds, kernel seconds right after, ok, why).
    """
    if tracer is not None:
        tracer.call_id = call_id
    t0 = time.perf_counter()
    try:
        out = op.call()
        err = None
    except Exception as exc:  # a failed call is recorded, the loop goes on
        out, err = None, exc
    dt = time.perf_counter() - t0
    k = kernel_s()
    if err is not None:
        return dt, k, False, f"{type(err).__name__}: {err}"
    try:
        ok = bool(op.check(out))
    except Exception as exc:  # a malformed output can break the oracle itself
        return dt, k, False, f"oracle raised {type(exc).__name__}: {exc}"
    return dt, k, ok, None if ok else "oracle mismatch"


def run_ops(ops, k_before: float, tracer=None):
    """Run ops in order; each call is scaled by the kernels around it."""
    raw, kernels, outcomes = [], [k_before], []
    for i, op in enumerate(ops):
        dt, k, ok, why = run_op(op, tracer, i)
        raw.append(dt)
        kernels.append(k)
        outcomes.append((ok, why))
        if tracer is not None:
            tracer.end_call()
    scaled = [at_reference_speed(dt, local_kernel(kernels, i)) for i, dt in enumerate(raw)]
    return raw, scaled, outcomes, kernels[-1]


def labels(ops) -> list[tuple[str, str | None]]:
    """What a summary needs of each op, without holding on to its inputs."""
    return [(f"{op.kind} {op.sizes}", op.known_defect) for op in ops]


def summarize(raw, scaled, outcomes, labelled) -> dict:
    failed = [(label, defect, why) for (ok, why), (label, defect) in zip(outcomes, labelled) if not ok]
    p90 = percentile(scaled, 90)
    return {
        "attempted": len(scaled),
        "failed": len(failed),
        "failed_unexpected": sum(1 for _, defect, _ in failed if not defect),
        "known_defects_seen": sorted({defect for _, defect, _ in failed if defect}),
        "failures": sorted({f"{label}: {why}" for label, _, why in failed})[:20],
        "throughput_ops_s": len(scaled) / sum(scaled),
        "latency_p50_ms": 1e3 * percentile(scaled, 50),
        "latency_p90_ms": 1e3 * p90,
        "beyond_p90": sum(1 for d in scaled if d > p90),
        "raw_timed_s": sum(raw),
        "raw_throughput_ops_s": len(raw) / sum(raw),
        "raw_latency_p50_ms": 1e3 * percentile(raw, 50),
        "raw_latency_p90_ms": 1e3 * percentile(raw, 90),
    }


def untraced(wl, seconds: float) -> dict:
    raw, scaled, outcomes, done, rates = [], [], [], [], []
    k = 0
    ops = wl.round(k)
    setup_end = time.monotonic()
    kern = kernel_s()
    while True:
        r, s, o, kern = run_ops(ops, kern)
        raw += r
        scaled += s
        outcomes += o
        done += labels(ops)
        rates.append(len(s) / sum(s))
        if sum(raw) >= seconds and len(raw) >= MIN_CALLS:
            break
        k += 1
        ops = wl.round(k)
    res = summarize(raw, scaled, outcomes, done)
    # every round is a complete stratified sample, so its rate is an estimate
    # of the workload's throughput; the median over rounds resists a round
    # whose long calls the calibration kernel tracked badly
    res.update(throughput_ops_s=statistics.median(rates), round_rates=rates)
    res.update(setup_end=setup_end, rounds=k + 1,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return res


def traced(wl, name: str, seconds: float, trace_out: str | None) -> dict:
    from tracer import Tracer

    rounds = max(1, math.ceil(seconds / (2 * NOMINAL_ROUND_S[name])))
    ops = [op for k in range(rounds) for op in wl.round(k)]
    _, plain, _, kern = run_ops(ops, kernel_s())
    tracer = Tracer()
    tracer.install()
    try:
        raw, scaled, outcomes, _ = run_ops(ops, kern, tracer)
    finally:
        tracer.uninstall()
    res = summarize(raw, scaled, outcomes, labels(ops))
    metrics = tracer.metrics([s / r for s, r in zip(scaled, raw)], sum(scaled),
                             sum(op.sizes.get("doc_bytes", 0) for op in ops))
    metrics["trace.overhead_ratio"] = sum(scaled) / sum(plain)
    res.update(rounds=rounds, per_layer=metrics)
    if trace_out:
        calls = [{"id": i, "kind": op.kind, "sizes": op.sizes, "seconds": dt, "ok": ok}
                 for i, (op, dt, (ok, _)) in enumerate(zip(ops, raw, outcomes))]
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "calls": calls, **tracer.dump()}, fh)
    return res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="smallest size of every template")
    ap.add_argument("--trace-out", help="write spans and per-call records here")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    wl.warm_up()
    kernel_s()
    if args.setup_only:
        wl.round(0)
        res = {"setup_end": time.monotonic()}
    elif args.trace:
        res = traced(wl, args.workload, args.seconds, args.trace_out)
    else:
        res = untraced(wl, args.seconds)
    res.update(python=platform.python_version(), numpy=np.__version__)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
