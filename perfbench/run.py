"""gcakit benchmark: one workload per call, each in a fresh process.

    python3 perfbench/run.py --workload exact_build|phase_space|cli_docs \
        --seed N --seconds S --trace 0|1

Untraced (--trace 0) prints every end-to-end metric; traced (--trace 1)
prints every per-layer metric.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  A full record (the
seed, commit, machine, versions, failures) goes to .perfbench_out/.

The workload process is a closed loop with one client and no extra
threads; BLAS and OpenMP are pinned to one thread through its environment,
and this process and its children share one CPU of this process's own
affinity set, so that the calibration kernel (common.py) runs where the
measured work runs.  Every time is scaled to the kernel's reference speed
using kernels timed on either side of it.  Set-up is measured SETUP_REPEATS
times (fresh processes that stop after set-up, plus the measured one) and
reported as the median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from common import at_reference_speed, kernel_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_REPEATS = 5
COLD_REPEATS = 7
REFERENCE_START_S = 0.15
CHILD_TIMEOUT_S = 150
PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
       "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for k in PIN:
        env[k] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str]) -> tuple[float, dict]:
    """Start a process, wait for it, return (start time, its JSON line)."""
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_s(cmd: list[str]) -> tuple[float, float, dict]:
    """(scaled, raw) seconds from process start to its first timed call."""
    k0 = kernel_s()
    t0, res = run_child(cmd)
    raw = res["setup_end"] - t0
    return at_reference_speed(raw, 0.5 * (k0 + kernel_s())), raw, res


def process_s(cmd: list[str]) -> tuple[float, str]:
    """Wall time and stdout of one fresh process, which must exit 0."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return dt, proc.stdout


def cold_starts() -> list[tuple[float, float]]:
    """(scaled, raw) wall times of fresh `gcakit catalog pauli` processes.

    Process start-up is syscall and page-fault work that the calibration
    kernel does not track, so each start is scaled instead by bare
    interpreter-plus-numpy starts run on either side of it, to the speed at
    which such a start takes REFERENCE_START_S.
    """
    ref = [sys.executable, "-c", "import numpy"]
    cmd = [sys.executable, "-m", "gcakit.cli", "catalog", "pauli"]
    before = process_s(ref)[0]
    out = []
    for _ in range(COLD_REPEATS):
        raw, stdout = process_s(cmd)
        if json.loads(stdout)["name"] != "pauli":
            raise RuntimeError("gcakit catalog pauli printed the wrong document")
        after = process_s(ref)[0]
        out.append((raw * REFERENCE_START_S / (0.5 * (before + after)), raw))
        before = after
    return out


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gcakit benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "gcakit", "__init__.py")):
        print("error: no gcakit sources under src/ in this checkout", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    kernel_s()  # the first call pays one-time set-up; keep it out of every scale
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    base = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    try:
        if args.trace:
            trace_file = os.path.join(OUT_DIR, f"spans_{tag}.json")
            _, res = run_child(base + ["--trace", "1", "--trace-out", trace_file])
            values = res["per_layer"]
            listed = bench["per_layer"]
        else:
            setups = [setup_s(base + ["--setup-only"])[:2] for _ in range(SETUP_REPEATS - 1)]
            scaled, raw, res = setup_s(base + ["--trace", "0"])
            setups.append((scaled, raw))
            cold = cold_starts()
            values = {
                "setup_s": statistics.median(s for s, _ in setups),
                "throughput_ops_s": res["throughput_ops_s"],
                "latency_p50_ms": res["latency_p50_ms"],
                "latency_p90_ms": res["latency_p90_ms"],
                "peak_rss_mb": res["peak_rss_mb"],
                "cold_start_ms": 1e3 * statistics.median(s for s, _ in cold),
            }
            res.update(setup_samples_s=setups, cold_start_samples_s=cold)
            listed = bench["end_to_end"]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    env = {"seed": args.seed, "commit": git_commit(), "nproc": os.cpu_count(),
           "cpu": cpu_model(), "python": res.get("python"), "numpy": res.get("numpy")}
    failed_ratio = res["failed"] / res["attempted"]

    print(f"workload {args.workload}  trace {args.trace}  " + "  ".join(f"{k} {v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':34s} {failed_ratio:.6g} 1   ({res['failed']} of {res['attempted']} calls,"
          f" {res['beyond_p90']} beyond p90, {res['rounds']} rounds)")
    for defect in res["known_defects_seen"]:
        print(f"  known defect still present: {defect}")
    for why in res["failures"]:
        print(f"  failed: {why}")

    record = {"workload": args.workload, "trace": args.trace, "env": env, "metrics": metrics,
              "failed_ratio": failed_ratio, "run": {k: v for k, v in res.items() if k != "per_layer"}}
    with open(os.path.join(OUT_DIR, f"result_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        # correct: every output matched its oracle, apart from calls that
        # expose a defect already listed in ROADMAP (still counted in failed)
        "correct": res["failed_unexpected"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
