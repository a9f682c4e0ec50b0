"""bks5 benchmark: end-to-end metrics per workload, per-layer metrics when traced.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py                          # all workloads, untraced
    python3 perfbench/run.py --workload certify_proof --seed 3 --seconds 20
    python3 perfbench/run.py --workload search_sweep --trace 1

Workloads run one at a time, and so does every process this script
starts.  Each workload's work runs in fresh child processes with a pinned
environment (``BKS5_CACHE_DIR`` unset, ``PYTHONHASHSEED=0``, one BLAS/OpenMP
thread).  Times are scaled to reference seconds by host-speed samples
taken while they run (``calibrate.py``).  The script prints every metric by
name and unit, the environment it ran in, and, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
from tracing import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workloads.py"
CALIBRATE = HERE / "calibrate.py"
SPAN_DIR = HERE / "out"

WORKLOADS = ("verify_cold", "certify_proof", "search_sweep")
# Fresh set-ups per untraced run; setup_s is their median.  search_sweep's
# set-up enumerates all 661 bases, so it gets fewer.
SETUP_REPS = {"verify_cold": 5, "certify_proof": 5, "search_sweep": 2}
# Reference-work repetitions per calibration sample taken here, between
# set-ups (see calibrate.py): about 50 ms.
SETUP_CAL_REPS = 100
# The checks ``bks5 verify`` prints, in order; each must print PASS.
VERIFY_CHECKS = ("ray_table", "magic_parity", "maximal_bases",
                 "coloring_proof_bases", "coloring_all_bases",
                 "unique_partition", "distance_spectra", "geometry",
                 "symmetry", "search_regression")
# A run has enough ops for op_p90_s only when ten lie beyond it.
P90_MIN_OPS = 100

END_TO_END = (
    ("op_p50_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BKS5_CACHE_DIR", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child:
    """A finished child process: exit code, output lines, times, peak RSS."""

    def __init__(self, code, lines, wall, ready, peak_rss_mb):
        self.code = code
        self.lines = lines
        self.wall = wall
        self.ready = ready
        self.peak_rss_mb = peak_rss_mb

    def last_json(self):
        try:
            return json.loads(self.lines[-1])
        except (IndexError, ValueError):
            return None

    def tail(self, n: int = 5) -> str:
        return " | ".join(self.lines[-n:])


def run_child(argv) -> Child:
    """Run ``argv`` to completion, timing it and its ``READY`` line.

    The child is reaped with ``os.wait4`` so its own peak RSS is read
    from its resource usage.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)
    ready, lines = None, []
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if ready is None and line == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return Child(proc.returncode, lines, wall, ready, usage.ru_maxrss / 1024)


def worker(workload: str, seed: int, seconds: float, trace: int,
           setup_only: bool = False, op_id: int = 0) -> Child:
    argv = [sys.executable, str(WORKER), workload, "--seed", str(seed),
            "--seconds", repr(float(seconds)), "--trace", str(trace),
            "--op-id", str(op_id)]
    return run_child(argv + (["--setup-only"] if setup_only else []))


def _setup_times(workload: str, reps: int) -> list:
    """Set-up times of ``reps`` fresh workers, in reference seconds."""
    times, cal = [], [calibrate.rep_time(SETUP_CAL_REPS)]
    for _ in range(reps):
        child = worker(workload, 0, 0, 0, setup_only=True)
        if child.code != 0 or child.ready is None:
            raise RuntimeError("%s set-up failed: %s"
                               % (workload, child.tail()))
        times.append(child.ready)
        cal.append(calibrate.rep_time(SETUP_CAL_REPS))
    return calibrate.scaled(times, cal)


def check_verify_output(code: int, lines, checks=VERIFY_CHECKS) -> list:
    """Mismatches in one ``bks5 verify`` run: exit code and every PASS line."""
    problems = [] if code == 0 else ["exit code %d" % code]
    verdicts = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[1] in ("PASS", "FAIL"):
            verdicts[parts[0]] = parts[1]
    for name in checks:
        if verdicts.get(name) != "PASS":
            problems.append("%s: %s" % (name, verdicts.get(name, "missing")))
    unexpected = sorted(set(verdicts) - set(checks))
    if unexpected:
        problems.append("unexpected checks %s" % ", ".join(unexpected))
    return problems


def _sampled_verify() -> tuple:
    """One fresh ``python -m bks5.cli verify``, run with a host-speed sampler.

    Returns the child and the mean repetition time of its samples.
    """
    child = run_child([sys.executable, str(CALIBRATE), "bks5.cli", "verify"])
    samples = []
    if child.lines and child.lines[-1].startswith(calibrate.SAMPLES_PREFIX):
        samples = json.loads(
            child.lines.pop()[len(calibrate.SAMPLES_PREFIX):])
    rep = (statistics.fmean(samples) if samples
           else calibrate.rep_time(SETUP_CAL_REPS))
    return child, rep


def _verify_cold(seconds: float, trace: int, checks) -> dict:
    """Ops are fresh ``bks5 verify`` processes; traced ops alternate."""
    ops, spans, rss = [], [], []
    timed = 0.0
    while True:
        for traced in ((False, True) if trace else (False,)):
            if traced:
                child = worker("verify_op", 0, 0, 1, op_id=len(ops))
                record = child.last_json() or {}
                spans.extend(record.get("spans", []))
                rep = record.get("rep") or calibrate.rep_time(SETUP_CAL_REPS)
            else:
                child, rep = _sampled_verify()
            problems = check_verify_output(child.code, child.lines, checks)
            ops.append({"wall": child.wall, "rep": rep, "traced": traced,
                        "problems": problems})
            rss.append(child.peak_rss_mb)
            timed += child.wall
        if timed >= seconds:
            return {"ops": ops, "spans": spans, "peak_rss_mb": max(rss)}


def _library(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One worker runs the ops; its own set-up is timed as well.

    The set-up is bracketed by a calibration sample taken here before the
    worker starts and by the samples of the worker's first op.
    """
    before = calibrate.rep_time(SETUP_CAL_REPS)
    child = worker(workload, seed, seconds, trace)
    record = child.last_json()
    if child.code != 0 or child.ready is None or record is None:
        raise RuntimeError("%s worker failed (exit %d): %s"
                           % (workload, child.code, child.tail()))
    record["peak_rss_mb"] = child.peak_rss_mb
    [record["setup_s"]] = calibrate.scaled(
        [child.ready], [before, record["ops"][0]["rep"]])
    return record


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 setup_reps: int | None = None,
                 verify_checks=VERIFY_CHECKS) -> dict:
    """One run of one workload, as the result object ``main`` prints.

    ``verify_checks`` are the check names every ``verify_cold`` op must
    pass; library workloads check against the catalog in their worker.
    """
    if workload == "verify_cold":
        record = _verify_cold(seconds, trace, verify_checks)
    else:
        record = _library(workload, seed, seconds, trace)
    ops = record["ops"]
    failed = sum(1 for op in ops if op["problems"])
    result = {"correct": failed == 0, "attempted": len(ops),
              "failed": failed, "problems": [p for op in ops
                                             for p in op["problems"]]}
    walls = [calibrate.scale(op["wall"], op["rep"]) for op in ops]
    plain = [w for w, op in zip(walls, ops) if not op["traced"]]
    result["wall_op_p50_s"] = statistics.median(
        op["wall"] for op in ops if not op["traced"])
    result["rep_time_s"] = statistics.median(op["rep"] for op in ops)
    if trace:
        traced = [w for w, op in zip(walls, ops) if op["traced"]]
        overhead = statistics.median(traced) / statistics.median(plain)
        result["metrics"] = layer_metrics(record["spans"], len(traced),
                                          overhead)
        result["spans"] = record["spans"]
        return result
    if setup_reps is None:
        setup_reps = SETUP_REPS[workload]
    # A library workload's op worker is itself one fresh set-up.
    setups = [record["setup_s"]] if "setup_s" in record else []
    setups += _setup_times(workload, setup_reps - len(setups))
    values = {
        "op_p50_s": statistics.median(plain),
        "ops_per_s": len(plain) / sum(plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit, _ in END_TO_END}
    if len(plain) >= P90_MIN_OPS:
        result["op_p90_s"] = statistics.quantiles(plain, n=10)[-1]
    return result


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "not installed"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=60)
            commit = done.stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "PYTHONHASHSEED": "0", "threads": 1, "BKS5_CACHE_DIR": "unset"}


def report(workload: str, seed: int, seconds: float, trace: int,
           result: dict, env: dict):
    print("== %s  seed=%d  seconds=%g  trace=%d%s"
          % (workload, seed, seconds, trace,
             "  (seed unused: the input is the fixed catalog)"
             if workload == "verify_cold" else ""))
    print("env: " + ", ".join("%s=%s" % kv for kv in env.items()))
    print("times in reference seconds: reference work ran at %.4g ms a "
          "repetition here (%.4g ms on the reference host); unscaled "
          "op p50 %.6g s"
          % (result["rep_time_s"] * 1e3, calibrate.REFERENCE_REP_S * 1e3,
             result["wall_op_p50_s"]))
    for name, metric in result["metrics"].items():
        print("%-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if not trace:
        if "op_p90_s" in result:
            print("%-40s %14.6g s" % ("op_p90_s", result["op_p90_s"]))
        else:
            print("%-40s %14s (%d ops < %d)"
                  % ("op_p90_s", "omitted", result["attempted"],
                     P90_MIN_OPS))
    print("%-40s %14.6g (%d of %d ops failed)"
          % ("error_rate", result["failed"] / result["attempted"],
             result["failed"], result["attempted"]))
    for problem in result["problems"][:10]:
        print("FAILED: %s" % problem, file=sys.stderr)


def write_spans(workload: str, seed: int, result: dict, env: dict):
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / ("spans-%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "env": env,
                   "fields": ["name", "start", "end", "parent", "op",
                              "counters"],
                   "spans": result["spans"]}, fh)
    print("spans: %s" % path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bks5" / "__init__.py").is_file():
        print("error: %s holds no bks5 sources (src/bks5); run from the "
              "root of a bks5 checkout" % ROOT, file=sys.stderr)
        return 2
    env = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        report(workload, args.seed, args.seconds, args.trace, result, env)
        if args.trace:
            write_spans(workload, args.seed, result, env)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else workload + "."
        combined["metrics"].update((prefix + name, metric) for name, metric
                                   in result["metrics"].items())
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
