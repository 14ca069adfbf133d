"""Repository benchmark: closed-loop load on real ``serve`` processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload put_replicated --seed 1 \\
        --seconds 30 --trace 0

Workloads are described in ``BENCHMARK.json`` and in
:mod:`workloads`.  ``--trace 0`` prints the end-to-end metrics, measured
on untraced daemons.  ``--trace 1`` runs one trial untraced and one with
every daemon started through ``launch.py`` (which records a span around
each layer's entry points), and prints the per-layer budget.  Either
way every run checks its own outputs and the last line of standard
output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

Results are also written to ``.bench_out/`` under the repository root
(never to a tracked file).  Exit status: 0 when the run was correct,
1 when a check failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "repro", "__main__.py")):
    print("perfbench: src/repro is missing; run from a checkout of the "
          "repository", file=sys.stderr)
    raise SystemExit(2)
# The generator speaks the daemon's own wire protocol (repro.serve.protocol).
sys.path[:0] = [HERE, SRC]

from loadgen import BenchError, Fleet, quantile  # noqa: E402
import workloads  # noqa: E402

#: The generator is flagged as the bottleneck above this CPU share.
LOADGEN_CPU_LIMIT = 0.9


#: End-to-end metrics every run prints but ``BENCHMARK.json`` does not
#: gate: on a 2-core VM whose CPU speed drifts over minutes, their spread
#: over ten seeds reached 0.27-0.58 of the median, above any bound a
#: gate may have (0.25).
UNGATED_UNITS = {"write_p99_ms": "ms", "read_p99_ms": "ms"}


def load_units() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per section, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


# ----------------------------------------------------------------------
# host block
# ----------------------------------------------------------------------
def fsync_p50_ms(directory: str, rounds: int = 40) -> float:
    path = os.path.join(directory, "fsync-probe")
    times = []
    with open(path, "wb") as handle:
        for _ in range(rounds):
            handle.write(b"x" * 64)
            handle.flush()
            start = time.perf_counter()
            os.fsync(handle.fileno())
            times.append((time.perf_counter() - start) * 1000.0)
    os.unlink(path)
    return statistics.median(times)


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit() -> Optional[str]:
    """HEAD, when the checkout is a git work tree of its own."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return found.stdout.strip() if found.returncode == 0 else None


def cpu_ticks() -> List[int]:
    """The host's aggregate ``/proc/stat`` CPU line, in ticks."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_frac(before: List[int], after: List[int]) -> float:
    """Share of the host's CPU time a hypervisor took between two reads
    (the eighth field is steal): a high value marks a run whose timings
    say more about the neighbours than about the code."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta[:8]))


def host_block(work: str, seed: int) -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "fsync_p50_ms": round(fsync_p50_ms(work), 4),
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def _latencies(samples, reads: bool) -> List[float]:
    return [(s.end_ns - s.start_ns) / 1e6 for s in samples
            if s.ok and (s.kind == "get") == reads]


def repeats(out: workloads.RunOutcome) -> Dict[str, List[float]]:
    """Each end-to-end metric once per trial (or per restart)."""
    trials = out.trials
    writes = [_latencies(t.load.samples, False) for t in trials]
    reads = [_latencies(loop.samples, True) for loop in (
        [t.load for t in trials] if out.reads_in_load else out.readbacks)]
    writes, reads = [w for w in writes if w], [r for r in reads if r]
    if not writes or not reads:
        raise BenchError("the run timed no writes or no reads")
    done = [sum(1 for s in t.load.samples if s.ok) for t in trials]
    return {
        "setup_s": [t.setup_s for t in trials],
        "throughput_ops_s": [n / t.load.wall_s for n, t in zip(done, trials)],
        "write_p50_ms": [quantile(w, 0.50) for w in writes],
        "write_p99_ms": [quantile(w, 0.99) for w in writes],
        "read_p50_ms": [quantile(r, 0.50) for r in reads],
        "read_p99_ms": [quantile(r, 0.99) for r in reads],
        "server_cpu_ms_per_op": [t.daemon_cpu_s * 1000.0 / n
                                 for n, t in zip(done, trials)],
        "server_rss_mb": [t.rss_kb / 1024.0 for t in trials],
        "disk_bytes_per_user_byte": [out.disk_bytes / out.model.user_bytes],
        "recovery_s": list(out.recovery_s),
    }


def end_to_end(out: workloads.RunOutcome) -> Dict[str, float]:
    """Each metric is the median over the trials (or the restarts)."""
    return {name: statistics.median(values)
            for name, values in repeats(out).items()}


def counts(outcomes: Sequence[workloads.RunOutcome]) -> Dict[str, int]:
    loads = [t.load for out in outcomes for t in out.trials]
    loops = loads + [loop for out in outcomes for loop in out.readbacks]
    return {
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(loop.failed for loop in loops),
        "writes": sum(len(_latencies(loop.samples, False)) for loop in loads),
        "reads": sum(len(_latencies(loop.samples, True)) for loop in loops),
    }


def run_once(name: str, seed: int, seconds: int, traced: bool,
             trials: int, work: str) -> workloads.RunOutcome:
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONHASHSEED", None)
    fleet = Fleet(env, ROOT, os.path.join(work, "daemons.log"),
                  os.path.join(HERE, "launch.py"))
    ctx = workloads.Context(work, seed, seconds, fleet, traced, trials)
    try:
        return workloads.WORKLOADS[name](ctx)
    finally:
        fleet.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so every daemon started is stopped.
    signal.signal(signal.SIGTERM, _terminate)
    units = load_units()
    section = "per_layer" if args.trace else "end_to_end"
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    # A traced run measures one trial untraced and one traced, which is
    # enough for the per-layer budget and keeps it as short as a plain run.
    trials = 1 if args.trace else workloads.TRIALS
    try:
        host = host_block(_mkdir(work), args.seed)
        ticks = cpu_ticks()
        untraced = run_once(args.workload, args.seed, args.seconds, False,
                            trials, os.path.join(work, "untraced"))
        e2e = end_to_end(untraced)
        outcomes = [untraced]
        layer: Dict[str, float] = {}
        attribution: List[str] = []
        if args.trace:
            import layers

            traced = run_once(args.workload, args.seed, args.seconds, True,
                              trials, os.path.join(work, "traced"))
            outcomes.append(traced)
            layer, attribution, errors = layers.per_layer(
                traced, untraced, e2e, end_to_end(traced))
            traced.errors.extend(errors)
        host["steal_frac"] = round(steal_frac(ticks, cpu_ticks()), 4)
        measured = layer if args.trace else e2e
        missing = sorted(set(units[section]) - set(measured))
        if missing:
            raise BenchError(f"BENCHMARK.json {section} metrics {missing} "
                             "are not measured")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        _print_daemon_logs(work)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = counts(outcomes)
    loadgen_frac = statistics.median(t.load.cpu_s / t.load.wall_s
                                     for t in untraced.trials)
    errors = [e for out in outcomes for e in out.errors + out.model.errors]
    report = {
        "workload": args.workload,
        "host": host,
        "seconds": args.seconds,
        "trace": args.trace,
        "counts": tally,
        "failed_frac": tally["failed"] / tally["attempted"],
        "loadgen_cpu_frac": loadgen_frac,
        "end_to_end": e2e,
        "repeats": repeats(untraced),
        "per_layer": layer,
        "attribution": attribution,
        "errors": errors,
    }
    _print_report(report, units)
    _save(report)
    print(json.dumps({
        "correct": not errors,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units[section].items()},
    }))
    return 0 if not errors else 1


def _print_daemon_logs(work: str, lines: int = 20) -> None:
    """The tail of each daemon log, before the work directory goes."""
    for base, _dirs, files in os.walk(work):
        if "daemons.log" in files:
            with open(os.path.join(base, "daemons.log"), errors="replace",
                      encoding="utf-8") as handle:
                tail = handle.readlines()[-lines:]
            print(f"--- {base}/daemons.log (tail)", file=sys.stderr)
            sys.stderr.writelines(tail)


def _terminate(signum: int, _frame: Any) -> None:
    raise BenchError(f"stopped by signal {signum}")


def _mkdir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _print_report(report: Dict[str, Any],
                  units: Dict[str, Dict[str, str]]) -> None:
    host = report["host"]
    print(f"perfbench {report['workload']}: seed {host['seed']}, "
          f"nproc {host['nproc']}, python {host['python']}, "
          f"fsync p50 {host['fsync_p50_ms']:.3f} ms, "
          f"steal {host['steal_frac']:.3f}, "
          f"commit {host['commit']}, src {host['src_sha256']}")
    tally = report["counts"]
    print(f"  requests: {tally['attempted']} attempted, {tally['failed']} "
          f"failed; {tally['writes']} writes, {tally['reads']} reads timed")
    print(f"  {'failed_frac':34s} {report['failed_frac']:14.6f} ratio")
    frac = report["loadgen_cpu_frac"]
    flag = "  GENERATOR-BOUND" if frac > LOADGEN_CPU_LIMIT else ""
    print(f"  {'loadgen.cpu_frac':34s} {frac:14.4f} ratio{flag}")
    for name, value in report["end_to_end"].items():
        unit = units["end_to_end"].get(name)
        note = "" if unit else "  (not gated)"
        print(f"  {name:34s} {value:14.4f} "
              f"{unit or UNGATED_UNITS[name]}{note}")
    for name, value in report["per_layer"].items():
        print(f"  {name:34s} {value:14.4f} {units['per_layer'][name]}")
    for line in report["attribution"]:
        print("  " + line)
    for error in report["errors"]:
        print(f"  CHECK FAILED: {error}")


def _save(report: Dict[str, Any]) -> None:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = (f"{report['workload']}-seed{report['host']['seed']}"
            f"-trace{report['trace']}-{int(time.time())}.json")
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)


if __name__ == "__main__":
    raise SystemExit(main())
