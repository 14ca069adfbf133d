"""The workloads: set-up, measured load, crash, restart, checks, drain.

Every workload goes through the same life cycle, so every end-to-end
metric is measured on every workload:

**Trials**, ``TRIALS`` times, each on fresh daemons:

1. *set-up*: spawn the daemons and bring them to the workload's ready
   state (timed: ``setup_s``);
2. *measured phase*: a fixed number of closed-loop requests from
   ``CALLERS`` callers over ``CONNECTIONS`` connections, sized from
   ``--seconds`` and the workload's nominal rate, so the daemons' state
   grows by the same amount on every commit;
3. *crash*: the serving daemon is SIGKILLed (a witness is drained);
4. *restart*, ``RESTARTS`` times, each on a fresh copy of the killed
   directory, timed until the first ``get`` answers, followed by a
   *readback*: every written key is read and compared with the
   generator's model, so every write acked before the SIGKILL must have
   survived it.  Where the measured mix has ``get``s of its own, only
   the first restart is read back.

Each metric is the median over the trials (``recovery_s`` over every
restart): the host's speed wanders over seconds, and samples spread over
the whole run see more of it than samples taken back to back.  After
the last trial its last restart is drained (SIGTERM) and the data
directories are sized.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
import signal
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from loadgen import (
    BenchError,
    Daemon,
    Fleet,
    LoopResult,
    dir_bytes,
    fresh_dir,
    request_once,
    run_closed_loop,
    wait_until,
)
from model import (
    Model,
    mixed_caller,
    preload_caller,
    put_caller,
    readback_caller,
)

CONNECTIONS = 2
PER_CONNECTION = 4
CALLERS = CONNECTIONS * PER_CONNECTION
#: Set-up plus measured phase, on fresh daemons, this many times a run.
TRIALS = 5
#: Timed restarts after each trial; ``recovery_s`` is the median of all.
RESTARTS = 2

#: Nominal request rates (requests/s on a 2-core host) that turn
#: ``--seconds`` into the fixed request count of the measured phase.
NOMINAL_RATE = {
    "put_replicated": 180,
    "apply_sharded": 1000,
}

PUT_REPLICATED_KEYS = 10_000
APPLY_SHARDED_KEYS = 4_000
SHARDS = 2


@dataclass
class Trial:
    """One set-up and measured phase."""

    load: LoopResult
    #: CPU the daemons used during the measured phase.
    daemon_cpu_s: float
    #: Peak RSS summed over the daemons, read after the measured phase.
    rss_kb: int
    setup_s: float = 0.0


@dataclass
class RunOutcome:
    """What a workload measured; ``run.py`` turns it into metrics."""

    #: Roles of the daemons that serve the measured phase, and of the
    #: restarted daemon whose start is timed as ``recovery_s``.
    serving: List[str]
    restart: str = "restart"
    trials: List[Trial] = field(default_factory=list)
    #: Whether ``get`` latency comes from the measured phases (else from
    #: the readbacks).
    reads_in_load: bool = False
    #: The readbacks after the restarts.
    readbacks: List[LoopResult] = field(default_factory=list)
    disk_bytes: int = 0
    recovery_s: List[float] = field(default_factory=list)
    model: Model = field(default_factory=Model)
    errors: List[str] = field(default_factory=list)
    #: ``stats`` answers of the serving daemons before and after the
    #: last measured phase, by role.
    stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Sizes the per-layer analysis needs (WAL growth, store bytes).
    notes: Dict[str, int] = field(default_factory=dict)
    #: Span files the traced daemons wrote, by role.
    spans: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def load(self) -> LoopResult:
        """The last trial's measured phase (the one the trace covers)."""
        return self.trials[-1].load


class Context:
    """Paths, seed, fleet and trace switch shared by one run."""

    def __init__(self, work: str, seed: int, seconds: int, fleet: Fleet,
                 traced: bool, trials: int = TRIALS) -> None:
        self.work = work
        #: Set-up plus measured phase repetitions (each the same size).
        self.trials = trials
        self.seed = seed
        self.seconds = seconds
        self.fleet = fleet
        self.traced = traced
        self.ids = itertools.count(1)
        self._spawned = 0

    def rng(self, *parts: Any) -> random.Random:
        return random.Random("-".join(map(str, (self.seed, *parts))))

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def spawn(self, data_dir: str, role: str, out: RunOutcome,
              *serve_args: str) -> Daemon:
        self._spawned += 1
        spans_out = None
        if self.traced:
            spans_out = self.path(f"spans-{self._spawned}-{role}.json")
            out.spans.setdefault(role, []).append(spans_out)
        return self.fleet.spawn(data_dir, *serve_args, spans_out=spans_out)


# ----------------------------------------------------------------------
# shared steps
# ----------------------------------------------------------------------
def key_sets(count: int) -> List[List[str]]:
    """Caller ``c`` owns keys ``k<i>`` with ``i % CALLERS == c``."""
    return [[f"k{i:05d}" for i in range(c, count, CALLERS)]
            for c in range(CALLERS)]


def split_count(total: int) -> List[int]:
    base, extra = divmod(total, CALLERS)
    return [base + (1 if c < extra else 0) for c in range(CALLERS)]


def run_trials(ctx: Context, out: RunOutcome,
               build: Callable[[int], Dict[str, Any]],
               load: Callable[[Dict[str, Any]], Trial]) -> Dict[str, Any]:
    """``build`` then ``load``, ``ctx.trials`` times; keep the last.

    ``load`` leaves a restarted daemon last in ``kept["daemons"]``.
    """
    kept: Dict[str, Any] = {}
    for attempt in range(ctx.trials):
        if kept:
            for daemon in kept["daemons"]:
                daemon.kill()
            for path in kept["dirs"]:
                shutil.rmtree(path, ignore_errors=True)
            out.errors.extend(kept["model"].errors)
        started = time.monotonic()
        kept = build(attempt)
        setup_s = time.monotonic() - started
        trial = load(kept)
        trial.setup_s = setup_s
        out.trials.append(trial)
    out.model = kept["model"]
    return kept


def measure(ctx: Context, out: RunOutcome, port: int, callers: list,
            daemons: Sequence[Daemon], roles: Dict[str, int],
            wal_files: Sequence[str]) -> Trial:
    """The measured phase, with stats and WAL size around it."""
    out.stats["before"] = {role: stats_of(p) for role, p in roles.items()}
    wal0 = sum(_size(path) for path in wal_files)
    cpu0 = sum(d.cpu_s() for d in daemons)
    loop = run_closed_loop(port, callers, CONNECTIONS, ctx.ids)
    cpu = sum(d.cpu_s() for d in daemons) - cpu0
    out.notes["wal_growth"] = sum(_size(path) for path in wal_files) - wal0
    out.stats["after"] = {role: stats_of(p) for role, p in roles.items()}
    rss = sum(d.status_kb("VmHWM") for d in daemons)
    return Trial(loop, cpu, rss)


def crash(daemon: Daemon) -> None:
    """SIGKILL; a traced daemon first writes out its spans."""
    if daemon.spans_out is not None:
        daemon.proc.send_signal(signal.SIGUSR1)
        wait_until(lambda: os.path.exists(daemon.spans_out), 60.0,
                   "the span dump before SIGKILL")
    daemon.kill()


def restarts(ctx: Context, out: RunOutcome, model: Model, template: str,
             *serve_args: str) -> Daemon:
    """Start ``serve`` RESTARTS times, each on a fresh copy of
    ``template``; time it until it answers a ``get``, then read back
    (only the first start, when the load itself has ``get``s).  Every
    start but the last is SIGKILLed.  Returns the last one."""
    daemon = None
    data_dir = ctx.path("restarted")
    for attempt in range(RESTARTS):
        if daemon is not None:
            daemon.kill()
        fresh_dir(data_dir)
        shutil.copytree(template, data_dir)
        started = time.monotonic()
        daemon = ctx.spawn(data_dir, out.restart, out, *serve_args)
        port = daemon.wait_port()
        wait_until(lambda: _answers_get(port), 120.0,
                   "the first get after a restart")
        out.recovery_s.append(time.monotonic() - started)
        # Where the load has no gets, the readbacks time the reads.
        if not out.reads_in_load or attempt == 0:
            out.readbacks.append(readback(ctx, model, port))
    return daemon


def readback(ctx: Context, model: Model, port: int) -> LoopResult:
    """Read every written key once and compare with the model."""
    mine: List[List[str]] = [[] for _ in range(CALLERS)]
    for index, key in enumerate(sorted(model.written_keys())):
        mine[index % CALLERS].append(key)
    callers = [readback_caller(model, part, "readback after SIGKILL")
               for part in mine]
    return run_closed_loop(port, callers, CONNECTIONS, ctx.ids)


def drain(daemons: Sequence[Daemon], errors: List[str]) -> None:
    for daemon in daemons:
        code = daemon.stop()
        if code != 0:
            errors.append(
                f"daemon on {daemon.data_dir} drained with exit code {code}"
            )


def stats_of(port: int) -> Dict[str, Any]:
    return request_once(port, "stats").get("stats") or {}


def _answers_get(port: int) -> bool:
    try:
        return bool(request_once(port, "get", obj="k00000").get("ok"))
    except (OSError, ValueError):
        return False


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# ----------------------------------------------------------------------
# put_replicated
# ----------------------------------------------------------------------
def put_replicated(ctx: Context) -> RunOutcome:
    out = RunOutcome(serving=["primary", "witness"])
    keys = key_sets(PUT_REPLICATED_KEYS)

    def build(attempt: int) -> Dict[str, Any]:
        pdir = fresh_dir(ctx.path(f"primary-{attempt}"))
        wdir = fresh_dir(ctx.path(f"witness-{attempt}"))
        primary = ctx.spawn(pdir, "primary", out, "--replicate")
        port = primary.wait_port()
        witness = ctx.spawn(wdir, "witness", out,
                            "--witness-of", f"127.0.0.1:{port}")
        wport = witness.wait_port()
        wait_until(
            lambda: bool(request_once(wport, "health").get("attached")),
            60.0, "the witness to attach",
        )
        return {"daemons": [primary, witness], "dirs": [pdir, wdir],
                "model": Model()}

    def load(kept: Dict[str, Any]) -> Trial:
        primary, witness = kept["daemons"]
        total = NOMINAL_RATE["put_replicated"] * ctx.seconds // TRIALS
        callers = [put_caller(kept["model"], keys[c], n, ctx.rng("put", c))
                   for c, n in enumerate(split_count(total))]
        trial = measure(ctx, out, primary.port, callers, [primary, witness],
                        {"primary": primary.port, "witness": witness.port},
                        [os.path.join(kept["dirs"][0], "wal.log")])
        # Every acked lSI must be durable on the witness.
        adopted = int(request_once(witness.port, "health")
                      .get("adopted_through", -1))
        top = max(kept["model"].acked_lsis, default=-1)
        if adopted < top:
            kept["model"].errors.append(
                f"witness adopted through lSI {adopted}, but lSI {top} "
                "was acked")
        crash(primary)
        drain([witness], out.errors)
        kept["daemons"].append(restarts(ctx, out, kept["model"],
                                        kept["dirs"][0], "--replicate"))
        return trial

    kept = run_trials(ctx, out, build, load)
    again = kept["daemons"][-1]
    wdir = kept["dirs"][1]
    drain([again], out.errors)
    out.disk_bytes = dir_bytes(again.data_dir) + dir_bytes(wdir)
    out.notes["store_bytes"] = dir_bytes(
        os.path.join(again.data_dir, "objects"))
    return out


# ----------------------------------------------------------------------
# apply_sharded
# ----------------------------------------------------------------------
def _by_shard(keys: Sequence[str]) -> List[List[str]]:
    """``keys`` grouped by owning shard (the router's CRC32 rule)."""
    groups: List[List[str]] = [[] for _ in range(SHARDS)]
    for key in keys:
        groups[zlib.crc32(key.encode("utf-8")) % SHARDS].append(key)
    return groups


def apply_sharded(ctx: Context) -> RunOutcome:
    out = RunOutcome(serving=["sharded"], reads_in_load=True)
    keys = key_sets(APPLY_SHARDED_KEYS)
    serve_args = ("--shards", str(SHARDS), "--store", "logstore")

    def build(attempt: int) -> Dict[str, Any]:
        ddir = fresh_dir(ctx.path(f"sharded-{attempt}"))
        daemon = ctx.spawn(ddir, "sharded", out, *serve_args)
        port = daemon.wait_port()
        model = Model()
        callers = [preload_caller(model, keys[c], ctx.rng("preload", c))
                   for c in range(CALLERS)]
        loop = run_closed_loop(port, callers, CONNECTIONS, ctx.ids)
        if loop.failed:
            raise BenchError(f"{loop.failed} preload puts failed")
        return {"daemons": [daemon], "dirs": [ddir], "model": model}

    def load(kept: Dict[str, Any]) -> Trial:
        (daemon,) = kept["daemons"]
        total = NOMINAL_RATE["apply_sharded"] * ctx.seconds // TRIALS
        callers = []
        for c, n in enumerate(split_count(total)):
            a, b = _by_shard(keys[c])
            callers.append(mixed_caller(
                kept["model"], keys[c], n, ctx.rng("mix", c), p_get=0.45,
                p_cross=0.05, same_pairs=[(a, a), (b, b)],
                cross_pairs=[(a, b), (b, a)],
            ))
        trial = measure(ctx, out, daemon.port, callers, [daemon],
                        {"sharded": daemon.port},
                        [os.path.join(kept["dirs"][0], f"shard-{k}",
                                      "wal.log") for k in range(SHARDS)])
        crash(daemon)
        kept["daemons"].append(restarts(ctx, out, kept["model"],
                                        kept["dirs"][0], *serve_args))
        return trial

    kept = run_trials(ctx, out, build, load)
    again = kept["daemons"][-1]
    drain([again], out.errors)
    out.disk_bytes = dir_bytes(again.data_dir)
    out.notes["store_bytes"] = sum(
        dir_bytes(os.path.join(again.data_dir, f"shard-{k}", "segments"))
        for k in range(SHARDS))
    return out


WORKLOADS: Dict[str, Callable[[Context], RunOutcome]] = {
    "put_replicated": put_replicated,
    "apply_sharded": apply_sharded,
}
