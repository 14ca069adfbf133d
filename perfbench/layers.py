"""Per-layer budget from the span files of a traced run.

``launch.py`` writes one span file per traced daemon.  This module reads
them and turns them into the per-layer metrics of ``BENCHMARK.json``.
The traced run has one trial; its measured phase is the window the
serving-side metrics cover.  Unless a name says otherwise, a time is
wall time in microseconds per completed request of that window;
``*_self_*`` is self time (the span minus its children) and ``*_cpu_*``
thread CPU.  Exceptions:

* recovery (``kernel.recover_us``, ``kernel.supervise_self_us``,
  ``core.redo_us``, ``wal.load_us``, ``storage.open_us`` and the
  ``core.ops_*`` counts of the ``RecoveryReport``) is per restart of the
  SIGKILLed directory, summed over shards;
* ``storage.read_us`` / ``storage.write_us`` sum the store calls of the
  whole run (serving, recovery, drain) per acked write;
* ``shard.cross_us``, ``replica.adopt_us``, ``replica.redo_cycle_us``
  and the ``replica.scan_us.*`` pair are per call (per cross-shard op,
  per adopted batch, per witness redo cycle, per log scan);
* ``cache.dirty_objects``, ``core.rw_nodes`` and ``core.max_flush_set``
  are read through ``stats`` at the end of the measured phase;
  ``cache.identity_writes`` is the daemons' final counter.

The attribution check works on the apply threads.  A request's
*residence* runs from the return of the ``recv_frame`` that read it to
the call of the ``send_frame`` that answers it (the end of a send is
not used: the sending thread may wait for the interpreter lock after
the bytes left, while the client already has them).  The spans its apply
thread ran in that interval, after the thread's previous answer, belong
to it; their self times, summed by layer, plus the remainder
(``serve.unattributed_us``: queue wait and daemon glue) make up the
residence.  The check fails if the layers ever claim more than the
residence, if the requests' claims, summed by layer, differ by more than
``CLAIM_TOLERANCE`` from the layer self time the apply threads ran in
the measured phase (work that went unclaimed or was claimed twice), or
if a client saw a request for less time than the daemon held it.
"""

from __future__ import annotations

import bisect
import json
import os
import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from loadgen import BenchError, quantile
from workloads import RunOutcome

#: Slack for clock-read ordering when comparing nested intervals (ns).
_TOLERANCE_NS = 2_000
_APPLY_THREADS = ("repro-serve-apply", "repro-shard-apply-")
#: Share of a layer's apply-thread self time the requests may leave
#: unclaimed (or claim twice) before the attribution check fails.
CLAIM_TOLERANCE = 0.02

# span tuple fields (see launch.Recorder)
ID, PARENT, NAME, THREAD, START, END, CPU, SELF, SELF_CPU, TAG = range(10)


def layer_of(span: list) -> str:
    name = span[NAME]
    if name == "wal.stable_records":
        return "replica"  # only the sender scans the log while serving
    if name in ("serve.recv", "serve.send") and span[TAG] is None:
        return "replica"  # a replication frame, not a client's
    return name.split(".", 1)[0]


class SpanFile:
    """One daemon's spans, thread names and final registry counters."""

    def __init__(self, path: str) -> None:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        self.spans: List[list] = data["spans"]
        self.threads: Dict[int, str] = {
            int(k): v for k, v in data["threads"].items()
        }
        self.registries: List[Dict[str, Any]] = data["registries"]

    def named(self, name: str) -> List[list]:
        return [s for s in self.spans if s[NAME] == name]


def _last(out: RunOutcome, role: str) -> SpanFile:
    """The span file of the last daemon started in ``role``.

    Earlier restarts were SIGKILLed without a dump; the last daemon of
    each role was crashed with a dump or drained.
    """
    paths = out.spans.get(role, [])
    if not paths or not os.path.exists(paths[-1]):
        raise BenchError(f"no span file from the {role} daemon")
    return SpanFile(paths[-1])


def _us(ns: float) -> float:
    return ns / 1000.0


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _counters(snapshot: Dict[str, Any], suffix: str) -> List[float]:
    """Counter values named ``suffix``, shard-prefixed ones included."""
    return [v for k, v in (snapshot.get("counters") or {}).items()
            if k == suffix or k.endswith("." + suffix)]


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def attribute(files: Sequence[SpanFile], window: Tuple[int, int]
              ) -> Tuple[Dict[int, Dict[str, Any]], Dict[str, float]]:
    """Per request id: residence and self time by layer (apply thread).

    Also returns, by layer, the self time of every apply-thread span that
    ran in ``window`` (bar the sends, which end a residence): the total
    the requests' shares must add up to.
    """
    w0, w1 = window
    requests: Dict[int, Dict[str, Any]] = {}
    ran: Dict[str, float] = defaultdict(float)
    for sf in files:
        recv_end: Dict[int, int] = {}
        sends: Dict[int, list] = {}
        by_thread: Dict[int, List[list]] = defaultdict(list)
        for span in sf.spans:
            by_thread[span[THREAD]].append(span)
            if span[TAG] is None or not w0 <= span[START] <= w1:
                continue
            if span[NAME] == "serve.recv":
                recv_end[span[TAG]] = span[END]
            elif span[NAME] == "serve.send":
                sends[span[TAG]] = span
        starts: Dict[int, List[int]] = {}
        for thread, spans in by_thread.items():
            spans.sort(key=lambda s: s[START])
            starts[thread] = [s[START] for s in spans]
            if not sf.threads.get(thread, "").startswith(_APPLY_THREADS):
                continue
            for span in spans:
                answer = span[NAME] == "serve.send" and span[TAG] is not None
                if w0 <= span[START] and span[END] <= w1 and not answer:
                    ran[layer_of(span)] += span[SELF]
        thread_sends: Dict[int, List[int]] = defaultdict(list)
        for span in sends.values():
            thread_sends[span[THREAD]].append(span[END])
        for ends in thread_sends.values():
            ends.sort()
        for request_id, send in sends.items():
            if request_id not in recv_end:
                continue
            thread = send[THREAD]
            if not sf.threads.get(thread, "").startswith(_APPLY_THREADS):
                continue  # answered inline by a reader thread
            begin = recv_end[request_id]
            ends = thread_sends[thread]
            at = bisect.bisect_left(ends, send[END])
            if at > 0:
                begin = max(begin, ends[at - 1])
            spans = by_thread[thread]
            lo = bisect.bisect_left(starts[thread], begin)
            layers: Dict[str, float] = defaultdict(float)
            for span in spans[lo:]:
                if span[START] >= send[START]:
                    break
                if span[END] <= send[START]:
                    layers[layer_of(span)] += span[SELF]
            residence = send[START] - recv_end[request_id]
            requests[request_id] = {"residence": residence,
                                    "layers": dict(layers)}
    return requests, dict(ran)


def attribution_report(requests: Dict[int, Dict[str, Any]],
                       ran: Dict[str, float]
                       ) -> Tuple[List[str], List[str]]:
    """Breakdown at the p50 and p99 residence; returns (lines, errors).

    Two checks.  No request's layers may claim more than its residence.
    And the requests must account for the apply threads' layer work:
    for each layer, the self time the requests claim must be within
    ``CLAIM_TOLERANCE`` of the self time its apply-thread spans ran in
    the window, so work a request caused but the attribution missed
    (or counted twice) fails the run instead of hiding in
    ``serve.unattributed_us``.
    """
    lines, errors = [], []
    over = [rid for rid, r in requests.items()
            if sum(r["layers"].values()) > r["residence"] + _TOLERANCE_NS]
    if over:
        errors.append(f"attribution: layers claim more than the residence "
                      f"for {len(over)} of {len(requests)} requests")
    claimed: Dict[str, float] = defaultdict(float)
    for r in requests.values():
        for name, value in r["layers"].items():
            claimed[name] += value
    shares = []
    for name in sorted(set(ran) | set(claimed)):
        total, got = ran.get(name, 0.0), claimed.get(name, 0.0)
        shares.append(f"{name} {_us(got):.0f}/{_us(total):.0f}")
        if abs(total - got) > CLAIM_TOLERANCE * total + _TOLERANCE_NS:
            errors.append(
                f"attribution: requests claim {_us(got):.0f} us of the "
                f"{_us(total):.0f} us of {name} self time the apply threads "
                "ran in the measured phase"
            )
    lines.append("attribution: claimed/ran on the apply threads (us): "
                 + ", ".join(shares))
    ranked = sorted(requests.values(), key=lambda r: r["residence"])
    layer_names = sorted({n for r in ranked for n in r["layers"]})
    for q in (0.50, 0.99):
        # The requests within half a percent of rank q: their mean
        # breakdown, so the parts add up to their mean residence.
        centre = int(q * (len(ranked) - 1))
        half = max(1, len(ranked) // 200)
        band = ranked[max(0, centre - half):centre + half + 1]
        residence = _mean(r["residence"] for r in band)
        parts = {n: _mean(r["layers"].get(n, 0.0) for r in band)
                 for n in layer_names}
        remainder = residence - sum(parts.values())
        shown = ", ".join(f"{n} {_us(v):.1f}" for n, v in parts.items())
        lines.append(
            f"attribution p{int(q * 100)} (n={len(band)}): residence "
            f"{_us(residence):.1f} us = {shown}, unattributed "
            f"{_us(remainder):.1f} us"
        )
        if remainder < -_TOLERANCE_NS:
            errors.append(f"attribution p{int(q * 100)}: layers exceed the "
                          f"residence by {_us(-remainder):.1f} us")
    return lines, errors


# ----------------------------------------------------------------------
# the budget
# ----------------------------------------------------------------------
def per_layer(traced: RunOutcome, untraced: RunOutcome,
              e2e_untraced: Dict[str, float],
              e2e_traced: Dict[str, float]
              ) -> Tuple[Dict[str, float], List[str], List[str]]:
    """The per-layer metrics, the attribution lines and failed checks."""
    loop = traced.load
    window = (loop.start_ns, loop.end_ns)
    done = [s for s in loop.samples if s.ok]
    ops = len(done)
    writes = sum(1 for s in done if s.kind != "get")
    serving = [_last(traced, role) for role in traced.serving]
    restart = [_last(traced, traced.restart)]

    in_window = [s for f in serving for s in f.spans
                 if window[0] <= s[START] <= window[1]]
    self_wall: Dict[str, float] = defaultdict(float)
    self_cpu: Dict[str, float] = defaultdict(float)
    wall: Dict[str, float] = defaultdict(float)
    for span in in_window:
        name = span[NAME]
        if name in ("serve.recv", "serve.send") and span[TAG] is None:
            name = "replica.wire"
        self_wall[name] += span[SELF]
        self_cpu[name] += span[SELF_CPU]
        wall[name] += span[END] - span[START]

    def per_op(total_ns: float) -> float:
        return _us(total_ns) / ops

    requests, ran = attribute(serving, window)
    if not requests:
        raise BenchError("no traced request could be attributed")
    lines, errors = attribution_report(requests, ran)
    residences = [r["residence"] for r in requests.values()]
    unattributed = [r["residence"] - sum(r["layers"].values())
                    for r in requests.values()]
    by_id = {s.request_id: s for s in done}
    overhead = [
        (by_id[rid].end_ns - by_id[rid].start_ns) - r["residence"]
        for rid, r in requests.items() if rid in by_id
    ]
    if overhead and min(overhead) < -_TOLERANCE_NS:
        errors.append("a client saw a request for less time than the "
                      "daemon held it (clock mismatch)")
    cross_ids = [s.request_id for s in done if s.cross]
    cross_res = [requests[rid]["residence"] for rid in cross_ids
                 if rid in requests]

    # replication
    scans = []
    for f in serving:
        waits = {s[ID] for s in f.named("replica.wait")}
        scans += [s for s in f.named("wal.stable_records")
                  if s[PARENT] in waits
                  and window[0] <= s[START] <= window[1]]
    scans.sort(key=lambda s: s[START])
    tenth = max(1, len(scans) // 10) if scans else 0
    adopts = [s for s in in_window if s[NAME] == "replica.adopt"]
    redo_cycles = [
        s for f in serving for s in f.named("kernel.supervise")
        if f.threads.get(s[THREAD]) == "repro-witness-subscribe"
        and window[0] <= s[START] <= window[1]
    ]
    crosses = [s for s in in_window if s[NAME] == "shard.cross"]

    # restart (the recovery_s daemon's start-up)
    def restart_us(name: str, self_time: bool = False) -> float:
        return _us(sum(s[SELF] if self_time else s[END] - s[START]
                       for f in restart for s in f.named(name)))

    redo = [s for f in restart for s in f.named("core.redo")]
    report = redo[-1][TAG] if redo else [0, 0, 0, 0]

    # store I/O over the whole run: serving, recovery and the drain
    everyone = serving + restart
    store_read = sum(s[SELF] for f in everyone
                     for s in f.named("storage.read"))
    store_write = sum(s[SELF] for f in everyone
                      for s in f.named("storage.write"))
    acked_life = max(1, traced.model.acked_writes)

    before = traced.stats.get("before", {})
    after = traced.stats.get("after", {})
    forces = sum(sum(_counters(after[r], "io.log_forces"))
                 - sum(_counters(before[r], "io.log_forces")) for r in after)
    identity = sum(sum(_counters(reg, "io.identity_writes"))
                   for f in everyone for reg in f.registries)
    first = after[traced.serving[0]]

    metrics = {
        "serve.decode_cpu_us": per_op(self_cpu["serve.recv"]),
        "serve.encode_cpu_us": per_op(self_cpu["serve.send"]),
        "serve.residence_p50_us": _us(quantile(residences, 0.50)),
        "serve.residence_p99_us": _us(quantile(residences, 0.99)),
        "serve.unattributed_us": _us(_mean(unattributed)),
        "kernel.execute_self_us": per_op(self_wall["kernel.execute"]),
        "kernel.read_us": per_op(wall["kernel.read"]),
        "kernel.recover_us": restart_us("kernel.recover"),
        "kernel.supervise_self_us": restart_us("kernel.supervise", True),
        "cache.execute_self_us": per_op(self_wall["cache.execute"]),
        "cache.dirty_objects": sum(_counters(first, "bench.dirty_objects")),
        "cache.identity_writes": identity,
        "core.addop_us": per_op(self_wall["core.addop"]),
        "core.rw_nodes": sum(_counters(first, "bench.rw_nodes")),
        "core.max_flush_set": max(_counters(first, "bench.max_flush_set"),
                                  default=0),
        "core.redo_us": restart_us("core.redo"),
        "core.ops_redone": report[0],
        "core.ops_skipped_installed": report[1],
        "core.ops_skipped_unexposed": report[2],
        "wal.append_us": per_op(self_wall["wal.append"]),
        "wal.force_us": per_op(self_wall["wal.force"]),
        "wal.forces_per_ack": forces / max(1, writes),
        "wal.bytes_per_op": traced.notes["wal_growth"] / max(1, writes),
        "wal.load_us": restart_us("wal.load"),
        "storage.open_us": restart_us("storage.open"),
        "storage.read_us": _us(store_read) / acked_life,
        "storage.write_us": _us(store_write) / acked_life,
        "storage.bytes_per_user_byte":
            traced.notes["store_bytes"] / traced.model.user_bytes,
        "shard.cross_us": _us(_mean(s[END] - s[START] for s in crosses)),
        "shard.cross_residence_us": _us(_mean(cross_res)),
        "replica.wait_us": per_op(wall["replica.wait"]),
        "replica.scan_us.first_tenth":
            _us(_mean(s[END] - s[START] for s in scans[:tenth])),
        "replica.scan_us.last_tenth":
            _us(_mean(s[END] - s[START] for s in scans[-tenth:]))
            if tenth else 0.0,
        "replica.adopt_us": _us(_mean(s[END] - s[START] for s in adopts)),
        "replica.records_per_batch": _mean(s[TAG] or 0 for s in adopts),
        "replica.redo_cycle_us":
            _us(_mean(s[END] - s[START] for s in redo_cycles)),
        "replica.redo_cycles": float(len(redo_cycles)),
        "obs.cpu_us": per_op(self_cpu["obs"]),
        "loadgen.cpu_frac": statistics.median(
            t.load.cpu_s / t.load.wall_s for t in untraced.trials),
        "loadgen.client_overhead_us": _us(_mean(overhead)),
        "trace.overhead_frac": e2e_traced["server_cpu_ms_per_op"]
            / e2e_untraced["server_cpu_ms_per_op"] - 1.0,
    }
    lines.append(
        f"traced requests attributed: {len(requests)}; replication scans: "
        f"{len(scans)}; witness redo cycles: {len(redo_cycles)}"
    )
    return metrics, lines, errors
