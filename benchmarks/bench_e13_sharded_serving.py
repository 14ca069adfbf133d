"""E13 — sharded serving: aggregate throughput vs shard count.

The sharded daemon's performance claim is architectural: each shard
owns its own WAL stream, so N single-shard writes force N devices
concurrently — the force latency, not a shared log, is the serial
resource.  On this container (1 CPU core) real fsync parallelism can't
be shown honestly with threads, so the scaling lane runs every shard
on a :class:`~repro.wal.latency.LatencyLog` — a WAL whose stable write
sleeps a modeled device force latency (default 1.5 ms, GIL-releasing).
The daemon, sockets, admission, fence protocol and force-before-ack
path are all real; only the device wait is modeled, which is exactly
the component per-shard WALs exist to overlap.

Lanes (recorded in ``BENCH_e13.json``):

* **sharded_scaling** — aggregate acked puts/second at 1/2/4/8 shards
  under a fixed 8-client offered load, 0% cross-shard.  Acceptance: the
  4-shard rate is at least ``MODEL_FRACTION`` of what a host model
  predicts from the run's own measured inputs (see :func:`host_model`);
* **cross_shard_ratio** — 4 shards with 0%/5%/25% of requests made
  cross-shard (fence protocol: every participant forces before the
  ack), showing what coordination costs as the ratio grows;
* **inmemory_reference** — the same ladder on the plain in-memory WAL
  (no modeled latency), recorded for context only: on a 1-core host
  its scaling is GIL-bound and flat, which is the honest contrast.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional

import pytest

from repro.analysis import Table
from repro.common.rng import make_rng
from repro.serve import DaemonClient, RetryPolicy
from repro.serve import DaemonConfig, ServeDaemon
from repro.shard import ShardedSystem
from repro.wal.latency import LatencyLog
from repro.workloads import register_workload_functions
from benchmarks import results
from benchmarks.conftest import once

#: Put requests per client thread per configuration.
OPS = int(os.environ.get("E13_OPS", "80"))
#: Fixed offered load: client threads, regardless of shard count.
CLIENTS = int(os.environ.get("E13_CLIENTS", "8"))
#: Modeled device force latency for the scaling lanes (milliseconds).
FORCE_LATENCY_MS = float(os.environ.get("E13_FORCE_LATENCY_MS", "1.5"))
#: Share of the host model's predicted 4-shard rate the lane must reach.
MODEL_FRACTION = 0.7


def _record(section: str, payload) -> None:
    """Merge one section into ``$BENCH_OUT/BENCH_e13.json``."""
    results.record(
        "BENCH_e13.json", section, payload,
        ops_per_client=OPS, clients=CLIENTS,
        force_latency_ms=FORCE_LATENCY_MS,
    )


# ----------------------------------------------------------------------
# workload plumbing
# ----------------------------------------------------------------------
def _keys_by_shard(shards: int, per_shard: int) -> Dict[int, List[str]]:
    """Probe key names until every shard owns ``per_shard`` keys."""
    sharded_keys: Dict[int, List[str]] = {s: [] for s in range(shards)}
    from repro.shard import ShardRouter

    router = ShardRouter(shards)
    probe = 0
    while any(len(keys) < per_shard for keys in sharded_keys.values()):
        key = f"e13:{probe}"
        probe += 1
        owner = router.shard_of(key)
        if len(sharded_keys[owner]) < per_shard:
            sharded_keys[owner].append(key)
        if probe > 100_000:  # pragma: no cover - crc32 is uniform
            raise AssertionError("key probing did not converge")
    return sharded_keys


def _run_load(
    shards: int,
    cross_ratio: float = 0.0,
    modeled_latency: bool = True,
) -> Dict:
    """Drive CLIENTS threads at an S-shard daemon; return the rates."""
    log_factory = None
    if modeled_latency:
        log_factory = lambda index: LatencyLog(  # noqa: E731
            force_latency_s=FORCE_LATENCY_MS / 1000.0
        )
    sharded = ShardedSystem.build(shards, log_factory=log_factory)
    register_workload_functions(sharded.registry)
    for system in sharded.systems:
        system.attach_metrics()
    daemon = ServeDaemon(
        sharded,
        DaemonConfig(port=0, http_port=None, max_queue=256),
    ).start()
    keys = _keys_by_shard(shards, max(2, CLIENTS))
    payload = b"x" * 64
    acked = [0] * CLIENTS
    cross_acked = [0] * CLIENTS
    errors: List[str] = []

    def worker(cid: int) -> None:
        # Each client is pinned to one shard's keys: the 0% lane is
        # exactly N independent single-shard streams.
        home = cid % shards
        my_keys = keys[home]
        other = (home + 1) % shards
        rng = make_rng(f"e13:{shards}:{cross_ratio}:{cid}")
        client = DaemonClient(
            "127.0.0.1",
            daemon.port,
            policy=RetryPolicy(attempts=6, base_delay=0.001, deadline=30.0),
        )
        try:
            for index in range(OPS):
                if cross_ratio > 0.0 and rng.random() < cross_ratio:
                    src = my_keys[index % len(my_keys)]
                    dst = keys[other][cid % len(keys[other])]
                    client.apply(
                        "wl_derive",
                        reads=[src],
                        writes=[dst],
                        params=[src, dst],
                        name=f"e13x:{cid}:{index}",
                    )
                    cross_acked[cid] += 1
                else:
                    client.put(
                        my_keys[index % len(my_keys)], payload
                    )
                acked[cid] += 1
        except Exception as exc:  # noqa: BLE001 - recorded, fails the lane
            errors.append(f"client {cid}: {type(exc).__name__}: {exc}")
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(cid,), daemon=True)
        for cid in range(CLIENTS)
    ]
    batches_before = [_force_batches(system) for system in sharded.systems]
    cpu0, t0 = time.process_time(), time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    batches = []
    for system, (count0, total0) in zip(sharded.systems, batches_before):
        count, total = _force_batches(system)
        batches.append((total - total0) / max(1, count - count0))
    daemon.stop(graceful=True)
    total = sum(acked)
    if errors:
        raise AssertionError("; ".join(errors[:3]))
    return {
        "shards": shards,
        "cross_ratio": cross_ratio,
        "acked": total,
        "cross_acked": sum(cross_acked),
        "acked_per_s": total / elapsed if elapsed > 0 else 0.0,
        "wall_s": elapsed,
        "cpu_us_per_request": cpu / max(1, total) * 1e6,
        "force_batch_records": batches,
    }


def _force_batches(system) -> tuple:
    """(forces, records forced) so far, from ``wal.force_batch_records``."""
    histogram = system.obs.histograms.get("wal.force_batch_records")
    return (histogram.count, histogram.total) if histogram else (0, 0.0)


def host_model(row: Dict) -> float:
    """Acked puts/s one interpreter can reach, from a run's own inputs.

    Each shard commits a group of ``g`` writes (its measured
    ``wal.force_batch_records`` mean) per cycle of one modeled force
    ``F`` plus ``g`` requests' CPU ``c`` (the run's process CPU per
    acked request, clients included): ``g / (F + g*c)`` puts/s.  Forces
    on different shards overlap (each sleeps with the GIL released);
    the CPU does not, so the aggregate is capped at ``1/c``.
    """
    force_s = FORCE_LATENCY_MS / 1000.0
    cpu_s = row["cpu_us_per_request"] / 1e6
    overlapped = sum(
        g / (force_s + g * cpu_s) for g in row["force_batch_records"] if g
    )
    return min(overlapped, 1.0 / cpu_s)


# ----------------------------------------------------------------------
# lane 1: aggregate throughput vs shard count (0% cross-shard)
# ----------------------------------------------------------------------
def _scaling() -> Dict:
    out: Dict[str, Dict] = {}
    for shards in (1, 2, 4, 8):
        out[str(shards)] = row = _run_load(shards)
        row["model_acked_per_s"] = host_model(row)
        row["model_fraction"] = row["acked_per_s"] / row["model_acked_per_s"]
    base = out["1"]["acked_per_s"]
    return {
        "configs": out,
        "model_fraction_4": out["4"]["model_fraction"],
        "acked_per_s_1": out["1"]["acked_per_s"],
        "acked_per_s_2": out["2"]["acked_per_s"],
        "acked_per_s_4": out["4"]["acked_per_s"],
        "acked_per_s_8": out["8"]["acked_per_s"],
        "speedup_1_to_4": out["4"]["acked_per_s"] / base if base else 0.0,
        "speedup_1_to_8": out["8"]["acked_per_s"] / base if base else 0.0,
    }


@pytest.mark.benchmark(group="e13")
def test_e13_sharded_scaling(benchmark):
    result = once(benchmark, _scaling)

    table = Table(
        f"E13: aggregate acked puts/s vs shard count "
        f"({CLIENTS} clients x {OPS} ops, "
        f"{FORCE_LATENCY_MS} ms modeled force)",
        ["shards", "acked", "acked/s", "wall s", "cpu us/req",
         "records/force", "model/s", "of model"],
    )
    for shards, row in result["configs"].items():
        table.add_row(
            shards, row["acked"], f"{row['acked_per_s']:.0f}",
            f"{row['wall_s']:.2f}", f"{row['cpu_us_per_request']:.0f}",
            "/".join(f"{g:.1f}" for g in row["force_batch_records"]),
            f"{row['model_acked_per_s']:.0f}",
            f"{row['model_fraction']:.2f}",
        )
    table.print()
    print(
        f"speedup 1->4 shards: {result['speedup_1_to_4']:.2f}x; "
        f"1->8: {result['speedup_1_to_8']:.2f}x; 4 shards reach "
        f"{result['model_fraction_4']:.2f} of the host model "
        f"(floor {MODEL_FRACTION})"
    )

    # The acceptance bar: with shard-local work, per-shard WALs must
    # overlap their forces until the interpreter's CPU is the limit.
    # Grouped acks make the 1-shard rate depend on the group size, so a
    # fixed 1->4 ratio no longer measures that; the model's inputs are
    # the run's own group sizes and CPU cost.
    assert result["model_fraction_4"] >= MODEL_FRACTION, (
        f"4 shards reached {result['model_fraction_4']:.2f} of the host "
        f"model's {result['configs']['4']['model_acked_per_s']:.0f} "
        f"acked/s, below the {MODEL_FRACTION} floor"
    )

    _record("sharded_scaling", result)


# ----------------------------------------------------------------------
# lane 2: what cross-shard coordination costs
# ----------------------------------------------------------------------
def _cross_ratio() -> Dict:
    out: Dict[str, Dict] = {}
    for ratio in (0.0, 0.05, 0.25):
        out[f"{ratio:.2f}"] = _run_load(4, cross_ratio=ratio)
    return out


@pytest.mark.benchmark(group="e13")
def test_e13_cross_shard_ratio(benchmark):
    results = once(benchmark, _cross_ratio)

    table = Table(
        "E13: 4-shard throughput vs cross-shard ratio (fence on every "
        "participant, all forced before ack)",
        ["ratio", "acked", "cross", "acked/s"],
    )
    for ratio, row in results.items():
        table.add_row(
            ratio, row["acked"], row["cross_acked"],
            f"{row['acked_per_s']:.0f}",
        )
    table.print()

    for ratio, row in results.items():
        assert row["acked"] == CLIENTS * OPS, (ratio, row)
    # 25% cross-shard must actually exercise the fence protocol.
    assert results["0.25"]["cross_acked"] > 0

    _record(
        "cross_shard_ratio",
        {
            ratio: {
                "acked_per_s": row["acked_per_s"],
                "cross_acked": row["cross_acked"],
            }
            for ratio, row in results.items()
        },
    )


# ----------------------------------------------------------------------
# lane 3: the honest 1-core reference (no modeled latency)
# ----------------------------------------------------------------------
def _inmemory_reference() -> Dict:
    out: Dict[str, Dict] = {}
    for shards in (1, 4):
        out[str(shards)] = _run_load(shards, modeled_latency=False)
    return out


@pytest.mark.benchmark(group="e13")
def test_e13_inmemory_reference(benchmark):
    results = once(benchmark, _inmemory_reference)

    table = Table(
        "E13: in-memory WAL reference (GIL-bound on a 1-core host; "
        "recorded for contrast, no scaling asserted)",
        ["shards", "acked", "acked/s"],
    )
    for shards, row in results.items():
        table.add_row(shards, row["acked"], f"{row['acked_per_s']:.0f}")
    table.print()

    for row in results.values():
        assert row["acked"] == CLIENTS * OPS

    _record(
        "inmemory_reference",
        {
            shards: {"acked_per_s": row["acked_per_s"]}
            for shards, row in results.items()
        },
    )
