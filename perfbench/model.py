"""The generator's own model of what the daemon must hold.

Every caller owns a disjoint set of keys and has one request
outstanding at a time, so the value of each key is decided by one
sequential stream of acked writes: the final state is deterministic and
the model predicts every read, every ``wl_derive`` digest and the
readback after the run.  A write that failed leaves its key *uncertain*
(it may or may not have executed); an uncertain key is never checked.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Dict, List, Optional, Sequence

from repro.serve.protocol import decode_value, encode_value

VALUE_BYTES = 64
#: Size of a ``wl_derive`` result (a SHA-256 digest).
DIGEST_BYTES = 32

_UNCERTAIN = object()


def derive(src_value: Optional[bytes]) -> bytes:
    """What the daemon's ``wl_derive`` computes for ``dst``."""
    return hashlib.sha256(b"derive" + bytes(src_value or b"")).digest()


class Model:
    """Expected values plus the mismatches found so far."""

    def __init__(self) -> None:
        self.values: Dict[str, Any] = {}
        self.errors: List[str] = []
        self.acked_lsis: List[int] = []
        self.user_bytes = 0
        self.acked_writes = 0

    def certain(self, key: str) -> bool:
        return self.values.get(key) is not _UNCERTAIN

    def _acked(self, response: Dict[str, Any], nbytes: int) -> None:
        self.acked_writes += 1
        self.user_bytes += nbytes
        lsi = response.get("lsi")
        if isinstance(lsi, int):
            self.acked_lsis.append(lsi)

    def put_done(self, key: str, value: bytes,
                 response: Optional[Dict[str, Any]]) -> None:
        if response is not None and response.get("ok"):
            self.values[key] = value
            self._acked(response, len(value))
        else:
            self.values[key] = _UNCERTAIN

    def derive_done(self, src: str, dst: str,
                    response: Optional[Dict[str, Any]]) -> None:
        if response is None or not response.get("ok"):
            self.values[dst] = _UNCERTAIN
            return
        got = decode_value((response.get("writes") or {}).get(dst))
        if self.certain(src):
            want = derive(self.values.get(src))
            if got != want:
                self.errors.append(
                    f"wl_derive({src}->{dst}) acked {got!r}, expected "
                    f"{want!r}"
                )
            self.values[dst] = want
        else:
            self.values[dst] = _UNCERTAIN
        self._acked(response, DIGEST_BYTES)

    def check_read(self, key: str, response: Optional[Dict[str, Any]],
                   phase: str) -> None:
        if response is None or not response.get("ok"):
            return
        if not self.certain(key):
            return
        got = decode_value(response.get("value"))
        want = self.values.get(key)
        if got != want:
            self.errors.append(
                f"{phase}: get({key}) returned {got!r}, expected {want!r}"
            )

    def written_keys(self) -> List[str]:
        return [key for key, value in self.values.items()
                if value is not _UNCERTAIN]


# ----------------------------------------------------------------------
# callers (closed loops; see loadgen.run_closed_loop)
# ----------------------------------------------------------------------
def put_caller(model: Model, keys: Sequence[str], count: int,
               rng: random.Random):
    """``count`` blind puts of fresh 64-byte values on uniform keys."""
    for _ in range(count):
        key = rng.choice(keys)
        value = rng.randbytes(VALUE_BYTES)
        response = yield {"kind": "put", "obj": key,
                          "value": encode_value(value)}
        model.put_done(key, value, response)


def preload_caller(model: Model, keys: Sequence[str], rng: random.Random):
    """One put per key, in order."""
    for key in keys:
        value = rng.randbytes(VALUE_BYTES)
        response = yield {"kind": "put", "obj": key,
                          "value": encode_value(value)}
        model.put_done(key, value, response)


def derive_request(src: str, dst: str) -> Dict[str, Any]:
    return {"kind": "apply", "fn": "wl_derive", "reads": [src],
            "writes": [dst], "params": [src, dst]}


def readback_caller(model: Model, keys: Sequence[str], phase: str):
    """Read every key once and compare with the model."""
    for key in keys:
        response = yield {"kind": "get", "obj": key}
        if response is None or not response.get("ok"):
            model.errors.append(f"{phase}: get({key}) failed: {response!r}")
            continue
        model.check_read(key, response, phase)


def mixed_caller(model: Model, keys: Sequence[str], count: int,
                 rng: random.Random, p_get: float, p_cross: float,
                 same_pairs: Sequence[Sequence[str]],
                 cross_pairs: Sequence[Sequence[str]]):
    """gets, same-shard derives and cross-shard derives over own keys.

    ``same_pairs[i]`` / ``cross_pairs[i]`` are key groups whose members
    live on one shard / on different shards; a derive draws ``src`` and
    ``dst`` from them.  With one shard, ``cross_pairs`` is empty.
    """
    for _ in range(count):
        draw = rng.random()
        if draw < p_get:
            key = rng.choice(keys)
            response = yield {"kind": "get", "obj": key}
            model.check_read(key, response, "load")
            continue
        cross = draw < p_get + p_cross and bool(cross_pairs)
        group_a, group_b = rng.choice(cross_pairs if cross else same_pairs)
        src, dst = rng.choice(group_a), rng.choice(group_b)
        while dst == src:
            dst = rng.choice(group_b)
        request = derive_request(src, dst)
        request["_cross"] = cross
        response = yield request
        model.derive_done(src, dst, response)
