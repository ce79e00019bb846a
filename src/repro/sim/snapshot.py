"""Settle-state checkpoint/restore for a network + scheduler pair.

A fault campaign spends most of its wall time re-settling the same
(topology, protocol, schedule, seed) network before every fault cell.
This module serializes a settled run's *full* state — register storage
on any backend (dict tables, the columnar store's packed columns +
interning pool + boxed overflow), scheduler
counters (rounds, activations, skip accounting, round coverage), and
the daemon's decision state (RNG, pending permutations, batch queues) —
into one picklable payload, and restores it into a freshly built
network/scheduler pair so that continuing the run is **bit-for-bit
indistinguishable** from never having stopped
(``tests/test_snapshot_restore.py`` proves this across all three
storage backends).

Two layers:

* ``capture_run_state`` / ``restore_run_state`` — payload dicts, the
  engine-facing API.  Restore validates everything (topology, schema
  layout, scheduler kind, daemon class) *before* mutating, so a failed
  restore raises :class:`SnapshotError` and leaves the target untouched
  — the caller falls back to a cold settle, never to a half-restored
  network.
* ``encode_snapshot`` / ``decode_snapshot`` — the checksummed on-disk
  wire format used by :mod:`repro.engine.warmcache`: a magic header, a
  sha256 digest of the body, then the pickled payload.  Bit flips and
  truncation fail the checksum and surface as :class:`SnapshotError`
  before any byte is unpickled.

Payloads always carry a backend-neutral ``values`` section (plain
per-node register dicts) next to the native section: the warm-start
cache key deliberately excludes implementation-only axes like
``storage``, so a snapshot written by a columnar run must restore into
a dict-backed one.  When the backend matches, the native section is
used and the restore is exact down to interned pool ids and stable
versions; across backends the neutral section is installed through the
ordinary register interface, which the storage-differential suite
already proves equivalent.  Payloads written by the retired per-node
register-file backend (``backend: "schema"``, with a ``files``
section) restore the same way: their ``files`` section is ignored.

Protocol instances hold no cross-activation semantic state (label- and
budget-derived caches are rebuilt by ``bind_registers``; per-activation
scratch is sentinel-validated), so a restore re-binds the *fresh*
protocol to the restored registers rather than shipping protocol
objects — see ``restore_run_state``.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, Dict, Mapping, Optional

from .network import Network
from .schedulers import AsynchronousScheduler, SynchronousScheduler

__all__ = [
    "SNAPSHOT_VERSION", "MAGIC", "SnapshotError",
    "topology_signature",
    "capture_network", "restore_network",
    "capture_scheduler", "restore_scheduler",
    "capture_run_state", "restore_run_state",
    "encode_snapshot", "decode_snapshot",
]

SNAPSHOT_VERSION = 1

#: wire-format header; bump with :data:`SNAPSHOT_VERSION`
MAGIC = b"RSNAP1\n"

_DIGEST_SIZE = hashlib.sha256().digest_size


class SnapshotError(Exception):
    """A snapshot payload is malformed, corrupt, or does not fit the
    network/scheduler it is being restored into.  Raised before any
    mutation: the restore target is left untouched."""


# ---------------------------------------------------------------------------
# network state
# ---------------------------------------------------------------------------

def topology_signature(graph: Any) -> str:
    """sha256 over the graph's full mutable topology — node insertion
    order, port lists including churn tombstones, and edge weights.
    Since PR 10 the topology is run state (``crash``/``rejoin``/
    ``reweight`` events mutate it), so a snapshot must pin it the same
    way it pins register contents: restoring churned registers into a
    pristine topology (or vice versa) would silently desynchronize
    labels from ports."""
    return hashlib.sha256(
        repr(graph.topology_key()).encode("utf-8")).hexdigest()


def capture_network(network: Network) -> Dict[str, Any]:
    """The network's register state as one picklable dict.

    Always includes the backend-neutral ``values`` section; adds the
    native ``columns`` section when a column store is active, so a
    same-backend restore is exact (pool ids, stable versions) rather
    than merely observationally equivalent."""
    nodes = list(network.graph.nodes())
    state: Dict[str, Any] = {
        "nodes": nodes,
        "topo_sig": topology_signature(network.graph),
        "values": {v: dict(network.registers[v]) for v in nodes},
        "backend": "dict",
    }
    if network.columns is not None:
        state["backend"] = "columnar"
        state["columns"] = network.columns.serialize()
    return state


def restore_network(network: Network, state: Mapping[str, Any]) -> None:
    """Restore a :func:`capture_network` payload into ``network``.

    Uses the native section when the payload's backend matches the
    network's and the layout fits; otherwise installs the neutral
    values through the register interface.  Mutates storage in place
    (schedulers and contexts alias the underlying columns)."""
    backend = state.get("backend")
    if backend == "columnar" and network.columns is not None:
        try:
            network.columns.restore_serialized(state["columns"])
            return
        except (ValueError, KeyError):
            pass  # layout drift: fall through to the neutral section
    values = state["values"]
    for v in network.graph.nodes():
        # RegisterTable write-through: clears the node's row in place,
        # then installs the plain dict
        network.registers[v] = dict(values.get(v, {}))


# ---------------------------------------------------------------------------
# scheduler + daemon state
# ---------------------------------------------------------------------------

def capture_scheduler(scheduler: Any) -> Optional[Dict[str, Any]]:
    """The scheduler's cross-run state, or ``None`` when the scheduler
    (or its daemon) does not support exact capture — the caller should
    then skip snapshotting rather than store an inexact one."""
    if isinstance(scheduler, SynchronousScheduler):
        return {"kind": "sync", "rounds": scheduler.rounds,
                "initialized": scheduler._initialized}
    if isinstance(scheduler, AsynchronousScheduler):
        daemon = scheduler.daemon
        get_state = getattr(daemon, "state", None)
        if not callable(get_state):
            return None
        return {"kind": "async",
                "rounds": scheduler.rounds,
                "activations": scheduler.activations,
                "steps_skipped": scheduler.steps_skipped,
                "covered": list(scheduler._covered),
                "initialized": scheduler._initialized,
                "daemon": {"class": type(daemon).__name__,
                           "data": get_state()}}
    return None


def restore_scheduler(scheduler: Any, state: Mapping[str, Any]) -> None:
    """Restore a :func:`capture_scheduler` payload.  The caller has
    already validated kind/daemon compatibility (``restore_run_state``
    does); this only moves state."""
    scheduler.rounds = state["rounds"]
    scheduler._initialized = state["initialized"]
    if state["kind"] == "async":
        scheduler.activations = state["activations"]
        scheduler.steps_skipped = state["steps_skipped"]
        scheduler._covered = set(state["covered"])
        scheduler.daemon.set_state(state["daemon"]["data"])


# ---------------------------------------------------------------------------
# run state: the engine-facing pair
# ---------------------------------------------------------------------------

def capture_run_state(network: Network, scheduler: Any,
                      settle_rounds: int) -> Optional[Dict[str, Any]]:
    """One payload for a settled run: network + scheduler + the settle
    round count the run actually executed (re-reported verbatim on
    restore, so records stay comparable).  ``None`` when the scheduler
    is not exactly capturable."""
    sched_state = capture_scheduler(scheduler)
    if sched_state is None:
        return None
    return {"version": SNAPSHOT_VERSION,
            "network": capture_network(network),
            "scheduler": sched_state,
            "settle_rounds": settle_rounds}


def _scheduler_kind(scheduler: Any) -> Optional[str]:
    if isinstance(scheduler, SynchronousScheduler):
        return "sync"
    if isinstance(scheduler, AsynchronousScheduler):
        return "async"
    return None


def restore_run_state(network: Network, scheduler: Any,
                      payload: Mapping[str, Any]) -> int:
    """Restore a :func:`capture_run_state` payload into a freshly built
    network/scheduler pair; returns the recorded settle round count.

    Validation happens up front — version, scheduler kind, daemon
    class, topology — and any mismatch raises :class:`SnapshotError`
    with the pair untouched.  After the state moves, the protocol is
    re-bound to its storage handles: label-derived protocol caches must
    not survive a wholesale register replacement, and re-binding a
    fresh protocol recomputes them from the restored registers (the
    equivalence matrix proves this reaches bit-for-bit identical
    continuations)."""
    try:
        version = payload["version"]
        net_state = payload["network"]
        sched_state = payload["scheduler"]
        settle_rounds = payload["settle_rounds"]
    except (TypeError, KeyError) as exc:
        raise SnapshotError(f"malformed snapshot payload: {exc!r}") \
            from None
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    kind = _scheduler_kind(scheduler)
    if kind is None or not isinstance(sched_state, Mapping) \
            or sched_state.get("kind") != kind:
        raise SnapshotError("snapshot scheduler kind does not match")
    if kind == "async":
        daemon = scheduler.daemon
        meta = sched_state.get("daemon")
        if not isinstance(meta, Mapping) \
                or meta.get("class") != type(daemon).__name__ \
                or not callable(getattr(daemon, "set_state", None)):
            raise SnapshotError("snapshot daemon does not match")
    if not isinstance(net_state, Mapping) \
            or list(net_state.get("nodes", ())) != \
            list(network.graph.nodes()):
        raise SnapshotError("snapshot topology does not match the "
                            "network")
    sig = net_state.get("topo_sig")
    if sig is not None and sig != topology_signature(network.graph):
        # pre-PR-10 payloads carry no signature (nodes check only);
        # new ones must match ports and weights exactly — a snapshot
        # taken across churn events only restores into an identically
        # churned network
        raise SnapshotError("snapshot topology signature does not "
                            "match the network (ports, weights, or "
                            "churn state differ)")
    restore_network(network, net_state)
    restore_scheduler(scheduler, sched_state)
    protocol = getattr(scheduler, "protocol", None)
    compiled = getattr(scheduler, "_compiled", None)
    if protocol is not None:
        protocol.bind_registers(compiled)
        protocol._storage_binding = compiled
    return settle_rounds


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def encode_snapshot(payload: Mapping[str, Any]) -> bytes:
    """``MAGIC + sha256(body) + body`` with a pickled body.  The digest
    covers every body byte, so :func:`decode_snapshot` rejects bit
    flips and truncation before unpickling anything."""
    body = pickle.dumps(dict(payload), protocol=pickle.HIGHEST_PROTOCOL)
    return MAGIC + hashlib.sha256(body).digest() + body


def decode_snapshot(blob: bytes) -> Dict[str, Any]:
    """Inverse of :func:`encode_snapshot`; raises :class:`SnapshotError`
    on any malformation (bad magic, truncation, checksum mismatch,
    unpicklable body)."""
    header = len(MAGIC) + _DIGEST_SIZE
    if len(blob) < header or not blob.startswith(MAGIC):
        raise SnapshotError("not a snapshot (bad magic or truncated "
                            "header)")
    digest = blob[len(MAGIC):header]
    body = blob[header:]
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError("snapshot checksum mismatch (corrupt or "
                            "truncated)")
    try:
        payload = pickle.loads(body)
    except Exception as exc:  # checksummed, so this is format drift
        raise SnapshotError(f"snapshot body failed to unpickle: "
                            f"{exc!r}") from None
    if not isinstance(payload, dict):
        raise SnapshotError("snapshot body is not a payload dict")
    return payload
