"""Per-layer tracing from outside the program.

:func:`installed` wraps the public entry points of each ``src/repro``
layer (registry entries, module functions and class methods) with span
recorders, and puts the originals back on exit.  Nothing under ``src/``
is edited: the wrappers are installed at run time, from here.

Spans are kept in memory as parallel arrays (name, start, end, parent);
a span's *self time* is its duration minus the durations of its direct
children.  :data:`PER_LAYER` lists every per-layer metric with its
layer and the end-to-end metric (and workload) it should move.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (name, unit, better, layer, what it should move)
PER_LAYER: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("graphs.build_s", "s", "lower", "repro.graphs (topology registry)",
     "setup_s on every workload"),
    ("marker.run_s", "s", "lower", "repro.verification.marker",
     "setup_s on every workload; warm_campaign/cell_s_p50 (label_swap)"),
    ("network.install_s", "s", "lower", "repro.sim.network Network.install",
     "warm_campaign/cell_s_p50"),
    ("network.memory_bits_s", "s", "lower",
     "repro.sim.network Network.*_memory_bits", "warm_campaign/cell_s_p50"),
    ("storage.refresh_s", "s", "lower",
     "repro.sim.columnar/npcolumnar refresh_from",
     "sync_settle/cells_per_s; none on async_settle"),
    ("storage.refresh_calls", "count", "lower",
     "repro.sim.columnar/npcolumnar refresh_from",
     "sync_settle/cells_per_s; none on async_settle"),
    ("schedulers.run_s", "s", "lower", "repro.sim.schedulers *.run",
     "cells_per_s on sync_settle and async_settle"),
    ("schedulers.self_s", "s", "lower", "repro.sim.schedulers *.run",
     "cells_per_s on sync_settle and async_settle"),
    ("schedulers.node_rounds", "count", "lower", "repro.sim.schedulers",
     "cells_per_s on sync_settle and async_settle"),
    ("schedulers.activations", "count", "lower", "repro.sim.schedulers",
     "cells_per_s on sync_settle and async_settle"),
    ("schedulers.skip_ratio", "ratio", "higher", "repro.sim.schedulers",
     "cells_per_s on sync_settle and async_settle"),
    ("schedulers.settle_poll_s", "s", "lower",
     "repro.sim.schedulers stop predicates",
     "cells_per_s on sync_settle and async_settle"),
    ("daemon.next_batch_s", "s", "lower",
     "repro.sim.schedulers Daemon.next_batch/take_pending",
     "async_settle/cells_per_s; none on sync_settle"),
    ("daemon.batches", "count", "lower", "repro.sim.schedulers daemons",
     "async_settle/cells_per_s; none on sync_settle"),
    ("daemon.batch_rows_mean", "count", "higher",
     "repro.sim.schedulers daemons",
     "async_settle/cells_per_s; none on sync_settle"),
    ("schedulers.coalesce_ratio", "ratio", "higher",
     "repro.sim.schedulers AsynchronousScheduler coalescing",
     "async_settle/cells_per_s; none on sync_settle"),
    ("kernel.bulk_step_s", "s", "lower",
     "Protocol.bulk_step (repro.sim.bulk, verification, trains)",
     "cells_per_s on sync_settle and async_settle"),
    ("kernel.step_s", "s", "lower", "Protocol.step (scalar activations)",
     "async_settle/cells_per_s (permutation)"),
    ("kernel.rows_fused", "count", "higher", "Protocol.bulk_step vector tier",
     "cells_per_s on sync_settle and async_settle"),
    ("kernel.rows_residual", "count", "lower",
     "Protocol.bulk_step residual replay",
     "cells_per_s on sync_settle and async_settle"),
    ("kernel.rows_scalar", "count", "lower",
     "Protocol.bulk_step scalar replay",
     "cells_per_s on sync_settle and async_settle"),
    ("kernel.fused_ratio", "ratio", "higher", "Protocol.bulk_step",
     "cells_per_s on sync_settle and async_settle"),
    ("kernel.plan_rebuilds", "count", "lower",
     "repro.verification.verifier per-sweep plans",
     "async_settle/cells_per_s"),
    ("cell_s.columnar.sync", "s", "lower", "columnar tier, sync",
     "cells_per_s on sync_settle, warm_campaign, churn"),
    ("cell_s.numpy.sync", "s", "lower", "numpy tier, sync",
     "cells_per_s on sync_settle, warm_campaign, churn"),
    ("cell_s.columnar.independent", "s", "lower",
     "columnar tier, independent daemon",
     "cells_per_s on async_settle, warm_campaign"),
    ("cell_s.numpy.independent", "s", "lower",
     "numpy tier, independent daemon",
     "cells_per_s on async_settle, warm_campaign"),
    ("cell_s.columnar.permutation", "s", "lower",
     "columnar tier, permutation daemon", "async_settle/cells_per_s"),
    ("cell_s.numpy.permutation", "s", "lower",
     "numpy tier, permutation daemon", "async_settle/cells_per_s"),
    ("snapshot.capture_s", "s", "lower", "repro.sim.snapshot capture",
     "warm_campaign/setup_s"),
    ("snapshot.encode_s", "s", "lower", "repro.sim.snapshot encode",
     "warm_campaign/setup_s"),
    ("snapshot.decode_s", "s", "lower", "repro.sim.snapshot decode",
     "warm_campaign/cells_per_s"),
    ("snapshot.restore_s", "s", "lower", "repro.sim.snapshot restore",
     "warm_campaign/cells_per_s"),
    ("snapshot.bytes", "bytes", "lower", "repro.sim.snapshot encode",
     "warm_campaign/cells_per_s and setup_s"),
    ("warmcache.load_s", "s", "lower", "repro.engine.warmcache load",
     "warm_campaign/cells_per_s"),
    ("warmcache.store_s", "s", "lower", "repro.engine.warmcache store",
     "warm_campaign/setup_s"),
    ("warmcache.hit_ratio", "ratio", "higher", "repro.engine.warmcache",
     "warm_campaign/cells_per_s"),
    ("faults.inject_s", "s", "lower", "repro.sim.faults (fault registry)",
     "warm_campaign/cell_s_p50"),
    ("supervise.overhead_s", "s", "lower", "repro.engine.supervise",
     "warm_campaign/cells_per_s"),
    ("supervise.attempts", "count", "lower", "repro.engine.supervise",
     "warm_campaign/cells_per_s"),
    ("supervise.worker_rss_mb", "MB", "lower", "repro.engine.supervise",
     "warm_campaign/peak_rss_mb"),
    ("churn.script_s", "s", "lower", "repro.sim.churn ChurnScript.generate",
     "churn/cells_per_s"),
    ("churn.run_s", "s", "lower", "repro.sim.churn run_with_churn",
     "churn/cells_per_s"),
    ("churn.events", "count", "lower", "repro.sim.churn",
     "churn/cells_per_s"),
    ("churn.topology_changed_s", "s", "lower",
     "repro.sim.schedulers *.topology_changed", "churn/cells_per_s"),
    ("network.topology_s", "s", "lower",
     "repro.sim.network remove_node/add_node", "churn/cells_per_s"),
    ("phase.settle_s", "s", "lower", "scheduler runs with a settle stop",
     "cell_s_p50 on every workload"),
    ("phase.detect_s", "s", "lower", "scheduler runs with a first-alarm stop",
     "cell_s_p50 on every workload"),
    ("phase.restore_s", "s", "lower", "warm-cache load + snapshot restore",
     "warm_campaign/cell_s_p50"),
    ("phase.churn_s", "s", "lower", "run_with_churn", "churn/cell_s_p50"),
    ("engine.self_s", "s", "lower", "repro.engine.scenarios run_scenario",
     "cell_s_p50 on every workload"),
    ("trace.overhead_ratio", "ratio", "lower", "this tracer",
     "none (traced over untraced cell time)"),
)


class Tracer:
    """In-memory spans plus counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        # an exception (a deadline) may unwind past inner spans
        while self._stack and self._stack.pop() != idx:
            pass

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def totals(self) -> Dict[str, Tuple[float, float, int]]:
        """``name -> (inclusive seconds, self seconds, calls)``."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        acc: Dict[str, List[float]] = {}
        for i, nid in enumerate(self.name_id):
            row = acc.setdefault(self.names[nid], [0.0, 0.0, 0])
            row[0] += dur[i]
            row[1] += dur[i] - child[i]
            row[2] += 1
        return {k: (v[0], v[1], int(v[2])) for k, v in acc.items()}


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------

class _Patches:
    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def setattr(self, owner, attr: str, value) -> None:
        # vars(), not getattr(): keeps classmethod descriptors intact
        old = vars(owner)[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def setitem(self, mapping, key, value) -> None:
        old = mapping[key]
        mapping[key] = value
        self._undo.append(lambda: mapping.__setitem__(key, old))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _spanned(tr: Tracer, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.close(idx)
        if after is not None:
            after(args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _phase_of(stop_when) -> str:
    """Which cell phase a scheduler run serves, from its stop
    predicate: the engine's first-alarm stop is detection, churn's own
    predicates are churn recovery, anything else (the protocol's settle
    predicate, or none) is settling."""
    from repro.sim.network import first_alarm
    if stop_when is first_alarm:
        return "detect"
    if getattr(stop_when, "__module__", "") == "repro.sim.churn":
        return "churn"
    return "settle"


def _wrap_run(tr: Tracer, fn: Callable) -> Callable:
    def run(self, max_rounds, stop_when=None, *args, **kwargs):
        poll = stop_when
        if stop_when is not None:
            def poll(network, _stop=stop_when):
                idx = tr.open("schedulers.poll")
                try:
                    return _stop(network)
                finally:
                    tr.close(idx)
        acts = getattr(self, "activations", None)
        skipped = getattr(self, "steps_skipped", None)
        coalesced = getattr(self, "batches_coalesced", None)
        supers = getattr(self, "super_batches", None)
        idx = tr.open("schedulers.run:" + _phase_of(stop_when))
        try:
            rounds = fn(self, max_rounds, poll, *args, **kwargs)
        finally:
            tr.close(idx)
        live = len(self.network.graph.nodes())
        tr.counts["node_rounds"] += rounds * live
        if acts is None:
            # lock-step: every live node is scheduled every round
            tr.counts["scheduled"] += rounds * live
        else:
            tr.counts["scheduled"] += self.activations - acts
            tr.counts["stepped"] += self.activations - acts
            tr.counts["stepped"] -= self.steps_skipped - skipped
            tr.counts["coalesced"] += self.batches_coalesced - coalesced
            tr.counts["super_batches"] += self.super_batches - supers
        return rounds
    run.__wrapped__ = fn
    return run


def _wrap_bulk(tr: Tracer, fn: Callable) -> Callable:
    def bulk_step(self, batch):
        if batch.gate is None:
            # a lock-step round: these rows are the nodes it steps
            tr.counts["stepped"] += len(batch.contexts)
        idx = tr.open("kernel.bulk_step")
        try:
            return fn(self, batch)
        finally:
            tr.close(idx)
    bulk_step.__wrapped__ = fn
    return bulk_step


def _count(tr: Tracer, key: str, measure: Callable) -> Callable:
    def after(args, result):
        tr.counts[key] += measure(args, result)
    return after


@contextlib.contextmanager
def installed(tr: Tracer) -> Iterator[Tracer]:
    """Wrap every layer's entry points for the duration of the block."""
    from repro.baselines.pls_sqlog import SqLogPlsProtocol
    from repro.engine import scenarios, warmcache
    from repro.sim import churn, schedulers
    from repro.sim.columnar import ColumnStore
    from repro.sim.network import Network
    from repro.sim.npcolumnar import NumpyColumnStore
    from repro.verification.hybrid import HybridVerifierProtocol
    from repro.verification.verifier import MstVerifierProtocol

    p = _Patches()
    try:
        for kind, build in list(scenarios.TOPOLOGIES.items()):
            p.setitem(scenarios.TOPOLOGIES, kind,
                      _spanned(tr, "graphs.build", build))
        p.setattr(scenarios, "run_marker",
                  _spanned(tr, "marker.run", scenarios.run_marker))
        for kind, entry in list(scenarios.FAULTS.items()):
            if entry.inject is not None:
                p.setitem(scenarios.FAULTS, kind, dataclasses.replace(
                    entry, inject=_spanned(tr, "faults.inject",
                                           entry.inject)))
            if entry.marker is not None:
                p.setitem(scenarios.FAULTS, kind, dataclasses.replace(
                    entry, marker=_spanned(tr, "marker.run", entry.marker)))

        p.setattr(Network, "install",
                  _spanned(tr, "network.install", Network.install))
        for meth in ("max_memory_bits", "total_memory_bits"):
            p.setattr(Network, meth, _spanned(tr, "network.memory_bits",
                                              getattr(Network, meth)))
        for meth in ("remove_node", "add_node"):
            p.setattr(Network, meth, _spanned(tr, "network.topology",
                                              getattr(Network, meth)))

        for cls in (ColumnStore, NumpyColumnStore):
            p.setattr(cls, "refresh_from", _spanned(
                tr, "storage.refresh", vars(cls)["refresh_from"],
                _count(tr, "refresh_calls", lambda a, r: 1)))

        for cls in (schedulers.SynchronousScheduler,
                    schedulers.AsynchronousScheduler):
            p.setattr(cls, "run", _wrap_run(tr, vars(cls)["run"]))
            p.setattr(cls, "topology_changed", _spanned(
                tr, "churn.topology_changed", vars(cls)["topology_changed"]))
        def one_batch(args, result):
            tr.counts["batches"] += 1
            tr.counts["batch_rows"] += len(result)

        def pending(args, result):
            tr.counts["batches"] += len(result)
            tr.counts["batch_rows"] += sum(map(len, result))
        for cls in vars(schedulers).values():
            if isinstance(cls, type) and issubclass(cls, schedulers.Daemon):
                for meth, after in (("next_batch", one_batch),
                                    ("take_pending", pending)):
                    if meth in vars(cls):
                        p.setattr(cls, meth, _spanned(
                            tr, "daemon.next_batch", vars(cls)[meth],
                            after))

        for cls in (MstVerifierProtocol, HybridVerifierProtocol,
                    SqLogPlsProtocol):
            p.setattr(cls, "bulk_step", _wrap_bulk(tr, vars(cls)["bulk_step"]))
            p.setattr(cls, "step",
                      _spanned(tr, "kernel.step", vars(cls)["step"]))

        p.setattr(scenarios, "capture_run_state", _spanned(
            tr, "snapshot.capture", scenarios.capture_run_state))
        p.setattr(scenarios, "restore_run_state", _spanned(
            tr, "snapshot.restore", scenarios.restore_run_state))
        p.setattr(warmcache, "encode_snapshot", _spanned(
            tr, "snapshot.encode", warmcache.encode_snapshot,
            _count(tr, "snapshot_bytes", lambda a, r: len(r))))
        p.setattr(warmcache, "decode_snapshot", _spanned(
            tr, "snapshot.decode", warmcache.decode_snapshot))
        for meth in ("load", "store"):
            p.setattr(warmcache.WarmCache, meth, _spanned(
                tr, "warmcache." + meth, vars(warmcache.WarmCache)[meth]))

        generate = vars(churn.ChurnScript)["generate"].__func__
        p.setattr(churn.ChurnScript, "generate",
                  classmethod(_spanned(tr, "churn.script", generate)))
        p.setattr(scenarios, "run_with_churn", _spanned(
            tr, "churn.run", scenarios.run_with_churn))
        yield tr
    finally:
        p.undo()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(setup: Tracer, tr: Tracer, passes: int, results,
                  cell_groups, supervise: Dict[str, float],
                  overhead_ratio: float) -> Dict[str, float]:
    """The :data:`PER_LAYER` values.  Set-up layers (instance build,
    snapshot capture/encode/store) come from the traced set-up, per
    set-up; the rest from the traced passes, per ledger pass.
    ``results`` are the traced passes' results; ``cell_groups`` maps
    ``(storage, schedule)`` to mean untraced cell seconds."""
    tot = tr.totals()
    once = setup.totals()
    per = 1.0 / max(passes, 1)

    def incl(*names: str, src=tot) -> float:
        return sum(src.get(n, (0.0, 0.0, 0))[0] for n in names)

    def self_(*names: str, src=tot) -> float:
        return sum(src.get(n, (0.0, 0.0, 0))[1] for n in names)

    c = tr.counts
    runs = [n for n in tot if n.startswith("schedulers.run:")]
    fused = sum(r.rows_fused or 0 for r in results)
    residual = sum(r.rows_residual or 0 for r in results)
    scalar = sum(r.rows_scalar or 0 for r in results)
    warm = [r.cache_hit for r in results if r.cache_hit is not None]
    m = {
        "graphs.build_s": self_("graphs.build", src=once),
        "marker.run_s": incl("marker.run", src=once),
        "network.install_s": self_("network.install") * per,
        "network.memory_bits_s": self_("network.memory_bits") * per,
        "storage.refresh_s": self_("storage.refresh") * per,
        "storage.refresh_calls": c["refresh_calls"] * per,
        "schedulers.run_s": incl(*runs) * per,
        "schedulers.self_s": self_(*runs) * per,
        "schedulers.node_rounds": c["node_rounds"] * per,
        "schedulers.activations": c["stepped"] * per,
        "schedulers.skip_ratio": _ratio(c["scheduled"] - c["stepped"],
                                        c["scheduled"]),
        "schedulers.settle_poll_s": incl("schedulers.poll") * per,
        "daemon.next_batch_s": self_("daemon.next_batch") * per,
        "daemon.batches": c["batches"] * per,
        "daemon.batch_rows_mean": _ratio(c["batch_rows"], c["batches"]),
        "schedulers.coalesce_ratio": _ratio(c["coalesced"], c["batches"]),
        "kernel.bulk_step_s": self_("kernel.bulk_step") * per,
        "kernel.step_s": self_("kernel.step") * per,
        "kernel.rows_fused": fused * per,
        "kernel.rows_residual": residual * per,
        "kernel.rows_scalar": scalar * per,
        "kernel.fused_ratio": _ratio(fused, fused + residual + scalar),
        "kernel.plan_rebuilds": sum(r.plan_rebuilds or 0
                                    for r in results) * per,
        "snapshot.capture_s": self_("snapshot.capture", src=once),
        "snapshot.encode_s": self_("snapshot.encode", src=once),
        "snapshot.decode_s": self_("snapshot.decode") * per,
        "snapshot.restore_s": self_("snapshot.restore") * per,
        "snapshot.bytes": _ratio(setup.counts["snapshot_bytes"],
                                 once.get("snapshot.encode", (0, 0, 0))[2]),
        "warmcache.load_s": self_("warmcache.load") * per,
        "warmcache.store_s": self_("warmcache.store", src=once),
        "warmcache.hit_ratio": _ratio(sum(warm), len(warm)),
        "faults.inject_s": incl("faults.inject") * per,
        "supervise.overhead_s": supervise.get("overhead_s", 0.0),
        "supervise.attempts": supervise.get("attempts", 0.0),
        "supervise.worker_rss_mb": supervise.get("worker_rss_mb", 0.0),
        "churn.script_s": incl("churn.script") * per,
        "churn.run_s": incl("churn.run") * per,
        "churn.events": sum(r.churn_events or 0 for r in results) * per,
        "churn.topology_changed_s": incl("churn.topology_changed") * per,
        "network.topology_s": self_("network.topology") * per,
        "phase.settle_s": incl("schedulers.run:settle") * per,
        "phase.detect_s": incl("schedulers.run:detect") * per,
        "phase.restore_s": incl("warmcache.load", "snapshot.restore") * per,
        "phase.churn_s": incl("churn.run") * per,
        "engine.self_s": self_("engine.cell") * per,
        "trace.overhead_ratio": overhead_ratio,
    }
    for storage in ("columnar", "numpy"):
        for schedule in ("sync", "independent", "permutation"):
            m[f"cell_s.{storage}.{schedule}"] = cell_groups.get(
                (storage, schedule), 0.0)
    return m
