"""The four workloads: fixed, seeded ledgers of campaign cells.

A *cell* is one :class:`~repro.engine.ScenarioSpec` plus its deadline.
A *pass* runs every cell of a ledger once; a run repeats passes for its
``--seconds``.  Every ledger names ``storage`` explicitly and uses only
the ``columnar`` and ``numpy`` tiers, each semantic cell once per tier,
so every pass is also a cross-storage differential check.

Topologies are fixed instances (their seeds are constants below): the
cold-settle cost of a random instance moves by up to +-45% from one
graph to the next, which would swamp any code change in a ten-seed
comparison.  ``--seed`` drives everything else — fault sites, daemon
schedules, adversarial labelings and churn scripts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.engine import ScenarioSpec, axis, derive_seed

#: the seed the kept reference (``reference.json``) was recorded at.
DEFAULT_SEED = 1

STORAGES = ("columnar", "numpy")
PROTOCOLS = ("verifier", "hybrid", "sqlog")

#: per-cell deadlines by protocol: about 5x the slowest cell of each
#: kind on a shared two-core Xeon, and 10x for sqlog, whose cells are
#: short.  Its deadline is kept short on purpose: a corrupted sqlog
#: register can reach ``repro.labels.wellforming._sorted_levels_tuple``
#: with a negative J-mask, which loops forever while allocating several
#: hundred MB/s (seen on 2 of 120 sqlog fault cells at n=24).
DEADLINE_S = {"verifier": 20.0, "hybrid": 20.0, "sqlog": 1.0}

#: sqlog has no settle predicate, so an asynchronous settle runs its
#: whole O(n log^2 n)-round budget (about a minute at n=200) although
#: honest sqlog labels are quiescent from the first round.  Its async
#: cells therefore get an explicit settle budget.
SQLOG_ASYNC_SETTLE = 64


@dataclass(frozen=True)
class Cell:
    spec: ScenarioSpec
    deadline_s: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, bool], List[Cell]]
    #: fill a warm cache in set-up and run passes under the supervisor
    warm: bool = False


def _instance(workload: str, i: int, tiny: bool, kind: str = "random",
              n: int = 200):
    """(topology axis, fixed topology seed) of a workload instance."""
    tseed = derive_seed(0, "cellbench", workload, kind, i)
    if kind == "subdivided":
        base = 6 if tiny else 24
        return axis("subdivided", base_n=base, extra=base, tau=2), tseed
    n = 24 if tiny else n
    return axis("random", n=n, extra=n), tseed


def _cells(workload: str, seed: int, topo, tseed: int, fault, schedule: str,
           protocol: str, deadline_s: float) -> List[Cell]:
    """One semantic cell on both storage tiers (paired: storage is an
    implementation parameter, so both share every derived seed)."""
    settle = SQLOG_ASYNC_SETTLE \
        if protocol == "sqlog" and schedule != "sync" else None
    base = derive_seed(seed, workload, str(topo), str(fault), schedule,
                       protocol)
    return [Cell(ScenarioSpec(topology=topo, fault=fault,
                              schedule=axis(schedule, storage=storage),
                              protocol=axis(protocol), seed=base,
                              topology_seed=tseed, settle_rounds=settle),
                 deadline_s)
            for storage in STORAGES]


def sync_settle(seed: int, tiny: bool = False) -> List[Cell]:
    cells: List[Cell] = []
    topo, tseed = _instance("sync_settle", 0, tiny)
    for proto in PROTOCOLS:
        cells += _cells("sync_settle", seed, topo, tseed, axis("corrupt"),
                        "sync", proto, DEADLINE_S[proto])
    # the Section-9 family carries the stored-piece lie, as in the KMW
    # campaigns.  Verifier only: sqlog stores no pieces (the recipe
    # raises) and the hybrid keeps only top pieces, which may be dead
    # data that is correctly accepted (see repro.verification.adversary
    # .lie_about_used_piece).
    topo, tseed = _instance("sync_settle", 1, tiny, "subdivided")
    for proto in PROTOCOLS:
        fault = axis("piece_lie" if proto == "verifier" else "scramble")
        cells += _cells("sync_settle", seed, topo, tseed, fault, "sync",
                        proto, DEADLINE_S[proto])
    return cells


def async_settle(seed: int, tiny: bool = False) -> List[Cell]:
    cells: List[Cell] = []
    topo, tseed = _instance("async_settle", 0, tiny)
    for schedule in ("independent", "permutation"):
        for proto in PROTOCOLS:
            cells += _cells("async_settle", seed, topo, tseed,
                            axis("corrupt"), schedule, proto,
                            DEADLINE_S[proto])
    return cells


#: warm fault cells: short detects after a restored settle.  Each
#: asynchronous fault kind needs its own cold settle in every set-up
#: (the daemon seed derives from the fault axis), so the independent
#: half keeps the two kinds that restore (corrupt) or run cold
#: (label_swap).  ``piece_lie`` is in sync_settle: its ~270-round sync
#: detect is not a short burst.
WARM_FAULTS = {"sync": ("corrupt", "scramble", "label_swap"),
               "independent": ("corrupt", "label_swap")}


def warm_campaign(seed: int, tiny: bool = False) -> List[Cell]:
    cells: List[Cell] = []
    # smaller than the settle workloads' instances: each of the three
    # set-ups of a run settles six configurations cold
    topo, tseed = _instance("warm_campaign", 0, tiny, n=150)
    for schedule, faults in WARM_FAULTS.items():
        for proto in PROTOCOLS:
            for fault in faults:
                cells += _cells("warm_campaign", seed, topo, tseed,
                                axis(fault), schedule, proto,
                                DEADLINE_S[proto])
    return cells


#: E15's CI smoke instance and window (``benchmarks/
#: bench_churn_recovery.py`` QUICK_CELLS/QUICK_WINDOW: n=24, 600
#: rounds per event), with the event stream split by kind: one
#: crash/rejoin-only cell and one reweight-only cell per protocol.  A
#: mixed stream's cost moves by +-14% with the seed's draw of event
#: kinds; a single-kind stream's by about 5%.
CHURN_N = 24
CHURN_EVENTS = 4
CHURN_WINDOW = 600


def churn(seed: int, tiny: bool = False) -> List[Cell]:
    n, window = (12, 300) if tiny else (CHURN_N, CHURN_WINDOW)
    topo = axis("random", n=n, extra=int(0.8 * n))
    tseed = derive_seed(0, "churn-instance", n)
    cells: List[Cell] = []
    for crash in (True, False):
        fault = axis("churn", events=CHURN_EVENTS, window=window,
                     crash=crash, reweight=not crash)
        for proto in PROTOCOLS:
            cells += _cells("churn", seed, topo, tseed, fault, "sync",
                            proto, DEADLINE_S[proto])
    return cells


WORKLOADS = {w.name: w for w in (
    Workload("sync_settle",
             "cold settle then detect on sync: protocol kernels, "
             "refresh_from and the sync fast path; no daemon, snapshot "
             "or supervisor work", sync_settle),
    Workload("async_settle",
             "cold settle then detect under the independent and "
             "permutation daemons: daemon cover, coalescing, vector "
             "plans; almost no refresh_from", async_settle),
    Workload("warm_campaign",
             "supervised one-worker campaign of short fault cells "
             "restored from a warm cache filled in set-up: snapshot "
             "decode/restore, inject, short detects, dispatch",
             warm_campaign, warm=True),
    Workload("churn",
             "E15 churn cells: the only topology mutation "
             "(remove/add node, topology_changed, freelists); small n, "
             "many rounds, fixed per-call cost", churn),
)}
