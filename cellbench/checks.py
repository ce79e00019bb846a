"""Correctness checks on every timed and traced cell.

A cell's *deterministic fields* are the record fields that depend only
on its semantic spec: verdicts, round counts, detection distance,
memory bits, activations and the churn per-event metrics.  They must be
identical

* across the ``columnar`` and ``numpy`` cells of a group (storage is an
  implementation parameter),
* across passes of one run, and between traced and untraced passes,
* and, at the default seed, equal to the kept ``reference.json``.

Wall times, cache outcomes and the per-tier row accounting are
implementation fields and are never compared.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

from repro.engine import ScenarioResult, scenario_record

REFERENCE = Path(__file__).resolve().parent / "reference.json"

DET_FIELDS = (
    "status", "n", "expected_detection", "detected", "premature_alarm",
    "violation", "settle_rounds", "rounds_run", "rounds_to_detection",
    "detection_distance", "max_memory_bits", "total_memory_bits",
    "alarm_count", "alarm_reasons", "faulty_nodes", "activations",
    "churn_events", "rounds_to_redetect", "rounds_to_quiesce",
    "alarms_per_event", "availability",
)


def fields(result: ScenarioResult) -> Dict[str, object]:
    rec = scenario_record(result)
    return {k: rec[k] for k in DET_FIELDS}


def group_of(result: ScenarioResult) -> str:
    """Cells differing only in storage share a group."""
    return result.spec.semantic_key


def _diff(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    return [f"{k}: {a.get(k)!r} != {b.get(k)!r}"
            for k in DET_FIELDS if a.get(k) != b.get(k)]


def cross_storage(results: Iterable[ScenarioResult]) -> List[str]:
    """Mismatches between the storage tiers of each group."""
    seen: Dict[str, Dict[str, object]] = {}
    problems: List[str] = []
    for r in results:
        key = group_of(r)
        f = fields(r)
        if key not in seen:
            seen[key] = f
        else:
            problems += [f"{r.spec.key}: {d}" for d in _diff(seen[key], f)]
    return problems


def same_cells(first: Sequence[ScenarioResult],
               second: Sequence[ScenarioResult], what: str) -> List[str]:
    """Mismatches between two executions of the same cell list."""
    problems: List[str] = []
    for a, b in zip(first, second):
        problems += [f"{what} {a.spec.key}: {d}"
                     for d in _diff(fields(a), fields(b))]
    return problems


def against_reference(workload: str,
                      results: Iterable[ScenarioResult]) -> List[str]:
    """Mismatches against the kept reference (default seed only)."""
    ref = json.loads(REFERENCE.read_text()).get(workload) \
        if REFERENCE.exists() else None
    if not ref:
        return [f"no kept reference for {workload}"]
    problems: List[str] = []
    for r in results:
        want = ref.get(group_of(r))
        if want is None:
            problems.append(f"{r.spec.key}: not in the kept reference")
            continue
        got = json.loads(json.dumps(fields(r)))
        problems += [f"reference {r.spec.key}: {d}"
                     for d in _diff(want, got)]
    return problems


def write_reference(workload: str,
                    results: Iterable[ScenarioResult]) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[workload] = {group_of(r): fields(r) for r in results}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
