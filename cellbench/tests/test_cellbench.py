"""Self-tests of the benchmark (tiny instances, a few seconds each).

    python3 -m pytest -q cellbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(workload: str, trace: int) -> list:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=True)
    return proc.stdout.strip().splitlines()


@pytest.fixture(scope="module")
def untraced():
    return _run_tiny("sync_settle", 0)


@pytest.fixture(scope="module")
def traced():
    return _run_tiny("sync_settle", 1)


def test_benchmark_json_matches_the_runner(untraced, traced):
    assert [w["name"] for w in SPEC["workloads"]] == list(ledger.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == ledger.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [row[:3] for row in spans.PER_LAYER]

    result = json.loads(untraced[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    result = json.loads(traced[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_each_metric_is_printed_with_unit_and_sample_count(untraced):
    lines = [line for line in untraced if line.startswith("# metric ")]
    for name, unit in run.END_TO_END:
        line = next(line for line in lines
                    if line.startswith(f"# metric {name} "))
        assert f" {unit} (raw " in line
    assert any(line.startswith("# metric cell_s_p90") for line in lines)
    assert any(line.startswith("# provenance ") for line in untraced)


def test_every_layer_metric_names_its_layer_and_target(traced):
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for name, unit, better, layer, target in spans.PER_LAYER:
        assert layer and target, name
        assert better in ("lower", "higher")
        assert any(m in target for m in e2e) or target.startswith("none"), \
            name
        assert any(line.startswith(f"# layer {name} = ") and
                   f"[{layer}] -> {target}" in line for line in traced)


def test_self_time_subtracts_direct_children():
    tr = spans.Tracer()
    outer = tr.open("a")
    inner = tr.open("b")
    leaf = tr.open("c")
    tr.close(leaf)
    tr.close(inner)
    sibling = tr.open("b")
    tr.close(sibling)
    tr.close(outer)
    # pin the clock readings: a=[0,10], b=[2,5] with c=[3,4], b=[6,9]
    for idx, (s, e) in {outer: (0, 10), inner: (2, 5), leaf: (3, 4),
                        sibling: (6, 9)}.items():
        tr.start[idx], tr.end[idx] = s, e
    tot = tr.totals()
    assert tot["a"] == (10.0, 4.0, 1)
    assert tot["b"] == (6.0, 5.0, 2)
    assert tot["c"] == (1.0, 1.0, 1)


def test_span_closed_by_an_exception_unwinds_its_children():
    tr = spans.Tracer()
    outer = tr.open("a")
    tr.open("b")            # never closed: an exception unwound it
    tr.close(outer)
    later = tr.open("c")
    assert tr.parent[later] == -1


def test_a_hung_cell_ends_as_a_counted_timeout(monkeypatch):
    import repro.engine
    from repro.labels.wellforming import sorted_levels

    # the known program defect: a negative J-mask never terminates
    monkeypatch.setattr(repro.engine, "run_scenario",
                        lambda spec: sorted_levels(-3))
    mods = run._load_program()
    job = run.Run(mods, ledger.WORKLOADS["sync_settle"], 3, 1.0, True)
    cell = ledger.Cell(job.cells[0].spec, 0.2)
    try:
        job.clock.start()
        began = time.perf_counter()
        result, span = job.run_cell(cell)
        assert time.perf_counter() - began < 5.0
    finally:
        job.close()
    assert result.status == "timeout" and result.violation == "timeout"
    job._count([result])
    assert (job.attempted, job.failed) == (1, 1)


def test_supervised_cells_get_their_ledger_deadline():
    cells = ledger.warm_campaign(3, tiny=True)
    config = run._deadlines({c.spec.key: c.deadline_s for c in cells})
    for c in cells:
        assert config.timeout_for(c.spec) == c.deadline_s


def test_ledgers_are_seeded_and_pair_the_storage_tiers():
    for name, workload in ledger.WORKLOADS.items():
        a = workload.build(5, False)
        assert a == workload.build(5, False), name
        assert [c.spec.seed for c in a] != \
            [c.spec.seed for c in workload.build(6, False)], name
        groups = {}
        for c in a:
            groups.setdefault(c.spec.semantic_key, []).append(
                c.spec.schedule.get("storage"))
        assert all(sorted(v) == ["columnar", "numpy"]
                   for v in groups.values()), name


def test_quartile_spread_matches_the_acceptance_rule():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert timing.quartile_spread(values) == \
        (q3 - q1) / statistics.median(values)


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "cellbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (bare / "cellbench" / f.name).write_text(f.read_text())
    (bare / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "cellbench/run.py", "--workload", "churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
