"""Campaign-cell benchmark: one workload, one seed, one run.

    python3 cellbench/run.py --workload sync_settle --seed 3 --seconds 20 --trace 0
    python3 cellbench/run.py --aa churn --runs 5 --seconds 20

A run builds the workload's ledger from ``--seed``, sets up ``SETUPS``
times (instance build; for ``warm_campaign`` also the warm-cache fill)
and reports the median set-up, then repeats whole ledger passes for
about ``--seconds`` and prints every end-to-end metric (``--trace 0``)
or every per-layer metric (``--trace 1``).  The last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it (prefixed ``#``) carry provenance, raw (un-normalised) values,
sample counts and the layer -> end-to-end metric map.

``--aa WORKLOAD`` is the A/A steadiness mode: two sets of ``--runs``
runs of the same code, then per metric the two medians, each set's
quartile spread and the gap, against the bounds in ``BENCHMARK.json``.
See ``cellbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: scratch space for warm caches (inside the checkout, git-ignored)
WORK = ROOT / ".cellbench"
#: set-ups per run: at least ``SETUPS``, more while they have taken
#: less than ``SETUP_BUDGET_S`` (short set-ups need more samples), at
#: most ``MAX_SETUPS``; ``setup_s`` is their median
SETUPS = 3
SETUP_BUDGET_S = 1.0
MAX_SETUPS = 25
#: cell_s_p90 needs at least ten cells beyond it
P90_MIN_CELLS = 100

END_TO_END = (("setup_s", "s"), ("cells_per_s", "1/s"),
              ("cell_s_p50", "s"), ("peak_rss_mb", "MB"))


def _load_program():
    """Import the program from ``src/`` and this package's modules;
    ``None`` with a message on stderr when the program is missing."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro.engine  # noqa: F401
    except ImportError as exc:
        print(f"cellbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    import checks
    import ledger
    import timing
    import spans
    return checks, ledger, timing, spans


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    """HEAD's sha read from ``.git`` (the benchmark may run in a plain
    export of the tree, where there is none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "seed": seed}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _deadlines(by_key: Dict[str, float]):
    """The supervisor's per-cell timeout, taken from the ledger."""
    from dataclasses import dataclass
    from repro.engine import SuperviseConfig

    @dataclass(frozen=True)
    class LedgerDeadlines(SuperviseConfig):
        def timeout_for(self, spec):
            return by_key[spec.key]
    return LedgerDeadlines(timeout=max(by_key.values()))


class Run:
    """Set-up, passes and checks of one workload run."""

    def __init__(self, mods, workload, seed: int, seconds: float,
                 tiny: bool) -> None:
        self.checks, self.ledger, self.timing, self.spans = mods
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.cells = workload.build(seed, tiny)
        self.clock = self.timing.HostClock()
        WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=WORK))
        self.cache_root: Optional[str] = None
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.fill_results = []
        self.first_pass = []
        self.tracer = None
        self.write_reference = False
        self.deadlines = _deadlines({c.spec.key: c.deadline_s
                                     for c in self.cells})

    def close(self) -> None:
        from repro.engine import set_warm_cache
        self.clock.stop()
        set_warm_cache(None)
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- cells ---------------------------------------------------------
    def run_cell(self, cell, cell_span: bool = False):
        """``(result, span)``; a cell past its deadline or raising ends
        as a failed result instead of stalling or aborting the run."""
        from repro.engine import ScenarioResult, run_scenario
        tr = self.tracer if cell_span else None

        def call():
            if tr is None:
                return run_scenario(cell.spec)
            with tr.span("engine.cell"):
                return run_scenario(cell.spec)
        try:
            result, span, timed_out = self.clock.measure(call,
                                                         cell.deadline_s)
        except Exception as exc:  # noqa: BLE001 - counted, not fatal
            span = self.timing.Span(0.0, 1.0)
            return ScenarioResult(spec=cell.spec, status="error",
                                  error=f"{type(exc).__name__}: {exc}",
                                  error_type=type(exc).__name__), span
        if timed_out:
            result = ScenarioResult(
                spec=cell.spec, status="timeout", error_type="timeout",
                error=f"exceeded its {cell.deadline_s:.1f}s deadline")
        return result, span

    def _count(self, results) -> None:
        self.attempted += len(results)
        self.failed += sum(1 for r in results if r.violation is not None)

    # -- set-up --------------------------------------------------------
    def setup_once(self):
        """Build every instance through the engine (cold instance
        cache) and, for the warm workload, fill a fresh warm cache:
        every cache-using cell runs once on one storage tier, settling
        cold and storing its snapshot (or restoring one a previous cell
        of the same settle stored)."""
        from dataclasses import replace
        from repro.engine import (WarmCache, axis, clear_instance_cache,
                                  run_scenario, set_warm_cache)
        mark = self.clock.mark()
        clear_instance_cache()
        seen = set()
        for cell in self.cells:
            spec = cell.spec
            key = (str(spec.topology), spec.topology_seed)
            if key not in seen:
                seen.add(key)
                run_scenario(replace(spec, fault=axis("none"),
                                     completeness_rounds=1,
                                     settle_rounds=None))
            if spec.fault.kind == "label_swap":
                run_scenario(replace(spec, max_rounds=1))
        fill = []
        if self.workload.warm:
            if self.cache_root is not None:
                shutil.rmtree(self.cache_root, ignore_errors=True)
            self.cache_root = tempfile.mkdtemp(dir=self.workdir)
            set_warm_cache(WarmCache(self.cache_root))
            try:
                for cell in self.cells:
                    if cell.spec.fault.kind != "label_swap" and \
                            cell.spec.schedule.get("storage") == "columnar":
                        fill.append(self.run_cell(cell)[0])
            finally:
                set_warm_cache(None)
        self.fill_results = fill
        return self.clock.since(mark)

    # -- passes --------------------------------------------------------
    def in_process_pass(self, cell_span: bool = False):
        out = []
        for cell in self.cells:
            # every cell starts from a collected heap (untimed), so when
            # earlier cells' cyclic garbage is freed moves neither the
            # peak RSS nor the cell times
            gc.collect()
            out.append(self.run_cell(cell, cell_span))
        results = [r for r, _ in out]
        return results, [s.raw for _, s in out], [s.norm for _, s in out]

    def warm_inline_pass(self, cell_span: bool = False):
        from repro.engine import WarmCache, set_warm_cache
        previous = set_warm_cache(WarmCache(self.cache_root))
        try:
            return self.in_process_pass(cell_span)
        finally:
            set_warm_cache(previous)

    def supervised_pass(self):
        """One pass as a supervised campaign: this process supervises
        one worker (two busy processes at most), which restores each
        cell from the warm cache."""
        from repro.engine import run_supervised
        gc.collect()    # the worker forks from this heap
        clock = self.clock
        between = {}
        last = [clock.mark()]

        def landed(i, result):
            # one worker serves one cell at a time: cell i ran between
            # the previous result and this one
            now = clock.mark()
            between[i] = clock.between(last[0], now)
            last[0] = now
        first = last[0]
        results = run_supervised(
            [c.spec for c in self.cells], 1, config=self.deadlines,
            warm_root=self.cache_root, on_result=landed)
        end = clock.mark()
        # a cell's time is its latency as the campaign sees it (dispatch
        # to result), timed and normalised by this process.  The probe
        # runs here while the worker computes, so it is not subtracted.
        raw = [between[i].wall for i in range(len(results))]
        norm = [between[i].wall * between[i].speed
                for i in range(len(results))]
        wall = end[0] - first[0]
        return results, raw, norm, (wall, wall * clock.between(
            first, end).speed)

    def timed_passes(self, budget: float, supervised: bool,
                     cell_span: bool = False):
        """Whole passes until ``budget`` seconds are spent (at least
        one; another starts only if half of it still fits)."""
        passes = []
        start = time.perf_counter()
        while True:
            if supervised:
                results, raw, norm, wall = self.supervised_pass()
            else:
                run = self.warm_inline_pass if self.workload.warm \
                    else self.in_process_pass
                results, raw, norm = run(cell_span)
                wall = (sum(raw), sum(norm))
            passes.append((results, raw, norm, wall))
            self._count(results)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) / 2 >= budget:
                return passes

    # -- checks --------------------------------------------------------
    def check_passes(self, passes, what: str) -> None:
        first = self.first_pass = passes[0][0]
        self.problems += self.checks.cross_storage(first)
        for results, *_ in passes[1:]:
            self.problems += self.checks.same_cells(first, results, what)
        if self.fill_results:
            by_key = {r.spec.key: r for r in first}
            self.problems += self.checks.same_cells(
                self.fill_results,
                [by_key[r.spec.key] for r in self.fill_results],
                "warm restore vs cold fill")
        if self.seed == self.ledger.DEFAULT_SEED and not self.tiny \
                and not self.write_reference:
            self.problems += self.checks.against_reference(
                self.workload.name, first)

    # -- end-to-end ----------------------------------------------------
    def measure(self) -> Tuple[Dict[str, float], Dict[str, float],
                               Dict[str, str]]:
        """``(normalised metrics, raw metrics, sample notes)``."""
        setups = []
        while len(setups) < SETUPS or (
                len(setups) < MAX_SETUPS and
                sum(s.raw for s in setups) < SETUP_BUDGET_S):
            setups.append(self.setup_once())
            gc.collect()
        passes = self.timed_passes(self.seconds, self.workload.warm)
        self.check_passes(passes, "pass")
        cells = sum(len(p[0]) for p in passes)
        raw_cells = [t for p in passes for t in p[1]]
        norm_cells = [t for p in passes for t in p[2]]
        raw_wall = sum(p[3][0] for p in passes)
        norm_wall = sum(p[3][1] for p in passes)
        rss = peak_rss_mb()
        norm = {"setup_s": statistics.median(s.norm for s in setups),
                "cells_per_s": cells / norm_wall,
                "cell_s_p50": statistics.median(norm_cells),
                "peak_rss_mb": rss}
        raw = {"setup_s": statistics.median(s.raw for s in setups),
               "cells_per_s": cells / raw_wall,
               "cell_s_p50": statistics.median(raw_cells),
               "peak_rss_mb": rss}
        notes = {"setup_s": f"median of {len(setups)} set-ups",
                 "cells_per_s": f"{cells} cells in {len(passes)} passes",
                 "cell_s_p50": f"n={cells} cells",
                 "peak_rss_mb": "this process + its largest child"}
        if cells >= P90_MIN_CELLS:
            norm["cell_s_p90"] = self.timing.percentile(norm_cells, 90)
            raw["cell_s_p90"] = self.timing.percentile(raw_cells, 90)
            notes["cell_s_p90"] = f"n={cells} cells"
        else:
            notes["cell_s_p90"] = (f"not reported: {cells} cells < "
                                   f"{P90_MIN_CELLS}")
        return norm, raw, notes

    # -- per-layer -----------------------------------------------------
    def layers(self) -> Dict[str, float]:
        """Untraced passes for half the time, traced passes for the
        other half, one traced set-up."""
        tr_mod = self.spans
        setup_tr = tr_mod.Tracer()
        with tr_mod.installed(setup_tr):
            self.setup_once()
        half = self.seconds / 2
        plain = self.timed_passes(half, self.workload.warm)
        supervise = {}
        if self.workload.warm:
            supervise = {
                "overhead_s": statistics.fmean(
                    p[3][0] - sum(r.wall_time for r in p[0])
                    for p in plain),
                "attempts": statistics.fmean(
                    sum(r.attempts for r in p[0]) for p in plain),
                "worker_rss_mb": resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}
        self.tracer = tr_mod.Tracer()
        with tr_mod.installed(self.tracer):
            traced = self.timed_passes(half, False, cell_span=True)
        self.check_passes(plain, "untraced pass")
        self.problems += self.checks.same_cells(plain[0][0], traced[0][0],
                                               "traced vs untraced")
        per_plain = sum(sum(p[1]) for p in plain) / len(plain)
        per_traced = sum(sum(p[1]) for p in traced) / len(traced)
        groups: Dict[Tuple[str, str], List[float]] = {}
        for results, raw, _, _ in plain:
            for r, t in zip(results, raw):
                key = (r.spec.schedule.get("storage"), r.spec.schedule.kind)
                groups.setdefault(key, []).append(t)
        return tr_mod.layer_metrics(
            setup_tr, self.tracer, len(traced),
            [r for p in traced for r in p[0]],
            {k: statistics.fmean(v) for k, v in groups.items()},
            supervise, per_traced / per_plain)


def _fmt(value: float) -> str:
    return repr(float(value))


def run_once(mods, args) -> int:
    checks, ledger, timing, spans = mods
    workload = ledger.WORKLOADS[args.workload]
    print("# provenance " + json.dumps(provenance(args.seed)))
    print(f"# workload {workload.name}: {workload.why}")
    run = Run(mods, workload, args.seed, args.seconds, args.tiny)
    run.write_reference = args.write_reference
    try:
        timing.cap_address_space()
        run.clock.start()
        if args.trace:
            values = run.layers()
            metrics = {}
            for name, unit, _, layer, target in spans.PER_LAYER:
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"# layer {name} = {_fmt(values[name])} {unit}  "
                      f"[{layer}] -> {target}")
        else:
            norm, raw, notes = run.measure()
            metrics = {name: {"value": norm[name], "unit": unit}
                       for name, unit in END_TO_END}
            for name, unit in END_TO_END + (("cell_s_p90", "s"),):
                if name in norm:
                    print(f"# metric {name} = {_fmt(norm[name])} {unit} "
                          f"(raw {_fmt(raw[name])}; {notes[name]})")
                else:
                    print(f"# metric {name}: {notes[name]}")
            print("# raw " + json.dumps(raw))
        if args.write_reference:
            checks.write_reference(workload.name, run.first_pass)
    finally:
        run.close()
    for problem in run.problems[:50]:
        print("# MISMATCH " + problem)
    print(f"# cells attempted={run.attempted} failed={run.failed}")
    print(json.dumps({"correct": not run.problems,
                      "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# A/A steadiness mode
# ---------------------------------------------------------------------------

def _one(workload: str, seed: int, seconds: float,
         tiny: bool) -> Tuple[Dict[str, float], Dict[str, float], bool]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run failed ({proc.returncode}): "
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw = next(json.loads(line[len("# raw "):]) for line in lines
               if line.startswith("# raw "))
    norm = {k: v["value"] for k, v in result["metrics"].items()}
    return norm, raw, bool(result["correct"]) and result["failed"] == 0


def steadiness(workload: str, runs: int, seconds: float,
               tiny: bool, spread_of) -> int:
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    sets = []
    for s in range(2):
        rows = []
        for i in range(runs):
            seed = 1 + s * runs + i
            rows.append(_one(workload, seed, seconds, tiny))
            print(f"# set {'AB'[s]} seed {seed}: "
                  + json.dumps(rows[-1][0]), flush=True)
        sets.append(rows)
    ok = all(r[2] for rows in sets for r in rows)
    print(f"A/A {workload}: 2 x {runs} runs of {seconds:g}s; all correct "
          f"and failure-free: {ok}")
    print(f"{'metric':<13} {'median A':>11} {'median B':>11} "
          f"{'spread A':>8} {'spread B':>8} {'raw A':>6} {'raw B':>6} "
          f"{'gap':>7} {'bound':>5}  verdict")
    for name, (bound, better) in bounds.items():
        a = [r[0][name] for r in sets[0]]
        b = [r[0][name] for r in sets[1]]
        ra = [r[1][name] for r in sets[0]]
        rb = [r[1][name] for r in sets[1]]
        ma, mb = statistics.median(a), statistics.median(b)
        sa, sb = spread_of(a), spread_of(b)
        gap = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
        steady = name == "setup_s" or max(sa, sb) <= bound
        within = gap <= bound
        target = max(sa, sb) < bound / 3 or name == "setup_s"
        verdict = ("pass" if steady and within else "FAIL") + \
            ("" if target else " (spread above bound/3)")
        ok = ok and steady and within
        print(f"{name:<13} {ma:>11.5g} {mb:>11.5g} {sa:>8.3f} {sb:>8.3f} "
              f"{spread_of(ra):>6.3f} {spread_of(rb):>6.3f} {gap:>+7.3f} "
              f"{bound:>5.2f}  {verdict}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy instances (self-tests)")
    parser.add_argument("--aa", metavar="WORKLOAD",
                        help="A/A steadiness mode for one workload")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per A/A set")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the kept reference from this run's "
                             "first pass (default seed only)")
    args = parser.parse_args(argv)
    mods = _load_program()
    if mods is None:
        return 2
    if args.aa:
        return steadiness(args.aa, args.runs, args.seconds, args.tiny,
                          mods[2].quartile_spread)
    if args.workload not in mods[1].WORKLOADS:
        parser.error(f"--workload must be one of "
                     f"{sorted(mods[1].WORKLOADS)}")
    if args.write_reference and (args.seed != mods[1].DEFAULT_SEED
                                 or args.tiny or args.trace):
        parser.error("--write-reference needs the default seed, "
                     "--trace 0 and full-size instances")
    return run_once(mods, args)


if __name__ == "__main__":
    sys.exit(main())
