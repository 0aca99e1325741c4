"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

They cover the self-time arithmetic, every output check (each must reject
a perturbed value), the references, the wrapping of a package, and a smoke
pass of every workload at reduced size that must leave src/ and tests/
untouched.
"""

import hashlib
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402
from spans import Recorder, install, self_times, summarize  # noqa: E402
from workloads import REPS, WHY, WORKLOADS, Op  # noqa: E402


# ---------------------------------------------------------------------------
# Spans and self time

def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap (as
    # threads can); a has child c [2, 3]; d [12, 13] is a second root.
    spans = [("root", 0.0, 10.0, -1), ("a", 1.0, 4.0, 0), ("b", 3.0, 6.0, 0),
             ("c", 2.0, 3.0, 1), ("d", 12.0, 13.0, -1)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0, 1.0]


def test_self_time_clips_children_to_parent():
    spans = [("p", 0.0, 2.0, -1), ("q", 1.5, 3.0, 0)]
    assert self_times(spans)[0] == 1.5


def test_recorder_links_parents_and_sums_self_time():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    rec = Recorder(clock=lambda: next(ticks))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(1) == 4
    doc = json.loads(json.dumps(rec.to_json()))
    summary = summarize(doc)
    # outer spans [0, 10]; inner spans [1, 3] and [4, 5]
    assert summary["outer"] == {"calls": 1, "s": 7.0, "total": 10.0}
    assert summary["inner"] == {"calls": 2, "s": 3.0, "total": 3.0}


def test_install_rebinds_imports_and_tables_and_skips_missing():
    def stream(seed, index=0):
        return seed + index

    pkg = types.ModuleType("fakepkg")
    rng = types.ModuleType("fakepkg.rng")
    rng.stream = stream
    cli = types.ModuleType("fakepkg.cli")
    cli.stream = stream
    cli.TABLE = {"s": stream}
    saved = {k: sys.modules.get(k) for k in ("fakepkg", "fakepkg.rng", "fakepkg.cli")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.rng": rng, "fakepkg.cli": cli})
    try:
        rec = Recorder()
        skipped = install(rec, "fakepkg")
        assert rng.stream is not stream and cli.stream is rng.stream
        assert cli.TABLE["s"] is rng.stream
        assert cli.stream(2, 3) == 5 and cli.TABLE["s"](1) == 1
        assert summarize(rec.to_json())["rng.stream"]["calls"] == 2
        assert "percolation.terminal_masks" in skipped
    finally:
        for k, v in saved.items():
            if v is None:
                sys.modules.pop(k, None)
            else:
                sys.modules[k] = v


# ---------------------------------------------------------------------------
# References

def test_birth_chain_two_sites_closed_form():
    # n = 2 from one site: the second joins at rate 1, so E|X_t| = 2 - e^{-t}
    for t in (0.3, 1.0, 2.5):
        assert abs(ref.birth_chain_moment(2, 1, t, 1) - (2.0 - math.exp(-t))) < 1e-13


def test_covariance_matches_quadrature():
    rng = np.random.default_rng(5)
    d = rng.random((4, 4)) * 0.3
    np.fill_diagonal(d, 0.0)
    T, panels = 0.7, 400
    s = np.linspace(0.0, T, 2 * panels + 1)
    vals = [ref.expm(x * d) @ ref.expm(x * d).T for x in s]
    w = np.ones(len(s))
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    quad = T / (6.0 * panels) * sum(wi * v for wi, v in zip(w, vals))
    assert np.abs(ref.covariance(d, T) - quad).max() < 1e-10
    assert abs(ref.covariance(np.zeros((2, 2)), T)[0, 0] - T) < 1e-15


# ---------------------------------------------------------------------------
# Output checks: each accepts a correct payload and rejects a perturbed one

def _records(values, times=(0.5, 1.0, 2.0)):
    return [{"t": t, "value": v} for t, v in zip(times, values)]


def test_check_exact_mean_field():
    times = (0.5, 1.0, 2.0)
    good = [ref.birth_chain_moment(10, 2, t, 2) for t in times]
    assert ref.check_exact_mean_field(_records(good), n=10, k0=2, times=times) == []
    bad = [good[0], good[1] + 1e-7, good[2]]
    assert ref.check_exact_mean_field(_records(bad), n=10, k0=2, times=times)
    assert ref.check_exact_mean_field(_records(good[:2]), n=10, k0=2, times=times)


def test_check_exact_directed():
    times = (0.5, 1.0, 2.0)
    assert ref.check_exact_directed(_records([1.4, 2.5, 6.0]), n=16, k0=1, times=times) == []
    assert ref.check_exact_directed(_records([1.4, 1.3, 6.0]), n=16, k0=1, times=times)
    assert ref.check_exact_directed(_records([0.99, 2.5, 6.0]), n=16, k0=1, times=times)
    ceiling = 2.0 * math.exp(4.0)
    assert ref.check_exact_directed(_records([1.4, 2.5, ceiling * 1.001]),
                                    n=16, k0=1, times=times)


def test_check_growth_bound():
    assert ref.check_growth_bound({"structural": 2.0e-5}, entropy=1.6e-7) == []
    assert ref.check_growth_bound({"structural": 1.0e-7}, entropy=1.6e-7)
    assert ref.check_growth_bound({"structural": float("nan")}, entropy=1.6e-7)
    assert ref.check_growth_bound({}, entropy=1.6e-7)


def _estimate(value, stderr, reps=1000):
    return [{"value": value, "stderr": stderr, "reps": reps}]


def test_check_mc_mean_field():
    want = ref.birth_chain_moment(8, 1, 1.0, 1)
    assert abs(want - 2.32934) < 1e-5
    kw = dict(n=8, k0=1, t=1.0, reps=1000)
    assert ref.check_mc_mean_field(_estimate(want + 0.01, 0.004), **kw) == []
    assert ref.check_mc_mean_field(_estimate(want + 0.02, 0.004), **kw)
    assert ref.check_mc_mean_field(_estimate(want, 0.004, reps=999), **kw)
    assert ref.check_mc_mean_field(_estimate(want, 0.0), **kw)


def test_check_mc_growth():
    kw = dict(k0=1, t=0.5, reps=1000)
    assert ref.check_mc_growth(_estimate(1.35, 0.002), **kw) == []
    assert ref.check_mc_growth(_estimate(0.999, 0.002), **kw)
    assert ref.check_mc_growth(_estimate(math.exp(0.5) + 0.01, 0.002), **kw)


def test_check_simulate():
    rng = np.random.default_rng(1)
    d = rng.random((3, 3)) * 0.3
    np.fill_diagonal(d, 0.0)
    oracle = ref.covariance(d, 0.5)
    good = [{"i": i, "j": j, "empirical": oracle[i, j] + 0.004, "stderr": 0.002}
            for i in range(3) for j in range(i, 3)]
    assert ref.check_simulate(good, oracle=oracle) == []
    bad = [dict(r) for r in good]
    bad[4]["empirical"] += 0.01
    assert ref.check_simulate(bad, oracle=oracle)
    assert ref.check_simulate(good[:-1], oracle=oracle)


def test_check_verify():
    assert ref.check_verify({"passed": True, "suites": []}) == []
    assert ref.check_verify({"passed": False, "suites": [{"suite": "bounds", "passed": False}]})
    assert ref.check_verify([])


# ---------------------------------------------------------------------------
# Runner and scheduler, with the child processes faked

class _Clock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


class _FakeRunner:
    """Runner stand-in: every op takes a fixed time on a fake clock."""

    def __init__(self, clock, costs):
        self.clock, self.costs, self.log = clock, costs, []

    def import_time(self):
        return self._take("import")

    def calibrate(self):
        return self._take("calib")


    def run(self, op):
        wall = self._take(op.name)
        return {"op": op.name, "metric": op.metric, "work": op.work,
                "wall_s": wall, "rss_mb": 10.0, "ok": True}

    def _take(self, name):
        self.clock.now += self.costs[name]
        self.log.append(name)
        return self.costs[name]


def _op(name, metric, work=0):
    return Op(name, (), metric, work, lambda doc: [])


def _schedule(monkeypatch, seconds, slowdown=1.0):
    clock = _Clock()
    monkeypatch.setattr(run, "time", clock)
    ops = [_op("big", "verify_s"), _op("own2", "exact_query_s")]
    rest = [m for m in END_TO_END if m.endswith("per_s")] + ["growth_bound_s"]
    probes = [_op(f"p{i}", m, 100) for i, m in enumerate(rest)]
    # calibrate.py as fast as on the reference machine, so times are unscaled
    costs = {"import": 0.2, "calib": run.REF_CAL_S, "big": 5.0, "own2": 1.0}
    costs |= {p.name: 0.5 for p in probes}
    runner = _FakeRunner(clock, {k: v * slowdown for k, v in costs.items()})
    metrics, samples = run._timed(runner, ops, probes, seconds, smoke=False)
    # time after the set-up imports, which come before the run's clock starts
    took = clock.now - run.SETUP_REPEATS * costs["import"] * slowdown
    return runner.log[run.SETUP_REPEATS:], took, metrics, samples


def test_timed_scales_times_by_the_calibration(monkeypatch):
    _, _, plain, _ = _schedule(monkeypatch, 30.0)
    _, _, slow, samples = _schedule(monkeypatch, 30.0, slowdown=2.0)
    assert samples["scale"] == 0.5
    for name, m in plain.items():
        assert slow[name]["value"] == pytest.approx(m["value"]), name


def test_timed_runs_every_op_once_even_with_no_time(monkeypatch):
    log, _, metrics, _ = _schedule(monkeypatch, 0.0)
    assert sorted(log) == ["big", "calib", "import", "own2", "p0", "p1", "p2", "p3", "p4"]
    assert set(metrics) == set(END_TO_END)


def test_timed_keeps_shares_and_stops_inside_the_run(monkeypatch):
    log, took, metrics, _ = _schedule(monkeypatch, 60.0)
    # shorter ops fill the time a 5 s op no longer fits in
    assert 60.0 - 0.5 < took <= 60.0
    costs = {"import": 0.2, "calib": run.REF_CAL_S, "big": 5.0, "own2": 1.0}
    spent = dict.fromkeys(run.SHARES, 0.0)
    for name in log:
        kind = name if name in ("import", "calib") else "probe" if name[0] == "p" else "own"
        spent[kind] += costs.get(name, 0.5)
    for kind, share in run.SHARES.items():
        assert abs(spent[kind] / sum(spent.values()) - share) < 0.1
    # the own ops alternate, so each has about as many samples as the other
    assert abs(log.count("big") - log.count("own2")) <= 1
    assert metrics["wall_s"]["value"] == 6.0
    assert metrics["mc_paths_per_s"]["value"] == 200.0
    assert metrics["exact_query_s"]["samples"] == log.count("own2")


def test_stale_payload_does_not_pass(tmp_path, monkeypatch):
    runner = run.Runner(ROOT, tmp_path)
    (tmp_path / "op.json").write_text('{"passed": true}')
    # the child exits 0 and writes nothing
    monkeypatch.setattr(run, "spawn", lambda argv, env, err: (0, 0.1, 10.0))
    sample = runner.run(Op("op", (), "verify_s", 0, ref.check_verify))
    assert not sample["ok"] and runner.failed == 1


# ---------------------------------------------------------------------------
# BENCHMARK.json and the harness agree

def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(WHY)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---------------------------------------------------------------------------
# Smoke runs through the real CLI

def _tree_digest(*dirs) -> str:
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_pass_leaves_sources_untouched(workload):
    before = _tree_digest("src", "tests")
    rc, result = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", "0", "--smoke")
    assert _tree_digest("src", "tests") == before
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_counts_repeat():
    runs = [_bench("--workload", "sampling", "--seed", "3", "--seconds", "0",
                   "--trace", "1", "--smoke") for _ in range(2)]
    for rc, result in runs:
        assert rc == 0 and result["correct"]
        assert set(result["metrics"]) == set(PER_LAYER)
    counts = [{k: v["value"] for k, v in r["metrics"].items() if PER_LAYER[k] in ("count", "B")}
              for _, r in runs]
    assert counts[0] == counts[1]
    # three sampling ops draw one stream per path, simulate one per sample
    assert counts[0]["rng.stream.calls"] == 4 * (REPS // 5)
    assert counts[0]["percolation.paths"] == 3 * (REPS // 5)


def test_traced_smoke_exact_counts():
    rc, result = _bench("--workload", "exact16", "--seed", "3", "--seconds", "0",
                        "--trace", "1", "--smoke")
    assert rc == 0 and result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # one curve per query time: 3 per exact op, twice, plus 1 in the bound
    assert m["percolation.expectation_curve.calls"] == 7
    assert m["matrix.C_of_v.calls"] == 2 ** 14 - 1
    assert m["percolation.states"] == 2 ** 14
    assert m["rng.stream.calls"] == 0 and m["sde.noise.s"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result = _bench("--workload", "battery", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert rc != 0 and result is None
