"""chaoscope benchmark: seeded workloads through the public CLI, outputs checked.

    python3 perfbench/run.py --workload exact16|sampling|battery|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a chaoscope checkout; the program is imported from
`src/` there.  Every op is a fresh `python -m chaoscope.cli ...` process, one
at a time (a closed loop with one client), with BLAS/OpenMP threads pinned
to 1, `--threads 1` on sampling ops and CHAOSCOPE_THREADS unset.  Inputs are
generated from the seed (inputs.py); each op's `--out` payload is checked
against an independent reference (reference.py).

--trace 0 runs ops until S seconds have gone: the workload's own ops, the
other workloads' ops at reduced size (probes, so every end-to-end metric has
a value on every workload), timed imports and calibrate.py, interleaved by
time share; times are scaled to the reference machine by calibrate.py.
--trace 1 runs one plain pass and one traced pass (bootstrap.py) and prints
the per-layer metrics.  --smoke runs every op at reduced size.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
output check passed, 1 when one failed, 2 on a usage or setup error.
Results, with the environment record, go to .perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from inputs import make_inputs
from spans import summarize
from workloads import WHY, WORKLOADS

HERE = Path(__file__).resolve().parent
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1"}
SETUP_REPEATS = 3     # fresh imports timed before the first op (more follow)
SHARES = {"own": 0.6, "probe": 0.25, "import": 0.05, "calib": 0.1}  # of a run's time
REF_CAL_S = 0.33      # calibrate.py's mean wall time on the reference machine
OP_TIMEOUT_S = 60.0   # the longest op, verify, takes about 6 s

END_TO_END = {  # name -> unit
    "setup_s": "s", "wall_s": "s", "exact_query_s": "s", "growth_bound_s": "s",
    "mc_paths_per_s": "1/s", "mc_sparse_paths_per_s": "1/s",
    "fpp_paths_per_s": "1/s", "sde_samples_per_s": "1/s", "verify_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit; ".calls" and ".s" read the span of that name
    "rng.stream.calls": "count", "rng.stream.s": "s",
    "rng.run_chunked.chunks": "count", "rng.run_chunked.s": "s",
    "rng.speedup_2t": "ratio",
    "percolation.terminal_masks.gillespie.s": "s",
    "percolation.terminal_masks.fpp.s": "s",
    "percolation.paths": "count", "percolation.jump_events": "count",
    "percolation.us_per_event": "us",
    "percolation.expectation_curve.calls": "count",
    "percolation.expectation_curve.s": "s",
    "percolation.kernel_steps": "count", "percolation.kernel_step_us": "us",
    "percolation.states": "count",
    "percolation.functional_table.size2.s": "s",
    "percolation.functional_table.C.s": "s",
    "percolation.generator_apply.calls": "count",
    "percolation.generator_apply.s": "s",
    "percolation.expectation_bound_all.s": "s",
    "linalg.expm_action.calls": "count", "linalg.expm_action.s": "s",
    "linalg.simpson_adaptive.calls": "count", "linalg.simpson_adaptive.s": "s",
    "linalg.simpson.evals": "count",
    "linalg.op_norm.calls": "count", "linalg.op_norm.s": "s",
    "linalg.poisson_truncation.kmax": "count",
    "gaussian.sigma_T.calls": "count", "gaussian.sigma_T.s": "s",
    "gaussian.series_order": "count", "gaussian.sigma_T_quadrature.s": "s",
    "gaussian.d_T.s": "s", "gaussian.d_T_quadrature.s": "s",
    "gaussian.avg_entropy_sandwich.s": "s", "gaussian.subset_tables.s": "s",
    "bounds.percolation_entropy_bound.s": "s",
    "bounds.percolation_entropy_bound_all.s": "s", "bounds.structural.s": "s",
    "sde.simulate_particles.s": "s", "sde.noise.s": "s", "sde.step.s": "s",
    "sde.noise_bytes_computed": "B",
    "matrix.C_of_v.calls": "count", "matrix.C_of_v.s": "s",
    "matrix.load_matrix.s": "s",
    "verify.generator_suite.s": "s", "verify.expectations_suite.s": "s",
    "verify.gaussian_suite.s": "s", "verify.bounds_suite.s": "s",
    "cli.self_s": "s", "cli.process_s": "s", "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Processes

def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CHAOSCOPE_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env.update(PINNED)
    env["PYTHONPATH"] = str(root / "src")
    # Ops import from a warm bytecode cache, as an installed package does.
    # The cache lives under .perfbench/, so src/ is never written.
    env["PYTHONPYCACHEPREFIX"] = str(root / ".perfbench" / "pycache")
    return env


def spawn(argv: list[str], env: dict, err_path: Path) -> tuple[int, float, float]:
    """Run argv to completion; (exit code, wall seconds, peak RSS in MB)."""
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


class Runner:
    """Runs ops for one workload run and keeps every sample."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = child_env(root)
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def import_time(self) -> float:
        return self._bare([sys.executable, "-c", "import chaoscope.cli"], "import")

    def calibrate(self) -> float:
        return self._bare([sys.executable, str(HERE / "calibrate.py")], "calibrate")

    def _bare(self, argv: list[str], tag: str) -> float:
        err = self.workdir / f"{tag}.err"
        rc, wall, _ = spawn(argv, self.env, err)
        if rc != 0:
            raise SetupError(f"{tag} failed: " + err.read_text()[-500:])
        return wall

    def run(self, op, trace_file: Path | None = None) -> dict:
        out = self.workdir / f"{op.name}.json"
        err = self.workdir / f"{op.name}.err"
        if trace_file is None:
            argv = [sys.executable, "-m", "chaoscope.cli"]
        else:
            argv = [sys.executable, str(HERE / "bootstrap.py"), str(trace_file)]
        out.unlink(missing_ok=True)  # a child that writes nothing must fail
        rc, wall, rss = spawn(argv + list(op.argv) + ["--out", str(out)], self.env, err)
        problems = [f"exit code {rc}: {err.read_text()[-500:]}"] if rc != 0 else []
        if rc == 0:
            try:
                problems += op.check(json.loads(out.read_text()))
            except (OSError, ValueError, KeyError, TypeError, IndexError,
                    AttributeError) as exc:
                problems.append(f"unreadable payload: {exc!r}")
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{op.name}: {p}" for p in problems]
        return {"op": op.name, "metric": op.metric, "work": op.work,
                "wall_s": wall, "rss_mb": rss, "ok": not problems}


# ---------------------------------------------------------------------------
# Environment record

def _cpu() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return {"model": model, "caches_per_instance": caches}


def _commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode())
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": _cpu(), "python": platform.python_version(),
            "numpy": np.__version__, "pinned_threads": PINNED,
            "chaoscope_threads_env": "unset", "git_commit": _commit(root),
            "source_sha256": src.hexdigest(), "workload_seed": seed}


# ---------------------------------------------------------------------------
# One workload run

def end_to_end(setup: list[float], own: list[dict], probes: list[dict],
               scale: float) -> dict:
    """Every end-to-end metric as {"value", "unit", "samples"}; times are
    multiplied by `scale`, rates divided by it.

    An op's value is the mean of its samples, not the median: an op's wall
    time takes one of two values, as the host's speed does, and with four or
    five samples a run the median jumps between them while the mean follows
    the share of each.  A metric that two ops feed (exact_query_s) is the
    mean of the two ops' means.  setup_s, with a dozen or more samples, is
    their median."""
    def means(samples):  # op name -> mean scaled value
        by_op: dict[str, list[float]] = {}
        for s in samples:
            wall = s["wall_s"] * scale
            by_op.setdefault(s["op"], []).append(s["work"] / wall if s["work"] else wall)
        return {op: statistics.fmean(v) for op, v in by_op.items()}

    out = {"setup_s": {"value": statistics.median(setup) * scale, "unit": "s",
                       "samples": len(setup)}}
    for name in END_TO_END:
        if name not in out and name not in ("wall_s", "peak_rss_mb"):
            # the workload's own ops where it has them, else the probes
            fed = ([s for s in own if s["metric"] == name]
                   or [s for s in probes if s["metric"] == name])
            out[name] = {"value": statistics.fmean(means(fed).values()),
                         "unit": END_TO_END[name], "samples": len(fed)}
    # one pass of the workload's ops, as the sum of each op's mean
    out["wall_s"] = {"value": sum(means([dict(s, work=0) for s in own]).values()),
                     "unit": "s", "samples": len(own)}
    out["peak_rss_mb"] = {"value": max(s["rss_mb"] for s in own), "unit": "MB",
                          "samples": len(own)}
    return {name: out[name] for name in END_TO_END}


def per_layer(docs: list[dict], plain: list[dict], traced: list[dict],
              speedup: float) -> dict:
    """Every per-layer metric from the traced pass's span files."""
    spans: dict[str, dict] = {}
    counts: dict[str, float] = {}
    for doc in docs:
        for name, row in summarize(doc).items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "total": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, val in doc["counts"].items():
            counts[name] = counts.get(name, 0.0) + val
        for name, val in doc["maxima"].items():
            counts[name] = max(counts.get(name, val), val)

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    events = counts.get("percolation.jump_events", 0)
    steps = counts.get("percolation.kernel_steps", 0)
    sampler_s = (span("percolation.terminal_masks.gillespie", "s")
                 + span("percolation.terminal_masks.fpp", "s"))
    derived = {
        "rng.speedup_2t": speedup,
        "percolation.us_per_event": 1e6 * sampler_s / events if events else 0.0,
        "percolation.kernel_step_us":
            1e6 * span("percolation.expectation_curve", "s") / steps if steps else 0.0,
        "cli.self_s": span("cli.console_main", "s"),
        "cli.process_s": sum(s["wall_s"] for s in traced) - span("cli.console_main", "total"),
        "trace.overhead_s": sum(s["wall_s"] for s in traced) - sum(s["wall_s"] for s in plain),
    }
    out = {}
    for name, unit in PER_LAYER.items():
        if name in derived:
            val = derived[name]
        elif name.endswith(".calls"):
            val = span(name[:-len(".calls")], "calls")
        elif name.endswith(".s"):
            val = span(name[:-len(".s")], "s")
        else:
            val = counts.get(name, 0)
        out[name] = {"value": float(val), "unit": unit, "samples": 1}
    return out


def _traced(runner: Runner, ops: list) -> tuple[dict, dict]:
    """One plain pass, one traced pass and, where the workload has it, the
    mean-field 8 Gillespie op at --threads 2."""
    plain = [runner.run(op) for op in ops]
    traced, docs = [], []
    for op in ops:
        trace_file = runner.workdir / f"{op.name}.trace.json"
        traced.append(runner.run(op, trace_file))
        if trace_file.exists():
            docs.append(json.loads(trace_file.read_text()))
    speedup = 0.0
    for op, base in zip(ops, plain):
        if op.name == "mc_mean_field":
            at = op.argv.index("--threads") + 1
            two = replace(op, name="mc_mean_field_2t",
                          argv=op.argv[:at] + ("2",) + op.argv[at + 1:])
            speedup = base["wall_s"] / runner.run(two)["wall_s"]
    return per_layer(docs, plain, traced, speedup), {"plain": plain, "traced": traced}


def _timed(runner: Runner, ops: list, probe_ops: list, seconds: float,
           smoke: bool) -> tuple[dict, dict]:
    """Op by op until `seconds` have gone.  Four queues, the workload's own
    ops, the probes, timed imports and calibrate.py, are each cycled in
    order; the next op comes from the queue furthest below its share of the
    time spent so far (SHARES), so every kind of sample is spread over the
    whole run.  Every op and probe runs at least once.  After that an op
    runs only if, by its last wall time, it ends within `seconds`; the run
    ends when the next op of no queue does.

    Times are then scaled to the reference machine by REF_CAL_S over the
    run's mean calibrate.py time.  The mean, not the median: the host runs
    at two speeds in turn, and the mean follows the share of time spent at
    each."""
    setup = [runner.import_time() for _ in range(1 if smoke else SETUP_REPEATS)]
    own, probes, cal = [], [], []
    queues = {"own": ops, "probe": probe_ops, "import": ["import"], "calib": ["calib"]}
    bare = {"import": (runner.import_time, setup), "calib": (runner.calibrate, cal)}
    spent = dict.fromkeys(queues, 0.0)
    turns = dict.fromkeys(queues, 0)
    last: dict[str, float] = {}
    start = time.perf_counter()
    while True:
        total = sum(spent.values())
        left = seconds - (time.perf_counter() - start)
        nxt = {k: q[turns[k] % len(q)] for k, q in queues.items() if q}
        fits = [k for k in sorted(nxt, key=lambda k: spent[k] - SHARES[k] * total)
                if turns[k] < len(queues[k]) or last[_name(nxt[k])] <= left]
        if not fits:
            break
        kind, op = fits[0], nxt[fits[0]]
        if kind in bare:
            timer, into = bare[kind]
            wall = timer()
            into.append(wall)
        else:
            sample = runner.run(op)
            (own if kind == "own" else probes).append(sample)
            wall = sample["wall_s"]
        last[_name(op)] = wall
        spent[kind] += wall
        turns[kind] += 1
    scale = REF_CAL_S / statistics.fmean(cal)
    return end_to_end(setup, own, probes, scale), {
        "setup_s": setup, "calibrate_s": cal, "scale": scale, "own": own,
        "probes": probes}


def _name(op) -> str:
    return op if isinstance(op, str) else op.name


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> dict:
    workdir = root / ".perfbench" / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = make_inputs(seed, workdir)
        runner = Runner(root, workdir)
        ops = WORKLOADS[workload](inputs, seed, small=smoke)
        record = {"workload": workload, "why": WHY[workload], "seed": seed,
                  "trace": trace, "smoke": smoke,
                  "inputs": {k: v[2] for k, v in inputs.items()},
                  "environment": environment(root, seed)}
        runner.import_time()  # fills the bytecode cache; not timed
        if trace:
            metrics, samples = _traced(runner, ops)
        else:
            probe_ops = [op for name, build in WORKLOADS.items() if name != workload
                         for op in build(inputs, seed, small=True)]
            metrics, samples = _timed(runner, ops, probe_ops, seconds, smoke)
        record.update(samples=samples, attempted=runner.attempted, failed=runner.failed,
                      failures=runner.failures, metrics=metrics)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------

def report(rec: dict):
    """Human-readable lines for one workload run."""
    ops = rec["attempted"]
    print(f"== {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])}"
          f"{' smoke' if rec['smoke'] else ''}: {ops} ops, {rec['failed']} failed, "
          f"error_rate {rec['failed'] / max(ops, 1):.4g}")
    print(f"   why: {rec['why']}")
    if "scale" in rec["samples"]:
        cal = statistics.fmean(rec["samples"]["calibrate_s"])
        print(f"   times scaled by {rec['samples']['scale']:.4g} "
              f"(REF_CAL_S {REF_CAL_S} s / mean calibrate.py {cal:.4g} s)")
    for name, m in rec["metrics"].items():
        print(f"   {name:42s} {m['value']:>16.6g} {m['unit']:6s} (n={m['samples']})")
    for line in rec["failures"]:
        print(f"   FAIL {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS) + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="every op at reduced size")
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "chaoscope" / "cli.py").is_file():
        print(f"error: {root} is not a chaoscope checkout (no src/chaoscope/cli.py)",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        try:
            rec = run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                               args.smoke)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        tag = f"{name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
        (results_dir / f"{tag}.json").write_text(json.dumps(rec, indent=1) + "\n")
        report(rec)
        records.append(rec)
    print("   environment: " + json.dumps(records[0]["environment"]))
    if len(records) == 1:
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in records[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v["value"], "unit": v["unit"]}
                   for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
