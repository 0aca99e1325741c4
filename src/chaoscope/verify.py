"""Property batteries: every inequality the package claims, checked with slack.

Each suite draws a seeded ensemble of interaction matrices and evaluates a
family of inequalities exactly (no Monte Carlo), recording for every named
inequality the minimum slack (bound minus quantity) seen across the
ensemble.  A suite passes when every slack clears -SLACK_TOL.

run_suite runs the suites it is asked for on forked worker processes, as
many as there are usable CPUs and suites, longest suite first.  Each suite
draws from its own seeded stream and its results come back pickled, so the
report has the same bytes whichever worker ran which suite.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from . import gaussian as gauss
from . import percolation as perc
from .matrix import (InteractionMatrix, MatrixError, SubsetState, lattice, q_xi,
                     step_pairs)
from .rng import stream

SLACK_TOL = 1e-9
SUITES = ("generator", "expectations", "gaussian", "bounds")


@dataclass
class Check:
    name: str
    passed: bool
    slack: float | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.slack is not None:
            out["slack"] = self.slack
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class SuiteResult:
    suite: str
    seed: int
    instances: int
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "seed": self.seed,
                "instances": self.instances, "passed": self.passed,
                "checks": [c.to_json_dict() for c in self.checks]}


class _Slack:
    """Tracks the minimum slack per named inequality across an ensemble."""

    def __init__(self):
        self.worst: dict[str, float] = {}

    def add(self, name: str, slack):
        s = float(np.min(slack))
        if name not in self.worst or s < self.worst[name]:
            self.worst[name] = s

    def checks(self, tol: float = SLACK_TOL) -> list[Check]:
        return [Check(name, s >= -tol, s) for name, s in sorted(self.worst.items())]


def random_substochastic(n: int, gen: np.random.Generator) -> InteractionMatrix:
    """Random nonnegative zero-diagonal matrix with row and column sums <= 1."""
    if n < 1:
        raise MatrixError("random substochastic matrix needs n >= 1")
    d = gen.random((n, n))
    d[gen.random((n, n)) < 0.3] = 0.0  # mix in sparsity
    np.fill_diagonal(d, 0.0)
    target = float(gen.uniform(0.3, 1.0))
    worst = max(d.sum(axis=1).max(), d.sum(axis=0).max())
    if worst > 0:
        d *= target / worst
    return InteractionMatrix.from_dense(d)


def _ensemble(instances: int, seed: int, n_max: int = 10):
    gen = stream(seed)
    for _ in range(instances):
        n = int(gen.integers(2, n_max + 1))
        xi = random_substochastic(n, gen)
        kappa = float(gen.uniform(0.25, 1.0))
        yield gen, xi, kappa


# ---------------------------------------------------------------------------

def _check_name(family: str) -> str:
    kind, ell = perc.FAMILIES[family]
    return f"{'polynomial' if kind == 'size' else kind}.l{ell}"


def _family_stack(xi: InteractionMatrix, x, G, *extra) -> perc.SubsetFunction:
    """Every family's table with payload (x, G), one column each in FAMILIES
    order, then the extra columns, as one stack for the exact engine."""
    cols = [perc.functional_table((fam, {"x": x, "G": G}), xi).values
            for fam in perc.FAMILIES]
    return perc.SubsetFunction(np.column_stack(cols + list(extra)), xi.n)


def generator_suite(instances: int = 50, seed: int = 0) -> SuiteResult:
    """Pointwise generator inequalities over every subset, exact evaluation."""
    agg = _Slack()
    exact_zero = 0.0
    size2 = list(perc.FAMILIES).index("size2")
    for gen, xi, kappa in _ensemble(instances, seed):
        n = xi.n
        model = perc.PercolationModel(xi, kappa)
        x = gen.random(n)
        G = gen.random((n, n))
        if gen.random() < 0.5:
            G = (G + G.T) / 2.0
        # one pass over the family tables and a constant column
        lhs = perc.generator_apply(model, _family_stack(xi, x, G, np.full(1 << n, 3.5))).values
        for k, fam in enumerate(perc.FAMILIES):
            rhs = perc.lemma_rhs(model, fam, x=x, G=G)
            agg.add(f"generator.{_check_name(fam)}", rhs.values - lhs[:, k])
        exact_zero = max(exact_zero, float(np.abs(lhs[:, -1]).max()))
        exact_zero = max(exact_zero, abs(lhs[(1 << n) - 1, size2]))
    out = SuiteResult("generator", seed, instances, agg.checks())
    out.checks.append(Check("generator.annihilates-constants-and-full-set",
                            exact_zero <= 1e-12, -exact_zero))
    return out


_EXPECTATION_T = (0.1, 0.5, 1.0, 2.0)


def expectations_suite(instances: int = 50, seed: int = 0) -> SuiteResult:
    """exact E_v[F(X_t)] <= closed-form bound, all eight families, t grid;
    and, once per call, the Yule domination of the mean-field second moment."""
    agg = _Slack()
    for gen, xi, kappa in _ensemble(instances, seed):
        n = xi.n
        model = perc.PercolationModel(xi, kappa)
        x = gen.random(n)
        G = gen.random((n, n))
        exact = perc.exact_expectations(model, _family_stack(xi, x, G), None, _EXPECTATION_T)
        bounds = perc.expectation_bounds(model, None, _EXPECTATION_T, x=x, G=G)
        slack = bounds - exact
        for k, fam in enumerate(perc.FAMILIES):
            agg.add(f"expectations.{fam}", slack[..., k])
    # all-to-all coupling on 20 sites: the exact growth second moment never
    # exceeds the pure-birth chain started at the same size
    agg.add("expectations.yule-dominates",
            [perc.yule_second_moment(k0, kappa, t) * (1.0 + 1e-12)
             - perc.mean_field_size_expectation(20, kappa, k0, t, power=2)
             for kappa in (0.5, 1.0) for k0 in range(1, 7) for t in (0.25, 1.0, 4.0)])
    return SuiteResult("expectations", seed, instances, agg.checks())


# ---------------------------------------------------------------------------

def gaussian_suite(instances: int = 100, seed: int = 0) -> SuiteResult:
    agg = _Slack()
    gen_master = stream(seed)
    series_vs_quad = 0.0
    for _ in range(instances):
        n = int(gen_master.integers(2, 11))
        xi = random_substochastic(n, gen_master)
        rho = xi.rho
        window = math.log(2.0) / (2.0 * rho) if rho > 0 else 1.0
        T = float(gen_master.uniform(0.2, 1.0)) * window
        gm = gauss.sigma_T(xi, T)
        quad = gauss.sigma_T_quadrature(xi, T)
        series_vs_quad = max(series_vs_quad, float(np.abs(gm.sigma_T - quad).max()))
        lam_all = np.linalg.eigvalsh(gm.centered())
        agg.add("gaussian.eig-window.low",
                lam_all - (math.exp(-2 * gm.rho * T) - 1.0))
        agg.add("gaussian.eig-window.high",
                (math.exp(2 * gm.rho * T) - 1.0) - lam_all)
        # every nonempty subset; entry m - 1 belongs to mask m
        exact, lower, upper = gauss.subset_entropies(gm, np.arange(1, 1 << n))
        agg.add("gaussian.sandwich.lower", exact - lower)
        agg.add("gaussian.sandwich.upper", upper - exact)
        agg.add("gaussian.clique-lower", exact - gauss.clique_lower(xi, None, T)[1:])
        agg.add("gaussian.max-upper", gauss.max_upper(gm, None)[1:] - exact)
        # data processing: adding one index never decreases the entropy; the
        # empty set has no entry, and -inf there drops its pairs from the minimum
        by_mask = np.concatenate(([-np.inf], exact))
        for j in range(n):
            lo, hi = step_pairs(by_mask, j)
            agg.add("gaussian.monotone-in-v", hi - lo)
        ind, sizes = (a[1:] for a in lattice(n))
        a_full = gm.centered()
        # Tr((A^v)^2) summed entry by entry for every nonempty v, averaged per size
        brute = np.einsum("mi,mi->m", ind @ (a_full * a_full), ind)
        for k in range(1, n + 1):
            agg.add("gaussian.avgtrace-identity",
                    1e-12 - abs(gauss.avg_trace_sq(a_full, k) - float(brute[sizes == k].mean())))
        for k in range(1, min(n, 4) + 1):
            avg_exact = float(np.mean(exact[sizes == k]))
            lo, hi = gauss.avg_entropy_sandwich(gm, k)
            agg.add("gaussian.avg-sandwich.lower", avg_exact - lo)
            agg.add("gaussian.avg-sandwich.upper", hi - avg_exact)
            lo_e, hi_e = gauss.avg_entropy_sandwich(gm, k, explicit=True)
            agg.add("gaussian.avg-explicit.lower", avg_exact - lo_e)
            agg.add("gaussian.avg-explicit.upper", hi_e - avg_exact)
        dt_val = gauss.d_T(xi, T)
        env_lo, env_hi = gauss.d_T_envelope(xi, T)
        agg.add("gaussian.dT-envelope.lower", dt_val - env_lo)
        agg.add("gaussian.dT-envelope.upper", env_hi - dt_val)
        agg.add("gaussian.dT-dual-route",
                1e-7 - abs(dt_val - gauss.d_T_quadrature(xi, T)))
        # scalar h sandwich on a grid over the certified eigenvalue range
        alpha = math.exp(-2.0 * gm.rho * T) - 1.0
        grid = np.linspace(alpha, 1.0, 41)
        grid = grid[np.abs(grid) > 1e-13]
        hv = gauss.h(grid)
        agg.add("gaussian.h-lower", hv - grid ** 2 / 6.0)
        alpha_neg = max(-alpha, 0.0)
        cap = 0.5 + alpha_neg / (3.0 * (1.0 + alpha) ** 3)
        grid2 = np.linspace(alpha, 2.0, 41)
        agg.add("gaussian.h-upper", cap * grid2 ** 2 - gauss.h(grid2))
    out = SuiteResult("gaussian", seed, instances, agg.checks())
    out.checks.append(Check("gaussian.sigma-series-vs-quadrature",
                            series_vs_quad <= 1e-7, 1e-7 - series_vs_quad))
    return out


# ---------------------------------------------------------------------------

def bounds_suite(instances: int = 25, seed: int = 0) -> SuiteResult:
    agg = _Slack()
    gen_master = stream(seed)
    for _ in range(instances):
        n = int(gen_master.integers(2, 9))
        xi = random_substochastic(n, gen_master)
        reports = {k: bounds_mod.max_entropy_bound(xi, k) for k in range(1, n + 1)}
        for k in range(1, n):
            agg.add("bounds.max-monotone-k",
                    reports[k + 1].structural - reports[k].structural)
        for k in range(1, n + 1):
            avg = bounds_mod.avg_entropy_bound(xi, k)
            agg.add("bounds.avg-below-max", reports[k].structural - avg.structural)
            sharper = bounds_mod.sharper_avg_bound(xi, k)
            agg.add("bounds.avg2way-nonneg", sharper.structural)
            rev = bounds_mod.reversed_variant(avg)
            agg.add("bounds.reversed-smaller", avg.structural - rev.structural)
        if n <= 6:
            # q_xi over the masks; -inf at the empty set drops its pairs below
            q = np.array([-np.inf] + [q_xi(xi, SubsetState(m, n)) for m in range(1, 1 << n)])
            sizes = lattice(n)[1]
            agg.add("bounds.setwise-cap", 8.0 * xi.delta ** 2 * sizes[1:] ** 3 - q[1:])
            for j in range(n):
                lo, hi = step_pairs(q, j)
                agg.add("bounds.setwise-monotone", hi - lo)
    checks = agg.checks()

    # uniform-in-time gate: refuses exactly when sigma^2 <= 12 eta gamma
    try:
        bad = bounds_mod.ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=1.0, eta=1.0)
        bad.require_uniform()
        checks.append(Check("bounds.uniform-gate", False,
                            note="sigma^2 <= 12 eta gamma was accepted"))
    except ValueError:
        checks.append(Check("bounds.uniform-gate", True))
    ok = bounds_mod.ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=1.0, eta=1.0 / 13.0)
    checks.append(Check("bounds.uniform-gate-accepts",
                        ok.discount_rate() > 3.0 * ok.gamma))

    # h3 explicit constant at T=0 and its delta^2 scaling
    c = bounds_mod.ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=0.0)
    val = bounds_mod.h3_bound(c, 1.0)
    checks.append(Check("bounds.h3-T0-constant", abs(val - 72.0) <= 1e-12,
                        1e-12 - abs(val - 72.0)))
    ns = np.array([10.0, 20.0, 40.0])
    h3s = np.array([bounds_mod.h3_bound(c, 1.0 / (m - 1.0)) for m in ns])
    ratio = h3s[:-1] / h3s[1:]
    expected = ((ns[1:] - 1.0) / (ns[:-1] - 1.0)) ** 2
    checks.append(Check("bounds.h3-meanfield-scaling",
                        bool(np.allclose(ratio, expected, rtol=1e-12))))

    # LSI constants: convex equality case, torus divergence-free, smallness gate
    conv = bounds_mod.lsi_constants("convex", {"lam": 1.0, "eta0": 4.0, "sigma": 1.0})
    checks.append(Check("bounds.lsi-convex", abs(conv - 1.0) <= 1e-15))
    torus = bounds_mod.lsi_constants("torus", {"lam": 1.0, "sigma": 1.0})
    checks.append(Check("bounds.lsi-torus-divfree",
                        abs(torus - 1.0 / (8.0 * math.pi ** 2)) <= 1e-15))
    thr = 2.0 * math.pi ** 2 / (1.0 + math.sqrt(2.0 * math.log(2.0)))
    near = bounds_mod.lsi_constants(
        "torus", {"lam": 2.0, "sigma": 1.0, "div_norm": 0.99 * thr})
    checks.append(Check("bounds.lsi-torus-near-threshold",
                        math.isfinite(near) and near > 0.0))
    try:
        bounds_mod.lsi_constants("torus", {"lam": 2.0, "sigma": 1.0, "div_norm": thr})
        checks.append(Check("bounds.lsi-torus-gate", False))
    except perc.NotApplicable:
        checks.append(Check("bounds.lsi-torus-gate", True))

    # Feynman-Kac certification against the exact Gaussian oracle
    fk_worst = np.inf
    for _ in range(6):
        n = int(gen_master.integers(2, 7))
        xi = random_substochastic(n, gen_master)
        gm = gauss.sigma_T(xi, 0.5)
        constants = bounds_mod.gaussian_fk_constants(gm)
        model = perc.PercolationModel(xi, constants.rate_scale())
        bound = bounds_mod.percolation_entropy_bound(model, None, constants)
        exact, _, _ = gauss.subset_entropies(gm, np.arange(1, 1 << n))
        fk_worst = min(fk_worst, float((bound[1:] - exact).min()))
    checks.append(Check("bounds.feynman-kac-dominates", fk_worst >= -SLACK_TOL, fk_worst))
    return SuiteResult("bounds", seed, instances, checks)


# The suites, longest first: the workers take them in this order, so the last
# suite a worker picks up is a short one (list scheduling; Graham, SIAM J.
# Appl. Math. 1969).  Warm in-process seconds at the default instances and
# seed 0 (median of 11, one BLAS thread, 2-vCPU Xeon): gaussian 0.21,
# expectations 0.19, generator 0.039, bounds 0.028.
_SUITE_FN = {"gaussian": gaussian_suite, "expectations": expectations_suite,
             "generator": generator_suite, "bounds": bounds_suite}


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _take(tasks: int, names, seed: int, count: dict, parent: int | None = None) -> list:
    """Run the suites whose indices this worker reads from the pipe `tasks`,
    one byte at a time until it is empty; (index, SuiteResult) pairs.  A
    child, given its parent's pid, takes no further suite once that parent
    has gone."""
    out = []
    while (parent is None or os.getppid() == parent) and (byte := os.read(tasks, 1)):
        out.append((byte[0], _SUITE_FN[names[byte[0]]](seed=seed, **count)))
    return out


def _die_with_parent() -> None:
    """On Linux, have the kernel SIGKILL this forked child when the thread
    that forked it ends (prctl PR_SET_PDEATHSIG), so that a killed parent
    leaves no worker behind; elsewhere the child stops between suites."""
    if not sys.platform.startswith("linux"):
        return
    from signal import SIGKILL
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(1, SIGKILL)  # PR_SET_PDEATHSIG
    except (ImportError, OSError, AttributeError):  # no prctl: stop between suites
        pass


def _worker(tasks: int, reply: int, names, seed: int, count: dict, parent: int):
    """A forked child of `parent`: take suites, pickle the results, or the
    exception that stopped them, to the pipe `reply`, and leave without
    running any of the parent's exit handlers."""
    code = 1
    try:
        _die_with_parent()
        try:
            out = _take(tasks, names, seed, count, parent)
        except Exception as exc:
            out = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # an exception that cannot travel goes as its text
                out = RuntimeError(f"{type(exc).__name__}: {exc}")
        with open(reply, "wb") as fh:
            fh.write(pickle.dumps(out))
        code = 0
    finally:
        os._exit(code)


def run_suite(name: str, instances: int | None = None, seed: int = 0) -> list[SuiteResult]:
    """Run one suite, or every suite for "all"; the results in SUITES order.

    The suites run on W = min(suites, usable CPUs) workers, W = 1 where
    os.fork is missing: this process and W - 1 forked children.  The suite
    indices go into one pipe, longest first, and every worker reads it one
    byte at a time and runs each suite it takes exactly as a serial run
    would.  A child pickles its results back and leaves by os._exit.  An
    exception in a child is raised here with its type and message; a child
    that dies without its results raises RuntimeError naming the suites that
    are missing; no child outlives the call.  A child whose parent is killed
    is killed with it on Linux, and elsewhere takes no further suite.
    """
    if instances is not None and instances < 1:
        raise ValueError("instances must be >= 1")
    names = SUITES if name == "all" else (name,)
    for nm in names:
        if nm not in _SUITE_FN:
            raise ValueError(f"unknown suite {nm!r}; pick from {SUITES + ('all',)}")
    # no count given: each suite runs its own instances= default
    count = {} if instances is None else {"instances": instances}
    workers = min(len(names), _usable_cpus()) if hasattr(os, "fork") else 1
    order = list(_SUITE_FN)
    tasks, fill = os.pipe()
    os.write(fill, bytes(sorted(range(len(names)), key=lambda i: order.index(names[i]))))
    os.close(fill)
    children = []  # (pid, read end of its reply pipe), until reaped
    parent = os.getpid()
    try:
        for _ in range(workers - 1):
            fd_r, fd_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(fd_r)
                os.close(fd_w)
                raise
            if pid == 0:
                _worker(tasks, fd_w, names, seed, count, parent)
            os.close(fd_w)
            children.append((pid, open(fd_r, "rb")))
        done = dict(_take(tasks, names, seed, count))
        while children:
            pid, pipe = children[0]
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pipe.close()
            children.pop(0)
            if status == 0:  # a clean exit wrote its whole reply
                reply = pickle.loads(data)
                if isinstance(reply, BaseException):
                    raise reply
                done.update(reply)
    finally:
        os.close(tasks)
        if children:
            from signal import SIGKILL
            for pid, pipe in children:
                pipe.close()
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    missing = [nm for i, nm in enumerate(names) if i not in done]
    if missing:
        raise RuntimeError("verify: a worker process ended without the results of "
                           f"suite(s) {', '.join(missing)}")
    return [done[i] for i in range(len(names))]


def _first_non_finite(obj, path: str = ""):
    """(path, value) of the first inf or NaN float in nested dicts and lists."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path or "result", obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub, val in items:
        hit = _first_non_finite(val, sub)
        if hit is not None:
            return hit
    return None


def json_text(obj) -> str:
    """Indented JSON with a final newline.  JSON has no inf or NaN, so a
    non-finite number raises ValueError naming where it sits."""
    try:
        return json.dumps(obj, indent=1, allow_nan=False) + "\n"
    except ValueError:
        hit = _first_non_finite(obj)
        if hit is None:
            raise
        raise ValueError(f"non-finite result {hit[0]} = {hit[1]}, "
                         "which JSON cannot hold; nothing written") from None


def save_results(results: list[SuiteResult], path):
    text = json_text({"passed": all(r.passed for r in results),
                      "suites": [r.to_json_dict() for r in results]})
    with open(path, "w") as fh:
        fh.write(text)
