"""Property batteries: every inequality the package claims, checked with slack.

Each suite draws a seeded ensemble of interaction matrices and evaluates a
family of inequalities exactly (no Monte Carlo), setting each against an
independent computation (the exact engine, the Gaussian oracle or a second
route) and recording for every named inequality the minimum slack (bound
minus quantity) seen across the ensemble.  A check passes when its slack
clears -SLACK_TOL, except two that gate at their own tolerance and record
it minus the quantity as their slack:
generator.annihilates-constants-and-full-set (|generator| <= 1e-12) and
gaussian.sigma-series-vs-quadrature (|series - quadrature| <= 1e-7).

The generator, expectations and gaussian suites draw their whole ensemble
first, in stream order, then group the instances by size and evaluate each
group with one call per kernel (the batch forms of the percolation and
gaussian modules), so the fixed cost of a call is paid once per size, not
once per instance.  Every member of a batch gets the bits it gets alone,
and a slack is a minimum, so the grouping moves no bit of the report.

run_suite runs the suites it is asked for on forked worker processes, as
many as there are usable CPUs and suites, longest suite first.  Each suite
draws from its own seeded stream and its results come back pickled, so the
report has the same bytes whichever worker ran which suite.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
from typing import NamedTuple

import numpy as np

from . import bounds as bounds_mod
from . import gaussian as gauss
from . import percolation as perc
from .matrix import (InteractionMatrix, indicators, mask_members, q_xi, random_substochastic,
                     step_pairs)
from .rng import stream, usable_cpus

SLACK_TOL = 1e-9
SUITES = ("generator", "expectations", "gaussian", "bounds")


class Check(NamedTuple):
    name: str
    passed: bool
    slack: float


class SuiteResult(NamedTuple):
    suite: str
    seed: int
    instances: int
    checks: tuple[Check, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Slack:
    """Tracks the minimum slack per named inequality across an ensemble."""

    def __init__(self):
        self.worst: dict[str, float] = {}

    def add(self, name: str, slack):
        # a zero is recorded as +0.0 whatever its sign, and a NaN sticks, so
        # the order of the adds, which batch the instances by size, moves no bit
        s = float(np.min(slack)) + 0.0
        worst = self.worst.get(name)
        if worst is None or s < worst or s != s:
            self.worst[name] = s

    def checks(self) -> list[Check]:
        return [Check(name, s >= -SLACK_TOL, s) for name, s in sorted(self.worst.items())]


def _ensemble(gen: np.random.Generator, instances: int, n_max: int):
    """`instances` random substochastic matrices of sizes 2..n_max, drawn from gen."""
    for _ in range(instances):
        yield random_substochastic(int(gen.integers(2, n_max + 1)), gen)


def _by_size(drawn: list) -> list[list]:
    """The drawn instances, tuples led by a matrix or model, in groups of one
    size, smallest first, each group in draw order: every batch kernel takes
    one group per call."""
    groups: dict[int, list] = {}
    for item in drawn:
        groups.setdefault(item[0].n, []).append(item)
    return [groups[k] for k in sorted(groups)]


# ---------------------------------------------------------------------------

def _check_name(family: str) -> str:
    kind, ell = perc.FAMILIES[family]
    return f"{'polynomial' if kind == 'size' else kind}.l{ell}"


def _family_stack(xi: InteractionMatrix, x, G, *constants):
    """Every family with payload (x, G), one column each in FAMILIES order,
    then a column per constant, as one function of masks for the exact engine."""
    def F(masks):
        cols = [perc.functional_values(fam, xi, masks, x, G) for fam in perc.FAMILIES]
        return np.column_stack(cols + [np.full(masks.size, c) for c in constants])
    return F


def _increments(f: np.ndarray, n: int) -> np.ndarray:
    """f[m | 2^j] - f[m] at every mask m lacking j, for every j, in one array;
    f is one table over the masks, or a stack of them along a trailing axis."""
    return np.concatenate([np.subtract(*step_pairs(f, j)[::-1]).ravel() for j in range(n)])


def _percolation_ensemble(gen: np.random.Generator, instances: int, symmetrize: bool) -> list:
    """(model, x, G) per instance, drawn in stream order: the matrix, kappa,
    x and G, and for `symmetrize` one more draw that symmetrizes G half the time."""
    drawn = []
    for xi in _ensemble(gen, instances, 10):
        model = perc.PercolationModel(xi, float(gen.uniform(0.25, 1.0)))
        x = gen.random(xi.n)
        G = gen.random((xi.n, xi.n))
        if symmetrize and gen.random() < 0.5:
            G = (G + G.T) / 2.0
        drawn.append((model, x, G))
    return drawn


def generator_suite(instances: int = 50, seed: int = 0) -> SuiteResult:
    """Pointwise generator inequalities over every subset, exact evaluation."""
    agg = _Slack()
    exact_zero = 0.0
    size2 = list(perc.FAMILIES).index("size2")
    for group in _by_size(_percolation_ensemble(stream(seed), instances, True)):
        n = group[0][0].n
        # one pass over every member's family tables and a constant column
        lhs = perc.generator_apply_batch([model for model, _, _ in group],
                                         [_family_stack(m.xi, x, G, 3.5) for m, x, G in group])
        rhs = np.stack([perc.lemma_rhs(m, np.arange(1 << n), x=x, G=G) for m, x, G in group])
        for k, fam in enumerate(perc.FAMILIES):
            agg.add(f"generator.{_check_name(fam)}", rhs[..., k] - lhs[..., k])
        exact_zero = max(exact_zero, float(np.abs(lhs[..., -1]).max()),
                         float(np.abs(lhs[:, -1, size2]).max()))
    return SuiteResult("generator", seed, instances, (
        *agg.checks(), Check("generator.annihilates-constants-and-full-set",
                             exact_zero <= 1e-12, 1e-12 - exact_zero)))


_EXPECTATION_T = (0.1, 0.5, 1.0, 2.0)


def expectations_suite(instances: int = 50, seed: int = 0) -> SuiteResult:
    """exact E_v[F(X_t)] <= closed-form bound, all eight families, t grid;
    and, once per call, the Yule domination of the mean-field second moment."""
    agg = _Slack()
    for group in _by_size(_percolation_ensemble(stream(seed), instances, False)):
        models = [model for model, _, _ in group]
        n = models[0].n
        exact = perc.exact_expectations_batch(
            models, [_family_stack(m.xi, x, G) for m, x, G in group], None, _EXPECTATION_T)
        bounds = perc.expectation_bounds_batch(models, np.arange(1 << n), _EXPECTATION_T,
                                               [x for _, x, _ in group], [G for _, _, G in group])
        for k, fam in enumerate(perc.FAMILIES):
            agg.add(f"expectations.{fam}", bounds[..., k] - exact[..., k])
    # all-to-all coupling on 20 sites: the exact growth second moment never
    # exceeds the pure-birth chain started at the same size
    agg.add("expectations.yule-dominates",
            [perc.yule_second_moment(k0, kappa, t) * (1.0 + 1e-12) - m2
             for kappa in (0.5, 1.0) for t in (0.25, 1.0, 4.0) for k0, m2 in
             enumerate(perc.mean_field_size_expectation(20, kappa, np.arange(1, 7), t), 1)])
    return SuiteResult("expectations", seed, instances, tuple(agg.checks()))


# ---------------------------------------------------------------------------

def gaussian_suite(instances: int = 100, seed: int = 0) -> SuiteResult:
    agg = _Slack()
    gen = stream(seed)
    drawn = []  # (xi, T) in stream order
    for xi in _ensemble(gen, instances, 10):
        window = math.log(2.0) / (2.0 * xi.rho) if xi.rho > 0 else 1.0
        drawn.append((xi, float(gen.uniform(0.2, 1.0)) * window))
    series_vs_quad = 0.0
    for group in _by_size(drawn):
        xis, Ts = [xi for xi, _ in group], [T for _, T in group]
        n = xis[0].n
        agg.add("gaussian.rho-upper", np.array([xi.rho for xi in xis])
                - np.linalg.norm(np.stack([xi.dense() for xi in xis]), 2, axis=(1, 2)))
        gms = gauss.sigma_T_batch(xis, Ts)
        sig = np.stack([gm.sigma_T for gm in gms])
        quad = gauss.sigma_T_quadrature_batch(xis, Ts)
        series_vs_quad = max(series_vs_quad, float(np.abs(sig - quad).max()))
        a_full = np.stack([gm.centered() for gm in gms])
        lam_all = np.linalg.eigvalsh(a_full)
        # alpha = e^{-2 rho T} - 1, the low end of the certified eigenvalue range
        alpha = np.array([math.exp(-2 * gm.rho * gm.T) - 1.0 for gm in gms])
        agg.add("gaussian.eig-window.low", lam_all - alpha[:, None])
        agg.add("gaussian.eig-window.high",
                np.array([math.exp(2 * gm.rho * gm.T) - 1.0 for gm in gms])[:, None] - lam_all)
        # every nonempty subset; entry m - 1 belongs to mask m
        masks = np.arange(1, 1 << n)
        exact, lower, upper = gauss.subset_entropies_batch(gms, masks)
        agg.add("gaussian.sandwich.lower", exact - lower)
        agg.add("gaussian.sandwich.upper", upper - exact)
        agg.add("gaussian.clique-lower",
                exact - np.stack([gauss.clique_lower(xi, masks, t) for xi, t in group]))
        agg.add("gaussian.max-upper", np.stack([gauss.max_upper(gm, masks) for gm in gms]) - exact)
        # data processing: adding one index never decreases the entropy; the
        # empty set has no entry, and -inf there drops its pairs from the minimum
        agg.add("gaussian.monotone-in-v",
                _increments(np.concatenate((np.full((1, len(gms)), -np.inf), exact.T)), n))
        ind, sizes = indicators(masks, n), np.bitwise_count(masks)
        # Tr((A^v)^2) summed entry by entry for every nonempty v, averaged per size
        brute = np.einsum("bmi,mi->bm", ind @ (a_full * a_full), ind)
        ks = np.arange(1, n + 1)
        # np.take gathers C-ordered, so each row's mean has the bits of its own
        of_size = [np.flatnonzero(sizes == k) for k in ks]
        by_size = np.stack([np.take(brute, at, axis=1).mean(axis=1) for at in of_size], axis=1)
        agg.add("gaussian.avgtrace-identity", 1e-12 - np.abs(
            np.stack([gauss.avg_trace_sq(a, ks) for a in a_full]) - by_size))
        avg_exact = np.stack([np.take(exact, at, axis=1).mean(axis=1) for at in of_size[:4]],
                             axis=1)
        dt = gauss.d_T_batch(xis, Ts)
        for form, explicit in (("sandwich", False), ("explicit", True)):
            lo, hi = np.stack([gauss.avg_entropy_sandwich(gm, ks[:4], explicit, dt=d)
                               for gm, d in zip(gms, dt)], axis=1)
            agg.add(f"gaussian.avg-{form}.lower", avg_exact - lo)
            agg.add(f"gaussian.avg-{form}.upper", hi - avg_exact)
        env_lo, env_hi = np.array([gauss.d_T_envelope(xi, t) for xi, t in group]).T
        agg.add("gaussian.dT-envelope.lower", dt - env_lo)
        agg.add("gaussian.dT-envelope.upper", env_hi - dt)
        agg.add("gaussian.dT-dual-route", 1e-7 - np.abs(dt - gauss.d_T_quadrature_batch(xis, Ts)))
        # scalar h sandwich on a grid over each member's certified eigenvalue range
        low, high = [], []
        for a in alpha.tolist():
            grid = np.linspace(a, 1.0, 41)
            grid = grid[np.abs(grid) > 1e-13]
            low.append(gauss.h(grid) - grid ** 2 / 6.0)
            cap = 0.5 + max(-a, 0.0) / (3.0 * (1.0 + a) ** 3)
            grid2 = np.linspace(a, 2.0, 41)
            high.append(cap * grid2 ** 2 - gauss.h(grid2))
        agg.add("gaussian.h-lower", np.concatenate(low))
        agg.add("gaussian.h-upper", np.concatenate(high))
    return SuiteResult("gaussian", seed, instances, (
        *agg.checks(), Check("gaussian.sigma-series-vs-quadrature",
                             series_vs_quad <= 1e-7, 1e-7 - series_vs_quad)))


# ---------------------------------------------------------------------------

def bounds_suite(instances: int = 25, seed: int = 0) -> SuiteResult:
    agg = _Slack()
    gen = stream(seed)
    for xi in _ensemble(gen, instances, 8):
        n = xi.n
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
            q = np.array([-np.inf] + [q_xi(xi, mask_members(m)) for m in range(1, 1 << n)])
            sizes = np.bitwise_count(np.arange(1, 1 << n)).astype(float)
            agg.add("bounds.setwise-cap", 8.0 * xi.delta ** 2 * sizes ** 3 - q[1:])
            agg.add("bounds.setwise-monotone", _increments(q, n))

    # Feynman-Kac certification against the exact Gaussian oracle
    for xi in _ensemble(gen, 6, 6):
        gm = gauss.sigma_T(xi, 0.5)
        constants = bounds_mod.gaussian_fk_constants(gm)
        bound = bounds_mod.percolation_entropy_bound(xi, None, constants)
        exact, _, _ = gauss.subset_entropies(gm, np.arange(1, 1 << xi.n))
        agg.add("bounds.feynman-kac-dominates", bound[1:] - exact)
    return SuiteResult("bounds", seed, instances, tuple(agg.checks()))


# The suites, longest first: the workers take them in this order, so the last
# suite a worker picks up is a short one (list scheduling; Graham, SIAM J.
# Appl. Math. 1969).  Warm in-process seconds at the default instances and
# seed 0 (least of 21, one BLAS thread, 2-vCPU Xeon): gaussian 0.096,
# expectations 0.066, bounds 0.022, generator 0.017.  Batching by size took
# the generator suite below the bounds suite, which has no batch, so bounds
# now comes third: on two workers, the one that ran expectations goes on
# with bounds and the one that ran gaussian ends with generator, done at
# about 0.088 and 0.113 s, against 0.083 and 0.118 s in the old order.
_SUITE_FN = {"gaussian": gaussian_suite, "expectations": expectations_suite,
             "bounds": bounds_suite, "generator": generator_suite}


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
    workers = min(len(names), usable_cpus()) if hasattr(os, "fork") else 1
    order = list(_SUITE_FN)
    tasks, fill = os.pipe()
    os.write(fill, bytes(sorted(range(len(names)), key=lambda i: order.index(names[i]))))
    os.close(fill)
    children = []  # (pid, read end of its reply pipe), until reaped
    parent = os.getpid()
    # every suite draws from numpy.random, which numpy loads on first use;
    # loading it before the fork spares each worker its own import
    import numpy.random  # noqa: F401
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
