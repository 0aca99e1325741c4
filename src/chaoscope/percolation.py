"""The subset-valued growth process and its expectation machinery.

State is a subset v of {0,..,n-1}; element j joins at rate
kappa * sum_{i in v} xi[i, j], and nothing ever leaves, so the full set is
absorbing.  Three engines compute E_v[F(X_t)]:

  * exact uniformization over the up-set of v, the 2^(n-|v|) subsets
    containing v (n <= 16), F being a function of a masks array called once
    at them, with a value or a row of c values (a stack) per mask,
  * Gillespie sampling of the jump chain (the direct method), a chunk of
    paths in lockstep, each carrying its per-site rates from jump to jump,
  * first-passage edge clocks, one per directed edge (same law by memorylessness).

FAMILIES names the moment families once: size, linear and quadratic
functionals with size weights |v|^ell.  Each name gives its functional
(functional_values, mc_expectation), which takes a family as (family, x, G):
its name, then x for the linear kinds and G for the quadratic ones.  Its
pointwise generator bound (lemma_rhs) and its ceiling on E_v[F(X_t)]
(expectation_bounds) are columns of one array over bitmasks that serves
every family at payload (x, G), stated with the model's rate scale kappa.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import linalg
from .matrix import (InteractionMatrix, indicators, mask_array, mask_members, step_pairs,
                     subset_mask, validate)
from .rng import chunk_ranges, chunk_streams

EXACT_ENGINE_LIMIT = 16   # 2^16 subset states
MASK_LIMIT = 63           # terminal states are int64 bitmasks


class EngineTooLarge(RuntimeError):
    pass


class PercolationModel(namedtuple("PercolationModel", "xi kappa")):
    """The growth process on xi; kappa is the rate scale multiplying every
    transition rate."""

    __slots__ = ()

    def __new__(cls, xi: InteractionMatrix, kappa: float):
        if not 0 < kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {kappa}")
        negative = validate(xi).negative_entries
        if negative:  # a negative rate has no growth process
            raise ValueError("the growth process needs a nonnegative matrix, "
                             f"got negative entries at {list(negative)}")
        return super().__new__(cls, xi, kappa)

    @property
    def n(self) -> int:
        return self.xi.n


class McEstimate(NamedTuple):
    mean: float
    stderr: float


# ---------------------------------------------------------------------------
# Exact subset engine

def _require_exact(n: int):
    if n > EXACT_ENGINE_LIMIT:
        raise EngineTooLarge(f"exact engine handles n <= {EXACT_ENGINE_LIMIT}, got {n}")


def _table(F, masks: np.ndarray) -> np.ndarray:
    """F(masks) as floats, refused unless it has one finite value or row per mask."""
    vals = np.asarray(F(masks), dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[0] != masks.size:
        raise ValueError(f"F must give one value or one row per mask, {masks.size} rows; "
                         f"got shape {vals.shape}")
    if not np.isfinite(vals).all():  # tol * max|F| needs it, and so do _step_sum's 0.0 rates
        raise ValueError("F must be finite at every mask")
    return vals


def _step_sum(f: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """sum_j rates[j, m] * (f[m + 2^j] - f[m]) at every row m of a table f, or
    of a stack (a trailing column axis), for a (bits, rows) table rates.

    Each bit j is one contiguous pass over the rows m < len(f) - 2^j, added
    into the sum in j order.  Row m + 2^j is m with bit j added only where m
    lacks bit j, so rates[j, m] must be 0.0 at the rows holding it; a finite
    f then makes those terms vanish.
    """
    out = np.zeros(f.shape)
    buf = np.empty(f.shape)
    for j, rate in enumerate(rates):
        s = 1 << j
        step = np.subtract(f[s:], f[:-s], out=buf[s:])
        step *= rate[:-s].reshape((-1,) + (1,) * (f.ndim - 1))
        out[:-s] += step
    return out


class _Engine:
    """Per-model tables for the exact subset engine, over the up-set of v.

    Started at the mask v, the process only adds sites, so it visits only
    the supersets v | u, u a subset of the free sites c outside v.  They form
    a copy of the lattice on c: masks[u] = v | u, with u in the bit order of
    c, so u = 0 is v itself; v = 0 gives the full lattice in mask order.
    Site c[j] joins v | u at rate kappa * rates[j, u], rates[j, u] =
    sum_{i in v | u} xi[i, c[j]], added in index order, and 0.0 where u
    holds c[j], so that each up-set's rates and kernel steps (kappa *
    _step_sum) are bitwise a slice of the full lattice's.

    The uniformization rate is lam = kappa * max_u sum_j rates[j, u], rows
    added in j order, times 1 + 1e-12: the largest exit rate over the up-set,
    never above the full lattice's, the least rate for which I + A/lam is
    stochastic, inflated by a relative 1e-12 so that rounding cannot push a
    diagonal entry below zero.  An up-set with no exit (v the full set, n =
    1, or a zero matrix) has A = 0 and takes lam = kappa; its expectations
    need no kernel step, since e^{tA}F = F, so curve_lam is 0 there.
    """

    def __init__(self, model: PercolationModel, v: int = 0):
        n = model.n
        _require_exact(n)
        self.kappa = model.kappa
        d = model.xi.dense()
        free = [j for j in range(n) if not v >> j & 1]
        rates = self.rates = np.zeros((len(free), 1 << len(free)))
        self.masks = np.full(1 << len(free), v, dtype=np.int64)
        size = 1
        for i in range(n):  # rates[:, :size] covers the free sites below i
            row = d[i, free][:, None]
            if v >> i & 1:
                rates[:, :size] += row
            else:
                np.add(rates[:, :size], row, out=rates[:, size:2 * size])
                np.bitwise_or(self.masks[:size], 1 << i, out=self.masks[size:2 * size])
                size *= 2
        for j, rate in enumerate(rates):
            step_pairs(rate, j)[1][...] = 0.0  # c[j] cannot join a mask holding it
        top = float(rates.sum(axis=0).max())
        self.lam = model.kappa * top * (1.0 + 1e-12) if top > 0.0 else model.kappa
        self.curve_lam = self.lam if top > 0.0 else 0.0

    def apply_generator(self, f: np.ndarray) -> np.ndarray:
        # f is one table over the up-set, or a stack (rows, c)
        out = _step_sum(f, self.rates)
        out *= self.kappa
        return out

    def apply_kernel(self, f: np.ndarray) -> np.ndarray:
        # one step of the uniformized (stochastic) kernel I + A/lam
        out = self.apply_generator(f)
        out /= self.lam
        out += f
        return out


def generator_apply(model: PercolationModel, F) -> np.ndarray:
    """Exact AF at all 2^n masks in mask order, column by column for a stack;
    F is called once, at np.arange(2^n).  AF([n]) = 0 and A annihilates
    constants."""
    eng = _Engine(model)
    return eng.apply_generator(_table(F, eng.masks))


# ---------------------------------------------------------------------------
# Exact expectations by uniformization

def uniformized(kernel, f: np.ndarray, lam: float, times, tol: float,
                rate: float | None = None, horizon: float | None = None) -> np.ndarray:
    """e^{tA}f at each of the sorted times in one pass, a row per time.

    kernel applies the stochastic P = I + A/lam to f, one table or a stack
    (a trailing column axis).  P steps f up to the Poisson(lam t_max) order,
    t_max the horizon if one is given (at or after the last time; times may
    then be empty), else the last time (Fox & Glynn, CACM 1988), and each
    step adds w_t[k] P^k f into the row of each time; no power is kept.  The
    tail beyond that order is monotone in t, so each row is certified at
    tol * ||f||_inf.  A rate >= 0 adds a row for the integral
    int_0^{t_max} e^{-rate s} e^{sA}f ds: term k weighs
    lam^k/(lam+rate)^{k+1} P(N >= k+1), N ~ Poisson((lam+rate) t_max)
    (de Souza e Silva & Gail, JACM 1989), with the tails summed from the top
    down, never as 1 - cumsum; it is certified at t_max * tol * ||f||_inf.
    At lam = 0 (no exit) the order is 0 and every row is f times its weight.
    """
    marks = [float(t) for t in times] + ([] if horizon is None else [float(horizon)])
    if not marks or not all(0 <= s <= t < math.inf for s, t in zip([0.0] + marks, marks)):
        raise ValueError(f"times must be finite, nonnegative and sorted, got {marks}")
    t_max = marks[-1]
    kmax = linalg.poisson_truncation(lam * t_max, tol)
    weights = [linalg.poisson_weights(lam * t, kmax) for t in marks[:len(times)]]
    if rate is not None:
        if not 0 <= rate < math.inf:
            raise ValueError(f"rate must be finite and nonnegative, got {rate}")
        if lam == 0.0:
            weights.append([t_max if rate == 0.0 else -math.expm1(-rate * t_max) / rate])
        else:
            total = lam + rate
            mass = total * t_max
            # the Poisson(mass) mass left beyond `top` is < 1e-20, far below t_max * tol
            top = max(kmax + 1, linalg.poisson_truncation(mass, 1e-20))
            tail = np.cumsum(linalg.poisson_weights(mass, top)[::-1])[::-1]
            weights.append((lam / total) ** np.arange(kmax + 1) / total * tail[1:kmax + 2])
    out = np.zeros((len(weights),) + f.shape)
    buf = np.empty(f.shape)
    term = f
    for k in range(kmax + 1):
        if k:
            term = kernel(term)
        for row, w in zip(out, weights):
            row += np.multiply(term, w[k], out=buf)
    return out


def exact_expectations(model: PercolationModel, F, v, times,
                       tol: float = 1e-10, rate: float | None = None,
                       horizon: float | None = None) -> np.ndarray:
    """E_u[F(X_t)] at each of the sorted times, in one uniformized pass.

    Shape (len(times), rows), a stack keeping its column axis; a rate adds
    the row of int_0^{t_max} e^{-rate s} E_u[F(X_s)] ds, t_max the last time
    or a later horizon, so times=[] with a horizon gives that row alone.  The
    integral row is bitwise the same either way.  F is called once, at the
    masks of the rows: v=None gives all 2^n masks u in mask order; a start
    subset v (its member indices) gives its 2^(n-|v|) supersets u = v | w,
    w over the sites outside v in their bit order, so row 0 is v, at the
    largest exit rate over them (see _Engine).  Each time is certified at
    tol * max|F| and the integral at t_max * tol * max|F|, max|F| over the rows.
    """
    eng = _Engine(model, 0 if v is None else subset_mask(v, model.n))
    return uniformized(eng.apply_kernel, _table(F, eng.masks), eng.curve_lam, times, tol, rate,
                       horizon)


# ---------------------------------------------------------------------------
# Monte Carlo engines

def _prefix_count(rate: np.ndarray, x: np.ndarray) -> np.ndarray:
    """How many prefix sums down the sites of each column of rate are <= x.

    The sums are np.cumsum(rate, axis=0) bit for bit, added a row at a time:
    cumsum down the outer axis of a C-ordered table walks it a column at a
    time, 4-8x slower at n = 8-48.
    """
    cs = np.empty_like(rate)
    cs[0] = rate[0]
    for i in range(1, len(rate)):
        np.add(cs[i - 1], rate[i], out=cs[i])
    return (cs <= x).sum(axis=0)


def _jump_chain_chunk(gen: np.random.Generator, size: int, model: PercolationModel,
                      start: int, t: float) -> np.ndarray:
    """Terminal masks of `size` jump-chain paths from the mask start, in lockstep.

    With rows[i] = kappa * xi[i], a path's rate at a site outside it is its
    start rows' column sum plus the rows of the sites that joined since.
    Each round, the paths with a positive total rate draw
    standard_exponential(live), clock += E / total, and those with
    clock <= t draw random(live) and take the site j where the prefix sum of
    their rates first exceeds u * total, one total serving the clock and the
    search.  Each round adds a site, so at most n - |v| rounds run.

    Every path has the start's rates until it first jumps, so the first
    clocks divide by one total, and only the paths that jump by t enter the
    tables.  Those carry their rates across rounds in a (sites, paths) table
    `rate`, exactly 0.0 at a path's members, beside a boolean table `free` of
    its open sites.  A jump to j adds rows[j] to the path's column and
    multiplies it by `free`, so each open site gets the same adds in the same
    order as a sum rebuilt from the rows (x * 1.0 = x), and j drops to 0.0.

    The total and the prefix sums add the sites in index order, so the total
    is the last prefix sum bit for bit and u * total stays below it.
    np.add.reduce down the sites of a C-ordered table adds whole rows in turn,
    but it sums a lone column (one path left), or the columns of an F-ordered
    table, pairwise: hence np.cumsum for one path, and np.compress, which
    keeps a table C-ordered where a boolean index would not.  The tables, the
    prefix sums and the search's booleans come to about 2.25 * 8n bytes per
    running path.
    """
    rows = model.kappa * model.xi.dense()
    cols = np.ascontiguousarray(rows.T)  # cols[:, j] is rows[j]
    members = mask_members(start)
    out = np.full(size, start, dtype=np.int64)
    first = rows[members].sum(axis=0)
    first[members] = 0.0
    total = np.cumsum(first)[-1]
    if not total > 0.0:  # the start has no exit
        return out
    clock = gen.standard_exponential(size) / total
    idx = np.flatnonzero(clock <= t)  # the running paths, whose columns the tables hold
    clock, total = clock[idx], np.full(idx.size, total)
    rate = np.repeat(first[:, None], idx.size, axis=1)
    free = np.ones(rate.shape, dtype=bool)
    free[members] = False
    while idx.size:
        # u < total, so the search lands on a bin of positive rate
        j = _prefix_count(rate, gen.random(idx.size) * total)
        out[idx] |= np.left_shift(1, j)
        free[j, np.arange(idx.size)] = False
        rate += cols.take(j, axis=1)
        rate *= free
        total = np.add.reduce(rate, axis=0) if idx.size > 1 else np.cumsum(rate, axis=0)[-1]
        live = total > 0.0  # a path without exit is absorbed
        if not live.all():
            idx, rate, free, clock, total = (np.compress(live, a, axis=-1)
                                             for a in (idx, rate, free, clock, total))
        clock += gen.standard_exponential(idx.size) / total
        live = clock <= t
        if not live.all():
            idx, rate, free, clock, total = (np.compress(live, a, axis=-1)
                                             for a in (idx, rate, free, clock, total))
    return out


CLOCK_BLOCK = 1 << 20  # edge clocks held at once by an edge-clock chunk


def _edge_clock_chunk(gen: np.random.Generator, size: int, model: PercolationModel,
                      start: int, t: float) -> np.ndarray:
    """Terminal masks of `size` edge-clock paths from start: first-passage balls of radius t.

    A column is an edge i -> j with xi_ij > 0, in row-major order, but a
    pair of equal rates keeps one column, at i < j, read both ways: only
    the edge out of the endpoint settled first is read, and which that is
    does not depend on the pair's variate.  So on a symmetric xi the
    columns are the edges i < j.  The clocks are
    standard_exponential((rows, E)) / rate, drawn for blocks of rows in
    turn, each at most about CLOCK_BLOCK clocks; the chunk draws nothing
    else, so the clocks are the rows of one (size, E) draw.  Dijkstra runs
    on a block's paths in lockstep: each round a path settles its nearest
    unsettled site, while that lies within t, and relaxes its out-edges to
    dist + clock, so at most n rounds run.
    """
    d, n = model.xi.dense(), model.n
    iu, ju = np.nonzero(d)  # the edges i -> j in row-major order
    shared = d[ju, iu] == d[iu, ju]  # a pair of equal rates
    keep = (iu < ju) | ~shared
    iu, ju, shared = iu[keep], ju[keep], shared[keep]
    rate = model.kappa * d[iu, ju]
    edge = np.full((n, n), -1)  # the column of each edge, -1 for none
    edge[iu, ju] = np.arange(rate.size)
    edge[ju[shared], iu[shared]] = edge[iu[shared], ju[shared]]
    out = np.zeros(size, dtype=np.int64)  # the settled sites
    rows = max(1, CLOCK_BLOCK // max(1, rate.size))
    for lo in range(0, size, rows):
        block = out[lo:lo + rows]  # a view: the settled sites of the block's paths
        clocks = gen.standard_exponential((block.size, rate.size))
        clocks /= rate
        idx = np.arange(block.size)  # the running paths, whose rows dist holds
        dist = np.full((block.size, n), math.inf)
        dist[:, mask_members(start)] = 0.0
        while idx.size:
            near = np.where(block[idx, None] >> np.arange(n) & 1, math.inf, dist)
            node = near.argmin(axis=1)
            near = near[np.arange(idx.size), node]
            live = near <= t
            idx, dist, node, near = idx[live], dist[live], node[live], near[live]
            block[idx] |= np.left_shift(1, node)
            if rate.size:  # a gather from no clocks would fail
                e = edge[node]
                step = np.where(e < 0, math.inf, clocks[idx[:, None], e])
                dist = np.minimum(dist, near[:, None] + step)
    return out


def terminal_masks(model: PercolationModel, v, t: float, reps: int, seed: int,
                   method: str = "gillespie") -> np.ndarray:
    """Bitmasks of X_t for `reps` independent paths from the subset v (member indices).

    "gillespie" samples the jump chain; "fpp" grows the first-passage ball of
    edge clocks Exp(kappa * xi_ij) on the directed edges i -> j, which has
    the same law for any nonnegative xi (the minimum of the clocks into a
    site is exponential in its total rate and memoryless).  The paths run
    in chunks of rng.CHUNK, each chunk in lockstep on its own stream
    (rng.chunk_streams), so the masks depend on the seed and CHUNK.  Both
    methods draw a chunk's first exponentials first, one per path, so on a
    single edge they draw the same variate.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if model.n > MASK_LIMIT:
        raise EngineTooLarge(f"terminal masks support n <= {MASK_LIMIT}")
    start = subset_mask(v, model.n)
    if method == "gillespie":
        # every total rate is at most kappa * sum|xi| up to rounding, which the
        # factor covers; an infinite total would search past the last bin
        if not math.isfinite(model.kappa * float(np.abs(model.xi.dense()).sum()) * (1 + 2 ** -20)):
            raise ValueError("the jump chain needs a finite total rate kappa * sum(xi), "
                             f"got kappa = {model.kappa:.6g}")
        run = _jump_chain_chunk
    elif method == "fpp":
        run = _edge_clock_chunk
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    out = np.empty(reps, dtype=np.int64)
    for lo, hi, gen in chunk_streams(seed, reps):
        out[lo:hi] = run(gen, hi - lo, model, start, t)
    return out


# ---------------------------------------------------------------------------
# Named functionals (shared between the exact and Monte Carlo engines)

# The moment families: name -> (kind, ell), for F(v) = |v|^ell * base(v) with
# base 1 (size), <1_v, x> (linear) or <1_v, G 1_v> (quadratic).
FAMILIES = {"size": ("size", 1), "size2": ("size", 2), "size3": ("size", 3),
            "linear": ("linear", 0), "size-linear": ("linear", 1),
            "size2-linear": ("linear", 2), "quadratic": ("quadratic", 0),
            "size-quadratic": ("quadratic", 1)}


def _family(name: str) -> tuple[str, int]:
    if name not in FAMILIES:
        raise ValueError(f"unknown family {name!r}; pick one of {tuple(FAMILIES)}")
    return FAMILIES[name]


def functional_values(family: str, xi: InteractionMatrix, masks, x=None,
                      G=None) -> np.ndarray:
    """The named member of FAMILIES at each bitmask (read by mask_array).

    The linear kinds read x and the quadratic kinds G; the size kinds read
    neither.
    """
    kind, ell = _family(family)
    masks = mask_array(masks, xi.n)
    sizes = np.bitwise_count(masks).astype(float)
    if kind == "size":
        return sizes ** ell
    payload = x if kind == "linear" else G
    if payload is None:
        raise ValueError(f"family {family!r} needs its payload {'x' if kind == 'linear' else 'G'}")
    payload = np.asarray(payload, dtype=float)
    base = np.empty(masks.size)
    for lo, hi in chunk_ranges(masks.size):  # the indicator rows of one chunk at a time
        ind = indicators(masks[lo:hi], xi.n)
        weights = ind @ payload
        base[lo:hi] = weights if kind == "linear" else np.einsum("mi,mi->m", weights, ind)
    return base * sizes ** ell


def mc_expectation(model: PercolationModel, family: str, v, t: float, reps: int,
                   seed: int, method: str = "gillespie", x=None, G=None) -> McEstimate:
    """Sample mean of the named functional at X_t over independent trajectories.

    stderr is the sample standard deviation / sqrt(reps).  Identical seeds
    give identical estimates.
    """
    if reps < 2:
        raise ValueError("need reps >= 2 for a standard error")
    functional_values(family, model.xi, [0], x, G)  # reject a bad family before sampling
    masks = terminal_masks(model, v, t, reps, seed, method=method)
    vals = functional_values(family, model.xi, masks, x, G)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(reps))
    return McEstimate(mean, stderr)


# ---------------------------------------------------------------------------
# Moment upper bounds, stated with the rate scale kappa

# _WEIGHT[ell] e^{ell kappa t} |v|^ell is the size weight of each family's ceiling
_WEIGHT = (1.0, 1.0, 2.0, 8.0)


def _require_row_sums(xi: InteractionMatrix):
    if not validate(xi).ok:
        raise ValueError("moment bounds need a valid matrix with row sums <= 1")


def _check_payload(arr, name: str, shape: tuple) -> np.ndarray:
    a = np.asarray(arr, dtype=float)  # a missing payload is a 0-d NaN
    if a.shape != shape:
        raise ValueError(f"{name} must be {'an n x n matrix' if shape[1:] else 'a length-n vector'}")
    if not ((a >= 0) & (a < math.inf)).all():
        raise ValueError(f"{name} must be entrywise nonnegative and finite")
    return a


def expectation_bounds(model: PercolationModel, masks, times, x=None, G=None,
                       tol: float = 1e-12) -> np.ndarray:
    """Every FAMILIES ceiling on E_v[F(X_t)] at each of the sorted times.

    Shape (len(times), len(masks), len(FAMILIES)), a row per start bitmask v
    of masks (read by mask_array), at any n.  A ceiling
    is _WEIGHT[ell] e^{ell kappa t} |v|^ell times 1 (size), <1_v, e^{kappa t xi}
    (I + xi)^ell x> (linear), or the quadratic form of G_t (ell = 0) or
    xi G_t + G_t xi^T + G_t (ell = 1) plus the drift integral (quadratic).
    They hold for row sums of xi <= 1 and nonnegative payloads; a payload
    left None is zero, and so are its families' ceilings.

    One block exponential (Van Loan, IEEE TAC 1978) steps the n x (n+5) state
    z = [Y | y0 | y1 | X] matrix-free from time to time, from
    ((I + xi)^ell x, ell = 0, 1, 2 | 0 | 0 | G): Y' = kappa xi Y,
    X' = kappa (xi X + X xi^T) and y_ell' = kappa xi y_ell + diag(B_ell X),
    with B_0 X = X and B_1 X = xi X + X xi^T + 2X; kappa xi y0 and
    kappa (xi + xi^2) y1 are the drift integrals.  A step of length h maps z
    to A z, A = kappa h xi, plus h diag(B_ell X) in y_ell and X A^T in X, of
    infinity norm at most mu = h max((kappa + 2) ||xi||_inf + 2, 2 kappa ||xi||_inf).
    With G None, X, y0 and y1 stay zero, so only the n x 3 block Y is
    stepped, at mu = h kappa ||xi||_inf, and with x None as well no
    exponential is taken.  Each scaling stage of step k is truncated within
    tol / stages times ||z_k||_max (entries only grow), and step j amplifies
    errors <= e^{mu_j} times, so z(times[K]) is within
    tol sum_{k<=K} ||z_k|| prod_{j=k..K} e^{mu_j}.
    """
    times = [float(t) for t in times]
    if not all(0 <= s <= t < math.inf for s, t in zip([0.0] + times, times)):
        raise ValueError(f"t must be finite and nonnegative, and times sorted, got {times}")
    _require_row_sums(model.xi)
    ind = indicators(masks, model.n)
    sizes = ind.sum(axis=1)
    n, kappa, d = model.n, model.kappa, model.xi.dense()
    z = np.zeros((n, 3 if G is None else n + 5))
    if x is not None:
        z[:, 0] = _check_payload(x, "x", (n,))
        z[:, 1] = z[:, 0] + d @ z[:, 0]
        z[:, 2] = z[:, 1] + d @ z[:, 1]
    if G is not None:
        z[:, 5:] = _check_payload(G, "G", (n, n))
    ells = np.array([ell for _, ell in FAMILIES.values()])
    norm_d = float(np.linalg.norm(d, np.inf))
    if G is None:
        rate = kappa * norm_d  # mu per unit step
    else:
        rate = max((kappa + 2.0) * norm_d + 2.0, 2.0 * kappa * norm_d)
    out = np.zeros((len(times), sizes.size, len(FAMILIES)))  # columns in FAMILIES order
    out[:, :, :3] = 1.0
    for i, (s, t) in enumerate(zip([0.0] + times, times)):
        def apply(w, a=kappa * (t - s) * d, h=t - s):
            res = a @ w
            if G is not None:
                res[:, 5:] += w[:, 5:] @ a.T
                res[:, 3] += h * w[:, 5:].diagonal()
                res[:, 4] += res[:, 5:].diagonal() / kappa + 2.0 * h * w[:, 5:].diagonal()
            return res
        if x is not None or G is not None:
            z = linalg.expm_action(apply, z, tol=tol, mu=(t - s) * rate)
        out[i, :, 3:6] = ind @ z[:, :3]
        if G is not None:
            mid = d @ z[:, 5:] + z[:, 5:] @ d.T + z[:, 5:]
            out[i, :, 6] = (np.einsum("mi,mi->m", ind @ z[:, 5:], ind)
                            + ind @ (kappa * (d @ z[:, 3])))
            out[i, :, 7] = (np.einsum("mi,mi->m", ind @ mid, ind)
                            + ind @ (kappa * ((d + d @ d) @ z[:, 4])))
        weight = np.array([_WEIGHT[ell] * math.exp(ell * kappa * t) for ell in ells])
        out[i] *= weight * sizes[:, None] ** ells
    return out


# ---------------------------------------------------------------------------
# Pointwise generator inequalities

def lemma_rhs(model: PercolationModel, masks, x=None, G=None) -> np.ndarray:
    """The generator bounds AF <= RHS for every member F of FAMILIES.

    Shape (len(masks), len(FAMILIES)), a row per bitmask of masks (read by
    mask_array) and a column per family in FAMILIES order.  With
    g = |v|((|v|+1)^ell - |v|^ell): kappa g (size);
    kappa ((|v|+1)^ell <1_v, xi x> + g <1_v, x>) (linear);
    kappa ((|v|+1)^ell drift + g <1_v, G 1_v>) (quadratic), where
    drift = <1_v, xi diag(G)> + <1_v, (xi G + G xi^T) 1_v>, for row sums <= 1.
    A payload left None gives zero columns for its families.
    """
    _require_row_sums(model.xi)
    n, d = model.n, model.xi.dense()
    ind = indicators(masks, n)
    sizes = ind.sum(axis=1)
    terms = {}  # kind -> its (|v|+1)^ell and g factors' inner products, for every ell
    if x is not None:
        xv = _check_payload(x, "x", (n,))
        terms["linear"] = ind @ (d @ xv), ind @ xv
    if G is not None:
        Gm = _check_payload(G, "G", (n, n))
        drift = (ind @ (d @ np.diag(Gm).copy())
                 + np.einsum("mi,mi->m", ind @ (d @ Gm + Gm @ d.T), ind))
        terms["quadratic"] = drift, np.einsum("mi,mi->m", ind @ Gm, ind)
    out = np.zeros((sizes.size, len(FAMILIES)))
    for k, (kind, ell) in enumerate(FAMILIES.values()):
        grow = (sizes + 1.0) ** ell
        step = grow - sizes ** ell
        if kind == "size":
            out[:, k] = model.kappa * sizes * step
        elif kind in terms:
            lead, base = terms[kind]
            out[:, k] = model.kappa * (grow * lead + sizes * step * base)
    return out


# ---------------------------------------------------------------------------
# Mean-field reductions

def yule_second_moment(k: int, rate: float, t: float) -> float:
    """Second moment of a pure-birth chain started at k with birth rate rate*j.

    At time t the population is negative binomial with success probability
    p = exp(-rate*t): the value is k(1-p)/p^2 + k^2/p^2, always <= 2 k^2/p^2.
    Raises ValueError where that value is past the largest double.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 < rate < math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    p = math.exp(-rate * t)
    value = k * (1.0 - p) / p ** 2 + k * k / p ** 2 if p ** 2 > 0.0 else math.inf
    if value == math.inf:
        raise ValueError(f"the second moment overflows a double at rate * t = {rate * t:.6g}")
    return value


def mean_field_size_expectation(n: int, kappa: float, k0, t: float,
                                power=2, tol: float = 1e-12):
    """Exact E[|X_t|^power] under all-to-all coupling 1/(n-1), |X_0| = k0.

    Valid for the exchangeable matrix only: there |X_t| is itself a birth
    chain with rate kappa * k(n-k)/(n-1), so the (n+1)-state chain replaces
    the 2^n subset engine and any n is cheap.  One pass serves every k0 of
    an array, which gives an aligned array; a scalar k0 gives a float.
    """
    k0 = np.asarray(k0)
    if n < 2 or not ((1 <= k0) & (k0 <= n)).all():
        raise ValueError(f"need n >= 2 and 1 <= k0 <= n, got n={n}, k0={k0}")
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    ks = np.arange(n + 1, dtype=float)
    birth = kappa * ks * (n - ks) / (n - 1)
    lam = float(birth.max())
    kernel = lambda cur: cur + _step_sum(cur, birth[None]) / lam
    out = uniformized(kernel, ks ** power, lam, [t], tol)[0, k0]
    return float(out) if out.ndim == 0 else out
