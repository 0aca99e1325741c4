"""The subset-valued growth process and its expectation machinery.

State is a subset v of {0,..,n-1}; element j joins at rate
kappa * sum_{i in v} xi[i, j], and nothing ever leaves, so the full set is
absorbing.  Three engines compute E_v[F(X_t)]:

  * exact uniformization over all 2^n subsets (n <= 16),
  * Gillespie sampling of the jump chain,
  * first-passage edge clocks (symmetric xi only; same law by memorylessness).

FAMILIES names the moment families once: size, linear and quadratic
functionals with size weights |v|^ell.  Each name gives its functional
(functional_values), its pointwise generator bound (lemma_rhs) and its
ceiling on E_v[F(X_t)] (expectation_bounds, one slice: expectation_bound),
stated with the model's rate scale kappa throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .matrix import (InteractionMatrix, SubsetState, cost_values, indicators, lattice,
                     step_pairs, validate, _frozen)
from .rng import chunk_streams

EXACT_ENGINE_LIMIT = 16   # 2^16 subset states
MASK_LIMIT = 63           # terminal states are int64 bitmasks


class EngineTooLarge(RuntimeError):
    pass


class NotApplicable(ValueError):
    pass


@dataclass(frozen=True)
class PercolationModel:
    xi: InteractionMatrix
    kappa: float  # rate scale multiplying every transition rate

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")
        negative = validate(self.xi).negative_entries
        if negative:  # a negative rate has no growth process
            raise ValueError("the growth process needs a nonnegative matrix, "
                             f"got negative entries at {list(negative)}")

    @property
    def n(self) -> int:
        return self.xi.n


@dataclass(frozen=True)
class SubsetFunction:
    """F : subsets of {0,..,n-1} -> R, tabulated over all 2^n bitmasks.

    values is one table, shape (2^n,), or a stack of c tables, shape (2^n, c),
    one functional per column; the exact engine serves a stack in one pass.
    """

    values: np.ndarray
    n: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[0] != 1 << self.n:
            raise ValueError(f"need 2^{self.n} values, or a stack of 2^{self.n} rows")
        object.__setattr__(self, "values", _frozen(vals))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    reps: int
    seed: int


# ---------------------------------------------------------------------------
# Exact subset engine

def _require_exact(n: int):
    if n > EXACT_ENGINE_LIMIT:
        raise EngineTooLarge(f"exact engine handles n <= {EXACT_ENGINE_LIMIT}, got {n}")


def _pairs(f: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """step_pairs(f, j), transposed for j < 4 so the long axis is innermost.

    The rows of the low bits hold 1-8 entries; iterating 2^(n-1-j) of them
    costs far more than one strided pass along the other axis.  The transpose
    reverses every axis, so a stack's column axis comes first there.
    """
    lo, hi = step_pairs(f, j)
    return (lo.T, hi.T) if j < 4 else (lo, hi)


class _Engine:
    """Per-model tables for the exact subset engine, over the up-set of v.

    Started at the mask v, the process only adds sites, so it visits only
    the supersets v | u, u a subset of the free sites c outside v.  They form
    a copy of the lattice on c: masks[u] = v | u, with u in the bit order of
    c, so u = 0 is v itself; v = 0 gives the full lattice in mask order.
    Site c[j] joins v | u at rate kappa * sums[j, u], sums[j, u] =
    sum_{i in v | u} xi[i, c[j]], added in index order, so that each up-set's
    rates and kernel steps are bitwise a slice of the full lattice's.

    The uniformization rate is lam = kappa * max_u sum_j sums[j, u] over u
    lacking j, times 1 + 1e-12: the largest exit rate over the up-set, never
    above the full lattice's, the least rate for which I + A/lam is
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
        sums = np.zeros((len(free), 1 << len(free)))
        self.masks = np.full(1 << len(free), v, dtype=np.int64)
        size = 1
        for i in range(n):  # sums[:, :size] covers the free sites below i
            row = d[i, free][:, None]
            if v >> i & 1:
                sums[:, :size] += row
            else:
                np.add(sums[:, :size], row, out=sums[:, size:2 * size])
                np.bitwise_or(self.masks[:size], 1 << i, out=self.masks[size:2 * size])
                size *= 2
        # kept only at the up-set masks lacking each free site, in _pairs' layout
        self.rates = [_pairs(sums[j], j)[0].copy() for j in range(len(free))]
        exits = np.zeros(size)
        for j, rate in enumerate(self.rates):
            lo = _pairs(exits, j)[0]
            lo += rate
        top = float(exits.max())
        self.lam = model.kappa * top * (1.0 + 1e-12) if top > 0.0 else model.kappa
        self.curve_lam = self.lam if top > 0.0 else 0.0

    def apply_generator(self, f: np.ndarray) -> np.ndarray:
        # f is one table over the up-set, or a stack (rows, c).  One scratch
        # buffer serves every bit, so no bit allocates a temporary.  A stack's
        # column axis leads in the transposed low bits, where the rates
        # broadcast as they are, and trails in the others, where they take a
        # trailing axis.
        out = np.zeros(f.shape)
        buf = np.empty(f.size // 2)
        stacked = f.ndim == 2
        for j, rate in enumerate(self.rates):
            lo, hi = _pairs(f, j)
            step = buf.reshape(lo.shape)
            np.subtract(hi, lo, out=step)
            np.multiply(step, rate[:, :, None] if stacked and j >= 4 else rate, out=step)
            acc = _pairs(out, j)[0]
            acc += step
        out *= self.kappa
        return out

    def apply_kernel(self, f: np.ndarray) -> np.ndarray:
        # one step of the uniformized (stochastic) kernel I + A/lam
        out = self.apply_generator(f)
        out /= self.lam
        out += f
        return out


@lru_cache(maxsize=6)
def _engine(model: PercolationModel, v: int = 0) -> _Engine:
    return _Engine(model, v)


def generator_apply(model: PercolationModel, F: SubsetFunction) -> SubsetFunction:
    """Exact AF on every subset, column by column for a stack; AF([n]) = 0
    and A annihilates constants."""
    if F.n != model.n:
        raise ValueError("function and model sizes differ")
    eng = _engine(model)
    return SubsetFunction(eng.apply_generator(np.asarray(F.values, dtype=float)), model.n)


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


def exact_expectations(model: PercolationModel, F: SubsetFunction, v, times,
                       tol: float = 1e-10, rate: float | None = None,
                       horizon: float | None = None) -> np.ndarray:
    """E_u[F(X_t)] at each of the sorted times, in one uniformized pass.

    Shape (len(times), rows), a stack keeping its column axis; a rate adds
    the row of int_0^{t_max} e^{-rate s} E_u[F(X_s)] ds, t_max the last time
    or a later horizon, so times=[] with a horizon gives that row alone.  The
    integral row is bitwise the same either way.  v=None gives all
    2^n masks u in mask order; a start subset v gives its 2^(n-|v|)
    supersets u = v | w, w over the sites outside v in their bit order, so
    row 0 is v, at the largest exit rate over them (see _Engine).  Each time
    is certified at tol * max|F| and the integral at t_max * tol * max|F|,
    max|F| taken over the rows.
    """
    if F.n != model.n:
        raise ValueError("function and model sizes differ")
    eng = _engine(model, 0 if v is None else SubsetState.of(v, model.n).mask)
    return uniformized(eng.apply_kernel, F.values[eng.masks], eng.curve_lam, times, tol, rate,
                       horizon)


def exact_expectation(model: PercolationModel, F: SubsetFunction, v, t: float,
                      tol: float = 1e-10):
    """E_v[F(X_t)] certified at tol * max|F|: the one-time slice of
    exact_expectations.  v=None gives every start subset (a vector over
    masks); a start subset reads row 0 of its up-set, a float for one table
    and a length-c array for a stack of c.
    """
    vals = exact_expectations(model, F, v, [t], tol)[0]
    if v is None:
        return vals
    return vals[0] if vals.ndim == 2 else float(vals[0])


# ---------------------------------------------------------------------------
# Monte Carlo engines

def _jump_chain_chunk(gen: np.random.Generator, size: int, model: PercolationModel,
                      members: list, t: float) -> np.ndarray:
    """Terminal masks of `size` jump-chain paths from the members, in lockstep.

    With rows[i] = kappa * xi[i], a path's rate at a site outside it is its
    start rows' column sum plus the rows of the sites that joined since.
    Each round, the paths with a positive total rate draw
    standard_exponential(live), clock += E / total, and those with
    clock <= t draw random(live) and take the site where the row cumsum
    first exceeds u * total, one total serving the clock and the search.
    Each round adds a site, so at most n - |v| rounds run.
    """
    rows = model.kappa * model.xi.dense()
    out = np.full(size, sum(1 << i for i in members), dtype=np.int64)
    idx = np.arange(size)  # the running paths, whose rows the arrays below hold
    acc = np.tile(rows[members].sum(axis=0), (size, 1))
    clock = np.zeros(size)
    while idx.size:
        cs = np.cumsum(np.where(out[idx, None] >> np.arange(model.n) & 1, 0.0, acc), axis=1)
        live = cs[:, -1] > 0.0  # a path without exit is absorbed
        if not live.all():
            idx, acc, clock, cs = (a[live] for a in (idx, acc, clock, cs))
        total = cs[:, -1]
        clock += gen.standard_exponential(idx.size) / total
        live = clock <= t
        if not live.all():
            idx, acc, clock, cs, total = (a[live] for a in (idx, acc, clock, cs, total))
        # u < total, so the search lands on a bin of positive rate
        j = (cs <= (gen.random(idx.size) * total)[:, None]).sum(axis=1)
        out[idx] |= np.left_shift(1, j)
        acc += rows[j]
    return out


CLOCK_BLOCK = 1 << 20  # edge clocks held at once by an edge-clock chunk


def _edge_clock_chunk(gen: np.random.Generator, size: int, model: PercolationModel,
                      members: list, t: float) -> np.ndarray:
    """Terminal masks of `size` edge-clock paths: first-passage balls of radius t.

    The clocks are standard_exponential((rows, E)) / rate over the E edges
    i < j, drawn for blocks of rows in turn, each block at most about
    CLOCK_BLOCK clocks; the chunk draws nothing else, so the clocks are the
    rows of one (size, E) draw.  Dijkstra runs on a block's paths in
    lockstep: each round a path settles its nearest unsettled site, while
    that lies within t, and relaxes the site's edges to dist + clock, so at
    most n rounds run.
    """
    xi, n = model.xi, model.n
    upper = xi.ii < xi.jj
    rate = model.kappa * xi.vals[upper]
    edge = np.full((n, n), -1)  # the edge joining each pair of sites, -1 for none
    edge[xi.ii[upper], xi.jj[upper]] = edge[xi.jj[upper], xi.ii[upper]] = np.arange(rate.size)
    out = np.zeros(size, dtype=np.int64)  # the settled sites
    rows = max(1, CLOCK_BLOCK // max(1, rate.size))
    for lo in range(0, size, rows):
        block = out[lo:lo + rows]  # a view: the settled sites of the block's paths
        clocks = gen.standard_exponential((block.size, rate.size))
        clocks /= rate
        idx = np.arange(block.size)  # the running paths, whose rows dist holds
        dist = np.full((block.size, n), math.inf)
        dist[:, members] = 0.0
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
    """Bitmasks of X_t for `reps` independent paths started at v.

    "gillespie" samples the jump chain; "fpp" grows the first-passage ball of
    independent edge clocks Exp(kappa * xi_ij), which for symmetric xi has the
    same law (the minimum of the relevant clocks is exponential in the total
    rate and memoryless).  The paths run in chunks of rng.CHUNK, each chunk
    in lockstep on its own stream (rng.chunk_streams), so the masks depend
    on the seed and CHUNK.  Both methods draw a chunk's first exponentials
    first, one per path, so on a single edge they draw the same variate.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if model.n > MASK_LIMIT:
        raise EngineTooLarge(f"terminal masks support n <= {MASK_LIMIT}")
    members = SubsetState.of(v, model.n).members
    if method == "gillespie":
        # every total rate is at most kappa * sum|xi| up to rounding, which the
        # factor covers; an infinite total would search past the last bin
        if not math.isfinite(model.kappa * float(np.abs(model.xi.vals).sum()) * (1 + 2 ** -20)):
            raise ValueError("the jump chain needs a finite total rate kappa * sum(xi), "
                             f"got kappa = {model.kappa:.6g}")
        run = _jump_chain_chunk
    elif method == "fpp":
        if not model.xi.symmetric:
            raise NotApplicable("edge-clock growth needs a symmetric matrix")
        run = _edge_clock_chunk
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    out = np.empty(reps, dtype=np.int64)
    for lo, hi, gen in chunk_streams(seed, reps):
        out[lo:hi] = run(gen, hi - lo, model, members, t)
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


def functional_values(spec, xi: InteractionMatrix, masks) -> np.ndarray:
    """The functional evaluated at each bitmask of an int64 array.

    spec is a family name of FAMILIES, alone for the size families or as a
    (name, payload) pair whose payload carries x (linear kinds) or G
    (quadratic kinds); or a ("C" or "chat", payload) pair with constants and h3.
    """
    n = xi.n
    masks = np.asarray(masks, dtype=np.int64)
    if isinstance(spec, str):
        name, payload = spec, {}
    else:
        name, payload = spec[0], dict(spec[1])

    if name in ("C", "chat"):
        h3 = float(payload.get("h3", 0.0)) if name == "chat" else None
        return cost_values(xi, masks, payload["constants"], h3)

    kind, ell = _family(name)
    if not payload.keys() <= {"x", "G"}:
        raise ValueError(f"family {name!r} takes a payload of x or G, got {sorted(payload)}")
    sizes = np.bitwise_count(masks).astype(float)
    if kind == "size":
        return sizes ** ell
    ind = indicators(masks, n)
    if kind == "linear":
        base = ind @ np.asarray(payload["x"], dtype=float)
    else:
        base = np.einsum("mi,mi->m", ind @ np.asarray(payload["G"], dtype=float), ind)
    return base * sizes ** ell


def functional_table(spec, xi: InteractionMatrix) -> SubsetFunction:
    """The functional tabulated over all subsets (exact-engine sizes only)."""
    _require_exact(xi.n)
    masks = np.arange(1 << xi.n, dtype=np.int64)
    return SubsetFunction(functional_values(spec, xi, masks), xi.n)


def mc_expectation(model: PercolationModel, functional, v, t: float, reps: int,
                   seed: int, method: str = "gillespie") -> McEstimate:
    """Sample mean of F(X_t) over independent trajectories.

    stderr is the sample standard deviation / sqrt(reps).  Identical seeds
    give identical estimates.
    """
    if reps < 2:
        raise ValueError("need reps >= 2 for a standard error")
    functional_values(functional, model.xi, [])  # reject a bad spec before sampling
    masks = terminal_masks(model, v, t, reps, seed, method=method)
    vals = functional_values(functional, model.xi, masks)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(reps))
    return McEstimate(mean, stderr, reps, seed)


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


def expectation_bounds(model: PercolationModel, v, times, x=None, G=None,
                       tol: float = 1e-12) -> np.ndarray:
    """Every FAMILIES ceiling on E_v[F(X_t)] at each of the sorted times.

    Shape (len(times), rows, len(FAMILIES)), the rows every start subset for
    v=None (exact-engine sizes only), else v alone, so any n works.  A ceiling
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
    if v is None:
        _require_exact(model.n)
        ind, sizes = lattice(model.n)
    else:
        ind = indicators([SubsetState.of(v, model.n).mask], model.n)
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


def expectation_bound(model: PercolationModel, family: str, v, t: float,
                      x=None, G=None, tol: float = 1e-12):
    """The named family's ceiling at time t: one slice of expectation_bounds."""
    kind, _ = _family(family)
    x = _check_payload(x, "x", (model.n,)) if kind == "linear" else None
    G = _check_payload(G, "G", (model.n, model.n)) if kind == "quadratic" else None
    vals = expectation_bounds(model, v, [t], x, G, tol)[0, :, list(FAMILIES).index(family)]
    return vals if v is None else float(vals[0])


# ---------------------------------------------------------------------------
# Pointwise generator inequalities (right-hand sides as subset tables)

def lemma_rhs(model: PercolationModel, family: str, x=None, G=None) -> SubsetFunction:
    """The generator bound AF <= RHS for F the named member of FAMILIES.

    With g = |v|((|v|+1)^ell - |v|^ell): kappa g (size);
    kappa ((|v|+1)^ell <1_v, xi x> + g <1_v, x>) (linear);
    kappa ((|v|+1)^ell drift + g <1_v, G 1_v>) (quadratic), where
    drift = <1_v, xi diag(G)> + <1_v, (xi G + G xi^T) 1_v>, for row sums <= 1.
    """
    kind, ell = _family(family)
    _require_row_sums(model.xi)
    ind, sizes = lattice(model.n)
    d = model.xi.dense()
    grow = (sizes + 1.0) ** ell
    step = grow - sizes ** ell
    if kind == "size":
        return SubsetFunction(model.kappa * sizes * step, model.n)
    g = sizes * step
    if kind == "linear":
        xv = _check_payload(x, "x", (model.n,))
        vals = grow * (ind @ (d @ xv)) + g * (ind @ xv)
    else:
        Gm = _check_payload(G, "G", (model.n, model.n))
        drift = (ind @ (d @ np.diag(Gm).copy())
                 + np.einsum("mi,mi->m", ind @ (d @ Gm + Gm @ d.T), ind))
        vals = grow * drift + g * np.einsum("mi,mi->m", ind @ Gm, ind)
    return SubsetFunction(model.kappa * vals, model.n)


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


def mean_field_size_expectation(n: int, kappa: float, k0: int, t: float,
                                power=2, tol: float = 1e-12) -> float:
    """Exact E[|X_t|^power] under all-to-all coupling 1/(n-1), |X_0| = k0.

    Valid for the exchangeable matrix only: there |X_t| is itself a birth
    chain with rate kappa * k(n-k)/(n-1), so the (n+1)-state chain replaces
    the 2^n subset engine and any n is cheap.
    """
    if n < 2 or not 1 <= k0 <= n:
        raise ValueError(f"need n >= 2 and 1 <= k0 <= n, got n={n}, k0={k0}")
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    ks = np.arange(n + 1, dtype=float)
    birth = kappa * ks * (n - ks) / (n - 1)
    lam = float(birth.max())
    # birth[n] = 0 keeps the full state absorbing under the wrap-around roll
    kernel = lambda cur: cur + (birth * (np.roll(cur, -1) - cur)) / lam
    return float(uniformized(kernel, ks ** power, lam, [t], tol)[0, k0])
