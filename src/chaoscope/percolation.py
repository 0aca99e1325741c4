"""The subset-valued growth process and its expectation machinery.

State is a subset v of {0,..,n-1}; element j joins at rate
kappa * sum_{i in v} xi[i, j], and nothing ever leaves, so the full set is
absorbing.  Three engines compute E_v[F(X_t)]:

  * exact uniformization over all 2^n subsets (n <= 16),
  * Gillespie sampling of the jump chain,
  * first-passage edge clocks (symmetric xi only; same law by memorylessness).

The closed-form upper bounds on moments (size, linear, and quadratic
families, each with optional size weights) are evaluated here too, stated
with the model's rate scale kappa throughout.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg
from .matrix import (InteractionMatrix, SubsetState, indicators, lattice, step_pairs,
                     validate, _frozen)
from .rng import stream

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

    @property
    def n(self) -> int:
        return self.xi.n


@dataclass(frozen=True)
class SubsetFunction:
    """F : subsets of {0,..,n-1} -> R, tabulated over all 2^n bitmasks."""

    values: np.ndarray
    n: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (1 << self.n,):
            raise ValueError(f"need exactly 2^{self.n} values")
        object.__setattr__(self, "values", _frozen(vals))

    @classmethod
    def constant(cls, n: int, c: float) -> "SubsetFunction":
        return cls(np.full(1 << n, float(c)), n)


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


class _Engine:
    """Per-model tables for the exact subset engine."""

    def __init__(self, model: PercolationModel):
        n = model.n
        _require_exact(n)
        self.kappa = model.kappa
        # sums[j, m] = sum_{i in m} xi[i, j]; j joins mask m at rate kappa * that
        sums = np.ascontiguousarray((lattice(n)[0] @ model.xi.dense()).T)
        # kept only at the masks lacking j, in step_pairs' (-1, 2^j) layout
        self.rates = [step_pairs(sums[j], j)[0].copy() for j in range(n)]
        self.lam = model.kappa * n * max(1.0, float(model.xi.row_sums.max()))

    def apply_generator(self, f: np.ndarray) -> np.ndarray:
        out = np.zeros_like(f)
        for j, rate in enumerate(self.rates):
            lo, hi = step_pairs(f, j)
            acc = step_pairs(out, j)[0]
            acc += rate * (hi - lo)
        return self.kappa * out

    def apply_kernel(self, f: np.ndarray) -> np.ndarray:
        # one step of the uniformized (stochastic) kernel I + A/lam
        return f + self.apply_generator(f) / self.lam


@lru_cache(maxsize=6)
def _engine(model: PercolationModel) -> _Engine:
    return _Engine(model)


def generator_apply(model: PercolationModel, F: SubsetFunction) -> SubsetFunction:
    """Exact AF on every subset; AF([n]) = 0 and A annihilates constants."""
    if F.n != model.n:
        raise ValueError("function and model sizes differ")
    eng = _engine(model)
    return SubsetFunction(eng.apply_generator(np.asarray(F.values, dtype=float)), model.n)


# ---------------------------------------------------------------------------
# Exact expectations by uniformization

@dataclass(frozen=True)
class UniformizedCurve:
    """Coefficients of e^{tA}F as a Poisson mixture, valid for any t <= t_max.

    coeffs[k] holds P^k F over all masks; the Poisson(lam*t) tail beyond the
    stored order is monotone in t, so one truncation certifies the whole
    interval at tol * ||F||_inf.
    """

    coeffs: np.ndarray
    lam: float
    t_max: float
    tol: float

    @classmethod
    def build(cls, kernel, f: np.ndarray, lam: float, t_max: float,
              tol: float) -> "UniformizedCurve":
        """Apply the stochastic kernel I + A/lam up to the Poisson(lam t_max)
        truncation order (Fox & Glynn, CACM 1988)."""
        kmax = linalg.poisson_truncation(lam * t_max, tol)
        coeffs = np.empty((kmax + 1, f.size))
        coeffs[0] = f
        for k in range(1, kmax + 1):
            coeffs[k] = kernel(coeffs[k - 1])
        return cls(_frozen(coeffs), lam, t_max, tol)

    def eval_all(self, t: float) -> np.ndarray:
        if t < 0 or t > self.t_max * (1 + 1e-12):
            raise ValueError("curve evaluated outside [0, t_max]")
        w = linalg.poisson_weights(self.lam * t, self.coeffs.shape[0] - 1)
        return w @ self.coeffs


def expectation_curve(model: PercolationModel, F: SubsetFunction,
                      t_max: float, tol: float = 1e-10) -> UniformizedCurve:
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not 0 <= t_max < math.inf:
        raise ValueError("t_max must be finite and nonnegative")
    if F.n != model.n:
        raise ValueError("function and model sizes differ")
    eng = _engine(model)
    return UniformizedCurve.build(eng.apply_kernel, F.values, eng.lam, t_max, tol)


def exact_expectation(model: PercolationModel, F: SubsetFunction, v, t: float,
                      tol: float = 1e-10):
    """E_v[F(X_t)] with truncation error certified <= tol * ||F||_inf.

    v=None gives every start subset at once (a vector over masks).
    """
    mask = None if v is None else SubsetState.of(v, model.n).mask
    vals = expectation_curve(model, F, t, tol).eval_all(t)
    return vals if mask is None else float(vals[mask])


# ---------------------------------------------------------------------------
# Monte Carlo engines

def _gillespie_run(dense: np.ndarray, kappa: float, v: SubsetState, t: float,
                   gen: np.random.Generator) -> int:
    """Terminal mask of one jump-chain path: Exp holding times, next index by rate."""
    members = np.zeros(v.n, dtype=bool)
    members[v.sorted_members()] = True
    rates = kappa * dense[members].sum(axis=0)
    rates[members] = 0.0
    mask = v.mask
    clock = 0.0
    while True:
        cs = rates.cumsum()
        total = cs[-1]
        if total <= 0.0:
            return mask
        clock += gen.exponential(1.0 / total)
        if clock > t:
            return mask
        # u < cs[-1], so the search lands on a bin of positive rate
        u = gen.random() * total
        j = int(np.searchsorted(cs, u, side="right"))
        mask |= 1 << j
        members[j] = True
        rates = rates + kappa * dense[j]
        rates[members] = 0.0


def _fpp_edges(model: PercolationModel):
    """(neighbour, edge) adjacency lists and the mean clock 1/(kappa xi_ij) per edge."""
    xi = model.xi
    upper = xi.ii < xi.jj
    adj: list[list[tuple[int, int]]] = [[] for _ in range(xi.n)]
    for e, (a, b) in enumerate(zip(xi.ii[upper].tolist(), xi.jj[upper].tolist())):
        adj[a].append((b, e))
        adj[b].append((a, e))
    return adj, 1.0 / (model.kappa * xi.vals[upper])


def _fpp_run(adj: list, scale: np.ndarray, v: SubsetState, t: float,
             gen: np.random.Generator) -> int:
    """Terminal mask of one edge-clock path: Dijkstra from v, stopped beyond t."""
    clocks = gen.exponential(scale).tolist()
    dist = {i: 0.0 for i in v.members}
    heap = [(0.0, i) for i in sorted(v.members)]  # sorted, so already a heap
    mask = 0  # the settled nodes
    while heap:
        d, node = heapq.heappop(heap)
        if d > t:
            return mask
        if mask >> node & 1:
            continue
        mask |= 1 << node
        for nbr, e in adj[node]:
            nd = d + clocks[e]
            if not mask >> nbr & 1 and nd < dist.get(nbr, math.inf):
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return mask


def terminal_masks(model: PercolationModel, v, t: float, reps: int, seed: int,
                   method: str = "gillespie") -> np.ndarray:
    """Bitmasks of X_t for `reps` independent paths started at v.

    "gillespie" samples the jump chain; "fpp" grows the first-passage ball of
    independent edge clocks Exp(kappa * xi_ij), which for symmetric xi has the
    same law (the minimum of the relevant clocks is exponential in the total
    rate and memoryless).  Path r uses the stream (seed, r).
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    if model.n > MASK_LIMIT:
        raise EngineTooLarge(f"terminal masks support n <= {MASK_LIMIT}")
    v = SubsetState.of(v, model.n)
    if method == "gillespie":
        dense = model.xi.dense()
        run = lambda gen: _gillespie_run(dense, model.kappa, v, t, gen)
    elif method == "fpp":
        if not model.xi.symmetric:
            raise NotApplicable("edge-clock growth needs a symmetric matrix")
        adj, scale = _fpp_edges(model)
        run = lambda gen: _fpp_run(adj, scale, v, t, gen)
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    return np.array([run(stream(seed, r)) for r in range(reps)], dtype=np.int64)


# ---------------------------------------------------------------------------
# Named functionals (shared between the exact and Monte Carlo engines)

def functional_values(spec, xi: InteractionMatrix, masks) -> np.ndarray:
    """The functional evaluated at each bitmask of an int64 array.

    spec is a name ("size", "size2", "size3"), a (name, payload) pair for
    payload-carrying functionals ("linear"/"quadratic" with x or G and
    optional ell; "C"/"chat" with constants and h3), or a callable
    SubsetState -> float.
    """
    n = xi.n
    masks = np.asarray(masks, dtype=np.int64)
    if callable(spec):
        return np.array([float(spec(SubsetState.from_mask(m, n))) for m in masks.tolist()])
    if isinstance(spec, str):
        name, payload = spec, {}
    else:
        name, payload = spec[0], dict(spec[1])
    sizes = np.bitwise_count(masks).astype(float)

    if name in ("size", "size2", "size3"):
        return sizes ** {"size": 1, "size2": 2, "size3": 3}[name]

    if name in ("linear", "quadratic"):
        ind = indicators(masks, n)
        ell = int(payload.get("ell", 0))
        if name == "linear":
            base = ind @ np.asarray(payload["x"], dtype=float)
        else:
            base = np.einsum("mi,mi->m", ind @ np.asarray(payload["G"], dtype=float), ind)
        return base * sizes ** ell

    if name in ("C", "chat"):
        from .matrix import C_of_v, Chat_of_v
        constants = payload["constants"]
        if name == "C":
            fn = lambda s: C_of_v(xi, s, constants)
        else:
            h3 = float(payload.get("h3", 0.0))
            fn = lambda s: Chat_of_v(xi, s, constants, h3)
        return np.array([0.0 if m == 0 else fn(SubsetState.from_mask(m, n))
                         for m in masks.tolist()])

    raise ValueError(f"unknown functional {name!r}")


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

_FAMILIES = ("size", "size2", "size3", "linear", "size-linear",
             "size2-linear", "quadratic", "size-quadratic")


def _require_row_sums(xi: InteractionMatrix):
    if not validate(xi).ok:
        raise ValueError("moment bounds need a valid matrix with row sums <= 1")


def _check_payload(arr, name):
    a = np.asarray(arr, dtype=float)
    if (a < 0).any():
        raise ValueError(f"{name} must be entrywise nonnegative")
    return a


def _quadratic_ingredients(model: PercolationModel, G: np.ndarray, t: float,
                           tol: float, sized: bool):
    """G_t and the time-integral vector of quadratic (or, sized, size-quadratic)."""
    d = model.xi.dense()
    k = model.kappa

    def g_at(s):
        e = linalg.expm(k * s * d)
        return e @ G @ e.T

    def integrand(s):
        if not sized:
            return d @ (linalg.expm(k * (t - s) * d) @ np.diag(g_at(s)).copy())
        gs = g_at(s)
        w = np.diag(d @ gs + gs @ d.T + 2.0 * gs).copy()
        z = d @ w
        return linalg.expm_action(k * (t - s) * d, z + d @ z)

    return g_at(t), k * linalg.simpson_adaptive(integrand, 0.0, t, rel_tol=tol)


def expectation_bound(model: PercolationModel, family: str, v, t: float,
                      x=None, G=None, tol: float = 1e-8):
    """Closed-form upper bound on the matching moment of X_t started from v.

    size/size2/size3 bound E|X|^p; linear and its size-weighted variants
    bound E[|X|^p <1_X, x>]; quadratic and size-quadratic bound
    E[|X|^p <1_X, G 1_X>].  Row sums of xi must be <= 1 and payloads
    nonnegative (the hypotheses under which the bounds hold).  v=None gives
    every start subset at once (a vector over masks, exact-engine sizes
    only); a single v is one indicator row, so any n works.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; pick one of {_FAMILIES}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    _require_row_sums(model.xi)
    if v is None:
        _require_exact(model.n)
        ind, sizes = lattice(model.n)
    else:
        ind = indicators([SubsetState.of(v, model.n).mask], model.n)
        sizes = ind.sum(axis=1)
    kap = model.kappa
    if family == "size":
        vals = math.exp(kap * t) * sizes
    elif family == "size2":
        vals = 2.0 * math.exp(2.0 * kap * t) * sizes ** 2
    elif family == "size3":
        vals = 8.0 * math.exp(3.0 * kap * t) * sizes ** 3
    elif family in ("linear", "size-linear", "size2-linear"):
        d = model.xi.dense()
        xv = _check_payload(x, "x")
        if xv.shape != (model.n,):
            raise ValueError("x must be a length-n vector")
        if family == "linear":
            vals = ind @ linalg.expm_action(kap * t * d, xv)
        elif family == "size-linear":
            y = xv + d @ xv
            vals = sizes * math.exp(kap * t) * (ind @ linalg.expm_action(kap * t * d, y))
        else:
            y = xv + d @ xv
            y = y + d @ y
            vals = 2.0 * sizes ** 2 * math.exp(2.0 * kap * t) * (
                ind @ linalg.expm_action(kap * t * d, y))
    else:
        d = model.xi.dense()
        Gm = _check_payload(G, "G")
        if Gm.shape != (model.n, model.n):
            raise ValueError("G must be an n x n matrix")
        g_t, integral = _quadratic_ingredients(model, Gm, t, tol,
                                               sized=family == "size-quadratic")
        if family == "quadratic":
            vals = np.einsum("mi,mi->m", ind @ g_t, ind) + ind @ integral
        else:
            mid = d @ g_t + g_t @ d.T + g_t
            vals = sizes * math.exp(kap * t) * (
                np.einsum("mi,mi->m", ind @ mid, ind) + ind @ integral)
    return vals if v is None else float(vals[0])


# ---------------------------------------------------------------------------
# Pointwise generator inequalities (right-hand sides as subset tables)

def lemma_polynomial_rhs(model: PercolationModel, ell: int) -> SubsetFunction:
    """kappa * |v| * ((|v|+1)^ell - |v|^ell)."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    _, sizes = lattice(model.n)
    vals = model.kappa * sizes * ((sizes + 1.0) ** ell - sizes ** ell)
    return SubsetFunction(vals, model.n)


def lemma_linear_rhs(model: PercolationModel, x, ell: int) -> SubsetFunction:
    """kappa (|v|+1)^ell <1_v, xi x> + kappa |v|((|v|+1)^ell - |v|^ell) <1_v, x>."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    xv = _check_payload(x, "x")
    ind, sizes = lattice(model.n)
    d = model.xi.dense()
    vals = model.kappa * ((sizes + 1.0) ** ell * (ind @ (d @ xv))
                          + sizes * ((sizes + 1.0) ** ell - sizes ** ell) * (ind @ xv))
    return SubsetFunction(vals, model.n)


def lemma_quadratic_rhs(model: PercolationModel, G, ell: int) -> SubsetFunction:
    """The generator bound for <1_v, G 1_v> (ell = 0) or |v| <1_v, G 1_v> (ell = 1)."""
    if ell not in (0, 1):
        raise ValueError("quadratic bound is stated for ell in {0, 1}")
    Gm = _check_payload(G, "G")
    ind, sizes = lattice(model.n)
    d = model.xi.dense()
    diag_term = ind @ (d @ np.diag(Gm).copy())
    cross = d @ Gm + Gm @ d.T
    cross_term = np.einsum("mi,mi->m", ind @ cross, ind)
    if ell == 0:
        vals = model.kappa * (diag_term + cross_term)
    else:
        quad = np.einsum("mi,mi->m", ind @ Gm, ind)
        vals = model.kappa * ((sizes + 1.0) * (diag_term + cross_term) + sizes * quad)
    return SubsetFunction(vals, model.n)


# ---------------------------------------------------------------------------
# Mean-field reductions

def yule_second_moment(k: int, rate: float, t: float) -> float:
    """Second moment of a pure-birth chain started at k with birth rate rate*j.

    At time t the population is negative binomial with success probability
    p = exp(-rate*t): the value is k(1-p)/p^2 + k^2/p^2, always <= 2 k^2/p^2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if rate <= 0:
        raise ValueError("rate must be positive")
    p = math.exp(-rate * t)
    return k * (1.0 - p) / p ** 2 + k * k / p ** 2


def mean_field_size_expectation(n: int, kappa: float, k0: int, t: float,
                                power=2, tol: float = 1e-12) -> float:
    """Exact E[f(|X_t|)] under all-to-all coupling 1/(n-1), |X_0| = k0.

    Valid for the exchangeable matrix only: there |X_t| is itself a birth
    chain with rate kappa * k(n-k)/(n-1), so the (n+1)-state chain replaces
    the 2^n subset engine and any n is cheap.  power is an exponent for
    f(k) = k^power, or a callable applied to the size vector 0..n.
    """
    if n < 2 or not 1 <= k0 <= n:
        raise ValueError(f"need n >= 2 and 1 <= k0 <= n, got n={n}, k0={k0}")
    ks = np.arange(n + 1, dtype=float)
    birth = kappa * ks * (n - ks) / (n - 1)
    lam = float(birth.max())
    f = np.asarray(power(ks), dtype=float) if callable(power) else ks ** power
    if lam <= 0 or t == 0.0:
        return float(f[k0])
    # birth[n] = 0 keeps the full state absorbing under the wrap-around roll
    kernel = lambda cur: cur + (birth * (np.roll(cur, -1) - cur)) / lam
    return float(UniformizedCurve.build(kernel, f, lam, t, tol).eval_all(t)[k0])
