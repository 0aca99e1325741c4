"""Exactly solvable linear-drift system used as a ground-truth oracle.

With drift dX = xi X dt + dB from zero, the time-T law is centered Gaussian
with covariance Sigma_T = int_0^T e^{s xi} e^{s xi^T} ds, while the
independent projection is plain Brownian motion (covariance T I).  Relative
entropies of subset marginals are then explicit spectral formulas, and each
closed-form bound in this module carries its proof-level constant so the
two-sided checks are reproducible to the digit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import linalg
from .matrix import InteractionMatrix, SubsetState, indicators, lattice, _frozen
from .rng import chunk_ranges, stream

ENUMERATION_LIMIT = 10 ** 6


class InvalidCovariance(ValueError):
    pass


@dataclass(frozen=True)
class GaussianModel:
    xi: InteractionMatrix
    T: float
    sigma_T: np.ndarray    # covariance of the interacting system at time T
    series_order: int      # highest series term used to build sigma_T
    tail_bound: float      # certified sup-norm remainder of sigma_T / T

    def __post_init__(self):
        object.__setattr__(self, "sigma_T", _frozen(np.asarray(self.sigma_T, dtype=float)))

    @property
    def n(self) -> int:
        return self.xi.n

    @property
    def rho(self) -> float:  # operator norm of xi
        return self.xi.rho

    def small_time(self) -> bool:
        """Whether T sits inside the window where the lower bounds are asserted."""
        return self.rho == 0.0 or self.T <= math.log(2.0) / (2.0 * self.rho)

    def centered(self, v: SubsetState | None = None) -> np.ndarray:
        """T^{-1} Sigma^v_T - I for the chosen subset (the whole index set if None)."""
        if v is None:
            sub = self.sigma_T
        else:
            mem = SubsetState.of(v, self.n).members
            sub = self.sigma_T[np.ix_(mem, mem)]
        return sub / self.T - np.eye(sub.shape[0])


@dataclass(frozen=True)
class EntropyPair:
    v: SubsetState
    exact: float
    lower: float
    upper: float
    small_time: bool  # lower is only asserted when this holds


@dataclass(frozen=True)
class AvgEntropy:
    k: int
    T: float
    mode: str
    value: float
    stderr: float | None = None


def h(x):
    """x - log(1+x); the spectral integrand of Gaussian relative entropy."""
    x = np.asarray(x, dtype=float)
    if (x <= -1.0).any():
        raise InvalidCovariance("h needs arguments > -1")
    return x - np.log1p(x)


def sigma_T(xi: InteractionMatrix, T: float, tol: float = 1e-10) -> GaussianModel:
    """Covariance at time T by the Gamma series, tail certified against (2 rho)^m.

    Stops once sum_{m>M} T^m (2 rho)^m / (m+1)! <= tol, which bounds the
    sup-norm error of T^{-1} Sigma_T.  Cross-check with sigma_T_quadrature.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = xi.dense()
    rho = xi.rho
    n = xi.n
    acc = np.eye(n)
    g = np.eye(n)
    coef = 1.0
    order = 0
    tail = 0.0
    if rho > 0.0:
        m = 0
        while True:
            m += 1
            g = d @ g + g @ d.T
            coef = coef * T / (m + 1)  # T^m / (m+1)!
            acc = acc + coef * g
            # certified tail: term envelope T^j (2 rho)^j / (j+1)! is geometric
            # with ratio q = 2 rho T / (j+2) once q < 1
            env = coef * (2.0 * rho) ** m
            q = 2.0 * rho * T / (m + 2)
            if q < 1.0:
                tail = env * q / (1.0 - q)
                if tail <= tol:
                    order = m
                    break
            if m > 100000:
                raise RuntimeError("sigma_T series failed to converge")
    sig = T * acc
    sig = (sig + sig.T) / 2.0  # symmetrize away roundoff
    return GaussianModel(xi, T, sig, order, tail)


def sigma_T_quadrature(xi: InteractionMatrix, T: float, tol: float = 1e-12) -> np.ndarray:
    """Independent route: Sigma_T as one block exponential (Van Loan, IEEE TAC 1978).

    The time-T operator (Y, X) -> (T (xi Y + Y xi^T + X), 0) started at (0, I)
    ends at Y = int_0^T e^{s xi} e^{s xi^T} ds.  Its norm is at most
    T (2 ||xi||_inf + 1), so the truncation is certified at tol * ||Sigma_T||_max
    per scaling stage without the rho bound the series relies on.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    d = xi.dense()

    def apply(z):
        y, x = z
        return np.stack((T * (d @ y + y @ d.T + x), np.zeros_like(x)))

    start = np.stack((np.zeros((xi.n, xi.n)), np.eye(xi.n)))
    mu = T * (2.0 * float(np.linalg.norm(d, np.inf)) + 1.0)
    return linalg.expm_action(apply, start, tol=tol, mu=mu)[0]


def _check_covariance(c, name) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidCovariance(f"{name} must be square")
    if not np.allclose(c, c.T, rtol=1e-10, atol=1e-12):
        raise InvalidCovariance(f"{name} must be symmetric")
    return (c + c.T) / 2.0


def gaussian_kl(cov0, cov1) -> float:
    """Relative entropy of N(0, cov1) with respect to N(0, cov0).

    The closed form (Tr(cov0^{-1} cov1) - k + log det cov0 / det cov1) / 2;
    asymmetric in its arguments, zero exactly at cov0 = cov1.
    """
    c0 = _check_covariance(cov0, "cov0")
    c1 = _check_covariance(cov1, "cov1")
    if c0.shape != c1.shape:
        raise InvalidCovariance("covariances must share a shape")
    k = c0.shape[0]
    try:
        chol = np.linalg.cholesky(c0)
    except np.linalg.LinAlgError:
        raise InvalidCovariance("cov0 is not positive definite") from None
    solved = np.linalg.solve(c0, c1)
    sign1, logdet1 = np.linalg.slogdet(c1)
    if sign1 <= 0:
        raise InvalidCovariance("cov1 is not positive definite")
    logdet0 = 2.0 * float(np.log(np.diag(chol)).sum())
    return 0.5 * (float(np.trace(solved)) - k + logdet0 - logdet1)


def subset_entropies(model: GaussianModel, masks):
    """Exact entropy and its quadratic-trace sandwich at each nonempty bitmask.

    Returns (exact, lower, upper) arrays aligned with masks.  With
    A = T^{-1} Sigma^v_T - I, exact is half the h-trace of A's eigenvalues
    (a spectral evaluation, not a matrix log, so values near -1 stay
    stable); lower = Tr(A^2)/6 is asserted only in the small-time window
    T <= log2 / 2 rho; upper = e^{6 rho T} Tr(A^2) holds for all T.  Masks
    of one size share a single stacked eigenvalue call.
    """
    masks = np.asarray(masks)
    if (masks <= 0).any():
        raise ValueError("v must be nonempty")
    ind = indicators(masks, model.n)
    sizes = ind.sum(axis=1).astype(int)
    exact = np.empty(masks.size)
    tr2 = np.empty(masks.size)
    for k in np.unique(sizes):
        rows = np.nonzero(sizes == k)[0]
        mem = np.nonzero(ind[rows])[1].reshape(rows.size, k)
        a = model.sigma_T[mem[:, :, None], mem[:, None, :]] / model.T - np.eye(k)
        lam = np.linalg.eigvalsh(a)
        if (lam <= -1.0).any():
            raise InvalidCovariance("subset covariance is numerically not positive definite")
        exact[rows] = 0.5 * h(lam).sum(axis=1)
        tr2[rows] = (a * a).reshape(rows.size, -1).sum(axis=1)
    return exact, tr2 / 6.0, math.exp(6.0 * model.rho * model.T) * tr2


def exact_entropy(model: GaussianModel, v) -> float:
    """H of the subset marginal against Brownian motion: half the h-trace."""
    return float(subset_entropies(model, [SubsetState.of(v, model.n).mask])[0][0])


def entropy_bounds(model: GaussianModel, v) -> EntropyPair:
    """Quadratic-trace sandwich around the exact subset entropy (see subset_entropies)."""
    v = SubsetState.of(v, model.n)
    exact, lower, upper = (float(x[0]) for x in subset_entropies(model, [v.mask]))
    return EntropyPair(v, exact, lower, upper, model.small_time())


def clique_lower(xi: InteractionMatrix, v, T: float):
    """(T^2/12) sum_{i,j in v} xi_ij^2; valid in the small-time window.

    v=None gives every subset at once (a vector over all 2^n masks).
    """
    ind = lattice(xi.n)[0] if v is None else \
        indicators([SubsetState.of(v, xi.n).mask], xi.n)
    d = xi.dense()
    vals = T * T / 12.0 * np.einsum("mi,mi->m", ind @ (d * d), ind)
    return vals if v is None else float(vals[0])


def max_upper(model: GaussianModel, v):
    """e^{10 rho T} delta^2 |v|^2; needs row sums <= 1.  v=None: every mask."""
    if float(model.xi.row_sums.max(initial=0.0)) > 1.0 + 1e-12:
        raise ValueError("max_upper needs row sums <= 1")
    sizes = lattice(model.n)[1] if v is None else float(SubsetState.of(v, model.n).size)
    return math.exp(10.0 * model.rho * model.T) * model.xi.delta ** 2 * sizes ** 2


def d_T(xi: InteractionMatrix, T: float, tol: float = 1e-10) -> float:
    """sum_i (sum_{m>=2} T^m/(m+1)! (xi^m)_ii)^2, tail controlled by rho^m.

    Vanishes whenever every diagonal of every power vanishes (e.g. strictly
    triangular xi).  Cross-check: d_T_quadrature integrates e^{s xi} instead.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    d = xi.dense()
    rho = xi.rho
    s = np.zeros(xi.n)
    if rho > 0.0:
        power = d @ d
        coef = T * T / 6.0  # T^2 / 3!
        m = 2
        while True:
            s = s + coef * np.diag(power)
            env = coef * rho ** m
            q = rho * T / (m + 2)
            if q < 1.0 and env * q / (1.0 - q) <= tol:
                break
            if m > 100000:
                raise RuntimeError("d_T series failed to converge")
            power = power @ d
            m += 1
            coef = coef * T / (m + 1)
    return float((s * s).sum())


def d_T_quadrature(xi: InteractionMatrix, T: float, tol: float = 1e-12) -> float:
    """Same quantity through (1/T) int_0^T e^{s xi} ds minus the linear part.

    The integral is the top block of exp(T [[xi, I], [0, 0]]) applied to
    [0; I], certified at tol times its largest entry per scaling stage.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    d = xi.dense()
    eye, zero = np.eye(xi.n), np.zeros((xi.n, xi.n))
    block = np.block([[d, eye], [zero, zero]])
    m_t = linalg.expm_action(T * block, np.vstack((zero, eye)), tol=tol)[:xi.n]
    inner = np.diag(m_t / T - eye - (T / 2.0) * d)
    return float((inner * inner).sum())


def d_T_envelope(xi: InteractionMatrix, T: float) -> tuple[float, float]:
    """Two-sided closed-form envelope of d_T with the proof constants.

    lower: (T^4/36) sum_i (sum_j xi_ij xi_ji)^2;
    upper: 2 T^4 e^{2 rho T} (sum_i (sum_j xi_ij^2)^2 + transposed sum).
    """
    d = xi.dense()
    rho = xi.rho
    mixed = (d * d.T).sum(axis=1)
    lower = T ** 4 / 36.0 * float((mixed * mixed).sum())
    row_sq = (d * d).sum(axis=1)
    col_sq = (d * d).sum(axis=0)
    upper = 2.0 * T ** 4 * math.exp(2.0 * rho * T) * float(
        (row_sq ** 2).sum() + (col_sq ** 2).sum())
    return lower, upper


def avg_trace_sq(A, k: int) -> float:
    """Average of Tr((A^v)^2) over all subsets of size k, in closed form.

    Equals k(k-1)/(n(n-1)) Tr(A^2) + k(n-k)/(n(n-1)) sum_i A_ii^2; exact for
    symmetric A by a two-index counting argument.
    """
    a = _check_covariance(A, "A")
    n = a.shape[0]
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    diag_sq = float((np.diag(a) ** 2).sum())
    if n == 1:
        return diag_sq
    w1 = k * (k - 1) / (n * (n - 1))
    w2 = k * (n - k) / (n * (n - 1))
    return w1 * float((a * a).sum()) + w2 * diag_sq


def avg_entropy(model: GaussianModel, k: int, mode: str = "enumerate",
                reps: int = 0, seed: int = 0) -> AvgEntropy:
    """Average of exact_entropy over subsets of size k, exact or sampled."""
    n = model.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if mode == "enumerate":
        if math.comb(n, k) > ENUMERATION_LIMIT:
            raise ValueError("enumeration too large; use mode='sample'")
        masks = [sum(1 << i for i in mem) for mem in combinations(range(n), k)]
        # a plain running sum in combination order: sum() compensates from
        # Python 3.12 on, which would make the bits depend on the version
        total = 0.0
        for val in _entropies(model, masks).tolist():
            total += val
        return AvgEntropy(k, model.T, "enumerate", total / len(masks))
    if mode == "sample":
        if reps < 2:
            raise ValueError("sample mode needs reps >= 2")
        gen = stream(seed)
        draws = [gen.choice(n, size=k, replace=False) for _ in range(reps)]
        vals = _entropies(model, [SubsetState.of(mem, n).mask for mem in draws])
        return AvgEntropy(k, model.T, "sample", float(vals.mean()),
                          float(vals.std(ddof=1) / math.sqrt(reps)))
    raise ValueError(f"unknown mode {mode!r}")


def _entropies(model: GaussianModel, masks: list) -> np.ndarray:
    """subset_entropies' exact values, CHUNK masks per call to bound memory."""
    return np.concatenate([subset_entropies(model, masks[lo:hi])[0]
                           for lo, hi in chunk_ranges(len(masks))])


def avg_entropy_sandwich(model: GaussianModel, k: int,
                         explicit: bool = False) -> tuple[float, float]:
    """Two-sided bracket of the size-k average entropy.

    Default: (1/6, e^{6 rho T}) times the exact avg_trace_sq of
    T^{-1} Sigma_T - I.  explicit=True instead assembles the fully
    spelled-out constants
      lower = (1/6)  [ w1 (T^2/2) S2 + w2 (4 d_T + (T^4/9)  R) ]
      upper = e^{6 rho T} [ w1 16 T^2 e^{4 rho T} S2
                            + w2 (8 d_T + 32 T^4 e^{4 rho T} R) ]
    with S2 = sum xi_ij^2, R = sum_i (sum_j xi_ij^2)^2 and the usual pair
    weights w1, w2.  Lower bounds are meaningful in the small-time window.
    """
    n = model.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    T, rho = model.T, model.rho
    if not explicit:
        tr = avg_trace_sq(model.centered(), k)
        return tr / 6.0, math.exp(6.0 * rho * T) * tr
    d = model.xi.dense()
    s2 = float((d * d).sum())
    r_sum = float(((d * d).sum(axis=1) ** 2).sum())
    dt = d_T(model.xi, T)
    if n == 1:
        return 0.0, 0.0
    w1 = k * (k - 1) / (n * (n - 1))
    w2 = k * (n - k) / (n * (n - 1))
    lower = (w1 * T * T / 2.0 * s2 + w2 * (4.0 * dt + T ** 4 / 9.0 * r_sum)) / 6.0
    upper = math.exp(6.0 * rho * T) * (
        w1 * 16.0 * T * T * math.exp(4.0 * rho * T) * s2
        + w2 * (8.0 * dt + 32.0 * T ** 4 * math.exp(4.0 * rho * T) * r_sum))
    return lower, upper
