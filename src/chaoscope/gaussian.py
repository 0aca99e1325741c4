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
from collections import namedtuple
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import linalg
from .matrix import ROW_SUM_RTOL, InteractionMatrix, frozen, indicators, mask_array, subset_mask
from .rng import chunk_ranges, stream

ENUMERATION_LIMIT = 10 ** 6
SERIES_TOL = 1e-10  # sup-norm tail of the sigma_T (of T^{-1} Sigma_T) and d_T series
QUADRATURE_TOL = 1e-12  # their quadratures' truncation per stage, relative


class InvalidCovariance(ValueError):
    pass


class GaussianModel(namedtuple("GaussianModel", "xi T sigma_T series_order tail_bound")):
    """xi and T; sigma_T, the covariance of the interacting system at time T,
    held read-only; series_order, the highest series term used to build
    sigma_T; tail_bound, the certified sup-norm remainder of sigma_T / T.
    == compares sigma_T by value."""

    __slots__ = ()

    def __new__(cls, xi: InteractionMatrix, T: float, sigma_T, series_order: int,
                tail_bound: float):
        return super().__new__(cls, xi, T, frozen(np.asarray(sigma_T, dtype=float)),
                               series_order, tail_bound)

    def __eq__(self, other):
        return (isinstance(other, GaussianModel) and self[:2] + self[3:] == other[:2] + other[3:]
                and np.array_equal(self.sigma_T, other.sigma_T))

    def __ne__(self, other):
        return not self == other

    @property
    def n(self) -> int:
        return self.xi.n

    @property
    def rho(self) -> float:  # certified upper bound on the operator norm of xi
        return self.xi.rho

    def small_time(self) -> bool:
        """Whether T sits inside the window where the lower bounds are asserted."""
        return self.rho == 0.0 or self.T <= math.log(2.0) / (2.0 * self.rho)

    def centered(self) -> np.ndarray:
        """T^{-1} Sigma_T - I."""
        return self.sigma_T / self.T - np.eye(self.n)


class AvgEntropy(NamedTuple):
    mode: str
    value: float
    stderr: float | None = None


def h(x):
    """x - log(1+x); the spectral integrand of Gaussian relative entropy."""
    x = np.asarray(x, dtype=float)
    if (x <= -1.0).any():
        raise InvalidCovariance("h needs arguments > -1")
    return x - np.log1p(x)


def sigma_T(xi: InteractionMatrix, T: float) -> GaussianModel:
    """Covariance at time T by the Gamma series, tail certified against (2 rho)^m.

    T^{-1} Sigma_T = I + sum_{m>=1} T^m/(m+1)! Gamma_m, Gamma_m = xi Gamma_{m-1} +
    Gamma_{m-1} xi^T, Gamma_0 = I, by _series.  Cross-check: sigma_T_quadrature.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    d = xi.dense()

    def gammas():
        g = np.eye(xi.n)
        while True:
            g = d @ g + g @ d.T
            yield g

    def finish(acc):
        sig = T * acc
        return (sig + sig.T) / 2.0  # symmetrize away roundoff

    sig, order, tail = _series("sigma_T", "2*rho*T", 2.0 * xi.rho, T, gammas(),
                               np.eye(xi.n), 1, finish)
    return GaussianModel(xi, T, sig, order, tail)


def _series(name: str, label: str, r: float, T: float, terms, acc, m: int, finish):
    """finish(acc + sum_{j>=m} c_j a_j), c_j = T^j/(j+1)!, with its order and tail.

    terms yields a_m, a_{m+1}, ... of sup norm <= r^j.  The envelope c_j (rT)^j
    is a running product; with q = rT/(j+2) < 1 the terms past j sum to at
    most env q/(1-q), and the sum stops at the first j >= m where that is
    <= SERIES_TOL.  From j = 2rT on each step at least halves the envelope,
    so a finite one stops within ~1,060 more steps: no term cap.  An
    overflow (numpy's over/invalid, or a coefficient or envelope at inf)
    raises one ValueError naming rT and gaussian.<name>_quadrature.  r = 0
    adds no term.
    """
    reach = r * T
    order, tail = 0, 0.0
    try:
        with np.errstate(over="raise", invalid="raise"):
            j, coef, env = 0, 1.0, 1.0
            while r > 0.0:
                j += 1
                coef = coef * T / (j + 1)
                env = env * reach / (j + 1)
                if not (coef < math.inf and env < math.inf):
                    raise OverflowError(f"term {j}'s coefficient or tail envelope is inf")
                if j < m:
                    continue
                acc = acc + coef * next(terms)
                q = reach / (j + 2)
                if q < 1.0:
                    tail = env * q / (1.0 - q)
                    if tail <= SERIES_TOL:
                        order = j
                        break
            return finish(acc), order, tail
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(
            f"{name} series overflows double precision at {label} = {reach:.6g} "
            f"({type(exc).__name__}: {exc}); the series-free route is "
            f"gaussian.{name}_quadrature") from exc


def sigma_T_quadrature(xi: InteractionMatrix, T: float) -> np.ndarray:
    """Independent route: Sigma_T as one block exponential (Van Loan, IEEE TAC 1978).

    The time-T operator (Y, X) -> (T (xi Y + Y xi^T + X), 0) started at (0, I)
    ends at Y = int_0^T e^{s xi} e^{s xi^T} ds.  Its norm is at most
    T (2 ||xi||_inf + 1), so the truncation is certified at QUADRATURE_TOL *
    ||Sigma_T||_max per scaling stage without the rho bound the series relies on.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    d = xi.dense()

    def apply(z):
        out = np.zeros(z.shape)
        np.multiply(T, d @ z[0] + z[0] @ d.T + z[1], out=out[0])
        return out

    start = np.stack((np.zeros((xi.n, xi.n)), np.eye(xi.n)))
    mu = T * (2.0 * float(np.linalg.norm(d, np.inf)) + 1.0)
    return linalg.expm_action(apply, start, mu, tol=QUADRATURE_TOL)[0]


def _check_covariance(c, name) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise InvalidCovariance(f"{name} must be square")
    t = c.T
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails the test
        close = np.abs(c - t) <= 1e-12 + 1e-10 * np.abs(t)
    # np.allclose's verdict, without its overhead: a non-finite entry passes
    # only when its mirror equals it
    if not (close & np.isfinite(t) | (c == t)).all():
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
    T <= log2 / 2 rho; upper = e^{6 rho T} Tr(A^2) holds for all T.
    """
    exact, tr2 = _spectra(model, masks)
    upper = linalg.checked_exp("subset_entropies", "6*rho*T", 6.0 * model.rho * model.T) * tr2
    return exact, tr2 / 6.0, upper


def _spectra(model: GaussianModel, masks) -> tuple[np.ndarray, np.ndarray]:
    """Half the h-trace of A and Tr(A^2) at each nonempty bitmask, with no
    factor e^{c rho T}; masks of one size share a single stacked eigenvalue call."""
    masks = mask_array(masks, model.n)
    if (masks == 0).any():
        raise ValueError("v must be nonempty")
    ind = indicators(masks, model.n)
    sizes = ind.sum(axis=1).astype(int)
    exact = np.empty(masks.size)
    tr2 = np.empty(masks.size)
    # the sizes present, ascending; np.unique would import numpy.ma
    for k in np.flatnonzero(np.bincount(sizes)):
        rows = np.nonzero(sizes == k)[0]
        mem = np.nonzero(ind[rows])[1].reshape(rows.size, k)
        a = model.sigma_T[mem[:, :, None], mem[:, None, :]] / model.T - np.eye(k)
        lam = np.linalg.eigvalsh(a)
        if (lam <= -1.0).any():
            raise InvalidCovariance("subset covariance is numerically not positive definite")
        exact[rows] = 0.5 * h(lam).sum(axis=1)
        tr2[rows] = (a * a).reshape(rows.size, -1).sum(axis=1)
    return exact, tr2


def clique_lower(xi: InteractionMatrix, masks, T: float) -> np.ndarray:
    """(T^2/12) sum_{i,j in v} xi_ij^2 at each bitmask v; valid in the small-time window."""
    ind = indicators(masks, xi.n)
    d = xi.dense()
    return T * T / 12.0 * np.einsum("mi,mi->m", ind @ (d * d), ind)


def max_upper(model: GaussianModel, masks) -> np.ndarray:
    """e^{10 rho T} delta^2 |v|^2 at each bitmask v; needs row sums <= 1."""
    if float(model.xi.row_sums.max(initial=0.0)) > 1.0 + ROW_SUM_RTOL:
        raise ValueError("max_upper needs row sums <= 1")
    sizes = np.bitwise_count(mask_array(masks, model.n)).astype(float)
    return (linalg.checked_exp("max_upper", "10*rho*T", 10.0 * model.rho * model.T)
            * model.xi.delta ** 2 * sizes ** 2)


def d_T(xi: InteractionMatrix, T: float) -> float:
    """sum_i (sum_{m>=2} T^m/(m+1)! (xi^m)_ii)^2 by _series, tail controlled by rho^m.

    Vanishes whenever every diagonal of every power vanishes (e.g. strictly
    triangular xi).  Cross-check: d_T_quadrature integrates e^{s xi} instead.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    d = xi.dense()

    def diagonals():
        power = d @ d
        while True:
            yield np.diag(power)
            power = power @ d

    return _series("d_T", "rho*T", xi.rho, T, diagonals(), np.zeros(xi.n), 2,
                   lambda s: float((s * s).sum()))[0]


def d_T_quadrature(xi: InteractionMatrix, T: float) -> float:
    """Same quantity through (1/T) int_0^T e^{s xi} ds minus the linear part.

    The integral is the top block of exp(T [[xi, I], [0, 0]]) applied to
    [0; I], certified at QUADRATURE_TOL times its largest entry per stage.
    """
    if not 0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    d = xi.dense()
    eye, zero = np.eye(xi.n), np.zeros((xi.n, xi.n))
    block = T * np.block([[d, eye], [zero, zero]])
    m_t = linalg.expm_action(block.__matmul__, np.vstack((zero, eye)),
                             np.linalg.norm(block, np.inf), tol=QUADRATURE_TOL)[:xi.n]
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
    upper = 2.0 * T ** 4 * linalg.checked_exp("d_T_envelope", "2*rho*T", 2.0 * rho * T) * float(
        (row_sq ** 2).sum() + (col_sq ** 2).sum())
    return lower, upper


def avg_trace_sq(A, k):
    """Average of Tr((A^v)^2) over all subsets of size k, in closed form.

    Equals k(k-1)/(n(n-1)) Tr(A^2) + k(n-k)/(n(n-1)) sum_i A_ii^2; exact for
    symmetric A by a two-index counting argument.  k may be an array of
    sizes, which gives an aligned array; a scalar k gives a float.
    """
    a = _check_covariance(A, "A")
    n = a.shape[0]
    w1, w2 = _pair_weights(n, k)
    diag_sq = float((np.diag(a) ** 2).sum())
    out = w1 * float((a * a).sum()) + w2 * diag_sq if n > 1 else np.full(w1.shape, diag_sq)
    return float(out) if out.ndim == 0 else out


def _pair_weights(n: int, k) -> tuple[np.ndarray, np.ndarray]:
    """k(k-1)/(n(n-1)) and k(n-k)/(n(n-1)) at each size k, refused outside [1, n]."""
    k = np.asarray(k)
    if not ((1 <= k) & (k <= n)).all():
        raise ValueError("need 1 <= k <= n")
    pairs = n * (n - 1)
    return k * (k - 1) / max(pairs, 1), k * (n - k) / max(pairs, 1)


def avg_entropy(model: GaussianModel, k: int, mode: str = "enumerate",
                reps: int = 0, seed: int = 0) -> AvgEntropy:
    """Average of the exact subset entropy over subsets of size k, exact or sampled.

    Only the exact values are computed, so no factor e^{c rho T} can refuse it."""
    n = model.n
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if mode == "enumerate":
        if math.comb(n, k) > ENUMERATION_LIMIT:
            raise ValueError("enumeration too large; use mode='sample'")
        masks = [subset_mask(mem, n) for mem in combinations(range(n), k)]
        # a plain running sum in combination order: sum() compensates from
        # Python 3.12 on, which would make the bits depend on the version
        total = 0.0
        for val in _entropies(model, masks).tolist():
            total += val
        return AvgEntropy("enumerate", total / len(masks))
    if mode == "sample":
        if reps < 2:
            raise ValueError("sample mode needs reps >= 2")
        # each draw takes the first k sites of a uniform random order; the one
        # stream is read in order, so the masks do not depend on CHUNK
        gen = stream(seed)
        one = np.int64(1) if n <= 63 else np.array(1, dtype=object)
        masks = [(one << gen.random((hi - lo, n)).argsort(axis=1)[:, :k]).sum(axis=1)
                 for lo, hi in chunk_ranges(reps)]
        vals = _entropies(model, np.concatenate(masks))
        return AvgEntropy("sample", float(vals.mean()),
                          float(vals.std(ddof=1) / math.sqrt(reps)))
    raise ValueError(f"unknown mode {mode!r}")


def _entropies(model: GaussianModel, masks) -> np.ndarray:
    """The exact subset entropies alone, CHUNK masks per call to bound memory."""
    return np.concatenate([_spectra(model, masks[lo:hi])[0]
                           for lo, hi in chunk_ranges(len(masks))])


def avg_entropy_sandwich(model: GaussianModel, k, explicit: bool = False):
    """Two-sided bracket of the size-k average entropy.

    Default: (1/6, e^{6 rho T}) times the exact avg_trace_sq of
    T^{-1} Sigma_T - I.  explicit=True instead assembles the fully
    spelled-out constants
      lower = (1/6)  [ w1 (T^2/2) S2 + w2 (4 d_T + (T^4/9)  R) ]
      upper = e^{6 rho T} [ w1 16 T^2 e^{4 rho T} S2
                            + w2 (8 d_T + 32 T^4 e^{4 rho T} R) ]
    with S2 = sum xi_ij^2, R = sum_i (sum_j xi_ij^2)^2 and the usual pair
    weights w1, w2.  Lower bounds are meaningful in the small-time window.
    k may be an array of sizes, which gives two aligned arrays from one
    d_T series; a scalar k gives two floats.
    """
    n = model.n
    T, rho = model.T, model.rho
    if not explicit:
        tr = avg_trace_sq(model.centered(), k)
        return tr / 6.0, linalg.checked_exp("avg_entropy_sandwich", "6*rho*T", 6.0 * rho * T) * tr
    w1, w2 = _pair_weights(n, k)
    d = model.xi.dense()
    s2 = float((d * d).sum())
    r_sum = float(((d * d).sum(axis=1) ** 2).sum())
    dt = d_T(model.xi, T)
    if n == 1:
        return (0.0, 0.0) if w1.ndim == 0 else (np.zeros(w1.shape), np.zeros(w1.shape))
    lower = (w1 * T * T / 2.0 * s2 + w2 * (4.0 * dt + T ** 4 / 9.0 * r_sum)) / 6.0
    grow4 = linalg.checked_exp("avg_entropy_sandwich", "4*rho*T", 4.0 * rho * T)
    upper = linalg.checked_exp("avg_entropy_sandwich", "6*rho*T", 6.0 * rho * T) * (
        w1 * 16.0 * T * T * grow4 * s2 + w2 * (8.0 * dt + 32.0 * T ** 4 * grow4 * r_sum))
    return (float(lower), float(upper)) if lower.ndim == 0 else (lower, upper)
