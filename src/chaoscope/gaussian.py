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
from .matrix import InteractionMatrix, frozen, indicators, mask_array, subset_mask, validate
from .rng import chunk_ranges, stream

ENUMERATION_LIMIT = 10 ** 6
SERIES_TOL = 1e-10  # sup-norm tail of the sigma_T (of T^{-1} Sigma_T) and d_T series
QUADRATURE_TOL = 1e-12  # their quadratures' truncation per stage, relative


class InvalidCovariance(ValueError):
    pass


_NOT_POSITIVE = "subset covariance is numerically not positive definite"


class GaussianModel(namedtuple("GaussianModel", "xi T sigma_T series_order tail_bound")):
    """xi and T; sigma_T, the covariance of the interacting system at time T,
    held read-only; series_order, the highest series term used to build
    sigma_T; tail_bound, the certified sup-norm error of sigma_T / T, the
    series truncation plus its rounding envelope.
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
    """Covariance at time T by the Gamma series, tail certified against (2 rho)^m
    and rounding: sigma_T_batch of one."""
    return sigma_T_batch([xi], [T])[0]


def sigma_T_batch(xis, Ts) -> list[GaussianModel]:
    """sigma_T of each (xi, T) pair, the xi of one size, in one stacked series.

    T^{-1} Sigma_T = I + sum_{m>=1} T^m/(m+1)! Gamma_m, Gamma_m = xi Gamma_{m-1} +
    Gamma_{m-1} xi^T, Gamma_0 = I, by _series, which keeps each member's own
    order, tail and refusal.  Cross-check: sigma_T_quadrature.
    """
    d, T = _batch(xis, Ts)
    dt = d.transpose(0, 2, 1)
    start = np.repeat(np.eye(d.shape[1])[None], len(d), axis=0)

    def gammas():
        g = start
        while True:
            g = d @ g + g @ dt
            yield g, np.isfinite(g).all(axis=(1, 2))

    def finish(acc):
        sig = T[:, None, None] * acc
        return (sig + sig.transpose(0, 2, 1)) / 2.0  # symmetrize away roundoff

    sig, order, tail = _series("sigma_T", "2*rho*T", 2.0 * np.array([xi.rho for xi in xis]), T,
                               gammas(), start, 1, finish)
    return [GaussianModel(*member) for member in zip(xis, T.tolist(), sig, order, tail)]


def _batch(xis, Ts) -> tuple[np.ndarray, np.ndarray]:
    """The dense xi of one size stacked along a leading axis, and the T aligned with them."""
    T = np.asarray(Ts, dtype=float)
    if T.shape != (len(xis),) or not len(xis):
        raise ValueError("need one T per matrix, and at least one matrix")
    if not ((0 < T) & (T < math.inf)).all():
        raise ValueError("T must be positive and finite")
    if len({xi.n for xi in xis}) > 1:
        raise ValueError("a batch needs matrices of one size")
    return np.stack([xi.dense() for xi in xis]), T


def _series(name: str, label: str, r, T, terms, acc, m: int, finish):
    """finish(acc + sum_{j>=m} c_j a_j), c_j = T^j/(j+1)!, with its order and tail,
    for every member of a batch: r and T hold one value per member, and acc
    and the arrays a_j one member per entry of their leading axis.

    terms yields (a_j, ok_j) for j = m, m+1, ..., a_j of sup norm <= r^j and
    ok_j whether each member's a_j, and what it was computed from, are
    finite.  The envelope c_j (rT)^j is a running product; with
    q = rT/(j+2) < 1 the terms past j sum to at most env q/(1-q), and a
    member's sum stops at the first j >= m where that is <= SERIES_TOL.
    From j = 2rT on each step at least halves the envelope, so a finite one
    stops within ~1,060 more steps: no term cap.  These scalars are worked
    out member by member before any term, and the batch then steps its
    terms until its last member stops, each member adding only its own, so
    every member gets the bits it would get alone.  An overflow (a
    coefficient or envelope at inf, or a term, what it came from or a
    partial sum not finite) refuses its member with a ValueError naming rT
    and gaussian.<name>_quadrature.  r = 0 adds no term.

    The tail is that truncation plus a rounding envelope,
    (order + 2 + n) 2^-53 (max|acc_0| + sum_j c_j max|a_j|), n = the length
    of a member's acc.  Signed terms can cancel far below their sizes, and
    when the envelope passes SERIES_TOL * max|sum| the sum is refused with
    the same ValueError.  The first refused member raises.
    """
    coefs, orders, tails, reaches, overflow = [], [], [], [], {}
    for i, (ri, ti) in enumerate(zip(np.asarray(r, dtype=float).tolist(),
                                     np.asarray(T, dtype=float).tolist())):
        reach = ri * ti
        reaches.append(reach)
        j, coef, env, order, tail, own = 0, 1.0, 1.0, 0, 0.0, []
        while ri > 0.0:
            j += 1
            coef = coef * ti / (j + 1)
            env = env * reach / (j + 1)
            if not (coef < math.inf and env < math.inf):
                overflow[i] = f"term {j}'s coefficient or tail envelope is inf"
                break
            if j < m:
                continue
            own.append(coef)
            q = reach / (j + 2)
            if q < 1.0:
                tail = env * q / (1.0 - q)
                if tail <= SERIES_TOL:
                    order = j
                    break
        coefs.append(own)
        orders.append(order)
        tails.append(tail)
    counts = np.array([len(own) for own in coefs])
    acc = np.array(acc, dtype=float)  # summed in place
    shape = (len(coefs),) + (1,) * (acc.ndim - 1)  # a per-member value against acc
    steps = np.zeros((counts.max(initial=0),) + shape)  # every member's c_j, a row per j
    for i, own in enumerate(coefs):
        steps[:len(own), i] = np.reshape(own, (-1,) + shape[1:])
    flat = lambda a: a.reshape(len(coefs), -1)
    mass = np.abs(flat(acc)).max(axis=1).tolist()  # max|acc_0| + sum_j c_j max|a_j|
    sizes = np.empty(steps.shape[:2])  # max|a_j| of every member, a row per j
    failed = np.zeros(len(coefs), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # judged member by member
        for col, coef in enumerate(steps):
            term, ok = next(terms)
            on = counts > col
            if not ok.all():
                failed |= on & ~ok
            if col < counts.min():
                acc += coef * term
            else:
                np.add(acc, coef * term, out=acc, where=on.reshape(shape))
            sizes[col] = np.abs(flat(term)).max(axis=1)
    failed |= ~np.isfinite(flat(acc)).all(axis=1)  # a sum that overflowed stays so
    top = np.abs(flat(acc)).max(axis=1).tolist()
    rounding = []
    for i, own in enumerate(coefs):
        reach = f"{label} = {reaches[i]:.6g}"
        if failed[i] or i in overflow:
            why = "a term or its partial sum is not finite" if failed[i] else overflow[i]
            raise ValueError(f"{name} series overflows double precision at {reach} ({why}); "
                             f"the series-free route is gaussian.{name}_quadrature")
        for coef, size in zip(own, sizes[:len(own), i].tolist()):
            mass[i] += coef * size
        rounding.append((orders[i] + 2 + acc.shape[1]) * 2.0 ** -53 * mass[i])
        if rounding[i] > SERIES_TOL * top[i]:
            raise ValueError(
                f"{name} series cancels below its rounding at {reach} (envelope "
                f"{rounding[i]:.3g} against max|sum| {top[i]:.6g}); the series-free "
                f"route is gaussian.{name}_quadrature")
    return finish(acc), orders, [t + e for t, e in zip(tails, rounding)]


def sigma_T_quadrature(xi: InteractionMatrix, T: float) -> np.ndarray:
    """Sigma_T by the series-free route: sigma_T_quadrature_batch of one."""
    return sigma_T_quadrature_batch([xi], [T])[0]


def sigma_T_quadrature_batch(xis, Ts) -> np.ndarray:
    """Independent route: Sigma_T as one block exponential (Van Loan, IEEE TAC 1978),
    for each (xi, T) pair, the xi of one size, stacked along a leading axis.

    The time-T operator (Y, X) -> (T (xi Y + Y xi^T + X), 0) started at (0, I)
    ends at Y = int_0^T e^{s xi} e^{s xi^T} ds.  Its norm is at most
    T (2 ||xi||_inf + 1), so the truncation is certified at QUADRATURE_TOL *
    ||Sigma_T||_max per scaling stage without the rho bound the series relies
    on.  One expm_action call steps every member.
    """
    d, T = _batch(xis, Ts)
    dt = d.transpose(0, 2, 1)
    scale = T[:, None, None]

    def apply(z):
        out = np.zeros(z.shape)
        np.multiply(scale, d @ z[:, 0] + z[:, 0] @ dt + z[:, 1], out=out[:, 0])
        return out

    n = d.shape[1]
    start = np.repeat(np.stack((np.zeros((n, n)), np.eye(n)))[None], len(d), axis=0)
    mu = T * (2.0 * np.linalg.norm(d, np.inf, axis=(1, 2)) + 1.0)
    return linalg.expm_action(apply, start, mu, tol=QUADRATURE_TOL)[:, 0]


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
    subset_entropies_batch of one.
    """
    return tuple(col[0] for col in subset_entropies_batch([model], masks))


def subset_entropies_batch(models, masks):
    """subset_entropies of each model, the models of one size, at the same
    masks: (exact, lower, upper), a row per model.  The first model refused,
    by its subset spectra or by its factor e^{6 rho T}, raises."""
    exact, tr2, bad = _spectra(models, masks)
    grow = []
    for model, refused in zip(models, bad):
        if refused:
            raise InvalidCovariance(_NOT_POSITIVE)
        grow.append(linalg.checked_exp("subset_entropies", "6*rho*T", 6.0 * model.rho * model.T))
    return exact, tr2 / 6.0, np.array(grow)[:, None] * tr2


def _spectra(models, masks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Half the h-trace of A and Tr(A^2) at each nonempty bitmask, a row per
    model, with no factor e^{c rho T}; and whether each model has a subset
    eigenvalue <= -1 (its rows are then not to be read).  The models share
    one size, and the masks of one size share a single stacked eigenvalue
    call over every model."""
    n = models[0].n
    masks = mask_array(masks, n)
    if (masks == 0).any():
        raise ValueError("v must be nonempty")
    ind = indicators(masks, n)
    sizes = ind.sum(axis=1).astype(int)
    sig = np.stack([model.sigma_T for model in models]).reshape(len(models), n * n)
    scale = np.array([model.T for model in models])[:, None, None, None]
    exact = np.empty((len(models), masks.size))
    tr2 = np.empty((len(models), masks.size))
    bad = np.zeros(len(models), dtype=bool)
    # the sizes present, ascending; np.unique would import numpy.ma
    for k in np.flatnonzero(np.bincount(sizes)):
        rows = np.nonzero(sizes == k)[0]
        mem = np.nonzero(ind[rows])[1].reshape(rows.size, k)
        # np.take gathers C-ordered, which the sum of a * a below needs for its bits
        a = np.take(sig, mem[:, :, None] * n + mem[:, None, :], axis=1)
        a /= scale
        a -= np.eye(k)
        lam = np.linalg.eigvalsh(a)
        low = (lam <= -1.0).any(axis=(1, 2))
        bad |= low
        lam[low] = 0.0
        exact[:, rows] = 0.5 * h(lam).sum(axis=2)
        tr2[:, rows] = (a * a).reshape(len(models), rows.size, -1).sum(axis=2)
    return exact, tr2, bad


def clique_lower(xi: InteractionMatrix, masks, T: float) -> np.ndarray:
    """(T^2/12) sum_{i,j in v} xi_ij^2 at each bitmask v; valid in the small-time window."""
    ind = indicators(masks, xi.n)
    d = xi.dense()
    return T * T / 12.0 * np.einsum("mi,mi->m", ind @ (d * d), ind)


def max_upper(model: GaussianModel, masks) -> np.ndarray:
    """e^{10 rho T} delta^2 |v|^2 at each bitmask v; needs row sums <= 1."""
    if validate(model.xi).row_violations:
        raise ValueError("max_upper needs row sums <= 1")
    sizes = np.bitwise_count(mask_array(masks, model.n)).astype(float)
    return (linalg.checked_exp("max_upper", "10*rho*T", 10.0 * model.rho * model.T)
            * model.xi.delta ** 2 * sizes ** 2)


def d_T(xi: InteractionMatrix, T: float) -> float:
    """sum_i (sum_{m>=2} T^m/(m+1)! (xi^m)_ii)^2: d_T_batch of one."""
    return float(d_T_batch([xi], [T])[0])


def d_T_batch(xis, Ts) -> np.ndarray:
    """d_T of each (xi, T) pair, the xi of one size, in one stacked series.

    sum_i (sum_{m>=2} T^m/(m+1)! (xi^m)_ii)^2 by _series, tail controlled by
    rho^m.  Vanishes whenever every diagonal of every power vanishes (e.g.
    strictly triangular xi).  Cross-check: d_T_quadrature integrates e^{s xi}
    instead.
    """
    d, T = _batch(xis, Ts)

    def diagonals():
        power = d @ d
        while True:
            yield power.diagonal(0, 1, 2), np.isfinite(power).all(axis=(1, 2))
            power = power @ d

    return _series("d_T", "rho*T", np.array([xi.rho for xi in xis]), T, diagonals(),
                   np.zeros(d.shape[:2]), 2, lambda s: (s * s).sum(axis=1))[0]


def d_T_quadrature(xi: InteractionMatrix, T: float) -> float:
    """d_T by the series-free route: d_T_quadrature_batch of one."""
    return float(d_T_quadrature_batch([xi], [T])[0])


def d_T_quadrature_batch(xis, Ts) -> np.ndarray:
    """d_T of each (xi, T) pair through (1/T) int_0^T e^{s xi} ds minus the linear part.

    The integral is the top block of exp(T [[xi, I], [0, 0]]) applied to
    [0; I], certified at QUADRATURE_TOL times its largest entry per stage;
    one expm_action call steps every member.
    """
    d, T = _batch(xis, Ts)
    b, n = d.shape[:2]
    eye = np.eye(n)
    block = np.zeros((b, 2 * n, 2 * n))
    block[:, :n, :n] = d
    block[:, :n, n:] = eye
    block *= T[:, None, None]
    start = np.zeros((b, 2 * n, n))
    start[:, n:] = eye
    m_t = linalg.expm_action(block.__matmul__, start, np.linalg.norm(block, np.inf, axis=(1, 2)),
                             tol=QUADRATURE_TOL)[:, :n]
    inner = (m_t / T[:, None, None] - eye - (T / 2.0)[:, None, None] * d).diagonal(0, 1, 2)
    return (inner * inner).sum(axis=1)


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
    out = []
    for lo, hi in chunk_ranges(len(masks)):
        exact, _, bad = _spectra([model], masks[lo:hi])
        if bad[0]:
            raise InvalidCovariance(_NOT_POSITIVE)
        out.append(exact[0])
    return np.concatenate(out)


def avg_entropy_sandwich(model: GaussianModel, k, explicit: bool = False,
                         dt: float | None = None):
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
    d_T series; a scalar k gives two floats.  A caller that already holds
    d_T(model.xi, model.T) passes it as dt, and the series is not run again.
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
    if dt is None:
        dt = d_T(model.xi, T)
    if n == 1:
        return (0.0, 0.0) if w1.ndim == 0 else (np.zeros(w1.shape), np.zeros(w1.shape))
    lower = (w1 * T * T / 2.0 * s2 + w2 * (4.0 * dt + T ** 4 / 9.0 * r_sum)) / 6.0
    grow4 = linalg.checked_exp("avg_entropy_sandwich", "4*rho*T", 4.0 * rho * T)
    upper = linalg.checked_exp("avg_entropy_sandwich", "6*rho*T", 6.0 * rho * T) * (
        w1 * 16.0 * T * T * grow4 * s2 + w2 * (8.0 * dt + 32.0 * T ** 4 * grow4 * r_sum))
    return (float(lower), float(upper)) if lower.ndim == 0 else (lower, upper)
