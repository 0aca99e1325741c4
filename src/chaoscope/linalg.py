"""Small numeric kernels: exponential action, norms, Poisson tails.

Nothing here knows about interaction matrices or subsets; these are the
primitives the engines are built on.  All routines are deterministic.  There
is no quadrature: the package's time integrals are block exponentials (Van
Loan, IEEE TAC 1978) applied through expm_action, or closed-form Poisson
mixtures, so every one carries a certified truncation bound.
"""

from __future__ import annotations

import math

import numpy as np

# Taylor series of exp on a matrix with ||A||_inf <= 1 converges in well under
# 60 terms at double precision; the cap only guards against pathological input.
_MAX_TAYLOR_TERMS = 200

# poisson_truncation takes log p_m directly while m |log lam| stays below this,
# where its rounding, about 2^-53 of each term, stays under 1e-6
_DIRECT_LOG_PMF = 2.0 ** 32


def expm_action(a, b: np.ndarray, tol: float = 1e-12, mu: float | None = None) -> np.ndarray:
    """e^A b by scaled truncated Taylor series.

    a is a square matrix A, or a callable x -> A x acting on arrays shaped
    like b together with mu >= ||A||_inf, the norm A induces on the max-abs
    norm of such arrays (for a matrix mu is ||a||_inf itself).  The norm is
    divided down so each stage has ||A/s|| <= 1, and the series remainder is
    bounded through mu, so the truncation error is certified at
    tol * ||result||_max per stage (absolute floor near zero).  Never forms an
    eigendecomposition; for entrywise-nonnegative A and b every intermediate
    stays nonnegative.
    """
    b = np.asarray(b, dtype=float)
    if callable(a):
        if mu is None or not 0.0 <= mu < math.inf:
            raise ValueError("expm_action: an operator needs a finite norm bound mu >= 0")
        apply = a
    else:
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expm_action: a must be square")
        mu = np.linalg.norm(a, np.inf)
        apply = a.__matmul__
    if mu == 0.0 or not b.any():
        return b.astype(float, copy=True)
    stages = max(1, int(math.ceil(mu)))
    theta = mu / stages  # <= 1
    step_tol = tol / stages
    out = b.astype(float, copy=True)
    for _ in range(stages):
        acc = out.copy()
        term = out
        for k in range(1, _MAX_TAYLOR_TERMS):
            term = apply(term) / (stages * k)
            acc += term
            tn = np.abs(term).max()
            # Remaining tail: ||term_k|| * sum_{j>=1} theta^j / prod(k+1..k+j)
            #   <= ||term_k|| * (theta/(k+1)) / (1 - theta/(k+2)).
            rem = tn * (theta / (k + 1)) / (1.0 - theta / (k + 2))
            scale = max(np.abs(acc).max(), 1e-300)
            if rem <= step_tol * scale:
                break
        else:
            raise RuntimeError("expm_action: Taylor series failed to converge")
        out = acc
    return out


def op_norm(a: np.ndarray, tol: float = 1e-10, max_iter: int = 20000) -> float:
    """Spectral norm of a; for entrywise-nonnegative a a certified upper bound.

    For nonnegative a, zero columns are dropped and a^T a is split into the
    connected components of its sparsity graph (columns that share a
    nonzero row).  On each component the top eigenvector of a^T a, taken
    densely with eigh, gives a positive z, and max_i (a^T a z)_i / z_i
    bounds the component's largest eigenvalue from above (Collatz-Wielandt;
    Meyer, Matrix Analysis, 8.3); a^T a z is taken as a^T (a z) on the
    component's columns.  The largest of these bounds is inflated past the
    rounding of the two products and capped by sqrt(||a||_1 ||a||_inf).
    An eigenvector with a zero entry (an underflow) falls back to
    _power_iteration's certified bound.  For signed a
    the result is the power-iteration estimate, which can fall below the
    norm.  Raises RuntimeError when an iteration has not settled to tol
    after max_iter steps.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not a.any():
        return 0.0
    if (a < 0).any():
        return math.sqrt(max(_power_iteration(a, tol, max_iter, False), 0.0))
    a = a[:, a.any(axis=0)]
    upper = 0.0
    for cols in _components(a > 0):
        part = a[:, cols]
        z = np.abs(np.linalg.eigh(part.T @ part)[1][:, -1])
        if z.all():
            bound = float((part.T @ (part @ z) / z).max())
        else:
            bound = _power_iteration(part, tol, max_iter, True)
        upper = max(upper, bound)
    cap = float(a.sum(axis=0).max()) * float(a.sum(axis=1).max())
    return math.sqrt(min(upper, cap) * _inflation(a))


def _inflation(a: np.ndarray) -> float:
    """fl(a^T (a z)) / z_i can fall short of the exact ratio by about
    (rows + n + 1) unit roundoffs; this factor, taken before the square
    root, covers that, its own rounding and the root's."""
    return 1.0 + 4.0 * (a.shape[0] + a.shape[1] + 2) * 2.0 ** -53


def _components(nonzero: np.ndarray) -> list[np.ndarray]:
    """Column indices of each connected component of the graph that joins
    two columns sharing a True row, in order of their first column."""
    share = nonzero.T.astype(float) @ nonzero.astype(float) > 0.0  # exact counts
    seen = np.zeros(share.shape[0], dtype=bool)
    out = []
    for start in range(share.shape[0]):
        if seen[start]:
            continue
        members = np.zeros_like(seen)
        members[start] = True
        frontier = members
        while frontier.any():
            frontier = share[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        out.append(np.flatnonzero(members))
    return out


def _power_iteration(a: np.ndarray, tol: float, max_iter: int, nonneg: bool) -> float:
    """Largest eigenvalue of a^T a by power iteration, ones start vector.

    nonneg=False: the Rayleigh quotient once it has settled to tol.
    nonneg=True (a nonnegative without zero columns, so the iterates stay
    positive): the least Collatz-Wielandt bound max_i (a^T a z)_i / z_i over
    the iterates, an upper bound; once the quotient has settled, the
    iteration runs on until that bound meets it to rounding level, for at
    most twice as many steps again, since the bound converges at the rate
    of the eigenvector, half the rate of the quotient.
    """
    n = a.shape[1]
    inflate = _inflation(a)
    z = np.ones(n) / math.sqrt(n)
    lam = 0.0
    upper = math.inf
    stop = None  # step count at which to stop, fixed once the quotient settles
    for it in range(1, max_iter + 1):
        az = a @ z
        lam_new = float(az @ az)  # Rayleigh quotient of a^T a at unit z
        w = a.T @ az
        if nonneg and z.all():
            upper = min(upper, float((w / z).max()))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        z = w / nw
        if stop is None and abs(lam_new - lam) <= tol * max(lam_new, 1e-300):
            stop = 3 * it if nonneg else it
        if stop is not None and (it >= stop or upper <= lam_new * inflate):
            break
        lam = lam_new
    if stop is None:
        raise RuntimeError(f"op_norm: power iteration did not converge in {max_iter} steps")
    return upper if nonneg else lam_new


def poisson_truncation(lam: float, tol: float) -> int:
    """A K with Poisson(lam) tail mass beyond K certified <= tol.

    Uses the geometric envelope sum_{k>K} p_k <= p_{K+1} / (1 - lam/(K+2)),
    valid once K+2 > lam, evaluated in log space so large lam cannot underflow.
    log p_m, m = K+1, is m log(lam) - lam - lgamma(m+1) while those terms
    carry under about 1e-6 of rounding.  Past that they cancel (near 4e17
    each at lam = 1e16), and log p_m comes from Stirling's series with
    u = (m - lam)/lam instead:
        log p_m = -lam ((1+u) log1p(u) - u) - log(2 pi m)/2 - r(m),
    with the remainder r(m) > 1/(12m + 1) (Robbins 1955) taken at that floor,
    which can only raise p_m.
    """
    if not tol > 0.0:  # a NaN tol would never stop the search below
        raise ValueError("poisson_truncation: tol must be positive")
    if not math.isfinite(lam):
        raise ValueError(f"poisson_truncation: the Poisson mean must be finite, got {lam}")
    if lam <= 0.0:
        return 0
    log_tol = math.log(tol)
    k = max(int(lam), 1)
    step = max(1, int(math.sqrt(lam) / 4))
    while True:
        if k + 2 > lam:
            gap = 1.0 - lam / (k + 2)
            if gap <= 0.0:  # K + 2 and lam agree to every bit a double holds
                raise ValueError(f"poisson_truncation: Poisson mean {lam:.6g} is too large "
                                 "for a truncation order in double precision")
            m = k + 1.0
            if m * abs(math.log(lam)) < _DIRECT_LOG_PMF:
                log_p = (k + 1) * math.log(lam) - lam - math.lgamma(k + 2.0)
            else:
                u = (m - lam) / lam
                log_p = (-lam * ((1.0 + u) * math.log1p(u) - u)
                         - 0.5 * math.log(2.0 * math.pi * m) - 1.0 / (12.0 * m + 1.0))
            if log_p - math.log(gap) <= log_tol:
                return k
        k += step


def poisson_weights(lam: float, kmax: int) -> np.ndarray:
    """pmf values 0..kmax, computed stably in log space."""
    if lam <= 0.0:
        w = np.zeros(kmax + 1)
        w[0] = 1.0
        return w
    ks = np.arange(kmax + 1, dtype=float)
    logs = ks * math.log(lam) - lam - np.cumsum(np.log(np.maximum(ks, 1.0)))
    return np.exp(logs)
