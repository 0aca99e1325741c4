"""Small numeric kernels: matrix exponential action, norms, quadrature, Poisson tails.

Nothing here knows about interaction matrices or subsets; these are the
primitives the engines are built on.  All routines are deterministic.
"""

from __future__ import annotations

import math

import numpy as np

# Taylor series of exp on a matrix with ||A||_inf <= 1 converges in well under
# 60 terms at double precision; the cap only guards against pathological input.
_MAX_TAYLOR_TERMS = 200


def expm_action(a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """e^a @ b by scaled truncated Taylor series.

    The norm is divided down so each stage has ||a/s||_inf <= 1, and the series
    remainder is bounded through the infinity norm, so the truncation error is
    certified at tol * ||result||_inf per stage (absolute floor near zero).
    Never forms an eigendecomposition; for entrywise-nonnegative a and b every
    intermediate stays nonnegative.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expm_action: a must be square")
    mu = np.linalg.norm(a, np.inf)
    if mu == 0.0 or not b.any():
        return b.astype(float, copy=True)
    stages = max(1, int(math.ceil(mu)))
    a_s = a / stages
    theta = mu / stages  # <= 1
    step_tol = tol / stages
    out = b.astype(float, copy=True)
    for _ in range(stages):
        acc = out.copy()
        term = out
        for k in range(1, _MAX_TAYLOR_TERMS):
            term = (a_s @ term) / k
            acc = acc + term
            tn = np.max(np.abs(term))
            # Remaining tail: ||term_k|| * sum_{j>=1} theta^j / prod(k+1..k+j)
            #   <= ||term_k|| * (theta/(k+1)) / (1 - theta/(k+2)).
            rem = tn * (theta / (k + 1)) / (1.0 - theta / (k + 2))
            scale = max(np.max(np.abs(acc)), 1e-300)
            if rem <= step_tol * scale:
                break
        else:
            raise RuntimeError("expm_action: Taylor series failed to converge")
        out = acc
    return out


def expm(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Dense e^a for small matrices, via expm_action on the identity."""
    a = np.asarray(a, dtype=float)
    return expm_action(a, np.eye(a.shape[0]), tol=tol)


def op_norm(a: np.ndarray, tol: float = 1e-10, max_iter: int = 20000) -> float:
    """Spectral norm by power iteration on a^T a, ones start vector.

    For entrywise-nonnegative a the top eigenvector of a^T a can be taken
    nonnegative, so the all-ones start overlaps the leading eigenspace of
    every diagonal block and the iteration converges to the global maximum.
    Raises RuntimeError when it has not converged after max_iter steps.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not a.any():
        return 0.0
    n = a.shape[1]
    z = np.ones(n) / math.sqrt(n)
    lam = 0.0
    for _ in range(max_iter):
        az = a @ z
        lam_new = float(az @ az)  # Rayleigh quotient of a^T a at unit z
        w = a.T @ az
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        z = w / nw
        if abs(lam_new - lam) <= tol * max(lam_new, 1e-300):
            return math.sqrt(max(lam_new, 0.0))
        lam = lam_new
    raise RuntimeError(f"op_norm: power iteration did not converge in {max_iter} steps")


def simpson_adaptive(f, a: float, b: float, rel_tol: float = 1e-8,
                     abs_floor: float = 0.0, max_depth: int = 40):
    """Adaptive Simpson with Richardson correction; scalar or array integrands.

    The error budget is rel_tol relative to a coarse whole-interval estimate
    (max-abs for array values), with abs_floor as a lower scale guard so
    near-zero integrals do not demand impossible refinement.  Raises
    RuntimeError when a subinterval still fails the error test at max_depth.
    """
    if b <= a:
        return 0.0 * np.asarray(f(a), dtype=float)
    fa, fm, fb = (np.asarray(f(x), dtype=float) for x in (a, (a + b) / 2, b))
    whole = _simpson(a, b, fa, fm, fb)
    scale = max(float(np.max(np.abs(whole))), abs_floor, 1e-300)
    eps = rel_tol * scale
    return _adapt(f, a, b, fa, fm, fb, whole, eps, max_depth)


def _simpson(a, b, fa, fm, fb):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, b, fa, fm, fb, whole, eps, depth):
    m = (a + b) / 2
    flm = np.asarray(f((a + m) / 2), dtype=float)
    frm = np.asarray(f((m + b) / 2), dtype=float)
    left = _simpson(a, m, fa, flm, fm)
    right = _simpson(m, b, fm, frm, fb)
    delta = left + right - whole
    if float(np.max(np.abs(delta))) <= 15.0 * eps:
        return left + right + delta / 15.0
    if depth <= 0:
        raise RuntimeError("simpson_adaptive: no convergence at max_depth")
    return (_adapt(f, a, m, fa, flm, fm, left, eps / 2, depth - 1)
            + _adapt(f, m, b, fm, frm, fb, right, eps / 2, depth - 1))


def integrate_doubling(f, a: float, b: float, tol: float = 1e-8,
                       start_panels: int = 8, max_panels: int = 1 << 16):
    """Composite Simpson with panel doubling until two refinements agree.

    Agreement is max-abs difference <= tol * max(scale, 1).  Used as the
    independent quadrature route when a series result needs cross-checking.
    """
    prev = _composite(f, a, b, start_panels)
    panels = start_panels * 2
    while panels <= max_panels:
        cur = _composite(f, a, b, panels)
        scale = max(float(np.max(np.abs(cur))), 1.0)
        if float(np.max(np.abs(cur - prev))) <= tol * scale:
            return cur
        prev = cur
        panels *= 2
    raise RuntimeError("integrate_doubling: no convergence at max panel count")


def _composite(f, a, b, panels):
    xs = np.linspace(a, b, 2 * panels + 1)
    vals = [np.asarray(f(x), dtype=float) for x in xs]
    acc = vals[0] + vals[-1]
    for v in vals[1:-1:2]:
        acc = acc + 4.0 * v
    for v in vals[2:-1:2]:
        acc = acc + 2.0 * v
    return (b - a) / (6.0 * panels) * acc


def poisson_truncation(lam: float, tol: float) -> int:
    """A K with Poisson(lam) tail mass beyond K certified <= tol.

    Uses the geometric envelope sum_{k>K} p_k <= p_{K+1} / (1 - lam/(K+2)),
    valid once K+2 > lam, evaluated in log space so large lam cannot underflow.
    """
    if tol <= 0.0:
        raise ValueError("poisson_truncation: tol must be positive")
    if lam <= 0.0:
        return 0
    log_tol = math.log(tol)
    k = max(int(lam), 1)
    step = max(1, int(math.sqrt(lam) / 4))
    while True:
        if k + 2 > lam:
            log_p = (k + 1) * math.log(lam) - lam - math.lgamma(k + 2.0)
            if log_p - math.log(1.0 - lam / (k + 2)) <= log_tol:
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
