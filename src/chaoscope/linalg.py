"""Small numeric kernels: exponential action, norms, Poisson tails, a checked exp.

Nothing here knows about interaction matrices or subsets; these are the
primitives the engines are built on.  All routines are deterministic.  There
is no quadrature: the package's time integrals are block exponentials (Van
Loan, IEEE TAC 1978) applied as operators, with a norm bound, through
expm_action, or closed-form Poisson mixtures, so every one carries a
certified truncation bound.
"""

from __future__ import annotations

import math

import numpy as np

# expm_action's stages have ||A/s|| <= THETA_MAX: fewer, longer stages take
# fewer applications of A for the same truncation bound (Al-Mohy & Higham,
# SIAM J. Sci. Comput. 2011).  At theta <= 4 a stage's series reaches a
# relative 1e-12 within about 30 terms; the cap only guards against
# pathological input.
THETA_MAX = 4.0
_MAX_TAYLOR_TERMS = 200

# poisson_truncation takes log p_m directly while m |log lam| stays below this,
# where its rounding, about 2^-53 of each term, stays under 1e-6
_DIRECT_LOG_PMF = 2.0 ** 32


def expm_action(apply, b: np.ndarray, mu, tol: float = 1e-12) -> np.ndarray:
    """e^A b by scaled truncated Taylor series, for an operator A, or for a
    stack of operators in lockstep.

    apply is x -> A x on arrays shaped like b, and mu >= ||A||_inf bounds
    the norm A induces on the max-abs norm of such arrays (for a matrix a,
    pass a.__matmul__ and ||a||_inf).  A 1-D array mu instead makes b a
    stack, one member per entry along its leading axis, and apply maps such
    stacks member by member; a float mu is a stack of one.  Each member is
    taken in s = ceil(mu / THETA_MAX) stages of e^{A/s}, each of norm
    theta = mu / s <= THETA_MAX.  After term k of a stage the rest of its
    series is at most ||term_k|| (theta/(k+1)) / (1 - theta/(k+2)), a
    geometric envelope that holds only once k + 2 > theta, so no stage
    stops before that.  A stage stops once the envelope is within tol / s
    of its result's largest entry (absolute floor near zero), so each
    stage's truncation is certified.  Members keep their own stages, terms
    and stop tests, so each gets the bits it would get alone: one apply
    serves every member still running, and a member that is done rides
    along as zeros.  On signed 1-8 x 8 matrices of norm up to 10 the result
    is within 1e-11 of the largest entry of scipy's expm (about 1e-12
    seen; tests/test_linalg.py).  Never forms an eigendecomposition; for
    entrywise-nonnegative A and b every intermediate stays nonnegative.
    apply must return a new array, which is divided in place.
    """
    if np.ndim(mu) == 0:
        return _expm_stack(lambda z: apply(z[0])[None], np.asarray(b)[None], [mu], tol)[0]
    return _expm_stack(apply, b, mu, tol)


def _expm_stack(apply, b, mu, tol: float) -> np.ndarray:
    """expm_action on a stack: mu one norm bound per member of b.  The
    members share each apply; the scalars of a member's stages, terms and
    stop tests are its own, in the arithmetic of a lone operator."""
    mu = np.asarray(mu, dtype=float).tolist()
    if not all(0.0 <= x < math.inf for x in mu):
        raise ValueError("expm_action: an operator needs a finite norm bound mu >= 0")
    acc = np.array(b, dtype=float)
    members = (len(mu),) + (1,) * (acc.ndim - 1)  # a per-member value against acc
    rows = acc.reshape(len(mu), -1)  # a view: member i's entries
    stages = [max(1, math.ceil(x / THETA_MAX)) for x in mu]
    left = list(stages)  # each member's stages still to run, the current one included
    live = [x > 0.0 and bool(row.any()) for x, row in zip(mu, rows)]  # the rest keep b
    term = np.where(np.array(live).reshape(members), acc, 0.0)
    bound = np.abs(rows).max(axis=1).tolist()
    k = [0 if on else 1 for on in live]  # the term count of a member's stage
    while any(live):
        running = [i for i, on in enumerate(live) if on]
        for i in running:
            k[i] += 1
            if k[i] >= _MAX_TAYLOR_TERMS:
                raise RuntimeError("expm_action: Taylor series failed to converge")
        term = apply(term)
        term /= np.array([s * kk for s, kk in zip(stages, k)]).reshape(members)
        if len(running) == len(mu):
            acc += term
        else:
            np.add(acc, term, out=acc, where=np.array(live).reshape(members))
        sizes = np.abs(term.reshape(len(mu), -1)).max(axis=1).tolist()
        for i in running:
            bound[i] += sizes[i]  # >= ||acc||_max once inflated past the sums' rounding
            theta = mu[i] / stages[i]  # <= THETA_MAX
            if k[i] + 2 <= theta:  # the envelope below needs theta / (k + 2) < 1
                continue
            # Remaining tail: ||term_k|| * sum_{j>=1} theta^j / prod(k+1..k+j)
            #   <= ||term_k|| * (theta/(k+1)) / (1 - theta/(k+2)).
            rem = sizes[i] * (theta / (k[i] + 1)) / (1.0 - theta / (k[i] + 2))
            step_tol = tol / stages[i]
            if not rem <= step_tol * max(bound[i] * (1.0 + 1e-12), 1e-300):
                continue
            top = float(np.abs(rows[i]).max())
            if not rem <= step_tol * max(top, 1e-300):
                continue
            # the stage ends: the next starts from its sum, and a member past
            # its last rides along as zeros
            left[i] -= 1
            live[i] = left[i] > 0
            term[i] = acc[i] if live[i] else 0.0
            bound[i], k[i] = top, 0 if live[i] else 1
    return acc


def op_norm(a: np.ndarray) -> float:
    """A certified upper bound on the spectral norm ||a||_2 of any real a.

    ||a||_2 <= || |a| ||_2, so the bound is taken on |a|, with its zero
    columns dropped and scaled by an exact power of two to a largest entry
    in [1/2, 1), where a^T a cannot overflow.  a^T a splits into the
    connected components of its sparsity graph (columns that share a
    nonzero row), and ||a||_2 is the largest of their norms.  On each, the
    top eigenvector of a^T a, taken densely with eigh, gives z >= 0, and on
    the columns S where z > 0, max_i (a_S^T a_S z)_i / z_i bounds ||a_S||^2
    from above (Collatz-Wielandt; Meyer, Matrix Analysis, 8.3); the product
    is taken as a_S^T (a_S z).  Columns R where z has underflowed to 0 add
    op_norm(a_R)^2, since ||[a_S a_R]||^2 <= ||a_S||^2 + ||a_R||^2; S is
    never empty, so this ends.  The largest bound is inflated past the
    rounding of the two products and the sum, capped by
    sqrt(||a||_1 ||a||_inf) and scaled back; it is inf only past the
    largest double.  There is no iteration and no tolerance.
    """
    a = np.abs(np.asarray(a, dtype=float))
    a = a[:, a.any(axis=0)]
    if a.size == 0:
        return 0.0
    exp = int(np.frexp(a.max())[1])
    a = np.ldexp(a, -exp)
    upper = 0.0
    for cols in _components(a > 0):
        part = a[:, cols]
        z = np.abs(np.linalg.eigh(part.T @ part)[1][:, -1])
        rest = 0.0 if z.all() else op_norm(part[:, z == 0.0]) ** 2
        part, z = part[:, z > 0.0], z[z > 0.0]
        upper = max(upper, float((part.T @ (part @ z) / z).max()) + rest)
    cap = float(a.sum(axis=0).max()) * float(a.sum(axis=1).max())
    with np.errstate(over="ignore"):  # inf past the largest double, silently
        return float(np.ldexp(math.sqrt(min(upper, cap) * _inflation(a)), exp))


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


def checked_exp(name: str, label: str, x: float) -> float:
    """math.exp(x) for the factor e^{label} of the function <name>; past the
    largest double, one ValueError naming the factor and its exponent."""
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise ValueError(f"{name}'s factor e^({label}) overflows double precision "
                         f"at {label} = {x:.6g}") from exc
