"""Independent references and the output checks every benchmark op must pass.

Nothing here imports chaoscope.  The references take routes the package
does not: scaling-and-squaring matrix exponentials of small generators
instead of uniformization or series, and Van Loan's block exponential for
the Gaussian covariance.  Checks never compare bytes with an earlier run,
because seeded sample values may legitimately change; they compare values
with references inside a stated allowance.

Every checker returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# References

def expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring with a 24-term Taylor polynomial."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=1).max()) if a.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if norm > 0.5 else 0
    b = a / 2.0 ** squarings
    term = np.eye(a.shape[0])
    out = term.copy()
    for k in range(1, 25):  # ||b|| <= 1/2: the remainder is below 1e-30
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def birth_chain_moment(n: int, k0: int, t: float, power: int, kappa: float = 1.0) -> float:
    """E[|X_t|^power] for mean-field growth on n sites from |X_0| = k0.

    Under all-to-all coupling 1/(n-1) the size is a pure-birth chain with
    rate kappa k (n-k) / (n-1); the value is (e^{tQ} f)[k0].
    """
    ks = np.arange(n + 1, dtype=float)
    birth = kappa * ks * (n - ks) / (n - 1)
    q = np.diag(-birth) + np.diag(birth[:-1], 1)
    return float((expm(t * q) @ ks ** power)[k0])


def covariance(d: np.ndarray, T: float) -> np.ndarray:
    """Sigma_T = int_0^T e^{s d} e^{s d^T} ds by Van Loan's block exponential."""
    n = d.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -d
    block[:n, n:] = np.eye(n)
    block[n:, n:] = d.T
    e = expm(T * block)
    sig = e[n:, n:].T @ e[:n, n:]
    return (sig + sig.T) / 2.0


def subset_entropy(sig: np.ndarray, T: float, members) -> float:
    """Relative entropy of the subset marginal against Brownian motion."""
    sub = sig[np.ix_(members, members)] / T - np.eye(len(members))
    lam = np.linalg.eigvalsh(sub)
    return 0.5 * float((lam - np.log1p(lam)).sum())


def growth_constants(d: np.ndarray, T: float) -> dict:
    """The linear-drift constants: gamma = 2T, M = max diag Sigma_T, sigma = 1."""
    return {"gamma": 2.0 * T, "M": float(np.diag(covariance(d, T)).max()),
            "sigma": 1.0, "T": T}


# ---------------------------------------------------------------------------
# Checks

def _records(payload, times) -> tuple[list, list]:
    if not isinstance(payload, list) or len(payload) != len(times):
        return [], [f"expected {len(times)} records, got {payload!r:.200}"]
    got = [float(r["t"]) for r in payload]
    if got != [float(t) for t in times]:
        return [], [f"times {got} differ from requested {list(times)}"]
    return [float(r["value"]) for r in payload], []


def check_exact_mean_field(payload, n: int, k0: int, times) -> list[str]:
    """Exact size2 on mean field n equals the birth chain within the certificate.

    The engine certifies truncation at 1e-10 max|F| and the birth chain is
    held to 1e-12 max f; with F = f = |X|^2 both maxima are n^2.
    """
    values, problems = _records(payload, times)
    allowance = (1e-10 + 1e-12) * n * n
    for t, val in zip(times, values):
        ref = birth_chain_moment(n, k0, t, 2)
        if not abs(val - ref) <= allowance:
            problems.append(f"t={t}: {val!r} vs birth chain {ref!r} "
                            f"(gap {abs(val - ref):.3g} > {allowance:.3g})")
    return problems


def check_exact_directed(payload, n: int, k0: int, times, kappa: float = 1.0) -> list[str]:
    """Exact size2 on a row-substochastic matrix: nondecreasing in t and
    inside [|v|^2, 2 e^{2 kappa t} |v|^2], up to the engine's certificate."""
    values, problems = _records(payload, times)
    slack = 1e-10 * n * n
    for t, val in zip(times, values):
        lo, hi = float(k0 * k0), 2.0 * math.exp(2.0 * kappa * t) * k0 * k0
        if not lo - slack <= val <= hi + slack:
            problems.append(f"t={t}: {val!r} outside [{lo}, {hi}]")
    order = sorted(zip(times, values))
    for (t0, v0), (t1, v1) in zip(order, order[1:]):
        if not v1 >= v0 - slack:
            problems.append(f"decreases from t={t0} ({v0!r}) to t={t1} ({v1!r})")
    return problems


def check_growth_bound(payload, entropy: float) -> list[str]:
    """The growth-process bound dominates the exact subset entropy."""
    try:
        val = float(payload["structural"])
    except (KeyError, TypeError, ValueError):
        return [f"no structural value in {payload!r:.200}"]
    if not (math.isfinite(val) and val >= entropy - 1e-9):
        return [f"bound {val!r} below exact entropy {entropy!r}"]
    return []


def _estimate(payload, reps: int) -> tuple[float, float, list[str]]:
    if not isinstance(payload, list) or len(payload) != 1:
        return 0.0, 0.0, [f"expected one record, got {payload!r:.200}"]
    rec = payload[0]
    mean, se = float(rec["value"]), float(rec["stderr"])
    problems = []
    if int(rec["reps"]) != reps:
        problems.append(f"reps {rec['reps']} != {reps}")
    if not (math.isfinite(mean) and math.isfinite(se) and se > 0.0):
        problems.append(f"bad estimate {mean!r} +- {se!r}")
    return mean, se, problems


def check_mc_mean_field(payload, n: int, k0: int, t: float, reps: int) -> list[str]:
    """Sampled E|X_t| within 4 reported standard errors of the birth chain."""
    mean, se, problems = _estimate(payload, reps)
    if problems:
        return problems
    ref = birth_chain_moment(n, k0, t, 1)
    if not abs(mean - ref) <= 4.0 * se:
        problems.append(f"{mean!r} vs birth chain {ref!r}: z = {(mean - ref) / se:.2f}")
    return problems


def check_mc_growth(payload, k0: int, t: float, reps: int, kappa: float = 1.0) -> list[str]:
    """Sampled E|X_t| on a row-substochastic matrix in [|v|, e^{kappa t}|v| + 4 se]."""
    mean, se, problems = _estimate(payload, reps)
    if problems:
        return problems
    hi = math.exp(kappa * t) * k0 + 4.0 * se
    if not k0 <= mean <= hi:
        problems.append(f"{mean!r} outside [{k0}, {hi!r}]")
    return problems


def check_simulate(payload, oracle: np.ndarray) -> list[str]:
    """Every empirical covariance entry within 5 reported standard errors."""
    n = oracle.shape[0]
    if not isinstance(payload, list) or len(payload) != n * (n + 1) // 2:
        return [f"expected {n * (n + 1) // 2} covariance entries"]
    problems = []
    for rec in payload:
        i, j = int(rec["i"]), int(rec["j"])
        emp, se = float(rec["empirical"]), float(rec["stderr"])
        if not abs(emp - oracle[i, j]) <= 5.0 * se:
            problems.append(f"cov[{i},{j}] {emp!r} vs {oracle[i, j]!r}: "
                            f"z = {(emp - oracle[i, j]) / se:.2f}")
    return problems


def check_verify(payload) -> list[str]:
    """The battery report says every suite passed."""
    if not isinstance(payload, dict) or payload.get("passed") is not True:
        failed = [s.get("suite") for s in payload.get("suites", [])
                  if not s.get("passed")] if isinstance(payload, dict) else []
        return [f"verify report not passed; failing suites {failed}"]
    return []
