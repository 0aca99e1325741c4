"""Concrete entropy bounds: structural theorem values and explicit constants.

The headline theorems state "H <= C * (structural quantity)" with C left
unspecified, so evaluators here return the bracketed structural quantity and
attach an explicit value only where a proof pins a constant down (the
three-particle self-improvement bound, the growth-process route).  The
growth-process bound (Feynman-Kac form) is evaluated exactly through the
subset engine: H0 expectation at the horizon plus a time integral of the
quadratic interaction cost, optionally exponentially discounted.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .gaussian import GaussianModel
from .matrix import (InteractionMatrix, NotApplicable, cost_values, mask_members, subset_mask,
                     validate)
from .percolation import PercolationModel, exact_expectations

COLUMN_SLACK = 1e-12
CURVE_TOL = 1e-10  # Poisson truncation of the growth-bound uniformization


class ModelConstants(namedtuple("ModelConstants", "gamma M sigma T eta C0")):
    """Scalar hypotheses of the entropy estimates.

    gamma: transport constant of the interaction kernel; M: its second
    moment; sigma: noise level; eta: log-Sobolev constant (uniform-in-time
    mode only); C0: initial-chaoticity constant; T: horizon.
    """

    __slots__ = ()

    def __new__(cls, gamma: float, M: float, sigma: float, T: float,
                eta: Optional[float] = None, C0: float = 0.0):
        positive = [("gamma", gamma), ("M", M), ("sigma", sigma)]
        if eta is not None:
            positive.append(("eta", eta))
        for name, val in positive:
            if not 0 < val < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {val}")
        for name, val in (("T", T), ("C0", C0)):
            if not 0 <= val < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {val}")
        s2 = sigma * sigma  # inf, not OverflowError, for a huge sigma
        if s2 == 0 or not all(0 < val / s2 < math.inf for val in (gamma, M)):
            raise ValueError("sigma must keep gamma / sigma^2 and M / sigma^2 "
                             f"positive and finite, got {sigma}")
        return super().__new__(cls, gamma, M, sigma, T, eta, C0)

    def rate_scale(self) -> float:
        """gamma / sigma^2: the growth-process rate the entropy proofs use."""
        return self.gamma / self.sigma ** 2

    def discount_rate(self) -> float:
        """sigma^2 / 4 eta, the uniform-in-time discount exponent."""
        self.require_uniform()
        return self.sigma ** 2 / (4.0 * self.eta)

    def require_uniform(self):
        if self.eta is None:
            raise ValueError("uniform mode needs the LSI constant eta")
        if self.sigma ** 2 <= 12.0 * self.eta * self.gamma:
            raise ValueError("uniform mode needs sigma^2 > 12 * eta * gamma")


class BoundReport(NamedTuple):
    theorem: str
    structural: float     # the bracketed quantity, without the theorem's C
    inputs: dict
    prefactor: float      # the (delta k + 1)-type factor inside structural
    explicit: Optional[float] = None  # only when a proof pins the constant

    def to_json_dict(self) -> dict:
        out = {"theorem": self.theorem, "structural": self.structural,
               "inputs": self.inputs, "prefactor": self.prefactor}
        if self.explicit is not None:
            out["explicit"] = self.explicit
        return out


def _require_columns(xi: InteractionMatrix, theorem: str):
    report = validate(xi, check_columns=True)
    if not report.ok:
        raise ValueError(f"{theorem} needs row and column sums <= 1: {report.describe()}")


def _require_nonnegative(xi: InteractionMatrix, theorem: str):
    if negative := validate(xi).negative_entries:
        raise ValueError(f"{theorem} needs a nonnegative matrix: "
                         f"negative entries at {list(negative)}")


def _check_k(xi: InteractionMatrix, k: int):
    if not 1 <= k <= xi.n:
        raise ValueError(f"need 1 <= k <= {xi.n}")


# ---------------------------------------------------------------------------
# Growth-process entropy bound (exact expectation + time integral)

def percolation_entropy_bound(xi: InteractionMatrix, v, constants: ModelConstants,
                              H0=None, h3: float | None = None,
                              uniform: bool = False) -> np.ndarray:
    """E_u[H0(X_T)] + int_0^T E_u[cost(X_t)] dt through the exact engine.

    X is the growth process on xi at the proofs' rate gamma / sigma^2
    (constants.rate_scale()).  cost is C (quadratic interaction cost) for
    h3=None, else the sharper C-hat built from a three-particle entropy
    bound h3 (matrix.cost_values).  In uniform mode both terms carry the
    discount exp(-sigma^2 t / 4 eta) at their own times, and
    sigma^2 > 12 eta gamma is enforced.  H0, if given, is a function of a
    masks array with one value per mask.  Cost and H0 share one pass of
    exact_expectations, a stack of the two columns (the integral row alone
    without H0), tabulated at the masks the engine visits and truncated at
    CURVE_TOL = 1e-10: the time integral is its closed-form Poisson mixture,
    certified at T * 1e-10 * ||C||_inf, and the H0 term at
    1e-10 * ||H0||_inf, the norms over its rows.  The rows are those of
    exact_expectations: a start subset v runs on its up-set alone, the
    2^(n-|v|) supersets u of v, row 0 being v; v=None gives every start
    subset u in mask order.
    """
    model = PercolationModel(xi, constants.rate_scale())
    T = constants.T
    if T <= 0:
        raise ValueError("constants.T must be positive")
    rate = constants.discount_rate() if uniform else 0.0

    def F(masks):
        cost = cost_values(xi, masks, constants, h3)
        if H0 is None:
            return cost
        h0 = np.asarray(H0(masks), dtype=float)
        if h0.shape != masks.shape:
            raise ValueError(f"H0 must give one value per mask, {masks.size} values; "
                             f"got shape {h0.shape}")
        return np.column_stack((cost, h0))

    times = [] if H0 is None else [T]  # without H0, the integral row alone
    rows = exact_expectations(model, F, v, times, CURVE_TOL, rate, horizon=T)
    return rows[0] if H0 is None else rows[1][:, 0] + math.exp(-rate * T) * rows[0][:, 1]


def h3_bound(constants: ModelConstants, delta: float, uniform: bool = False) -> float:
    """Explicit ceiling on three-particle entropies when H0 <= C0 delta^2 |v|^3.

    Finite horizon: 8 e^{3 gamma T} (C0 + M / 3 gamma sigma^2) * delta^2 * 27.
    Uniform: 8 (C0 + M / (sigma^2 (r - 3 gamma))) * delta^2 * 27 with the
    discount rate r = sigma^2/4 eta, which must exceed 3 gamma.  An overflow
    raises one ValueError naming e^{3 gamma T} or delta^2.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    g, M, s2 = constants.gamma, constants.M, constants.sigma ** 2
    if uniform:
        core = constants.C0 + M / (s2 * (constants.discount_rate() - 3.0 * g))
    else:
        core = (linalg.checked_exp("h3_bound", "3*gamma*T", 3.0 * g * constants.T)
                * (constants.C0 + M / (3.0 * g * s2)))
    try:
        value = 8.0 * core * delta ** 2 * 27.0
    except OverflowError:  # delta ** 2 alone
        value = math.inf
    if not value < math.inf:  # nan: delta = 0 times an infinite core
        raise ValueError(f"h3_bound overflows double precision: 216 * {core:.6g} * delta^2 "
                         f"at delta = {delta:.6g}")
    return value


# ---------------------------------------------------------------------------
# Structural theorem values

def max_entropy_bound(xi: InteractionMatrix, k: int) -> BoundReport:
    """(delta k + 1)(delta k)^2: worst subset of size k."""
    _check_k(xi, k)
    _require_nonnegative(xi, "max_entropy_bound")
    dk = xi.delta * k
    pref = dk + 1.0
    inputs = {"k": k, "n": xi.n, "delta": xi.delta}
    return BoundReport("max", pref * dk * dk, inputs, pref)


def avg_entropy_bound(xi: InteractionMatrix, k: int) -> BoundReport:
    """(delta k + 1) (k^2/n) sum_i delta_i^2: one-way average over size-k sets."""
    _check_k(xi, k)
    _require_columns(xi, "avg_entropy_bound")
    pref = xi.delta * k + 1.0
    val = pref * k * k / xi.n * float((xi.delta_i ** 2).sum())
    inputs = {"k": k, "n": xi.n, "delta": xi.delta}
    return BoundReport("avg", val, inputs, pref)


def weighted_avg_bound(xi: InteractionMatrix, k: int, pi) -> BoundReport:
    """(delta k + 1) k^2 sum_i pi_i delta_i^2 for a subinvariant weighting pi."""
    _check_k(xi, k)
    _require_nonnegative(xi, "weighted_avg_bound")
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (xi.n,):
        raise ValueError("pi must be a length-n vector")
    bad = np.flatnonzero(~((pi >= 0) & (pi < math.inf))).tolist()  # NaN fails both
    if bad:
        raise ValueError(f"pi must be nonnegative and finite: {pi[bad].tolist()} at {bad}")
    if pi.sum() > 1.0 + COLUMN_SLACK:
        raise ValueError("pi must have total mass <= 1")
    if (pi @ xi.dense() > pi + COLUMN_SLACK).any():
        raise ValueError("pi must satisfy pi^T xi <= pi^T coordinatewise")
    pref = xi.delta * k + 1.0
    val = pref * k * k * float((pi * xi.delta_i ** 2).sum())
    inputs = {"k": k, "n": xi.n, "delta": xi.delta}
    return BoundReport("avg-markov", val, inputs, pref)


def sharper_avg_bound(xi: InteractionMatrix, k: int) -> BoundReport:
    """(delta k + 1)(k^2/n^2 sum xi_ij^2 + (k/n) p_xi): two-way average bound."""
    from .matrix import p_xi

    _check_k(xi, k)
    _require_columns(xi, "sharper_avg_bound")
    n = xi.n
    pref = xi.delta * k + 1.0
    sq = float((xi.dense() ** 2).sum())
    val = pref * (k * k / (n * n) * sq + k / n * p_xi(xi))
    inputs = {"k": k, "n": n, "delta": xi.delta}
    return BoundReport("avg-2way", val, inputs, pref)


def setwise_bound(xi: InteractionMatrix, v) -> BoundReport:
    """q_xi(v), the subset-resolved structural bound."""
    from .matrix import q_xi

    _require_columns(xi, "setwise_bound")
    members = mask_members(subset_mask(v, xi.n))
    val = q_xi(xi, members)
    pref = xi.delta * len(members) + 1.0
    inputs = {"v": members, "n": xi.n, "delta": xi.delta}
    return BoundReport("setwise", val, inputs, pref)


def reversed_variant(report: BoundReport) -> BoundReport:
    """The reversed-entropy form: same value with the size prefactor removed."""
    if report.theorem.endswith(".reversed"):
        raise ValueError("already reversed")
    return BoundReport(report.theorem + ".reversed",
                       report.structural / report.prefactor,
                       dict(report.inputs), 1.0, report.explicit)


# ---------------------------------------------------------------------------
# Log-Sobolev constants of the two worked diffusion classes

def lsi_convex(lam: float, eta0: float, sigma: float) -> float:
    """eta for lambda-convex confinement: max(eta0/4, sigma^2/lambda)."""
    if lam <= 0:
        raise ValueError("convex case needs lam > 0")
    return max(eta0 / 4.0, sigma ** 2 / lam)


def lsi_torus(lam: float, sigma: float, div_norm: float = 0.0) -> float:
    """eta for the torus class with density bound lambda.

    (lambda^2/8 pi^2) (1 - sqrt(2 log lambda) ||div K||_inf /
    (2 (2 sigma^2 pi^2 - ||div K||_inf)))^{-1}, requiring the smallness
    condition ||div K||_inf < 2 sigma^2 pi^2 / (1 + sqrt(2 log lambda));
    divergence-free drift gives exactly lambda^2 / 8 pi^2.
    """
    if lam < 1.0:
        raise ValueError("torus case needs a density bound lam >= 1")
    if div_norm < 0:
        raise ValueError("div_norm must be nonnegative")
    root = math.sqrt(2.0 * math.log(lam))
    threshold = 2.0 * sigma ** 2 * math.pi ** 2 / (1.0 + root)
    if div_norm >= threshold:
        raise NotApplicable("smallness condition fails: "
                            f"div_norm {div_norm} >= threshold {threshold}")
    base = lam ** 2 / (8.0 * math.pi ** 2)
    bracket = 1.0 - root * div_norm / (
        2.0 * (2.0 * sigma ** 2 * math.pi ** 2 - div_norm))
    return base / bracket


def gaussian_fk_constants(gm: GaussianModel) -> ModelConstants:
    """Constants under which the linear-drift system satisfies the hypotheses.

    The interaction kernel is b(x, y) = y and the reference marginals are
    N(0, t), t <= T: the quadratic transport inequality holds with
    gamma = 2T (worst marginal variance is t = T), and the second-moment
    constant is the largest diagonal of Sigma_T, which dominates the earlier
    diagonals.  Noise is sigma = 1.
    """
    M = float(np.diag(gm.sigma_T).max())
    return ModelConstants(gamma=2.0 * gm.T, M=M, sigma=1.0, T=gm.T)
