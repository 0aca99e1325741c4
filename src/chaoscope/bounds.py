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

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gaussian import GaussianModel
from .matrix import InteractionMatrix, SubsetState, validate
from .percolation import (NotApplicable, PercolationModel, SubsetFunction,
                          expectation_curve, functional_table)

COLUMN_SLACK = 1e-12
CURVE_TOL = 1e-10  # Poisson truncation of the growth-bound curve


@dataclass(frozen=True)
class ModelConstants:
    """Scalar hypotheses of the entropy estimates.

    gamma: transport constant of the interaction kernel; M: its second
    moment; sigma: noise level; eta: log-Sobolev constant (uniform-in-time
    mode only); C0: initial-chaoticity constant; T: horizon.
    """

    gamma: float
    M: float
    sigma: float
    T: float
    eta: Optional[float] = None
    C0: float = 0.0

    def __post_init__(self):
        positive = [("gamma", self.gamma), ("M", self.M), ("sigma", self.sigma)]
        if self.eta is not None:
            positive.append(("eta", self.eta))
        for name, val in positive:
            if not 0 < val < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {val}")
        for name, val in (("T", self.T), ("C0", self.C0)):
            if not 0 <= val < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {val}")
        s2 = self.sigma * self.sigma  # inf, not OverflowError, for a huge sigma
        if s2 == 0 or not all(0 < val / s2 < math.inf for val in (self.gamma, self.M)):
            raise ValueError("sigma must keep gamma / sigma^2 and M / sigma^2 "
                             f"positive and finite, got {self.sigma}")

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


@dataclass(frozen=True)
class BoundReport:
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

    def csv_row(self):
        return (self.theorem, self.structural, self.explicit,
                json.dumps(self.inputs, sort_keys=True))


def _echo(constants: Optional[ModelConstants]) -> dict:
    if constants is None:
        return {}
    out = {"gamma": constants.gamma, "M": constants.M,
           "sigma": constants.sigma, "T": constants.T, "C0": constants.C0}
    if constants.eta is not None:
        out["eta"] = constants.eta
    return out


def _require_columns(xi: InteractionMatrix, theorem: str):
    report = validate(xi, check_columns=True)
    if not report.ok:
        raise ValueError(f"{theorem} needs row and column sums <= 1: {report.describe()}")


def _check_k(xi: InteractionMatrix, k: int):
    if not 1 <= k <= xi.n:
        raise ValueError(f"need 1 <= k <= {xi.n}")


# ---------------------------------------------------------------------------
# Growth-process entropy bound (exact expectation + time integral)

def percolation_entropy_bound(model: PercolationModel, v, constants: ModelConstants,
                              H0: SubsetFunction | None = None,
                              use_chat: bool = False, h3: float = 0.0,
                              uniform: bool = False):
    """E_v[H0(X_T)] + int_0^T E_v[cost(X_t)] dt through the exact engine.

    cost is C (quadratic interaction cost) or, with use_chat, the sharper
    C-hat built from a three-particle entropy bound h3.  In uniform mode both
    terms carry the discount exp(-sigma^2 t / 4 eta) at their own times, and
    sigma^2 > 12 eta gamma is enforced.  Cost and H0 share one curve, a
    stack of the two tables, truncated at CURVE_TOL = 1e-10: the time
    integral is the curve's closed-form Poisson mixture, certified at
    T * 1e-10 * ||C||_inf, and the H0 term at 1e-10 * ||H0||_inf.  v=None
    gives every start subset at once (a vector over masks).
    """
    T = constants.T
    if T <= 0:
        raise ValueError("constants.T must be positive")
    sel = slice(None) if v is None else SubsetState.of(v, model.n).mask
    rate = constants.discount_rate() if uniform else 0.0
    spec = ("chat", {"constants": constants, "h3": h3}) if use_chat \
        else ("C", {"constants": constants})
    cost = functional_table(spec, model.xi)
    if H0 is None:
        total = expectation_curve(model, cost, T, tol=CURVE_TOL).integral_all(T, rate)[sel]
    else:
        if H0.n != model.n or H0.values.ndim != 1:
            raise ValueError("H0 must be one table over the model's subsets")
        both = SubsetFunction(np.column_stack((cost.values, H0.values)), model.n)
        curve = expectation_curve(model, both, T, tol=CURVE_TOL)
        total = (curve.integral_all(T, rate)[sel, 0]
                 + math.exp(-rate * T) * curve.eval_all(T)[sel, 1])
    return total if v is None else float(total)


def h3_bound(constants: ModelConstants, delta: float, uniform: bool = False) -> float:
    """Explicit ceiling on three-particle entropies when H0 <= C0 delta^2 |v|^3.

    Finite horizon: 8 e^{3 gamma T} (C0 + M / 3 gamma sigma^2) * delta^2 * 27.
    Uniform: 8 (C0 + M / (sigma^2 (r - 3 gamma))) * delta^2 * 27 with the
    discount rate r = sigma^2/4 eta, which must exceed 3 gamma.
    """
    if not 0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    g, M, s2 = constants.gamma, constants.M, constants.sigma ** 2
    if uniform:
        r = constants.discount_rate()
        core = constants.C0 + M / (s2 * (r - 3.0 * g))
        return 8.0 * core * delta ** 2 * 27.0
    core = math.exp(3.0 * g * constants.T) * (constants.C0 + M / (3.0 * g * s2))
    return 8.0 * core * delta ** 2 * 27.0


# ---------------------------------------------------------------------------
# Structural theorem values

def max_entropy_bound(xi: InteractionMatrix, k: int,
                      constants: ModelConstants | None = None) -> BoundReport:
    """(delta k + 1)(delta k)^2: worst subset of size k."""
    _check_k(xi, k)
    dk = xi.delta * k
    pref = dk + 1.0
    inputs = {"k": k, "n": xi.n, "delta": xi.delta, **_echo(constants)}
    return BoundReport("max", pref * dk * dk, inputs, pref)


def avg_entropy_bound(xi: InteractionMatrix, k: int,
                      constants: ModelConstants | None = None) -> BoundReport:
    """(delta k + 1) (k^2/n) sum_i delta_i^2: one-way average over size-k sets."""
    _check_k(xi, k)
    _require_columns(xi, "avg_entropy_bound")
    pref = xi.delta * k + 1.0
    val = pref * k * k / xi.n * float((xi.delta_i ** 2).sum())
    inputs = {"k": k, "n": xi.n, "delta": xi.delta, **_echo(constants)}
    return BoundReport("avg", val, inputs, pref)


def weighted_avg_bound(xi: InteractionMatrix, k: int, pi,
                       constants: ModelConstants | None = None) -> BoundReport:
    """(delta k + 1) k^2 sum_i pi_i delta_i^2 for a subinvariant weighting pi."""
    _check_k(xi, k)
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (xi.n,):
        raise ValueError("pi must be a length-n vector")
    if (pi < 0).any():
        raise ValueError("pi must be nonnegative")
    if pi.sum() > 1.0 + COLUMN_SLACK:
        raise ValueError("pi must have total mass <= 1")
    if (xi.rmatvec(pi) > pi + COLUMN_SLACK).any():
        raise ValueError("pi must satisfy pi^T xi <= pi^T coordinatewise")
    pref = xi.delta * k + 1.0
    val = pref * k * k * float((pi * xi.delta_i ** 2).sum())
    inputs = {"k": k, "n": xi.n, "delta": xi.delta, **_echo(constants)}
    return BoundReport("avg-markov", val, inputs, pref)


def sharper_avg_bound(xi: InteractionMatrix, k: int,
                      constants: ModelConstants | None = None) -> BoundReport:
    """(delta k + 1)(k^2/n^2 sum xi_ij^2 + (k/n) p_xi): two-way average bound."""
    from .matrix import p_xi

    _check_k(xi, k)
    _require_columns(xi, "sharper_avg_bound")
    n = xi.n
    pref = xi.delta * k + 1.0
    sq = float((xi.vals ** 2).sum())
    val = pref * (k * k / (n * n) * sq + k / n * p_xi(xi))
    inputs = {"k": k, "n": n, "delta": xi.delta, **_echo(constants)}
    return BoundReport("avg-2way", val, inputs, pref)


def setwise_bound(xi: InteractionMatrix, v,
                  constants: ModelConstants | None = None) -> BoundReport:
    """q_xi(v), the subset-resolved structural bound."""
    from .matrix import q_xi

    _require_columns(xi, "setwise_bound")
    v = SubsetState.of(v, xi.n)
    val = q_xi(xi, v)
    pref = xi.delta * v.size + 1.0
    inputs = {"v": v.members, "n": xi.n, "delta": xi.delta,
              **_echo(constants)}
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

def lsi_constants(kind: str, params: dict) -> float:
    """eta for the convex-potential and torus diffusion classes.

    convex: max(eta0/4, sigma^2/lambda) for lambda-convex confinement.
    torus: (lambda^2/8 pi^2) (1 - sqrt(2 log lambda) ||div K||_inf /
    (2 (2 sigma^2 pi^2 - ||div K||_inf)))^{-1}, requiring the smallness
    condition ||div K||_inf < 2 sigma^2 pi^2 / (1 + sqrt(2 log lambda));
    divergence-free drift gives exactly lambda^2 / 8 pi^2.
    """
    if kind == "convex":
        lam = float(params["lam"])
        if lam <= 0:
            raise ValueError("convex case needs lam > 0")
        eta0 = float(params["eta0"])
        sigma = float(params["sigma"])
        return max(eta0 / 4.0, sigma ** 2 / lam)
    if kind == "torus":
        lam = float(params["lam"])
        if lam < 1.0:
            raise ValueError("torus case needs a density bound lam >= 1")
        sigma = float(params["sigma"])
        div_norm = float(params.get("div_norm", 0.0))
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
    raise ValueError(f"unknown kind {kind!r}")


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
