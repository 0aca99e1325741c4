"""Euler-Maruyama simulation of the particle system and its projection.

The n-particle system couples coordinates through xi-weighted pairwise drift;
the independent projection replaces each neighbor with its own marginal law.
Two cases admit a faithful simulation of the projection: linear drift (the
mean-field term vanishes identically, leaving pure noise) and row-stochastic
xi with a common pairwise drift, where every coordinate solves one
McKean-Vlasov equation approximated by the ensemble's own empirical law.

Paths start at zero.  Samples run in chunks of rng.CHUNK, each with its own
stream (rng.chunk_streams), and each step draws one step's Brownian
increments for a chunk's samples into one reused buffer, so terminal samples
depend on the seed and CHUNK, particle/projection runs share noise when
seeded alike, and memory is O(samples * n * d) whatever the step count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .matrix import InteractionMatrix
from .percolation import NotApplicable
from .rng import chunk_streams

STOCHASTIC_TOL = 1e-9


@dataclass(frozen=True)
class DriftSpec:
    """Pairwise drift contract: dX^i = sum_j xi_ij b(t,X^i,X^j) dt + sigma dB^i.

    mean_field(t, x, pool) must return the pool-average of y -> b(t, x, y);
    it is required only for the McKean-Vlasov projection of custom drifts.
    """

    kind: str
    d: int = 1
    b: Optional[Callable] = None
    mean_field: Optional[Callable] = None

    @classmethod
    def linear(cls) -> "DriftSpec":
        return cls("linear")

    @classmethod
    def zero(cls) -> "DriftSpec":
        return cls("zero")

    @classmethod
    def custom(cls, name: str) -> "DriftSpec":
        if name not in CUSTOM_DRIFTS:
            raise ValueError(f"unknown drift {name!r}; have {sorted(CUSTOM_DRIFTS)}")
        return CUSTOM_DRIFTS[name]


def _sine_b(t, x, y):
    return np.sin(y - x)


def _sine_mean_field(t, x, pool):
    # average of sin(y - x) over y in the pool, by the angle-difference identity
    return float(np.sin(pool).mean()) * np.cos(x) - float(np.cos(pool).mean()) * np.sin(x)


CUSTOM_DRIFTS = {
    "sine": DriftSpec("sine", b=_sine_b, mean_field=_sine_mean_field),
}


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    samples: int
    seed: int
    sigma: float = 1.0

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.T < math.inf):
            raise ValueError("dt and T must be positive and finite")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (0 < self.sigma and self.sigma * self.sigma < math.inf):
            raise ValueError("sigma must be positive and finite, with a finite square, "
                             f"got {self.sigma}")
        steps = round(self.T / self.dt)
        if steps < 1 or abs(steps * self.dt - self.T) > 1e-9 * max(self.T, 1.0):
            raise ValueError("T must be an integral number of steps")

    @property
    def steps(self) -> int:
        return round(self.T / self.dt)


def _draw_noise(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with one step's N(0, 1) increments for one chunk."""
    return gen.standard_normal(out=out)


def _step_block(x: np.ndarray, streams, cfg: SimConfig, interaction) -> np.ndarray:
    """Run Euler-Maruyama in place on x, which starts at zero.

    interaction(t, x) -> drift.  Each step draws its increments into one
    reused buffer, streams' chunks (lo, hi, gen) in order, so memory is a few
    copies of x whatever the step count.
    """
    z = np.empty_like(x)
    root = cfg.sigma * math.sqrt(cfg.dt)
    for s in range(cfg.steps):
        drift = interaction(s * cfg.dt, x)
        for lo, hi, gen in streams:
            _draw_noise(gen, z[lo:hi])
        # (x + dt * drift) + root * noise, op for op
        x += cfg.dt * drift
        z *= root
        x += z
    return x


def _particle_interaction(xi: InteractionMatrix, drift: DriftSpec):
    dense = xi.dense()
    if drift.kind == "zero":
        return lambda t, x: 0.0  # x += dt * 0.0 keeps x's bits: x is never -0.0
    if drift.kind == "linear":
        # sum_j xi_ij x_j as one GEMM on the flattened (particle, dim) axis
        kt = np.kron(dense, np.eye(drift.d)).T.copy()
        return lambda t, x: (x.reshape(len(x), -1) @ kt).reshape(x.shape)
    b = drift.b

    def interaction(t, x):
        out = np.zeros_like(x)
        for i in range(xi.n):
            pair = b(t, x[:, i:i + 1, :], x)           # (block, n, d)
            out[:, i, :] = np.einsum("j,bjd->bd", dense[i], pair)
        return out
    return interaction


def simulate_particles(xi: InteractionMatrix, drift: DriftSpec, cfg: SimConfig) -> np.ndarray:
    """Terminal samples of the coupled system, shape (samples, n*d)."""
    n, d = xi.n, drift.d
    interaction = _particle_interaction(xi, drift)
    out = np.zeros((cfg.samples, n, d))
    # one chunk at a time, each stepped in place in its rows of out
    for lo, hi, gen in chunk_streams(cfg.seed, cfg.samples):
        _step_block(out[lo:hi], [(0, hi - lo, gen)], cfg, interaction)
    return out.reshape(cfg.samples, n * d)


def simulate_projection(xi: InteractionMatrix, drift: DriftSpec, cfg: SimConfig) -> np.ndarray:
    """Terminal samples of the independent projection, shape (samples, n*d).

    linear drift: the neighbor means vanish, so each coordinate is exactly
    sigma * Brownian motion, i.e. the particle run under zero drift (same
    stepper and streams, so the xi = 0 particle run is bit-identical).
    Row-stochastic xi with a mean_field hook: one self-consistent pass where
    the drift sees the ensemble's empirical law, necessarily unchunked
    (samples interact), each step drawing every chunk's increments in turn.
    """
    n, d = xi.n, drift.d
    if drift.kind in ("linear", "zero") or not xi.vals.size:
        return simulate_particles(xi, DriftSpec("zero", d=d), cfg)
    row_sums = xi.row_sums
    if np.abs(row_sums - 1.0).max() > STOCHASTIC_TOL:
        raise NotApplicable(
            "projection needs linear drift or row-stochastic xi; "
            "marginal laws of a general coupled system are not computable here")
    if drift.mean_field is None:
        raise NotApplicable(f"drift {drift.kind!r} has no mean_field hook")
    # One coordinate-wise McKean-Vlasov pass over the whole ensemble: with
    # row sums 1 and a common kernel every coordinate solves the same
    # equation, and the ensemble across samples estimates its law.
    def mean_field(t, x):
        out = np.empty_like(x)
        for i in range(n):
            out[:, i, :] = drift.mean_field(t, x[:, i, :], x[:, i, :])
        return out

    x = _step_block(np.zeros((cfg.samples, n, d)), chunk_streams(cfg.seed, cfg.samples),
                    cfg, mean_field)
    return x.reshape(cfg.samples, n * d)


def save_samples(samples: np.ndarray, path):
    with open(path, "w") as fh:
        for row in np.atleast_2d(samples):
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
