"""Euler-Maruyama simulation of the particle system and its projection.

The n-particle system couples coordinates through xi-weighted pairwise drift;
the independent projection replaces each neighbor with its own marginal law.
Two cases admit a faithful simulation of the projection: linear drift (the
mean-field term vanishes identically, leaving pure noise) and row-stochastic
xi with a common pairwise drift, where every coordinate solves one
McKean-Vlasov equation approximated by the ensemble's own empirical law.

Paths start at zero.  Samples run in chunks of rng.CHUNK, and each chunk
draws every step's Brownian increments for all its samples from its own
stream (rng.chunk_streams), so terminal samples depend on the seed and CHUNK,
and particle/projection runs share noise when seeded alike.
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


def _draw_noise(gen: np.random.Generator, size: int, steps: int, n: int, d: int) -> np.ndarray:
    """One chunk's N(0, 1) increments, each step's for the whole chunk in turn."""
    return gen.standard_normal((steps, size, n, d))


def _step_block(noise: np.ndarray, cfg: SimConfig, interaction) -> np.ndarray:
    """Run Euler-Maruyama on one block of paths; interaction(t, x) -> drift."""
    steps, block, n, d = noise.shape
    x = np.zeros((block, n, d))
    root = cfg.sigma * math.sqrt(cfg.dt)
    for s in range(steps):
        x = x + cfg.dt * interaction(s * cfg.dt, x) + root * noise[s]
    return x


def _particle_interaction(xi: InteractionMatrix, drift: DriftSpec):
    dense = xi.dense()
    if drift.kind == "zero":
        return lambda t, x: np.zeros_like(x)
    if drift.kind == "linear":
        # sum_j xi_ij x_j: contract the particle axis against xi's rows
        return lambda t, x: np.einsum("ij,bjd->bid", dense, x)
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
    # one noise chunk at a time bounds memory at CHUNK samples
    out = np.concatenate([
        _step_block(_draw_noise(gen, hi - lo, cfg.steps, n, d), cfg, interaction)
        for lo, hi, gen in chunk_streams(cfg.seed, cfg.samples)])
    return out.reshape(cfg.samples, n * d)


def simulate_projection(xi: InteractionMatrix, drift: DriftSpec, cfg: SimConfig) -> np.ndarray:
    """Terminal samples of the independent projection, shape (samples, n*d).

    linear drift: the neighbor means vanish, so each coordinate is exactly
    sigma * Brownian motion, i.e. the particle run under zero drift (same
    stepper and streams, so the xi = 0 particle run is bit-identical).
    Row-stochastic xi with a mean_field hook: one self-consistent pass where
    the drift sees the ensemble's empirical law, necessarily unchunked
    (samples interact).
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

    noise = np.empty((cfg.steps, cfg.samples, n, d))  # one chunk's draws at a time on top
    for lo, hi, gen in chunk_streams(cfg.seed, cfg.samples):
        noise[:, lo:hi] = _draw_noise(gen, hi - lo, cfg.steps, n, d)
    return _step_block(noise, cfg, mean_field).reshape(cfg.samples, n * d)


def save_samples(samples: np.ndarray, path):
    with open(path, "w") as fh:
        for row in np.atleast_2d(samples):
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
