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
seeded alike, and memory is O(samples * n) whatever the step count.

Particle runs (and the linear/zero projection, which is one) step their
chunks on min(chunks, rng.usable_cpus()) threads, each chunk in its own rows
of the output.  Nearly all of a run is the noise fill, which releases the
GIL, and no chunk reads another's stream or rows, so the samples are the
same bits on any number of threads.  The McKean-Vlasov projection stays on
one thread: its samples interact at every step.
"""

from __future__ import annotations

import contextvars
import math
import threading
from collections import namedtuple
from typing import Callable, NamedTuple, Optional

import numpy as np

from .matrix import InteractionMatrix, NotApplicable
from .rng import chunk_streams, usable_cpus

STOCHASTIC_TOL = 1e-9


class DriftSpec(NamedTuple):
    """Pairwise drift contract: dX^i = sum_j xi_ij b(t,X^i,X^j) dt + sigma dB^i.

    mean_field(t, x, pool) must return the pool-average of y -> b(t, x, y);
    it is required only for the McKean-Vlasov projection of custom drifts.
    """

    kind: str
    b: Optional[Callable] = None
    mean_field: Optional[Callable] = None


def _sine_b(t, x, y):
    return np.sin(y - x)


def _sine_mean_field(t, x, pool):
    # average of sin(y - x) over y in the pool, by the angle-difference identity
    return float(np.sin(pool).mean()) * np.cos(x) - float(np.cos(pool).mean()) * np.sin(x)


# the named drifts; linear and zero are stepped in closed form, without b
DRIFTS = {
    "linear": DriftSpec("linear"),
    "zero": DriftSpec("zero"),
    "sine": DriftSpec("sine", b=_sine_b, mean_field=_sine_mean_field),
}


class SimConfig(namedtuple("SimConfig", "dt T samples seed sigma")):
    """Euler-Maruyama settings: step dt, horizon T (a whole number of steps),
    sample count, seed and noise level sigma."""

    __slots__ = ()

    def __new__(cls, dt: float, T: float, samples: int, seed: int, sigma: float = 1.0):
        if not (0 < dt < math.inf and 0 < T < math.inf):
            raise ValueError("dt and T must be positive and finite")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if not (0 < sigma and sigma * sigma < math.inf):
            raise ValueError("sigma must be positive and finite, with a finite square, "
                             f"got {sigma}")
        steps = round(T / dt)
        if steps < 1 or abs(steps * dt - T) > 1e-9 * max(T, 1.0):
            raise ValueError("T must be an integral number of steps")
        return super().__new__(cls, dt, T, samples, seed, sigma)

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
        # sum_j xi_ij x_j as one GEMM
        kt = dense.T.copy()
        return lambda t, x: x @ kt
    b = drift.b

    def interaction(t, x):
        out = np.zeros_like(x)
        for i in range(xi.n):
            pair = b(t, x[:, i:i + 1], x)  # (block, n)
            out[:, i] = np.einsum("j,bj->b", dense[i], pair)
        return out
    return interaction


def _run_shares(tasks: list, fn: Callable) -> None:
    """fn(*task) for every task, on min(len(tasks), usable_cpus()) threads.

    With W threads, share k is tasks k, k + W, ...; the caller runs share 0
    itself, so a single task starts no thread.  Each thread runs in a copy of
    the caller's context (numpy's errstate lives there).  Every thread is
    joined before this returns, and then the first failure, by share number,
    is re-raised here.
    """
    workers = min(len(tasks), usable_cpus())
    errors: list = [None] * workers

    def share(k: int) -> None:
        try:
            for task in tasks[k::workers]:
                fn(*task)
        except BaseException as exc:  # re-raised in the caller after the joins
            errors[k] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(share, k))
               for k in range(1, workers)]
    for t in threads:
        t.start()
    share(0)
    for t in threads:
        t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def simulate_particles(xi: InteractionMatrix, drift: DriftSpec, cfg: SimConfig) -> np.ndarray:
    """Terminal samples of the coupled system, shape (samples, n)."""
    interaction = _particle_interaction(xi, drift)
    out = np.zeros((cfg.samples, xi.n))

    # each chunk is stepped in place in its own rows of out, on its own stream
    def chunk(lo, hi, gen):
        _step_block(out[lo:hi], [(0, hi - lo, gen)], cfg, interaction)

    _run_shares(chunk_streams(cfg.seed, cfg.samples), chunk)
    return out


def simulate_projection(xi: InteractionMatrix, drift: DriftSpec, cfg: SimConfig) -> np.ndarray:
    """Terminal samples of the independent projection, shape (samples, n).

    linear drift: the neighbor means vanish, so each coordinate is exactly
    sigma * Brownian motion, i.e. the particle run under zero drift (same
    stepper and streams, so the xi = 0 particle run is bit-identical).
    Row-stochastic xi with a mean_field hook: one self-consistent pass where
    the drift sees the ensemble's empirical law, necessarily unchunked
    (samples interact), each step drawing every chunk's increments in turn.
    """
    if drift.kind in ("linear", "zero") or not xi.dense().any():
        return simulate_particles(xi, DRIFTS["zero"], cfg)
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
        for i in range(xi.n):
            out[:, i] = drift.mean_field(t, x[:, i], x[:, i])
        return out

    return _step_block(np.zeros((cfg.samples, xi.n)), chunk_streams(cfg.seed, cfg.samples),
                       cfg, mean_field)


def save_samples(samples: np.ndarray, path):
    with open(path, "w") as fh:
        for row in np.atleast_2d(samples):
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")
