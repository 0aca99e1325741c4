"""The three benchmark workloads as lists of CLI ops, with their output checks.

Each op is one `python -m chaoscope.cli ...` call in a fresh process, writing
its payload with `--out`; its check reads that payload.  `small=True` gives
the same ops at reduced size (n=14 instead of 16, a fifth of the paths or
samples, 8 verify instances): the runner uses it for the probes that give a
workload the metrics of the other two, and for smoke runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import reference as ref

WHY = {
    "exact16": (
        "The exact engine and the cost-functional tables do almost all of the "
        "work at their largest supported size; rng and sde do none. This is "
        "where ROADMAP C should show."),
    "sampling": (
        "The per-replication stream and Python loops of the samplers and the "
        "SDE noise draw dominate, and the exact engine never runs. The n=48 "
        "short-time op is the regime where a batched (B, n) lockstep sampler "
        "does more work per path than the scalar loop, so a ROADMAP B gain on "
        "mean-field 8 that costs this regime shows up as its own metric."),
    "battery": (
        "The same exact engine used differently: hundreds of small calls with "
        "n <= 10. Python overhead per call and the gaussian/linalg kernels "
        "dominate, so a change that speeds up n=16 but adds fixed cost per call "
        "shows here. It also carries the ROADMAP D subset-eigenvalue tables."),
}

TIMES = (0.5, 1.0, 2.0)   # exact percolate query times
GROWTH_T = 0.5            # horizon of the growth bound
REPS = 25_000             # paths or samples per sampling op (small: REPS // 5);
                          # at 1e5 an op takes 3-6 s, too few samples per run
MC_MATRIX_T = 0.5         # short time on the directed n=48 matrix
VERIFY_SEED = 0           # instance set of the battery (see battery())


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]     # arguments after `python -m chaoscope.cli`
    metric: str               # end-to-end metric the op's wall time feeds
    work: int                 # paths or samples for the rate metrics, else 0
    check: Callable           # payload -> list of problems


def exact16(inputs: dict, seed: int, small: bool = False) -> list[Op]:
    n = 14 if small else 16
    d, path, _ = inputs[f"directed{n}"]
    times = ",".join(str(t) for t in TIMES)
    c = ref.growth_constants(d, GROWTH_T)
    entropy = ref.subset_entropy(ref.covariance(d, GROWTH_T), GROWTH_T, [0])
    exact = ("percolate", "--engine", "exact", "--functional", "size2", "--t", times)
    return [
        Op("exact_mean_field", exact + ("--mean-field", str(n), "--v", "0,1"),
           "exact_query_s", 0, partial(ref.check_exact_mean_field, n=n, k0=2, times=TIMES)),
        Op("exact_directed", exact + ("--matrix", str(path), "--v", "0"),
           "exact_query_s", 0, partial(ref.check_exact_directed, n=n, k0=1, times=TIMES)),
        Op("growth_bound",
           ("bound", "--theorem", "growth", "--matrix", str(path), "--v", "0",
            "--gamma", repr(c["gamma"]), "--big-m", repr(c["M"]),
            "--sigma-const", repr(c["sigma"]), "--horizon", repr(c["T"])),
           "growth_bound_s", 0, partial(ref.check_growth_bound, entropy=entropy)),
    ]


def sampling(inputs: dict, seed: int, small: bool = False) -> list[Op]:
    reps = REPS // 5 if small else REPS
    common = ("--reps", str(reps), "--seed", str(seed), "--threads", "1")
    mf8 = ("percolate", "--mean-field", "8", "--v", "0", "--t", "1") + common
    d6, path6, _ = inputs["directed6"]
    return [
        Op("mc_mean_field", mf8 + ("--engine", "mc"), "mc_paths_per_s", reps,
           partial(ref.check_mc_mean_field, n=8, k0=1, t=1.0, reps=reps)),
        Op("fpp_mean_field", mf8 + ("--engine", "fpp"), "fpp_paths_per_s", reps,
           partial(ref.check_mc_mean_field, n=8, k0=1, t=1.0, reps=reps)),
        Op("mc_sparse",
           ("percolate", "--matrix", str(inputs["directed48"][1]), "--v", "0",
            "--t", str(MC_MATRIX_T), "--engine", "mc") + common,
           "mc_sparse_paths_per_s", reps,
           partial(ref.check_mc_growth, k0=1, t=MC_MATRIX_T, reps=reps)),
        Op("simulate",
           ("simulate", "--matrix", str(path6), "--linear", "--dt", "0.005",
            "--T", "0.5", "--samples", str(reps), "--seed", str(seed), "--threads", "1"),
           "sde_samples_per_s", reps,
           partial(ref.check_simulate, oracle=ref.covariance(d6, 0.5))),
    ]


def battery(inputs: dict, seed: int, small: bool = False) -> list[Op]:
    # The battery's seed picks its random instances, and the instance mix
    # (how many have n = 9 or 10) moves its cost by about 20% from seed to
    # seed, more than any regression bound.  So it runs one fixed instance
    # set, the CLI's default seed; the workload seed does not reach it.
    argv = ("verify", "--suite", "all", "--seed", str(VERIFY_SEED))
    return [Op("verify", argv + (("--instances", "8") if small else ()),
               "verify_s", 0, ref.check_verify)]


WORKLOADS = {"exact16": exact16, "sampling": sampling, "battery": battery}
