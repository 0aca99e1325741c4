"""Fixed reference work that gauges how fast the host runs right now.

    python calibrate.py

The runner times this script as a fresh process, in turn with the ops, and
scales each run's times by its mean (run.py, `_timed`).  The reference
machine shares its cores with other tenants: each core runs at one of two
speeds, about 50% apart, for a few seconds at a time, and the share of time
at the slow speed drifts from minute to minute.  The drift moves this script
and the ops alike, so their ratio stays put.  The script uses the
interpreter and numpy as the ops do (start-up and import, a Python loop of
small numpy calls as in the samplers, whole-vector work on 2^16 states as in
the exact engine) and never imports chaoscope, so no change to the program
can move it.
"""

import numpy as np


def main() -> float:
    rng = np.random.default_rng(20240913)
    acc = 0.0
    for _ in range(20_000):             # per-path loop of small numpy calls
        r = rng.random(8)
        acc += float(r.sum()) * 0.5 + int(np.argmax(r))
    v = rng.random(1 << 16)
    idx = rng.permutation(v.size)
    for _ in range(60):                 # whole-vector passes over 2^16 states
        v = np.sqrt(v[idx] * 0.5 + np.cumsum(v) / v.size)
    m = rng.random((64, 64))
    for _ in range(50):                 # small dense linear algebra
        m = np.tanh(m @ m.T * 1e-2)
    return acc + float(v.sum()) + float(m.sum())


if __name__ == "__main__":
    main()
