"""Interaction matrices: constructors, validation, and setwise functionals.

The coupling structure of the particle system is a nonnegative n x n matrix
xi with zero diagonal; xi[i, j] is the strength with which particle j
influences particle i.  It is held as one dense n x n array, n <= 4096
(DENSE_LIMIT); every engine reads that array.

Everything is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import linalg
from .rng import chunk_ranges, stream

DENSE_LIMIT = 4096  # largest n held: 128 MiB of float64
ROW_SUM_RTOL = 1e-12  # constructors produce exact ratios; slack only absorbs float summation


class MatrixError(ValueError):
    pass


class NotApplicable(ValueError):
    """A method whose hypotheses the given input does not meet."""


def frozen(a: np.ndarray) -> np.ndarray:
    """a as a contiguous array that refuses writes."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class Graph(namedtuple("Graph", "n edges")):
    """Simple undirected graph; no self-loops, no duplicate edges.

    Built from n and its edges, held sorted as (u, v) with u < v.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges):
        if n < 1:
            raise MatrixError("graph needs at least one vertex")
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise MatrixError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise MatrixError(f"edge ({u},{v}) out of range for n={n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise MatrixError(f"duplicate edge {key}")
            seen.add(key)
        return super().__new__(cls, n, tuple(sorted(seen)))

    @classmethod
    def from_file(cls, path) -> "Graph":
        """Edge-list file: "u v" per line, 0-based, '#' comments.

        A single integer on the first data line declares the vertex count
        explicitly (needed to represent trailing isolated vertices); otherwise
        n is inferred as max vertex + 1.
        """
        edges = []
        declared_n = None
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = line.split()
                header = len(parts) == 1 and declared_n is None and not edges
                if len(parts) != 2 and not header:
                    raise MatrixError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
                try:
                    nums = tuple(int(p) for p in parts)
                except ValueError:
                    raise MatrixError(f"{path}:{lineno}: expected integers, got {raw!r}") from None
                if header:
                    declared_n = nums[0]
                else:
                    edges.append(nums)
        n = declared_n if declared_n is not None else (max(max(e) for e in edges) + 1 if edges else 1)
        return cls(n=n, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Subsets: member indices at the API, bitmasks (bit i for member i) inside

def subset_mask(members, n: int) -> int:
    """The bitmask of the member indices, a Python int at any n; repeats are
    kept once.  An index outside [0, n) raises MatrixError."""
    mask = 0
    for i in map(int, members):
        if not 0 <= i < n:
            raise MatrixError(f"subset members out of range for n={n}")
        mask |= 1 << i
    return mask


def mask_members(mask: int) -> list[int]:
    """The member indices of a bitmask in increasing order."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


class SubsetState(int):
    """A subset's bitmask; the package takes member indices, and keeps this
    name only for perfbench/spans.py, which reads SubsetState.of(v, n).size."""

    of = classmethod(lambda cls, members, n: cls(subset_mask(members, n)))
    size = property(int.bit_count)


def mask_array(masks, n: int) -> np.ndarray:
    """The bitmasks as an array typed by n: int64 up to n = 63, Python ints
    (dtype object) above.  A mask outside [0, 2^n) raises MatrixError
    naming the first such mask."""
    try:
        masks = np.asarray(masks, dtype=np.int64 if n <= 63 else object)
    except OverflowError:  # past int64, so past 2^n as well
        masks = np.asarray(masks, dtype=object)
    if masks.size and (masks.min() < 0 or masks.max() >= 1 << n):
        bad = masks[(masks < 0) | (masks >= 1 << n)][0]
        raise MatrixError(f"mask {bad} out of range for n={n}")
    return masks


def indicators(masks, n: int) -> np.ndarray:
    """0/1 rows of length n, one per mask of mask_array(masks, n)."""
    masks = mask_array(masks, n)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def step_pairs(f: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Views (lo, hi) of a mask-ordered table, each of shape (-1, 2^j, ...).

    lo holds the entries at the masks lacking j, hi the entries at the same
    masks with j added, so hi - lo is the increment from adding j.  Axes
    after the first (a stack of tables) are carried along.
    """
    blocks = f.reshape((-1, 2, 1 << j) + f.shape[1:])
    return blocks[:, 0], blocks[:, 1]


class InteractionMatrix:
    """A square matrix, held as one frozen dense n x n array, 1 <= n <= DENSE_LIMIT.

    The caches (row_sums, col_sums, delta, delta_i) are computed
    once at construction and exposed read-only; rho, a certified upper bound
    on the operator norm, and the `validate` reports are computed on first
    use and kept.  Construction
    refuses only a non-square array, a size outside [1, DENSE_LIMIT] and NaN
    or inf entries; `validate` reports the other violations (nonzero
    diagonal, negative entries) so callers can decide, and the builders
    below always produce valid matrices.
    """

    __slots__ = ("n", "row_sums", "col_sums", "delta", "delta_i", "_dense", "_rho", "_reports")

    def __init__(self, a):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MatrixError(f"matrix must be square, got shape {a.shape}")
        _check_size(a.shape[0])
        if not np.isfinite(a).all():
            raise MatrixError("matrix entries must be finite")
        a = a + 0.0  # a copy, with -0.0 made 0.0 so a zero entry has one form
        self.n = a.shape[0]
        with np.errstate(over="ignore"):  # entries near the float limit give inf sums
            self.row_sums = frozen(a.sum(axis=1))
            self.col_sums = frozen(a.sum(axis=0))
        self.delta_i = frozen(a.max(axis=1, initial=0.0))  # 0 for a row of no positive entry
        self.delta = float(self.delta_i.max())
        self._dense = frozen(a)
        self._rho = None
        self._reports = None  # validate's, without and with the column check

    def dense(self) -> np.ndarray:
        """The matrix as a read-only n x n array."""
        return self._dense

    @property
    def rho(self) -> float:
        """A certified upper bound on the operator norm ||xi||_2 (see linalg.op_norm)."""
        if self._rho is None:
            self._rho = linalg.op_norm(self._dense)
        return self._rho

    def __eq__(self, other):
        return isinstance(other, InteractionMatrix) and np.array_equal(self._dense, other._dense)

    def __repr__(self):
        return (f"InteractionMatrix(n={self.n}, nnz={np.count_nonzero(self._dense)}, "
                f"delta={self.delta:g})")


def _check_size(n: int):
    if not 1 <= n <= DENSE_LIMIT:
        raise MatrixError(f"matrix size n must be in [1, {DENSE_LIMIT}], got {n}")


def _zeros(n: int) -> np.ndarray:
    """An n x n zero array, refused before allocation past DENSE_LIMIT."""
    _check_size(n)
    return np.zeros((n, n))


# ---------------------------------------------------------------------------
# Builders

def build_mean_field(n: int) -> InteractionMatrix:
    """All-to-all coupling 1/(n-1); row sums exactly 1."""
    if n < 2:
        raise MatrixError("mean field needs n >= 2")
    a = _zeros(n)
    a.fill(1.0 / (n - 1))
    np.fill_diagonal(a, 0.0)
    return InteractionMatrix(a)


def build_random_walk(g: Graph) -> InteractionMatrix:
    """xi[i, j] = 1/deg(i) on edges; rows of isolated vertices stay zero."""
    a = _zeros(g.n)
    u, v = np.array(g.edges, dtype=np.int64).reshape(-1, 2).T
    deg = np.bincount(np.concatenate((u, v)), minlength=g.n)
    a[u, v] = 1.0 / deg[u]
    a[v, u] = 1.0 / deg[v]
    return InteractionMatrix(a)


def sample_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Each unordered pair kept independently with probability p; seed-deterministic.

    n is refused past DENSE_LIMIT before the n^2 / 2 pairs are drawn, since
    the graph's only use is a random-walk matrix.
    """
    if not (0.0 <= p <= 1.0):
        raise MatrixError(f"edge probability {p} outside [0, 1]")
    _check_size(n)
    iu, ju = np.triu_indices(n, k=1)
    keep = stream(seed).random(iu.size) < p
    return Graph(n=n, edges=tuple(zip(iu[keep].tolist(), ju[keep].tolist())))


def build_sequential(n: int) -> InteractionMatrix:
    """Row i averages its predecessors: xi[i, j] = 1/i for j < i (0-based)."""
    if n < 2:
        raise MatrixError("sequential case needs n >= 2")
    a = _zeros(n)
    for i in range(1, n):
        a[i, :i] = 1.0 / i
    return InteractionMatrix(a)


def random_substochastic(n: int, gen: np.random.Generator) -> InteractionMatrix:
    """Random nonnegative zero-diagonal matrix with row and column sums <= 1."""
    if n < 1:
        raise MatrixError("random substochastic matrix needs n >= 1")
    d = gen.random((n, n))
    d[gen.random((n, n)) < 0.3] = 0.0  # mix in sparsity
    np.fill_diagonal(d, 0.0)
    target = float(gen.uniform(0.3, 1.0))
    worst = max(d.sum(axis=1).max(), d.sum(axis=0).max())
    if worst > 0:
        d *= target / worst
    return InteractionMatrix(d)


# ---------------------------------------------------------------------------
# Validation

class ValidityReport(NamedTuple):
    ok: bool
    negative_entries: tuple
    nonzero_diagonal: tuple
    row_violations: tuple
    col_violations: tuple | None  # None when not requested

    def describe(self) -> str:
        if self.ok:
            return "ok"
        parts = []
        if self.negative_entries:
            parts.append(f"negative entries at {list(self.negative_entries)}")
        if self.nonzero_diagonal:
            parts.append(f"nonzero diagonal at rows {list(self.nonzero_diagonal)}")
        if self.row_violations:
            parts.append(f"row sums > 1 at rows {list(self.row_violations)}")
        if self.col_violations:
            parts.append(f"column sums > 1 at columns {list(self.col_violations)}")
        return "; ".join(parts)


def validate(xi: InteractionMatrix, check_columns: bool = False) -> ValidityReport:
    """Report nonnegativity, zero diagonal, and (sub)stochastic row/column sums.

    Both reports are computed on a matrix's first call and kept on it."""
    if xi._reports is None:
        d = xi.dense()
        neg = tuple(map(tuple, np.argwhere(d < 0).tolist()))
        diag = tuple(np.flatnonzero(np.diag(d)).tolist())
        limit = 1.0 + ROW_SUM_RTOL
        rows = tuple(int(i) for i in np.nonzero(xi.row_sums > limit)[0])
        cols = tuple(int(j) for j in np.nonzero(xi.col_sums > limit)[0])
        ok = not (neg or diag or rows)
        xi._reports = (ValidityReport(ok, neg, diag, rows, None),
                       ValidityReport(ok and not cols, neg, diag, rows, cols))
    return xi._reports[bool(check_columns)]


# ---------------------------------------------------------------------------
# Setwise functionals

def p_xi(xi: InteractionMatrix) -> float:
    """sum_ij xi_ij^2 (xi_ij + xi_ji)  +  sum_i (sum_j (xi_ij^2 + xi_ji^2))^2."""
    d = xi.dense()
    d2 = d * d
    cubic = float(np.sum(d2 * (d + d.T)))
    return cubic + float(np.sum((d2.sum(axis=1) + d2.sum(axis=0)) ** 2))


def q_xi(xi: InteractionMatrix, v) -> float:
    """(delta|v| + 1) * (sum_{i,j in v} xi_ij^2 + delta * sum_{i,j in v}(xi^T xi + xi xi^T)_ij + delta^2 |v|).

    The middle block uses sum_{i,j in v}(xi^T xi)_ij = |xi 1_v|^2 (and the
    transpose twin), so no n x n product is ever formed.
    """
    m = mask_members(subset_mask(v, xi.n))
    if not m:
        raise MatrixError("q_xi needs a nonempty subset")
    k, d = len(m), xi.dense()
    sq = float(np.sum(d[np.ix_(m, m)] ** 2))
    gram = float(np.sum(d[:, m].sum(axis=1) ** 2) + np.sum(d[m].sum(axis=0) ** 2))
    return (xi.delta * k + 1.0) * (sq + xi.delta * gram + xi.delta ** 2 * k)


def within_sums(xi: InteractionMatrix, masks) -> tuple[np.ndarray, np.ndarray]:
    """sum_{i in v}(sum_{j in v} xi_ij)^2 and sum_{i,j in v} xi_ij^2 at each bitmask v.

    The masks are read by mask_array, a chunk of rng.CHUNK at a time, so
    the temporaries are O(CHUNK * n); the empty mask gives 0.
    """
    masks = mask_array(masks, xi.n)
    d = xi.dense()
    d2 = d * d
    rows, squares = np.empty(masks.size), np.empty(masks.size)
    for lo, hi in chunk_ranges(masks.size):
        block = slice(lo, hi)
        ind = indicators(masks[block], xi.n)
        s = (ind @ d.T) * ind  # s[m, i] = sum_{j in v} xi_ij for i in v, else 0
        rows[block] = np.einsum("mi,mi->m", s, s)
        squares[block] = np.einsum("mi,mi->m", ind @ d2.T, ind)
    return rows, squares


def cost_values(xi: InteractionMatrix, masks, constants, h3: float | None = None) -> np.ndarray:
    """C at each bitmask, or C-hat with a three-particle entropy bound h3:

        C(v)     = M/sigma^2 * sum_{i in v}(sum_{j in v} xi_ij)^2
        C-hat(v) = sqrt(gamma*M*h3)/sigma^2 * sum_{i in v}(sum_{j in v} xi_ij)^2
                   + M/sigma^2 * sum_{i,j in v} xi_ij^2

    `constants` is anything with attributes gamma, M and sigma (> 0).  The
    constants are checked once for the whole array; the empty mask gives 0.
    """
    if constants.sigma <= 0:
        raise MatrixError("sigma must be positive")
    if h3 is not None and not 0 <= h3 < math.inf:
        raise MatrixError(f"h3 must be finite and nonnegative, got {h3}")
    rows, squares = within_sums(xi, masks)
    sig2 = constants.sigma ** 2
    if h3 is None:
        return constants.M / sig2 * rows
    return math.sqrt(constants.gamma * constants.M * h3) / sig2 * rows + constants.M / sig2 * squares


# ---------------------------------------------------------------------------
# File formats

def save_matrix(xi: InteractionMatrix, path):
    """Dense CSV (n rows of n values) for a .csv path, else JSON coordinate
    triplets [i, j, value] of the nonzero entries in row-major order."""
    d = xi.dense()
    if str(path).endswith(".csv"):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in d:
                w.writerow([repr(float(x)) for x in row])
    else:
        doc = {"n": xi.n, "format": "coo",
               "entries": [[i, j, float(d[i, j])] for i, j in np.argwhere(d).tolist()]}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def load_matrix(path) -> InteractionMatrix:
    """Read a matrix saved by save_matrix; every refusal is a MatrixError naming `path`."""
    read = _read_csv if str(path).endswith(".csv") else _read_json
    try:
        return InteractionMatrix(read(path))
    except (ValueError, OverflowError) as exc:  # MatrixError, bad JSON or number text
        raise MatrixError(f"{path}: {exc}") from None


def _read_csv(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
    if len({len(row) for row in rows}) > 1:
        raise MatrixError("rows have unequal lengths")
    return np.array(rows, dtype=float)


def _read_json(path) -> np.ndarray:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "coo" or "n" not in doc:
        raise MatrixError("expected JSON with format='coo' and 'n'")
    n = doc["n"]
    if type(n) is not int:
        raise MatrixError(f"'n' must be an integer, got {n!r}")
    entries = doc.get("entries", [])
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 3 and type(e[0]) is type(e[1]) is int
            and type(e[2]) in (int, float) for e in entries):
        raise MatrixError("entries must be [i, j, value] triples of "
                          "integer indices and a number")
    a = _zeros(n)
    seen = set()
    for i, j, val in entries:
        if not (0 <= i < n and 0 <= j < n):
            raise MatrixError(f"entry {[i, j, val]} has an index outside [0, {n})")
        if (i, j) in seen:
            raise MatrixError(f"entry ({i}, {j}) is given twice")
        seen.add((i, j))
        a[i, j] = val
    return a
