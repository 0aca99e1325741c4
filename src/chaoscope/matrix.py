"""Interaction matrices: constructors, validation, and setwise functionals.

The coupling structure of the particle system is a nonnegative n x n matrix
xi with zero diagonal; xi[i, j] is the strength with which particle j
influences particle i.  Storage is coordinate triplets (the graph ensembles
are sparse at scale) with a dense mirror below n = 64 for the exact engines.

Everything is immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .rng import stream

DENSE_MIRROR_LIMIT = 64
ROW_SUM_RTOL = 1e-12  # constructors produce exact ratios; slack only absorbs float summation


class MatrixError(ValueError):
    pass


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; no self-loops, no duplicate edges."""

    n: int
    edges: tuple[tuple[int, int], ...]
    degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise MatrixError("graph needs at least one vertex")
        seen = set()
        deg = np.zeros(self.n, dtype=int)
        norm = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise MatrixError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise MatrixError(f"edge ({u},{v}) out of range for n={self.n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise MatrixError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
            deg[u] += 1
            deg[v] += 1
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "degrees", _frozen(deg))

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


@dataclass(frozen=True)
class SubsetState:
    """A subset of {0,..,n-1} as a bitmask, bit i for member i: the state of the growth process."""

    mask: int
    n: int

    def __post_init__(self):
        mask, n = int(self.mask), int(self.n)
        if not (n >= 0 and 0 <= mask < 1 << n):
            raise MatrixError(f"mask {mask} out of range for n={n}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", n)

    @classmethod
    def of(cls, members, n: int) -> "SubsetState":
        if isinstance(members, SubsetState):
            if members.n != n:
                raise MatrixError("subset has mismatched ambient size")
            return members
        mask = 0
        for i in map(int, members):
            if not 0 <= i < n:
                raise MatrixError(f"subset members out of range for n={n}")
            mask |= 1 << i
        return cls(mask, n)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def members(self) -> list[int]:
        """The member indices in increasing order."""
        return [i for i, bit in enumerate(bin(self.mask)[:1:-1]) if bit == "1"]


# ---------------------------------------------------------------------------
# Subset lattice: tables over subsets are indexed by bitmask, bit i for member i

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
    """Nonnegative square matrix with cached row/column sums and maxima.

    The caches (row_sums, col_sums, delta, delta_i, symmetric) are computed
    once at construction and exposed read-only; rho, a certified upper bound
    on the operator norm, is computed on first use and kept.  Construction
    refuses only NaN and inf entries; `validate` reports the other
    violations (nonzero diagonal, negative entries) so callers can decide,
    and the builders below always produce valid matrices.
    """

    __slots__ = ("n", "ii", "jj", "vals", "row_sums", "col_sums",
                 "delta", "delta_i", "symmetric", "_dense", "_rho")

    def __init__(self, n: int, ii, jj, vals):
        if n < 1:
            raise MatrixError("matrix needs n >= 1")
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if not (ii.shape == jj.shape == vals.shape):
            raise MatrixError("coordinate arrays must have equal length")
        if not np.isfinite(vals).all():
            raise MatrixError("matrix entries must be finite")
        if ii.size and (ii.min() < 0 or ii.max() >= n or jj.min() < 0 or jj.max() >= n):
            raise MatrixError("coordinate indices out of range")
        keep = vals != 0.0  # store the support only
        ii, jj, vals = ii[keep], jj[keep], vals[keep]
        order = np.lexsort((jj, ii))
        ii, jj, vals = ii[order], jj[order], vals[order]
        keys = ii * n + jj
        if keys.size and np.any(np.diff(keys) == 0):
            raise MatrixError("duplicate (i,j) entries")
        self.n = int(n)
        self.ii, self.jj, self.vals = _frozen(ii), _frozen(jj), _frozen(vals)
        self.row_sums = _frozen(np.bincount(ii, weights=vals, minlength=n))
        self.col_sums = _frozen(np.bincount(jj, weights=vals, minlength=n))
        self.delta = float(vals.max()) if vals.size else 0.0
        di = np.zeros(n)
        np.maximum.at(di, ii, vals)
        self.delta_i = _frozen(di)
        self.symmetric = self._check_symmetric(keys)
        self._dense = self._materialize() if n < DENSE_MIRROR_LIMIT else None
        self._rho = None

    def _check_symmetric(self, keys: np.ndarray) -> bool:
        t_order = np.lexsort((self.ii, self.jj))
        t_keys = self.jj[t_order] * self.n + self.ii[t_order]
        return keys.shape == t_keys.shape and bool(
            np.array_equal(keys, t_keys) and np.array_equal(self.vals, self.vals[t_order]))

    def _materialize(self) -> np.ndarray:
        d = np.zeros((self.n, self.n))
        d[self.ii, self.jj] = self.vals
        return _frozen(d)

    @classmethod
    def from_dense(cls, a) -> "InteractionMatrix":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MatrixError("dense input must be square")
        ii, jj = np.nonzero(a)
        return cls(a.shape[0], ii, jj, a[ii, jj])

    def dense(self) -> np.ndarray:
        """Dense mirror; materialized on demand above the mirror limit."""
        if self._dense is not None:
            return self._dense
        if self.n > 4096:
            raise MatrixError(f"refusing to densify n={self.n}")
        return self._materialize()

    @property
    def rho(self) -> float:
        """A certified upper bound on the operator norm ||xi||_2 (see linalg.op_norm)."""
        if self._rho is None:
            self._rho = linalg.op_norm(self.dense())
        return self._rho

    def transpose_vals(self) -> np.ndarray:
        """For entry k holding xi[i_k, j_k], the value xi[j_k, i_k] (0 if absent)."""
        keys = self.ii * self.n + self.jj
        t_keys = self.jj * self.n + self.ii
        pos = np.searchsorted(keys, t_keys)
        out = np.zeros_like(self.vals)
        in_range = pos < keys.size
        hit = in_range.copy()
        hit[in_range] = keys[pos[in_range]] == t_keys[in_range]
        out[hit] = self.vals[pos[hit]]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """xi @ x without densifying."""
        x = np.asarray(x, dtype=float)
        return np.bincount(self.ii, weights=self.vals * x[self.jj], minlength=self.n)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """xi^T @ x without densifying."""
        x = np.asarray(x, dtype=float)
        return np.bincount(self.jj, weights=self.vals * x[self.ii], minlength=self.n)

    def __eq__(self, other):
        return (isinstance(other, InteractionMatrix) and self.n == other.n
                and np.array_equal(self.ii, other.ii)
                and np.array_equal(self.jj, other.jj)
                and np.array_equal(self.vals, other.vals))

    def __hash__(self):
        return hash((self.n, self.vals.tobytes(), self.ii.tobytes(), self.jj.tobytes()))

    def __repr__(self):
        return f"InteractionMatrix(n={self.n}, nnz={self.vals.size}, delta={self.delta:g})"


# ---------------------------------------------------------------------------
# Builders

def build_mean_field(n: int) -> InteractionMatrix:
    """All-to-all coupling 1/(n-1); row sums exactly 1."""
    if n < 2:
        raise MatrixError("mean field needs n >= 2")
    a = np.full((n, n), 1.0 / (n - 1))
    np.fill_diagonal(a, 0.0)
    return InteractionMatrix.from_dense(a)


def build_random_walk(g: Graph) -> InteractionMatrix:
    """xi[i, j] = 1/deg(i) on edges; rows of isolated vertices stay zero."""
    ii, jj, vals = [], [], []
    for u, v in g.edges:
        ii.append(u); jj.append(v); vals.append(1.0 / g.degrees[u])
        ii.append(v); jj.append(u); vals.append(1.0 / g.degrees[v])
    return InteractionMatrix(g.n, ii, jj, vals)


def sample_erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """Each unordered pair kept independently with probability p; seed-deterministic."""
    if not (0.0 <= p <= 1.0):
        raise MatrixError(f"edge probability {p} outside [0, 1]")
    iu, ju = np.triu_indices(n, k=1)
    keep = stream(seed).random(iu.size) < p
    return Graph(n=n, edges=tuple(zip(iu[keep].tolist(), ju[keep].tolist())))


def build_sequential(n: int) -> InteractionMatrix:
    """Row i averages its predecessors: xi[i, j] = 1/i for j < i (0-based)."""
    if n < 2:
        raise MatrixError("sequential case needs n >= 2")
    ii, jj, vals = [], [], []
    for i in range(1, n):
        for j in range(i):
            ii.append(i); jj.append(j); vals.append(1.0 / i)
    return InteractionMatrix(n, ii, jj, vals)


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    negative_entries: tuple
    nonzero_diagonal: tuple
    row_violations: tuple
    col_violations: tuple | None  # None when not requested
    rtol: float

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
    """Report nonnegativity, zero diagonal, and (sub)stochastic row/column sums."""
    neg = tuple((int(i), int(j)) for i, j in
                zip(xi.ii[xi.vals < 0], xi.jj[xi.vals < 0]))
    diag = tuple(int(i) for i in xi.ii[xi.ii == xi.jj])
    limit = 1.0 + ROW_SUM_RTOL
    rows = tuple(int(i) for i in np.nonzero(xi.row_sums > limit)[0])
    cols = tuple(int(j) for j in np.nonzero(xi.col_sums > limit)[0]) if check_columns else None
    ok = not (neg or diag or rows or (cols if check_columns else ()))
    return ValidityReport(ok, neg, diag, rows, cols, ROW_SUM_RTOL)


# ---------------------------------------------------------------------------
# Setwise functionals

def p_xi(xi: InteractionMatrix) -> float:
    """sum_ij xi_ij^2 (xi_ij + xi_ji)  +  sum_i (sum_j (xi_ij^2 + xi_ji^2))^2."""
    t = xi.transpose_vals()
    cubic = float(np.sum(xi.vals ** 2 * (xi.vals + t)))
    r2 = np.bincount(xi.ii, weights=xi.vals ** 2, minlength=xi.n)
    c2 = np.bincount(xi.jj, weights=xi.vals ** 2, minlength=xi.n)
    return cubic + float(np.sum((r2 + c2) ** 2))


def _squares_within(xi: InteractionMatrix, ind: np.ndarray) -> float:
    """sum_{i,j in v} xi_ij^2."""
    inside = ind[xi.ii].astype(bool) & ind[xi.jj].astype(bool)
    return float(np.sum(xi.vals[inside] ** 2))


def q_xi(xi: InteractionMatrix, v) -> float:
    """(delta|v| + 1) * (sum_{i,j in v} xi_ij^2 + delta * sum_{i,j in v}(xi^T xi + xi xi^T)_ij + delta^2 |v|).

    The middle block uses sum_{i,j in v}(xi^T xi)_ij = |xi 1_v|^2 (and the
    transpose twin), so no n x n product is ever formed.
    """
    v = SubsetState.of(v, xi.n)
    if v.size == 0:
        raise MatrixError("q_xi needs a nonempty subset")
    k, ind = v.size, indicators([v.mask], xi.n)[0]
    sq = _squares_within(xi, ind)
    gram = float(np.sum(xi.matvec(ind) ** 2) + np.sum(xi.rmatvec(ind) ** 2))
    return (xi.delta * k + 1.0) * (sq + xi.delta * gram + xi.delta ** 2 * k)


WITHIN_BLOCK = 4096  # masks per block of within_sums: its temporaries are O(block * n)


def within_sums(xi: InteractionMatrix, masks) -> tuple[np.ndarray, np.ndarray]:
    """sum_{i in v}(sum_{j in v} xi_ij)^2 and sum_{i,j in v} xi_ij^2 at each bitmask v.

    The masks are read by mask_array; the empty mask gives 0.
    """
    masks = mask_array(masks, xi.n)
    d = xi.dense()
    d2 = d * d
    rows, squares = np.empty(masks.size), np.empty(masks.size)
    for lo in range(0, masks.size, WITHIN_BLOCK):
        block = slice(lo, lo + WITHIN_BLOCK)
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
    """Dense CSV (n rows of n values) for a .csv path, else JSON coordinate triplets."""
    if str(path).endswith(".csv"):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in xi.dense():
                w.writerow([repr(float(x)) for x in row])
    else:
        doc = {"n": xi.n, "format": "coo",
               "entries": [[int(i), int(j), float(v)]
                           for i, j, v in zip(xi.ii, xi.jj, xi.vals)]}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def load_matrix(path) -> InteractionMatrix:
    text_path = str(path)
    if text_path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
        a = np.array(rows, dtype=float)
        return InteractionMatrix.from_dense(a)
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format") != "coo" or "n" not in doc:
        raise MatrixError(f"{path}: expected JSON with format='coo' and 'n'")
    if type(doc["n"]) is not int:
        raise MatrixError(f"{path}: 'n' must be an integer, got {doc['n']!r}")
    entries = doc.get("entries", [])
    if not isinstance(entries, list) or not all(
            isinstance(e, list) and len(e) == 3 and type(e[0]) is type(e[1]) is int
            and type(e[2]) in (int, float) for e in entries):
        raise MatrixError(f"{path}: entries must be [i, j, value] triples of "
                          "integer indices and a number")
    ii = [e[0] for e in entries]
    jj = [e[1] for e in entries]
    vals = [e[2] for e in entries]
    return InteractionMatrix(doc["n"], ii, jj, vals)
