import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope.gaussian import clique_lower, max_upper, sigma_T, subset_entropies
from chaoscope.matrix import (Graph, InteractionMatrix, MatrixError,
                              build_mean_field, build_random_walk,
                              build_sequential, cost_values, indicators,
                              load_matrix, mask_array, mask_members, p_xi, q_xi,
                              sample_erdos_renyi, save_matrix, step_pairs,
                              subset_mask, validate, within_sums)
from chaoscope.percolation import PercolationModel, expectation_bounds, functional_values
from chaoscope.rng import stream

from conftest import random_matrices


class Consts:
    def __init__(self, M=2.0, sigma=1.5, gamma=1.0):
        self.M, self.sigma, self.gamma = M, sigma, gamma


def test_mean_field_structure():
    xi = build_mean_field(10)
    d = xi.dense()
    assert np.allclose(d + np.eye(10) / 9.0, np.full((10, 10), 1.0 / 9.0))
    assert xi.delta == pytest.approx(1.0 / 9.0)
    assert np.allclose(xi.row_sums, 1.0)
    assert np.array_equal(d, d.T)


def test_mean_field_rejects_singleton():
    with pytest.raises(MatrixError):
        build_mean_field(1)


def test_random_walk_rows_and_isolated_vertices():
    g = Graph(n=5, edges=((0, 1), (1, 2), (2, 0)))
    xi = build_random_walk(g)
    assert np.allclose(xi.row_sums[:3], 1.0)
    assert xi.row_sums[3] == 0.0 and xi.row_sums[4] == 0.0
    assert xi.delta_i[3] == 0.0
    assert xi.delta == pytest.approx(0.5)


def test_sequential_rows():
    xi = build_sequential(5)
    d = xi.dense()
    for i in range(1, 5):
        assert np.allclose(d[i, :i], 1.0 / i)
        assert np.all(d[i, i:] == 0.0)
    assert np.all(d[0] == 0.0)
    assert validate(xi).ok


def test_erdos_renyi_determinism_and_range():
    g1 = sample_erdos_renyi(30, 0.2, seed=9)
    g2 = sample_erdos_renyi(30, 0.2, seed=9)
    g3 = sample_erdos_renyi(30, 0.2, seed=10)
    assert g1.edges == g2.edges
    assert g1.edges != g3.edges
    xi = build_random_walk(g1)
    assert validate(xi, check_columns=False).ok


def test_validate_flags_violations():
    bad = InteractionMatrix([[0.0, 1.5], [-0.1, 0.0]])
    rep = validate(bad, check_columns=True)
    assert not rep.ok
    assert rep.negative_entries == ((1, 0),)
    assert 0 in rep.row_violations
    assert "negative" in rep.describe()


def test_validate_keeps_one_report_per_column_check():
    # column 0 sums to 1.5 and every row sum is 1: only the column check
    # fails, and each report is computed on the first call and kept
    xi = InteractionMatrix([[0.0, 0.5, 0.5], [0.8, 0.0, 0.2], [0.7, 0.3, 0.0]])
    with_cols = validate(xi, check_columns=True)
    assert not with_cols.ok and with_cols.col_violations == (0,)
    rows_only = validate(xi)
    assert rows_only.ok and rows_only.col_violations is None
    assert validate(xi, True) is with_cols and validate(xi, False) is rows_only
    assert validate(InteractionMatrix(xi.dense())) == rows_only


def test_validate_diagonal():
    bad = InteractionMatrix([[0.3, 0.0], [0.0, 0.0]])
    rep = validate(bad)
    assert not rep.ok and rep.nonzero_diagonal == (0,)


def test_subset_mask_roundtrip():
    assert subset_mask([3, 1], 5) == subset_mask([3, 1, 1], 5) == 0b01010
    assert list(indicators([0b01010], 5)[0]) == [0.0, 1.0, 0.0, 1.0, 0.0]
    cases = [(m, n) for n in range(1, 9) for m in range(1 << n)] + [((1 << 68) | 1, 70)]
    for m, n in cases:
        members = mask_members(m)
        assert subset_mask(members, n) == m
        assert members == [i for i in range(n) if m >> i & 1]
    # past bit 62 the mask is a Python int, from Python or numpy indices
    for members in ([68, 0], np.array([0, 68])):
        mask = subset_mask(members, 70)
        assert type(mask) is int and mask == (1 << 68) | 1
        assert mask_members(mask) == [0, 68]
    # member n, like any index outside [0, n), is refused
    for members in ([-1], [0, 5], [5], np.array([5])):
        with pytest.raises(MatrixError, match=r"^subset members out of range for n=5$"):
            subset_mask(members, 5)


def test_setwise_functionals_at_high_bits():
    # masks at or above 2^63 do not fit an int64
    c = Consts()
    xi = build_sequential(70)
    d = xi.dense()
    for mem in ([63], [62, 63], [0, 63, 69], [64, 68]):
        mask = subset_mask(mem, 70)
        ind = np.zeros(70)
        ind[mem] = 1.0
        assert np.array_equal(indicators([mask], 70)[0], ind)
        sub = d[np.ix_(mem, mem)]
        gram = d.T @ d + d @ d.T
        brute_q = (xi.delta * len(mem) + 1.0) * (
            float((sub ** 2).sum()) + xi.delta * float(ind @ gram @ ind)
            + xi.delta ** 2 * len(mem))
        assert q_xi(xi, mem) == pytest.approx(brute_q, rel=1e-12, abs=1e-15)
        brute_c = c.M / c.sigma ** 2 * float((sub.sum(axis=1) ** 2).sum())
        assert cost_values(xi, [mask], c)[0] == pytest.approx(brute_c, rel=1e-12, abs=1e-15)
        brute_chat = (math.sqrt(c.gamma * c.M * 0.8) / c.M) * brute_c
        brute_chat += c.M / c.sigma ** 2 * float((sub ** 2).sum())
        assert cost_values(xi, [mask], c, 0.8)[0] == pytest.approx(
            brute_chat, rel=1e-12, abs=1e-15)


def test_lattice_rows_are_subset_indicators():
    for n in range(1, 7):
        ind = indicators(np.arange(1 << n), n)
        for m in range(1 << n):
            assert np.array_equal(ind[m], indicators([m], n)[0])
            assert np.array_equal(np.nonzero(ind[m])[0], mask_members(m))
            assert ind[m].sum() == len(mask_members(m)) == np.bitwise_count(m)
    table = np.arange(16.0)
    for j in range(4):
        lo, hi = step_pairs(table, j)
        assert np.array_equal(hi - lo, np.full(8, float(1 << j)).reshape(-1, 1 << j))
        assert not ((lo.astype(int) >> j) & 1).any()


def mask_takers(n: int) -> dict:
    """Every function that takes an array of bitmasks, on mean field n."""
    xi = build_mean_field(n)
    gm = sigma_T(xi, 0.5)
    model = PercolationModel(xi, 1.0)
    x = np.ones(n)
    return {"mask_array": lambda m: mask_array(m, n),
            "indicators": lambda m: indicators(m, n),
            "within_sums": lambda m: within_sums(xi, m)[0],
            "cost_values": lambda m: cost_values(xi, m, Consts()),
            "functional_values.size": lambda m: functional_values("size", xi, m),
            "functional_values.linear": lambda m: functional_values("linear", xi, m, x=x),
            "subset_entropies": lambda m: subset_entropies(gm, m)[0],
            "clique_lower": lambda m: clique_lower(xi, m, 0.5),
            "max_upper": lambda m: max_upper(gm, m),
            "expectation_bounds": lambda m: expectation_bounds(model, m, [0.5], x=x)[0]}


@pytest.mark.parametrize("name", list(mask_takers(2)))
def test_masks_outside_the_lattice_are_refused(name):
    # at n = 3, masks 8 and 9 set bit 3, outside the lattice
    f = mask_takers(3)[name]
    for masks, bad in (([8], 8), ([9], 9), ([1, 7, 9, 8], 9), ([3, -1], -1),
                       ([1 << 63], 1 << 63), ([1, 1 << 70], 1 << 70)):
        with pytest.raises(MatrixError, match=f"^mask {bad} out of range for n=3$"):
            f(masks)
    assert len(f([1, 7])) == 2
    # at n = 64 the top bit is a member, and the masks are Python ints
    assert len(mask_takers(64)[name]([1 << 63])) == 1


def test_p_xi_brute_force():
    for xi in random_matrices(10, seed=31):
        d = xi.dense()
        brute = float(np.sum(d ** 2 * (d + d.T)))
        brute += float(np.sum(((d ** 2).sum(axis=1) + (d.T ** 2).sum(axis=1)) ** 2))
        assert p_xi(xi) == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_q_xi_brute_force():
    g = stream(77)
    for xi in random_matrices(10, seed=32, n_lo=2, n_hi=6):
        d = xi.dense()
        n = xi.n
        mask = int(g.integers(1, 1 << n))
        v = mask_members(mask)
        ind = indicators([mask], n)[0]
        sub = d[np.ix_(v, v)]
        gram = d.T @ d + d @ d.T
        brute = (xi.delta * len(v) + 1.0) * (
            float((sub ** 2).sum())
            + xi.delta * float(ind @ gram @ ind)
            + xi.delta ** 2 * len(v))
        assert q_xi(xi, v) == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_q_xi_rejects_empty():
    xi = build_mean_field(3)
    with pytest.raises(MatrixError):
        q_xi(xi, [])


def test_C_of_v_brute_force():
    c = Consts()
    for xi in random_matrices(8, seed=33, n_lo=2, n_hi=6):
        d = xi.dense()
        n = xi.n
        for mask in (1, (1 << n) - 1):
            mem = mask_members(mask)
            brute = c.M / c.sigma ** 2 * sum(
                d[i, mem].sum() ** 2 for i in mem)
            assert cost_values(xi, [mask], c)[0] == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_Chat_of_v_brute_force():
    c = Consts()
    h3 = 0.8
    for xi in random_matrices(8, seed=34, n_lo=2, n_hi=6):
        d = xi.dense()
        n = xi.n
        mem = list(range(n))
        lead = math.sqrt(c.gamma * c.M * h3) / c.sigma ** 2
        brute = lead * sum(d[i, mem].sum() ** 2 for i in mem)
        brute += c.M / c.sigma ** 2 * float((d ** 2).sum())
        assert cost_values(xi, [(1 << n) - 1], c, h3)[0] == pytest.approx(brute, rel=1e-12)


def test_chat_reduces_to_squares_when_h3_zero():
    xi = build_mean_field(4)
    c = Consts()
    d = xi.dense()
    mem = [0, 1, 2]
    want = c.M / c.sigma ** 2 * float((d[np.ix_(mem, mem)] ** 2).sum())
    assert cost_values(xi, [subset_mask(mem, 4)], c, 0.0)[0] == pytest.approx(want, rel=1e-12)


def test_save_load_roundtrip_json(tmp_path):
    for xi in random_matrices(5, seed=35):
        path = tmp_path / "m.json"
        save_matrix(xi, path)
        back = load_matrix(path)
        assert back == xi
        assert np.array_equal(back.dense(), xi.dense())


def test_save_load_roundtrip_csv(tmp_path):
    for xi in random_matrices(5, seed=36):
        path = tmp_path / "m.csv"
        save_matrix(xi, path)
        back = load_matrix(path)
        assert np.array_equal(back.dense(), xi.dense())


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rows": 3}))
    with pytest.raises(MatrixError, match="coo"):
        load_matrix(path)
    # non-integer n or indices used to raise TypeError or truncate silently
    for doc, message in (({"n": [3], "entries": []}, "'n' must be an integer"),
                         ({"n": 3.0, "entries": []}, "'n' must be an integer"),
                         ({"n": 3, "entries": [[None, 1, 0.5]]}, "entries must be"),
                         ({"n": 3, "entries": [[0.5, 1, 0.5]]}, "entries must be"),
                         ({"n": 3, "entries": [[0, 1, {}]]}, "entries must be"),
                         ({"n": 3, "entries": [[0, 3, 0.5]]}, r"entry \[0, 3, 0.5\] has an index "
                                                              r"outside \[0, 3\)"),
                         ({"n": 3, "entries": [[-1, 0, 0.5]]}, "has an index outside"),
                         ({"n": 3, "entries": [[0, 1, 0.5], [0, 1, 0.0]]},
                          r"entry \(0, 1\) is given twice"),
                         ({"n": 0, "entries": []}, r"n must be in \[1, 4096\], got 0"),
                         ({"n": 10 ** 9, "entries": []}, "got 1000000000"),
                         ({"n": 2, "entries": [[0, 1, 10 ** 400]]}, "too large")):
        path.write_text(json.dumps(dict(doc, format="coo")))
        with pytest.raises(MatrixError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_matrix(path)
    csv_path = tmp_path / "bad.csv"
    for text, message in (("0,0.5\n0.5\n", "rows have unequal lengths"),
                          ("0,0.5,0.1\n0.5,0,0.1\n", r"must be square, got shape \(2, 3\)"),
                          ("", r"must be square, got shape \(0,\)"),
                          ("\n\n", r"must be square, got shape \(0,\)"),
                          ("0,x\n0.5,0\n", "could not convert"),
                          ("0,nan\n0.5,0\n", "matrix entries must be finite")):
        csv_path.write_text(text)
        with pytest.raises(MatrixError, match=f"^{re.escape(str(csv_path))}: .*{message}"):
            load_matrix(csv_path)


def test_graph_file_roundtrip_and_errors(tmp_path):
    # a leading single integer declares n, past the largest vertex
    path = tmp_path / "g.txt"
    path.write_text("6\n0 1\n2 3\n")
    back = Graph.from_file(path)
    assert back == Graph(n=6, edges=((0, 1), (2, 3)))

    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n2 3 4\n")
    with pytest.raises(MatrixError, match="bad.txt:2"):
        Graph.from_file(bad)


def test_graph_comments_and_inferred_n(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# triangle\n0 1\n1 2 # closing\n2 0\n")
    g = Graph.from_file(path)
    assert g.n == 3 and len(g.edges) == 3


def test_graph_rejects_self_loop_and_duplicate():
    with pytest.raises(MatrixError, match="self-loop"):
        Graph(n=2, edges=((0, 0),))
    with pytest.raises(MatrixError, match="duplicate"):
        Graph(n=2, edges=((0, 1), (1, 0)))


def test_matrix_is_one_frozen_dense_array():
    a = np.array([[0.0, -0.0], [0.5, 0.0]])
    xi = InteractionMatrix(a)
    a[1, 0] = 9.0  # the matrix holds its own copy
    d = xi.dense()
    assert not d.flags.writeable and d[1, 0] == 0.5
    assert not np.signbit(d).any()  # -0.0 is held as 0.0
    # a row with no positive entry has delta_i 0, and delta is the largest delta_i
    signed = InteractionMatrix([[0.0, -0.5], [0.0, 0.0]])
    assert signed.delta == 0.0 and signed.delta_i.tolist() == [0.0, 0.0]
    # sums past the float range are inf, without an overflow warning
    big = InteractionMatrix([[0.0, 1e308, 1e308], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0]])
    assert big.row_sums.tolist() == [math.inf, 1e308, 1e308]
    assert big.col_sums.tolist() == [math.inf, 1e308, 1e308]
    # the size limit is checked before the array is copied
    with pytest.raises(MatrixError, match=r"n must be in \[1, 4096\], got 4097"):
        InteractionMatrix(np.broadcast_to(0.0, (4097, 4097)))


def test_matrix_rejects_bad_shape():
    with pytest.raises(MatrixError):
        InteractionMatrix(np.zeros((0, 0)))
    with pytest.raises(MatrixError):
        InteractionMatrix(np.zeros((2, 3)))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10 ** 6))
def test_delta_is_max_entry(n, seed):
    g = stream(seed)
    d = g.random((n, n))
    np.fill_diagonal(d, 0.0)
    xi = InteractionMatrix(d)
    assert xi.delta == pytest.approx(d.max())
    assert np.allclose(xi.delta_i, d.max(axis=1))
    assert np.allclose(xi.row_sums, d.sum(axis=1))
    assert np.allclose(xi.col_sums, d.sum(axis=0))
