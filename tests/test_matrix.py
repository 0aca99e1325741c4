import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaoscope.matrix import (C_of_v, Chat_of_v, Graph, InteractionMatrix,
                              MatrixError, SubsetState, build_mean_field,
                              build_random_walk, build_rank_one,
                              build_sequential, indicators, lattice,
                              load_matrix, p_xi, q_xi, sample_erdos_renyi,
                              save_matrix, step_pairs, validate)
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
    assert xi.symmetric


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


def test_rank_one():
    alpha = np.array([0.2, 0.3, 0.1])
    beta = np.array([0.5, 1.0, 0.7])
    xi = build_rank_one(alpha, beta)
    d = xi.dense()
    for i in range(3):
        for j in range(3):
            want = 0.0 if i == j else alpha[i] * beta[j]
            assert d[i, j] == pytest.approx(want)


def test_erdos_renyi_determinism_and_range():
    g1 = sample_erdos_renyi(30, 0.2, seed=9)
    g2 = sample_erdos_renyi(30, 0.2, seed=9)
    g3 = sample_erdos_renyi(30, 0.2, seed=10)
    assert g1.edges == g2.edges
    assert g1.edges != g3.edges
    xi = build_random_walk(g1)
    assert validate(xi, check_columns=False).ok


def test_validate_flags_violations():
    bad = InteractionMatrix(2, [0, 1], [1, 0], [1.5, -0.1])
    rep = validate(bad, check_columns=True)
    assert not rep.ok
    assert rep.negative_entries == ((1, 0),)
    assert 0 in rep.row_violations
    assert "negative" in rep.describe()


def test_validate_diagonal():
    bad = InteractionMatrix(2, [0], [0], [0.3])
    rep = validate(bad)
    assert not rep.ok and rep.nonzero_diagonal == (0,)


def test_subset_state_roundtrip():
    v = SubsetState.of([3, 1], 5)
    assert v.mask == 0b01010
    assert list(indicators([v.mask], 5)[0]) == [0.0, 1.0, 0.0, 1.0, 0.0]
    cases = [(m, n) for n in range(1, 9) for m in range(1 << n)] + [((1 << 68) | 1, 70)]
    for m, n in cases:
        v = SubsetState(m, n)
        assert SubsetState.of(v.members, n) == v
        assert v.members == [i for i in range(n) if m >> i & 1]
        assert v.size == len(v.members)
        assert str(v) == "{" + ",".join(map(str, v.members)) + "}"
    assert str(SubsetState.of([3, 1], 5)) == "{1,3}"
    assert SubsetState((1 << 68) | 1, 70).members == [0, 68]
    # numpy integers are stored as Python ints
    v = SubsetState(np.int64(5), np.int64(3))
    assert type(v.mask) is int and type(v.n) is int and v == SubsetState(5, 3)
    for members in ([-1], [0, 5], [5]):
        with pytest.raises(MatrixError):
            SubsetState.of(members, 5)
    for mask in (-1, 32, 1 << 70):
        with pytest.raises(MatrixError):
            SubsetState(mask, 5)


def test_setwise_functionals_at_high_bits():
    # masks at or above 2^63 do not fit an int64
    c = Consts()
    xi = build_sequential(70)
    d = xi.dense()
    for mem in ([63], [62, 63], [0, 63, 69], [64, 68]):
        v = SubsetState.of(mem, 70)
        ind = np.zeros(70)
        ind[mem] = 1.0
        assert np.array_equal(indicators([v.mask], 70)[0], ind)
        sub = d[np.ix_(mem, mem)]
        gram = d.T @ d + d @ d.T
        brute_q = (xi.delta * v.size + 1.0) * (
            float((sub ** 2).sum()) + xi.delta * float(ind @ gram @ ind)
            + xi.delta ** 2 * v.size)
        assert q_xi(xi, v) == pytest.approx(brute_q, rel=1e-12, abs=1e-15)
        brute_c = c.M / c.sigma ** 2 * float((sub.sum(axis=1) ** 2).sum())
        assert C_of_v(xi, v, c) == pytest.approx(brute_c, rel=1e-12, abs=1e-15)
        brute_chat = (math.sqrt(c.gamma * c.M * 0.8) / c.M) * brute_c
        brute_chat += c.M / c.sigma ** 2 * float((sub ** 2).sum())
        assert Chat_of_v(xi, v, c, 0.8) == pytest.approx(brute_chat, rel=1e-12, abs=1e-15)


def test_lattice_rows_are_subset_indicators():
    for n in range(1, 7):
        ind, sizes = lattice(n)
        for m in range(1 << n):
            v = SubsetState(m, n)
            assert np.array_equal(ind[m], indicators([v.mask], n)[0])
            assert sizes[m] == v.size
        assert np.array_equal(indicators(np.arange(1 << n), n), ind)
    table = np.arange(16.0)
    for j in range(4):
        lo, hi = step_pairs(table, j)
        assert np.array_equal(hi - lo, np.full(8, float(1 << j)).reshape(-1, 1 << j))
        assert not ((lo.astype(int) >> j) & 1).any()


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
        v = SubsetState(mask, n)
        ind = indicators([mask], n)[0]
        sub = d[np.ix_(v.members, v.members)]
        gram = d.T @ d + d @ d.T
        brute = (xi.delta * v.size + 1.0) * (
            float((sub ** 2).sum())
            + xi.delta * float(ind @ gram @ ind)
            + xi.delta ** 2 * v.size)
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
            v = SubsetState(mask, n)
            mem = v.members
            brute = c.M / c.sigma ** 2 * sum(
                d[i, mem].sum() ** 2 for i in mem)
            assert C_of_v(xi, v, c) == pytest.approx(brute, rel=1e-12, abs=1e-15)


def test_Chat_of_v_brute_force():
    c = Consts()
    h3 = 0.8
    for xi in random_matrices(8, seed=34, n_lo=2, n_hi=6):
        d = xi.dense()
        n = xi.n
        v = SubsetState((1 << n) - 1, n)
        mem = v.members
        lead = math.sqrt(c.gamma * c.M * h3) / c.sigma ** 2
        brute = lead * sum(d[i, mem].sum() ** 2 for i in mem)
        brute += c.M / c.sigma ** 2 * float((d ** 2).sum())
        assert Chat_of_v(xi, v, c, h3) == pytest.approx(brute, rel=1e-12)


def test_chat_reduces_to_squares_when_h3_zero():
    xi = build_mean_field(4)
    c = Consts()
    v = SubsetState.of([0, 1, 2], 4)
    d = xi.dense()
    mem = [0, 1, 2]
    want = c.M / c.sigma ** 2 * float((d[np.ix_(mem, mem)] ** 2).sum())
    assert Chat_of_v(xi, v, c, 0.0) == pytest.approx(want, rel=1e-12)


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
                         ({"n": 3, "entries": [[0, 1, {}]]}, "entries must be")):
        path.write_text(json.dumps(dict(doc, format="coo")))
        with pytest.raises(MatrixError, match=message):
            load_matrix(path)


def test_graph_file_roundtrip_and_errors(tmp_path):
    g = Graph(n=6, edges=((0, 1), (2, 3)))
    path = tmp_path / "g.txt"
    g.to_file(path)
    back = Graph.from_file(path)
    assert back.n == 6 and back.edges == g.edges

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


def test_matrix_rejects_bad_shape():
    with pytest.raises(MatrixError):
        InteractionMatrix(0, [], [], [])
    with pytest.raises(MatrixError):
        InteractionMatrix(2, [0], [2], [0.5])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10 ** 6))
def test_delta_is_max_entry(n, seed):
    g = stream(seed)
    d = g.random((n, n))
    np.fill_diagonal(d, 0.0)
    xi = InteractionMatrix.from_dense(d)
    assert xi.delta == pytest.approx(d.max())
    assert np.allclose(xi.delta_i, d.max(axis=1))
    assert np.allclose(xi.row_sums, d.sum(axis=1))
    assert np.allclose(xi.col_sums, d.sum(axis=0))


def test_transpose_vals_alignment():
    for xi in random_matrices(5, seed=37):
        d = xi.dense()
        t = xi.transpose_vals()
        for (i, j, tv) in zip(xi.ii, xi.jj, t):
            assert tv == d[j, i]
