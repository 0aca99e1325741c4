import csv
import json
import math
import warnings
from functools import partial

import numpy as np
import pytest

import chaoscope.cli as cli
from chaoscope import sde
from chaoscope.bounds import ModelConstants, percolation_entropy_bound
from chaoscope.gaussian import clique_lower, max_upper, sigma_T, subset_entropies
from chaoscope.matrix import (InteractionMatrix, build_mean_field, load_matrix, mask_members,
                              random_substochastic, save_matrix, subset_mask)
from chaoscope.percolation import (FAMILIES, PercolationModel, exact_expectations,
                                   functional_values)
from chaoscope.rng import stream
from chaoscope.verify import Check, SuiteResult


def run(*argv):
    return cli.console_main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "chaoscope" in capsys.readouterr().out


def test_matrix_report_and_roundtrip(tmp_path, capsys):
    saved = tmp_path / "mf.json"
    out = tmp_path / "report.json"
    rc = run("matrix", "--mean-field", "5", "--save", str(saved),
             "--out", str(out))
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    assert load_matrix(saved) == build_mean_field(5)
    doc = json.loads(out.read_text())
    assert doc["n"] == 5 and doc["rows_ok"] and doc["cols_ok"]
    assert doc["delta"] == pytest.approx(0.25)
    for payload in (saved, out):
        with open(f"{payload}.manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["subcommand"] == "matrix"
        assert str(payload) in manifest["outputs"]


def test_matrix_csv_with_subset(tmp_path):
    out = tmp_path / "report.csv"
    rc = run("matrix", "--mean-field", "4", "--v", "0,2",
             "--format", "csv", "--out", str(out))
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["quantity", "value"]
    table = {r[0]: r[1] for r in rows[1:]}
    assert "q_xi" in table and float(table["q_xi"]) > 0
    assert table["v"] == "0 2"


def test_er_seed_determinism(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    run("matrix", "--er", "8", "0.5", "--seed", "3", "--save", str(a),
        "--out", str(tmp_path / "ra.json"))
    run("matrix", "--er", "8", "0.5", "--seed", "3", "--save", str(b),
        "--out", str(tmp_path / "rb.json"))
    run("matrix", "--er", "8", "0.5", "--seed", "4", "--save", str(c),
        "--out", str(tmp_path / "rc.json"))
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_percolate_exact_csv(tmp_path):
    out = tmp_path / "growth.csv"
    rc = run("percolate", "--mean-field", "4", "--v", "0", "--t", "0.25,0.5",
             "--engine", "exact", "--format", "csv", "--out", str(out))
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["engine", "functional", "v", "t", "value",
                       "stderr", "reps", "seed"]
    assert len(rows) == 3 and rows[1][5] == ""  # exact rows carry no stderr
    model = PercolationModel(build_mean_field(4), 1.0)
    size = partial(functional_values, "size", model.xi)
    # one pass over both times, bitwise; the one-time call within its certificate
    want = exact_expectations(model, size, [0], [0.25, 0.5])[:, 0]
    assert [float(r[4]) for r in rows[1:]] == want.tolist()
    alone = exact_expectations(model, size, [0], [0.25])[0, 0]
    assert abs(float(rows[1][4]) - alone) <= 1e-10 * 4.0  # max|size| on the up-set
    assert float(rows[2][4]) > float(rows[1][4])  # growth is monotone


def test_percolate_exact_keeps_command_line_order(capsys):
    def values(times):
        assert run("percolate", "--engine", "exact", "--mean-field", "5",
                   "--v", "0", "--t", times) == 0
        records = json.loads(capsys.readouterr().out)
        return [r["t"] for r in records], [r["value"] for r in records]

    ts, got = values("2,0.5,1,0.5")
    assert ts == [2.0, 0.5, 1.0, 0.5]
    assert got[1] == got[3] and got[1] < got[2] < got[0]
    assert got[0] == values("2")[1][0]  # the largest time is bitwise its own run


def test_percolate_exact_full_set_is_exact(capsys):
    # the full set's up-set has no exit, so the value is F itself, not
    # 15.999999999736836 from a truncated Poisson mixture of identity steps
    assert run("percolate", "--engine", "exact", "--functional", "size2",
               "--mean-field", "4", "--v", "0,1,2,3", "--t", "1") == 0
    assert json.loads(capsys.readouterr().out)[0]["value"] == 16.0


def test_percolate_mc_thread_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ("percolate", "--mean-field", "4", "--v", "0", "--t", "0.5",
            "--engine", "mc", "--reps", "2000", "--seed", "7",
            "--format", "csv")
    assert run(*base, "--threads", "1", "--out", str(a)) == 0
    assert run(*base, "--threads", "6", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_percolate_fpp_runs_on_directed_walks(tmp_path, capsys):
    # a random walk on a graph of unequal degrees is a directed matrix: the
    # edge clocks sample it, and agree with the jump chain and the exact engine
    graph = tmp_path / "edges.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 4\n1 3\n")
    rec = {}
    for engine in ("exact", "mc", "fpp"):
        assert run("percolate", "--random-walk", str(graph), "--v", "0", "--t", "1.5",
                   "--engine", engine, "--reps", "20000", "--seed", "3") == 0, engine
        (rec[engine],) = json.loads(capsys.readouterr().out)
    fpp, mc = rec["fpp"], rec["mc"]
    assert abs(fpp["value"] - mc["value"]) <= 4.0 * math.hypot(fpp["stderr"], mc["stderr"])
    assert abs(fpp["value"] - rec["exact"]["value"]) <= 4.0 * fpp["stderr"]
    assert run("percolate", "--er", "8", "0.4", "--seed", "5", "--v", "0", "--t", "1",
               "--engine", "fpp", "--reps", "2000") == 0
    assert json.loads(capsys.readouterr().out)[0]["value"] > 1.0


def test_percolate_gnuplot_companion(tmp_path):
    out = tmp_path / "curve.csv"
    rc = run("percolate", "--mean-field", "4", "--v", "0",
             "--t", "0.2,0.4,0.6", "--engine", "exact", "--format", "csv",
             "--out", str(out), "--emit-gnuplot")
    assert rc == 0
    script = (str(out) + ".gnu")
    with open(script) as fh:
        text = fh.read()
    assert f"plot '{out}'" in text and "using 4:5" in text


def test_verify_cli_pass_and_report(tmp_path, capsys):
    out = tmp_path / "verify.json"
    rc = run("verify", "--suite", "generator", "--instances", "3",
             "--seed", "1", "--out", str(out))
    assert rc == 0
    assert "generator" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["suites"][0]["suite"] == "generator"


def test_verify_cli_failure_exit(monkeypatch, capsys):
    fake = [SuiteResult("generator", 0, 1,
                        [Check("made-up inequality", False, -0.5, "broken")])]
    monkeypatch.setattr(cli.verify_mod, "run_suite", lambda *a: fake)
    rc = run("verify", "--suite", "generator")
    assert rc == 1
    assert "FAIL made-up inequality" in capsys.readouterr().out


def test_gaussian_cli_subsets(tmp_path):
    out = tmp_path / "gauss.csv"
    rc = run("gaussian", "--mean-field", "4", "--T", "0.2", "--v", "0,1",
             "--format", "csv", "--out", str(out))
    assert rc == 0
    rows = read_csv(out)
    assert rows[0][:4] == ["v", "exact", "lower", "upper"]
    _, exact, lower, upper, clique, worst = rows[1]
    assert float(lower) - 1e-12 <= float(exact) <= float(upper) + 1e-12
    assert float(clique) <= float(exact) + 1e-12
    assert float(worst) >= float(exact) - 1e-12


def test_gaussian_cli_records_are_the_batched_arrays(capsys):
    # each record field is the batched array's entry at its mask, bitwise,
    # in the key order the records have always had
    subsets = ["0,1,2", "3,4", "5,6,7,8", "9,10"]
    argv = ["gaussian", "--n", "12", "--seed", "5", "--T", "0.3"]
    assert run(*argv, *(a for spec in subsets for a in ("--v", spec))) == 0
    recs = json.loads(capsys.readouterr().out)["subsets"]
    xi = random_substochastic(12, stream(5))
    gm = sigma_T(xi, 0.3)
    masks = [subset_mask(map(int, spec.split(",")), 12) for spec in subsets]
    exact, lower, upper = subset_entropies(gm, masks)
    want = {"exact": exact, "lower": lower, "upper": upper,
            "clique_lower": clique_lower(xi, masks, 0.3), "max_upper": max_upper(gm, masks)}
    for i, rec in enumerate(recs):
        assert list(rec) == ["v", "exact", "lower", "upper", "clique_lower", "small_time",
                             "max_upper"]
        assert rec["v"] == mask_members(masks[i])
        assert rec["small_time"] == gm.small_time()
        for key, col in want.items():
            assert rec[key] == col[i], (i, key)


def test_gaussian_cli_singletons_past_bit_63(capsys):
    # the default subsets at n = 64 are the singletons, masks 1 .. 1 << 63
    assert run("gaussian", "--mean-field", "64", "--T", "0.1") == 0
    subsets = json.loads(capsys.readouterr().out)["subsets"]
    assert [rec["v"] for rec in subsets] == [[i] for i in range(64)]
    assert len({rec["exact"] for rec in subsets}) == 1  # mean field: all alike
    assert run("gaussian", "--mean-field", "64", "--T", "0.1", "--v", "0", "--v", "63") == 0
    assert json.loads(capsys.readouterr().out)["subsets"] == [subsets[0], subsets[63]]


def test_gaussian_cli_average(tmp_path):
    out = tmp_path / "avg.json"
    rc = run("gaussian", "--mean-field", "5", "--T", "0.15", "--avg-k", "2",
             "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "enumerate"
    assert doc["lower"] - 1e-12 <= doc["avg"] <= doc["upper"] + 1e-12
    assert doc["explicit_lower"] - 1e-12 <= doc["avg"] <= doc["explicit_upper"] + 1e-12


def test_gaussian_cli_on_blocks_of_nearly_equal_norm(tmp_path):
    # rho of this matrix once ended in "power iteration did not converge"
    d = np.zeros((4, 4))
    d[0, 1], d[1, 0] = 0.5, 0.3
    d[2, 3] = d[3, 2] = 0.5 - 1e-5
    path = tmp_path / "blocks.json"
    save_matrix(InteractionMatrix(d), path)
    out = tmp_path / "g.json"
    assert run("gaussian", "--matrix", str(path), "--T", "0.2", "--out", str(out)) == 0
    assert 0.5 <= json.loads(out.read_text())["rho"] <= 0.5 * (1 + 1e-12)


def test_signed_blocks_of_nearly_equal_norm(tmp_path):
    # signed interactions once took an uncertified iteration for rho, which
    # gave up here, and both commands exited 2
    path = tmp_path / "signed.csv"
    path.write_text("0,0.5,0,0\n-0.3,0,0,0\n0,0,0,0.49999\n0,0,-0.49999,0\n")
    out = tmp_path / "g.json"
    assert run("gaussian", "--matrix", str(path), "--T", "0.2", "--out", str(out)) == 0
    assert json.loads(out.read_text())["rho"] >= 0.5
    sim = tmp_path / "s.json"
    assert run("simulate", "--matrix", str(path), "--linear", "--dt", "0.05", "--T", "0.2",
               "--samples", "50", "--seed", "1", "--out", str(sim)) == 0
    assert all(r["oracle"] is not None for r in json.loads(sim.read_text()))


@pytest.mark.parametrize("rows, T, reach", [
    ("1e200,1e200,0\n0,1e200,1e200\n1e200,0,1e200\n", "1", "4e+200"),
    ("0,400,0\n0,0,0\n0,0,0\n", "1", "800"),
    ("0,1e308,1e308\n1e308,0,1e308\n1e308,1e308,0\n", "1", "inf"),
])
def test_gaussian_series_overflow_is_named(tmp_path, capsys, rows, T, reach):
    # the series' terms once ran into inf with numpy warnings, and a bare
    # OverflowError from (2 rho)^m; rho itself warned past the largest double
    path = tmp_path / "big.csv"
    path.write_text(rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("gaussian", "--matrix", str(path), "--T", T) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert f"sigma_T series overflows double precision at 2*rho*T = {reach} " in err
    assert "gaussian.sigma_T_quadrature" in err


@pytest.mark.parametrize("extra, name", [((), "subset_entropies"),
                                         (("--avg-k", "2"), "avg_entropy_sandwich")],
                         ids=["subsets", "avg-k"])
def test_gaussian_growth_factor_overflow_is_named(tmp_path, capsys, extra, name):
    # Sigma_T is finite here, but e^{6 rho T} is not; that was a bare
    # "OverflowError: math range error".  The average entropy itself needs no
    # such factor, so --avg-k stops at its sandwich's
    path = tmp_path / "nil300.csv"
    path.write_text("0,300,0\n0,0,0\n0,0,0\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("gaussian", "--matrix", str(path), "--T", "1", *extra) == 2
    assert caught == []
    assert capsys.readouterr().err == (f"error: {name}'s factor e^(6*rho*T) overflows "
                                       "double precision at 6*rho*T = 1800\n")


def test_gaussian_cli_on_a_nilpotent_matrix_with_a_large_entry(tmp_path):
    # 2 rho T = 200: (2 rho)^m overflowed on its own, and the run was refused
    path = tmp_path / "nilpotent.csv"
    path.write_text("0,100,0\n0,0,0\n0,0,0\n")
    out = tmp_path / "g.json"
    assert run("gaussian", "--matrix", str(path), "--T", "1", "--out", str(out)) == 0
    assert json.loads(out.read_text())["subsets"][0]["exact"] > 0.0


def test_bound_cli_variants(tmp_path, capsys):
    rc = run("bound", "--theorem", "max", "--mean-field", "6", "--k", "3")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["structural"] == pytest.approx(1.6 * 0.36)

    rc = run("bound", "--theorem", "avg", "--mean-field", "6", "--k", "3",
             "--reversed")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theorem"] == "avg.reversed"
    assert doc["structural"] == pytest.approx(0.36)

    rc = run("bound", "--theorem", "avg-markov", "--mean-field", "4", "--k", "2")
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["structural"] > 0

    rc = run("bound", "--theorem", "h3", "--delta", "0.1", "--gamma", "1",
             "--big-m", "1", "--sigma-const", "1", "--horizon", "0")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["explicit"] == pytest.approx(0.72)

    # --h3-value alone selects C-hat; without it the cost is the plain C
    growth = ("bound", "--theorem", "growth", "--mean-field", "3", "--v", "0",
              "--gamma", "1", "--big-m", "1", "--sigma-const", "1", "--horizon", "0.5")
    constants = ModelConstants(gamma=1.0, M=1.0, sigma=1.0, T=0.5)
    for extra, h3 in (((), None), (("--h3-value", "0"), 0.0)):
        assert run(*growth, *extra) == 0
        doc = json.loads(capsys.readouterr().out)
        want = percolation_entropy_bound(build_mean_field(3), [0], constants, h3=h3)[0]
        assert doc["explicit"] == want > 0
        assert doc["inputs"]["use_chat"] is (h3 is not None)


def test_bound_cli_errors(capsys):
    assert run("bound", "--theorem", "h3", "--delta", "0.1") == 2  # no constants
    capsys.readouterr()
    assert run("bound", "--theorem", "max", "--mean-field", "4") == 2  # no --k
    assert "error:" in capsys.readouterr().err


def test_simulate_cli_thread_bytes_and_oracle(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ("simulate", "--mean-field", "3", "--linear", "--dt", "0.05",
            "--T", "0.25", "--samples", "400", "--seed", "2", "--format", "csv")
    assert run(*base, "--threads", "1", "--out", str(a)) == 0
    assert run(*base, "--threads", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = read_csv(a)
    assert rows[0] == ["i", "j", "empirical", "oracle", "abs_diff", "stderr"]
    assert len(rows) == 7  # 3x3 upper triangle
    assert all(r[3] != "" for r in rows[1:])


def test_simulate_cli_projection_and_samples(tmp_path):
    out = tmp_path / "proj.json"
    samples = tmp_path / "samples.csv"
    rc = run("simulate", "--mean-field", "3", "--projection", "--dt", "0.05",
             "--T", "0.25", "--samples", "60", "--seed", "4",
             "--save-samples", str(samples), "--out", str(out))
    assert rc == 0
    recs = json.loads(out.read_text())
    diag = [r for r in recs if r["i"] == r["j"]]
    assert all(r["oracle"] == pytest.approx(0.25) for r in diag)
    assert len(samples.read_text().splitlines()) == 60
    with open(f"{samples}.manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["subcommand"] == "simulate"


def test_csv_rows_are_the_json_records(tmp_path, capsys):
    # each CSV row carries its JSON record's fields in header order: a member
    # list as {i,j}, a dict as sorted JSON, a float by repr, a missing field blank
    def cell(x):
        if x is None:
            return ""
        if isinstance(x, list):
            return "{" + ",".join(map(str, x)) + "}"
        if isinstance(x, dict):
            return json.dumps(x, sort_keys=True)
        return repr(x) if isinstance(x, float) else str(x)

    bad = tmp_path / "bad.csv"  # row sums above 1, so no max_upper
    bad.write_text("0,0.9,0.6\n0.3,0,0.2\n0.1,0.1,0\n")
    sim = ("simulate", "--mean-field", "3", "--dt", "0.05", "--T", "0.25",
           "--samples", "200", "--seed", "5")
    growth = ("bound", "--theorem", "growth", "--mean-field", "3", "--v", "0",
              "--gamma", "1", "--big-m", "2", "--sigma-const", "1", "--horizon", "0.5")
    cases = [  # argv, the records in the JSON document, (column, blank?) to pin
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "2,0.5,1"),
         lambda doc: doc, ("stderr", True)),
        (("percolate", "--mean-field", "4", "--v", "0,1", "--t", "0.5", "--engine", "mc",
          "--reps", "300", "--seed", "3"), lambda doc: doc, ("stderr", False)),
        (("gaussian", "--matrix", str(bad), "--T", "0.2", "--v", "0,1", "--v", "2"),
         lambda doc: doc["subsets"], ("max_upper", True)),
        (("gaussian", "--mean-field", "5", "--T", "0.2", "--avg-k", "2", "--mode", "sample",
          "--reps", "50", "--seed", "1"), lambda doc: [doc], ("stderr", False)),
        (("bound", "--theorem", "max", "--mean-field", "6", "--k", "3"),
         lambda doc: [doc], ("explicit", True)),
        (growth, lambda doc: [doc], ("explicit", False)),
        ((*sim, "--linear"), lambda doc: doc, ("oracle", False)),
        ((*sim, "--drift", "sine", "--projection"), lambda doc: doc, ("oracle", True)),
    ]
    for argv, records_of, (column, blank) in cases:
        assert run(*argv, "--format", "json") == 0, argv
        records = records_of(json.loads(capsys.readouterr().out))
        assert run(*argv, "--format", "csv") == 0, argv
        header, *rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert len(rows) == len(records), argv
        for row, rec in zip(rows, records):
            assert row == [cell(rec.get(name)) for name in header], argv
            assert (row[header.index(column)] == "") == blank, argv


def test_simulate_drift_choices_are_the_drift_table(capsys):
    (simulate,) = [p for a in cli.build_parser()._subparsers._group_actions
                   for name, p in a.choices.items() if name == "simulate"]
    (drift,) = [a for a in simulate._actions if "--drift" in a.option_strings]
    assert tuple(drift.choices) == tuple(sde.DRIFTS) == ("linear", "zero", "sine")
    for name in sde.DRIFTS:
        assert run("simulate", "--mean-field", "3", "--drift", name, "--dt", "0.05",
                   "--T", "0.1", "--samples", "20") == 0, name
        assert len(json.loads(capsys.readouterr().out)) == 6, name


def test_percolate_functional_choices_are_the_size_families(capsys):
    (percolate,) = [p for a in cli.build_parser()._subparsers._group_actions
                    for name, p in a.choices.items() if name == "percolate"]
    (functional,) = [a for a in percolate._actions if "--functional" in a.option_strings]
    sizes = tuple(name for name, (kind, _) in FAMILIES.items() if kind == "size")
    assert tuple(functional.choices) == sizes == ("size", "size2", "size3")
    model = PercolationModel(build_mean_field(3), 1.0)
    for name in sizes:
        assert run("percolate", "--mean-field", "3", "--v", "0", "--t", "0.5",
                   "--functional", name) == 0, name
        want = exact_expectations(model, partial(functional_values, name, model.xi), [0], [0.5])
        assert json.loads(capsys.readouterr().out)[0]["value"] == want[0, 0], name


def test_usage_and_runtime_errors(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:  # argparse: unknown engine
        run("percolate", "--mean-field", "4", "--v", "0", "--t", "1",
            "--engine", "warp")
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # --v was once dropped without a word
        run("gaussian", "--mean-field", "4", "--T", "0.3", "--avg-k", "2", "--v", "0,1")
    assert exc.value.code == 2
    assert "argument --v: not allowed with argument --avg-k" in capsys.readouterr().err
    # exact engine refuses 2^18 states
    assert run("percolate", "--mean-field", "18", "--v", "0", "--t", "1") == 2
    assert run("percolate", "--mean-field", "4", "--v", "zero", "--t", "1") == 2
    assert run("matrix", "--matrix", str(tmp_path / "missing.json")) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 3
    with pytest.raises(SystemExit) as exc:  # a drift outside sde.DRIFTS
        run("simulate", "--mean-field", "4", "--drift", "warp", "--dt", "0.1", "--samples", "5")
    assert exc.value.code == 2
    assert "argument --drift: invalid choice: 'warp'" in capsys.readouterr().err
    # bad input is a usage error with the builder's own message
    pi = tmp_path / "pi.json"
    pi.write_text('{"0": 0.5}')
    listed = tmp_path / "listed.json"
    listed.write_text('[[0, 1, 0.5]]')
    short = tmp_path / "short.json"
    short.write_text('{"format": "coo", "n": 2, "entries": [[0, 1]]}')
    listed_n = tmp_path / "listed_n.json"
    listed_n.write_text('{"n": [3], "format": "coo", "entries": []}')
    null_index = tmp_path / "null_index.json"
    null_index.write_text('{"n": 3, "format": "coo", "entries": [[null, 1, 0.5]]}')
    edge_list = tmp_path / "edges.txt"
    edge_list.write_text("3\n0 1\n1 x\n")
    nan_csv = tmp_path / "nan.csv"
    nan_csv.write_text("0,nan\n0.5,0\n")
    inf_json = tmp_path / "inf.json"
    inf_json.write_text('{"n": 2, "format": "coo", "entries": [[0, 1, Infinity]]}')
    neg = tmp_path / "neg.csv"
    neg.write_text("0,0.5,-0.4\n0.3,0,0.2\n0.1,0.1,0\n")
    sym_neg = tmp_path / "sym_neg.csv"  # fpp refuses negative rates as mc does
    sym_neg.write_text("0,0.5,-0.2\n0.5,0,0.3\n-0.2,0.3,0\n")
    lone_neg = tmp_path / "lone_neg.csv"  # delta_i is 0 on every row
    lone_neg.write_text("0,-0.5\n0,0\n")
    twice = tmp_path / "twice.json"
    twice.write_text('{"n": 2, "format": "coo", "entries": [[0, 1, 0.5], [0, 1, 0.5]]}')
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,0.5\n0.5\n")
    nan_pi = tmp_path / "nan_pi.json"
    nan_pi.write_text("[0.25, NaN, 0.25, 0.25]")
    empty_pi = tmp_path / "empty_pi.json"
    empty_pi.write_text("")
    growth = ("bound", "--theorem", "growth", "--mean-field", "3", "--v", "0",
              "--gamma", "1", "--big-m", "1", "--sigma-const", "1")
    cases = [
        (("bound", "--theorem", "avg-markov", "--mean-field", "4", "--k", "2",
          "--pi", str(pi)), "want a JSON list of weights"),
        (("matrix", "--mean-field", "0"), "mean field needs n >= 2"),
        (("matrix", "--sequential", "0"), "sequential case needs n >= 2"),
        (("gaussian", "--n", "0", "--T", "0.1"), "random substochastic matrix needs n >= 1"),
        (("matrix", "--matrix", str(listed)), f"{listed}: expected JSON"),
        (("matrix", "--matrix", str(short)), f"{short}: entries must be"),
        (("matrix", "--matrix", str(listed_n)), f"{listed_n}: 'n' must be an integer"),
        (("matrix", "--matrix", str(null_index)), f"{null_index}: entries must be"),
        (("matrix", "--random-walk", str(edge_list)), f"{edge_list}:3: expected integers"),
        # non-finite entries once passed as a value of 1.0 (exact) or crashed (mc)
        (("percolate", "--matrix", str(nan_csv), "--v", "0", "--t", "1"),
         "matrix entries must be finite"),
        (("percolate", "--matrix", str(nan_csv), "--v", "0", "--t", "1", "--engine", "mc"),
         "matrix entries must be finite"),
        (("percolate", "--matrix", str(inf_json), "--v", "0", "--t", "1"),
         "matrix entries must be finite"),
        # negative rates once gave E|X_1| below the start size (exact) or a sample mean (mc)
        (("percolate", "--matrix", str(neg), "--v", "0", "--t", "1"),
         "the growth process needs a nonnegative matrix"),
        (("percolate", "--matrix", str(neg), "--v", "0", "--t", "1", "--engine", "mc",
          "--reps", "10"), "the growth process needs a nonnegative matrix"),
        (("percolate", "--matrix", str(sym_neg), "--v", "0", "--t", "1", "--engine", "fpp",
          "--reps", "10"), "the growth process needs a nonnegative matrix"),
        (("bound", "--theorem", "growth", "--matrix", str(neg), "--v", "0", "--gamma", "1",
          "--big-m", "1", "--sigma-const", "1", "--horizon", "1"),
         "the growth process needs a nonnegative matrix"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "inf"),
         "finite nonnegative numbers"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "nan",
          "--engine", "mc"), "finite nonnegative numbers"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", ""),
         "finite nonnegative numbers"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "0.5,-1",
          "--engine", "mc"), "finite nonnegative numbers"),
        (("percolate", "--engine", "exact", "--functional", "size2", "--mean-field", "4",
          "--v", "0", "--t", "1e300"), "Poisson mean 1.33333e+300 is too large"),
        (("simulate", "--mean-field", "3", "--dt", "0.1", "--T", "nan",
          "--samples", "10"), "dt and T must be positive and finite"),
        (("gaussian", "--mean-field", "4", "--T", "nan"), "T must be positive and finite"),
        ((*growth, "--horizon", "nan"), "T must be finite and nonnegative"),
        ((*growth, "--horizon", "1", "--c0", "nan"), "C0 must be finite and nonnegative"),
        (("bound", "--theorem", "growth", "--mean-field", "3", "--v", "0", "--gamma",
          "nan", "--big-m", "1", "--sigma-const", "1", "--horizon", "1"),
         "gamma must be positive and finite"),
        ((*growth, "--sigma-const", "1e-200", "--horizon", "1"),
         "sigma must keep gamma / sigma^2"),
        ((*growth, "--sigma-const", "1e-160", "--horizon", "1"),
         "sigma must keep gamma / sigma^2"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "1", "--engine", "mc",
          "--kappa", "nan"), "kappa must be positive and finite"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "1", "--engine", "mc",
          "--kappa", "inf"), "kappa must be positive and finite"),
        # the total rate overflowed and the jump chain searched past its last bin
        (("percolate", "--mean-field", "8", "--v", "0", "--t", "1", "--engine", "mc",
          "--reps", "10", "--kappa", "1e308"), "needs a finite total rate"),
        (("verify", "--instances", "0"), "instances must be >= 1"),
        (("verify", "--instances", "-2"), "instances must be >= 1"),
        (("bound", "--theorem", "setwise", "--mean-field", "4"),
         "--theorem setwise needs --v"),
        (("bound", "--theorem", "growth", "--mean-field", "3", "--gamma", "1", "--big-m",
          "1", "--sigma-const", "1", "--horizon", "1"), "--theorem growth needs --v"),
        # results beyond the floating-point range
        (("gaussian", "--mean-field", "4", "--T", "200"),
         "sigma_T series overflows double precision at 2*rho*T = 400 "),
        (("bound", "--theorem", "h3", "--delta", "0.1", "--gamma", "1", "--big-m", "1",
          "--sigma-const", "1", "--horizon", "1000"),
         "h3_bound's factor e^(3*gamma*T) overflows double precision at 3*gamma*T = 3000"),
        (("bound", "--theorem", "h3", "--delta", "1", "--gamma", "1", "--big-m", "1",
          "--sigma-const", "1", "--horizon", "1e6"),
         "h3_bound's factor e^(3*gamma*T) overflows double precision at 3*gamma*T = 3e+06"),
        (("bound", "--theorem", "h3", "--delta", "1e200", "--gamma", "1", "--big-m", "1",
          "--sigma-const", "1", "--horizon", "1"),
         "h3_bound overflows double precision: 216 * 6.69518 * delta^2 at delta = 1e+200"),
        (("bound", "--theorem", "h3", "--delta", "1e200", "--gamma", "1", "--big-m", "1",
          "--sigma-const", "1", "--horizon", "1", "--eta", "0.01", "--uniform"),
         "h3_bound overflows double precision: 216 * 0.0454545 * delta^2 at delta = 1e+200"),
        # the uniform constant overflows, and delta = 0 once made it nan
        (("bound", "--theorem", "h3", "--delta", "0", "--gamma", "1", "--big-m", "1e300",
          "--sigma-const", "1", "--horizon", "1", "--eta", "0.083333333333333", "--uniform"),
         "h3_bound overflows double precision: 216 * inf * delta^2 at delta = 0"),
        (("simulate", "--mean-field", "3", "--dt", "0.1", "--T", "1", "--samples", "10",
          "--sigma", "1e200"), "sigma must be positive and finite, with a finite square"),
        # numbers that were accepted silently
        (("gaussian", "--mean-field", "4", "--T", "0.1", "--avg-k", "0"), "need 1 <= k <= n"),
        (("simulate", "--mean-field", "3", "--dt", "0.1", "--T", "1", "--samples", "10",
          "--sigma", "nan"), "sigma must be positive and finite"),
        (("simulate", "--mean-field", "3", "--dt", "0.1", "--T", "1", "--samples", "10",
          "--sigma", "inf"), "sigma must be positive and finite"),
        (("simulate", "--mean-field", "3", "--dt", "0.1", "--T", "1", "--samples", "1"),
         "--samples must be >= 2"),
        ((*growth, "--horizon", "1", "--h3-value", "nan"),
         "h3 must be finite and nonnegative"),
        # flags that were ignored without a word
        (("bound", "--theorem", "max", "--mean-field", "6", "--k", "2", "--h3-value", "1"),
         "--h3-value applies only to --theorem growth"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "1", "--emit-gnuplot",
          "--out", str(tmp_path / "p.json")), "--emit-gnuplot needs --out FILE --format csv"),
        (("simulate", "--mean-field", "3", "--dt", "0.1", "--samples", "10", "--format", "csv",
          "--save-samples", str(tmp_path / "S"), "--emit-gnuplot"),
         "--emit-gnuplot needs --out FILE --format csv"),
        # the exact engine refuses before it tabulates the cost or the functional
        (("bound", "--theorem", "growth", "--mean-field", "20", "--v", "0", "--gamma", "1",
          "--big-m", "1", "--sigma-const", "1", "--horizon", "1"),
         "exact engine handles n <= 16, got 20"),
        (("percolate", "--mean-field", "17", "--engine", "exact", "--v", "0", "--t", "1"),
         "exact engine handles n <= 16, got 17"),
        (("bound", "--theorem", "h3", "--delta", "nan", "--gamma", "1", "--big-m", "1",
          "--sigma-const", "1", "--horizon", "1"), "delta must be finite and nonnegative"),
        # no reversed form is proved for these; the flag was mislabelled or dropped
        ((*growth, "--horizon", "1", "--reversed"), "--reversed has no --theorem growth form"),
        (("bound", "--theorem", "h3", "--delta", "0.1", "--gamma", "1", "--big-m", "1",
          "--sigma-const", "1", "--horizon", "1", "--reversed"),
         "--reversed has no --theorem h3 form"),
        # flags outside the theorem were once ignored, with exit 0
        (("bound", "--theorem", "max", "--mean-field", "6", "--k", "2", "--uniform", "--pi",
          "nofile.json", "--v", "0", "--delta", "3", "--out", str(tmp_path / "p.json")),
         "--v applies only to --theorem setwise, growth"),
        (("bound", "--theorem", "max", "--mean-field", "6", "--k", "2", "--uniform",
          "--out", str(tmp_path / "p.json")), "--uniform applies only to --theorem h3, growth"),
        (("bound", "--theorem", "avg", "--mean-field", "6", "--k", "2", "--pi", "nofile.json"),
         "--pi applies only to --theorem avg-markov"),
        (("bound", "--theorem", "max", "--mean-field", "6", "--k", "2", "--delta", "0"),
         "--delta applies only to --theorem h3"),
        (("bound", "--theorem", "setwise", "--mean-field", "6", "--v", "0", "--k", "0"),
         "--k applies only to --theorem max, avg, avg-markov, avg-2way"),
        (("bound", "--theorem", "h3", "--delta", "0.1", "--mean-field", "4", "--gamma", "1",
          "--big-m", "1", "--sigma-const", "1", "--horizon", "1", "--out",
          str(tmp_path / "p.json")), "--mean-field applies only to --theorem max, avg, "),
        (("bound", "--theorem", "h3", "--delta", "0.1", "--k", "3", "--gamma", "1",
          "--big-m", "1", "--sigma-const", "1", "--horizon", "1"),
         "--k applies only to --theorem max"),
        (("bound", "--theorem", "h3", "--delta", "0.1", "--v", "0,1", "--gamma", "1",
          "--big-m", "1", "--sigma-const", "1", "--horizon", "1"),
         "--v applies only to --theorem setwise, growth"),
        (("bound", "--theorem", "max", "--mean-field", "6", "--k", "2", "--gamma", "1",
          "--big-m", "1", "--out", str(tmp_path / "p.json")),
         "--gamma, --big-m given without --sigma-const, --horizon; give all four"),
        (("bound", "--theorem", "avg", "--mean-field", "6", "--k", "2", "--horizon", "1",
          "--eta", "1"), "--horizon, --eta given without --gamma, --big-m, --sigma-const"),
        (("bound", "--theorem", "max", "--mean-field", "6", "--k", "2", "--c0", "1"),
         "--c0 given without --gamma, --big-m, --sigma-const, --horizon"),
        (("bound", "--theorem", "max", "--matrix", str(lone_neg), "--k", "1"),
         "max_entropy_bound needs a nonnegative matrix: negative entries at [(0, 1)]"),
        # avg-markov once gave structural 0.0 here, and nan for a NaN weight
        (("bound", "--theorem", "avg-markov", "--matrix", str(lone_neg), "--k", "1"),
         "weighted_avg_bound needs a nonnegative matrix: negative entries at [(0, 1)]"),
        (("bound", "--theorem", "avg-markov", "--mean-field", "4", "--k", "2",
          "--pi", str(nan_pi)), "pi must be nonnegative and finite: [nan] at [1]"),
        (("bound", "--theorem", "avg-markov", "--mean-field", "4", "--k", "2",
          "--pi", str(empty_pi)), f"{empty_pi}: want a JSON list of weights (Expecting value"),
        # every refusal of a matrix file names the file
        (("matrix", "--matrix", str(twice)), f"{twice}: entry (0, 1) is given twice"),
        (("matrix", "--matrix", str(ragged)), f"{ragged}: rows have unequal lengths"),
        # the dense matrix is refused past its size limit, before allocation
        (("matrix", "--mean-field", "4097"), "matrix size n must be in [1, 4096], got 4097"),
        (("matrix", "--er", "100000", "0.001"), "matrix size n must be in [1, 4096], got 100000"),
        # an unparsable --er once printed only int()'s or float()'s message
        (("percolate", "--er", "5.5", "0.3", "--v", "0", "--t", "1"),
         "cannot parse --er 5.5 0.3; want an integer N and a probability P"),
        (("percolate", "--er", "5", "x", "--v", "0", "--t", "1"),
         "cannot parse --er 5 x; want an integer N and a probability P"),
        (("bound", "--theorem", "avg", "--sequential", "5000", "--k", "2"),
         "matrix size n must be in [1, 4096], got 5000"),
    ]
    for argv, message in cases:
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, argv
    assert not (tmp_path / "p.json").exists() and not (tmp_path / "S").exists()
    # the Gaussian model takes signed interactions
    assert run("gaussian", "--matrix", str(neg), "--T", "0.1") == 0
    capsys.readouterr()
    # non-convergence is an error line, not a traceback
    def stalled(*args):
        raise RuntimeError("expm_action: Taylor series failed to converge")
    monkeypatch.setattr(cli.verify_mod, "run_suite", stalled)
    assert run("verify") == 2
    assert capsys.readouterr().err.startswith("error: expm_action")


def test_simulate_refuses_sigma_whose_square_overflows(capsys):
    # refused before any sampling, so no overflow warning is ever raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("simulate", "--mean-field", "3", "--dt", "0.1", "--T", "1",
                   "--samples", "10", "--sigma", "1e200") == 2
    assert "sigma must be positive and finite, with a finite square" in capsys.readouterr().err


def test_memory_error_is_an_error_line(capsys, monkeypatch):
    # numpy raises a MemoryError subclass whose own name is private
    class _ArrayMemoryError(MemoryError):
        pass

    def oversized(xi, drift, cfg):
        raise _ArrayMemoryError("Unable to allocate 29.8 GiB for an array")
    monkeypatch.setattr(cli.sde, "simulate_particles", oversized)
    assert run("simulate", "--mean-field", "4", "--linear", "--dt", "0.1", "--T", "1",
               "--samples", "10") == 2
    assert capsys.readouterr().err == "error: MemoryError: Unable to allocate 29.8 GiB for an array\n"


def test_non_finite_results_are_refused(tmp_path, capsys, monkeypatch):
    # sigma^2 is finite, but the sample covariance overflows to inf; the
    # samples file was once written before that was found, and numpy's
    # "overflow encountered in dot" warning was printed first
    out, samples = tmp_path / "cov.json", tmp_path / "S"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("simulate", "--mean-field", "3", "--dt", "0.1", "--T", "1",
                   "--samples", "10", "--sigma", "1e154", "--save-samples", str(samples),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "error: non-finite result [0].empirical = inf" in err
    assert "RuntimeWarning" not in err
    assert list(tmp_path.iterdir()) == []
    # the CSV route refuses it too, naming the row and column
    out_csv = tmp_path / "cov.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("simulate", "--mean-field", "3", "--dt", "0.1", "--T", "1",
                   "--samples", "10", "--sigma", "1e154", "--format", "csv",
                   "--out", str(out_csv)) == 2
    assert ("error: non-finite result in row 0, column empirical = inf"
            in capsys.readouterr().err)
    assert not out_csv.exists()
    # a verify report with a NaN slack is refused the same way
    fake = [SuiteResult("generator", 0, 1, [Check("made-up", False, float("nan"))])]
    report = tmp_path / "verify.json"
    monkeypatch.setattr(cli.verify_mod, "run_suite", lambda *a: fake)
    assert run("verify", "--suite", "generator", "--out", str(report)) == 2
    assert "non-finite result suites[0].checks[0].slack = nan" in capsys.readouterr().err
    assert not report.exists()
