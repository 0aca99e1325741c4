import csv
import json

import pytest

import chaoscope.cli as cli
from chaoscope.matrix import build_mean_field, load_matrix
from chaoscope.percolation import (PercolationModel, exact_expectation,
                                   functional_table)
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
    table = functional_table("size", model.xi)
    want = exact_expectation(model, table, [0], 0.25)
    assert float(rows[1][4]) == pytest.approx(want, rel=1e-12)
    assert float(rows[2][4]) > float(rows[1][4])  # growth is monotone


def test_percolate_mc_thread_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ("percolate", "--mean-field", "4", "--v", "0", "--t", "0.5",
            "--engine", "mc", "--reps", "2000", "--seed", "7",
            "--format", "csv")
    assert run(*base, "--threads", "1", "--out", str(a)) == 0
    assert run(*base, "--threads", "6", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_gaussian_cli_average(tmp_path):
    out = tmp_path / "avg.json"
    rc = run("gaussian", "--mean-field", "5", "--T", "0.15", "--avg-k", "2",
             "--out", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "enumerate"
    assert doc["lower"] - 1e-12 <= doc["avg"] <= doc["upper"] + 1e-12
    assert doc["explicit_lower"] - 1e-12 <= doc["avg"] <= doc["explicit_upper"] + 1e-12


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

    rc = run("bound", "--theorem", "growth", "--mean-field", "3", "--v", "0",
             "--gamma", "1", "--big-m", "1", "--sigma-const", "1",
             "--horizon", "0.5")
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["explicit"] > 0


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


def test_usage_and_runtime_errors(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:  # argparse: unknown engine
        run("percolate", "--mean-field", "4", "--v", "0", "--t", "1",
            "--engine", "warp")
    assert exc.value.code == 2
    capsys.readouterr()
    # exact engine refuses 2^18 states
    assert run("percolate", "--mean-field", "18", "--v", "0", "--t", "1") == 2
    assert run("percolate", "--mean-field", "4", "--v", "zero", "--t", "1") == 2
    assert run("matrix", "--matrix", str(tmp_path / "missing.json")) == 2
    assert run("simulate", "--mean-field", "4", "--drift", "warp",
               "--dt", "0.1", "--samples", "5") == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4
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
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "inf"),
         "finite nonnegative numbers"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "nan",
          "--engine", "mc"), "finite nonnegative numbers"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", ""),
         "finite nonnegative numbers"),
        (("percolate", "--mean-field", "4", "--v", "0", "--t", "0.5,-1",
          "--engine", "mc"), "finite nonnegative numbers"),
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
        (("verify", "--instances", "0"), "instances must be >= 1"),
        (("verify", "--instances", "-2"), "instances must be >= 1"),
    ]
    for argv, message in cases:
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err, argv
    # non-convergence is an error line, not a traceback
    def stalled(*args):
        raise RuntimeError("simpson_adaptive: no convergence at max_depth")
    monkeypatch.setattr(cli.verify_mod, "run_suite", stalled)
    assert run("verify") == 2
    assert capsys.readouterr().err.startswith("error: simpson_adaptive")
