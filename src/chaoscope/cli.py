"""Command-line front end: matrices, percolation runs, bounds, Gaussian
certification, SDE simulation, and the verification battery.

Every output file gets a `<file>.manifest.json` sidecar recording the
subcommand, full parameter echo, seed, version, wall-clock, and output list.
Payload files carry only numbers, so reruns with the same parameters and seed
are byte-identical; wall-clock lives in the manifest alone.  Exit codes:
0 success, 1 failed checks, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from functools import partial

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import gaussian as gauss
from . import percolation as perc
from . import sde
from . import verify as verify_mod
from .matrix import (Graph, InteractionMatrix, MatrixError, build_mean_field,
                     build_random_walk, build_sequential, load_matrix,
                     mask_members, p_xi, q_xi, random_substochastic,
                     sample_erdos_renyi, save_matrix, subset_mask, validate)
from .percolation import PercolationModel
from .rng import stream


# ---------------------------------------------------------------------------
# Shared plumbing

def _add_source(p: argparse.ArgumentParser, random_n: bool = False,
                required: bool = True):
    g = p.add_mutually_exclusive_group(required=required)
    g.add_argument("--matrix", metavar="FILE", help="load a saved matrix (.json or .csv)")
    g.add_argument("--mean-field", type=int, metavar="N", help="complete graph on N, delta=1/(N-1)")
    g.add_argument("--random-walk", metavar="GRAPH", help="edge-list file; rows are 1/degree")
    g.add_argument("--er", nargs=2, metavar=("N", "P"), help="Erdos-Renyi random-walk matrix (uses --seed)")
    g.add_argument("--sequential", type=int, metavar="N", help="row i feeds on 0..i-1 with weight 1/i")
    if random_n:
        g.add_argument("--n", type=int, metavar="N",
                       help="random substochastic matrix of size N (uses --seed)")


def _build_xi(args) -> InteractionMatrix:
    if args.matrix is not None:
        return load_matrix(args.matrix)
    if args.mean_field is not None:
        return build_mean_field(args.mean_field)
    if args.random_walk is not None:
        return build_random_walk(Graph.from_file(args.random_walk))
    if args.er is not None:
        try:
            n, prob = int(args.er[0]), float(args.er[1])
        except ValueError:
            raise MatrixError(f"cannot parse --er {' '.join(args.er)}; "
                              "want an integer N and a probability P") from None
        return build_random_walk(sample_erdos_renyi(n, prob, args.seed))
    if args.sequential is not None:
        return build_sequential(args.sequential)
    if getattr(args, "n", None) is not None:
        return random_substochastic(args.n, stream(args.seed))
    raise MatrixError("no matrix source given")


def _parse_subset(spec: str, n: int) -> list[int]:
    """The distinct member indices of a subset spec, in increasing order."""
    try:
        members = [int(s) for s in spec.replace(",", " ").split()]
    except ValueError:
        raise MatrixError(f"cannot parse subset {spec!r}; want comma-separated indices")
    if not members:
        raise MatrixError("subset must be nonempty")
    return mask_members(subset_mask(members, n))


def _parse_times(spec: str) -> list[float]:
    try:
        times = [float(s) for s in spec.replace(",", " ").split()]
    except ValueError:
        raise MatrixError(f"cannot parse time list {spec!r}")
    if not times or not all(0 <= t < math.inf for t in times):
        raise MatrixError(f"time list {spec!r} must hold finite nonnegative numbers")
    return times


def _fmt(x) -> str:
    return repr(float(x))


def _csv_text(header: list[str], rows: list[list]) -> str:
    """CSV with a header line.  As for JSON, a non-finite float raises
    ValueError naming its row and column, before anything is written."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for i, row in enumerate(rows):
        for name, c in zip(header, row):
            if isinstance(c, float) and not math.isfinite(c):
                raise ValueError(f"non-finite result in row {i}, column {name} = {c}; "
                                 "nothing written")
        w.writerow(["" if c is None else (_fmt(c) if isinstance(c, float) else c)
                    for c in row])
    return buf.getvalue()


def _first_non_finite(obj, path: str = ""):
    """(path, value) of the first inf or NaN float in nested dicts and lists."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path or "result", obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in obj.items())
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub, val in items:
        hit = _first_non_finite(val, sub)
        if hit is not None:
            return hit
    return None


def json_text(obj) -> str:
    """Indented JSON with a final newline.  JSON has no inf or NaN, so a
    non-finite number raises ValueError naming where it sits."""
    try:
        return json.dumps(obj, indent=1, allow_nan=False) + "\n"
    except ValueError:
        hit = _first_non_finite(obj)
        if hit is None:
            raise
        raise ValueError(f"non-finite result {hit[0]} = {hit[1]}, "
                         "which JSON cannot hold; nothing written") from None


def _cell(x):
    """A record field as a CSV cell: a member list prints as {i,j}, a dict as
    sorted JSON; _csv_text prints None as an empty cell and a float by repr."""
    if isinstance(x, list):
        return "{" + ",".join(map(str, x)) + "}"
    return json.dumps(x, sort_keys=True) if isinstance(x, dict) else x


def _emit(records: list[dict], header: list[str], args, outputs: list, doc=None):
    """Deliver the records as JSON (`doc` in their place if given), or as CSV,
    one row per record with its fields in header order."""
    _deliver(_render(records, header, args, doc), args, outputs)


def _render(records: list[dict], header: list[str], args, doc=None) -> str:
    """_emit's text; raises ValueError on a non-finite number."""
    if args.format == "csv":
        return _csv_text(header, [[_cell(rec.get(c)) for c in header] for rec in records])
    return json_text(doc or records)


def _deliver(text: str, args, outputs: list):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        outputs.append(out)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _emit_gnuplot(csv_path: str, xcol: int, ycol: int, xlabel: str,
                  ylabel: str, outputs: list):
    """Companion gnuplot script next to a CSV (column indices are 1-based)."""
    path = str(csv_path) + ".gnu"
    with open(path, "w") as fh:
        fh.write("set datafile separator ','\n"
                 f"set xlabel '{xlabel}'\nset ylabel '{ylabel}'\n"
                 "set key autotitle columnhead\n"
                 f"plot '{csv_path}' using {xcol}:{ycol} with linespoints\n"
                 "pause -1\n")
    outputs.append(path)


def _write_manifests(subcommand: str, args, outputs: list, elapsed: float):
    params = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {"subcommand": subcommand, "parameters": params,
                "seed": getattr(args, "seed", None), "version": __version__,
                "wall_clock_s": elapsed, "outputs": [str(p) for p in outputs]}
    for path in outputs:
        with open(f"{path}.manifest.json", "w") as fh:
            json.dump(manifest, fh, indent=1, default=str)
            fh.write("\n")


_CONSTANTS = {"gamma": "--gamma", "big_m": "--big-m", "sigma_const": "--sigma-const",
              "horizon": "--horizon"}


def _constants_from(args, required: bool = False):
    """The model constants, or None when none of them is given and the theorem
    does not need them; a partial set, or --eta or a nonzero --c0 without
    the set, is refused."""
    missing = [flag for dest, flag in _CONSTANTS.items() if getattr(args, dest) is None]
    if missing:
        given = ([flag for dest, flag in _CONSTANTS.items() if getattr(args, dest) is not None]
                 + ["--eta"] * (args.eta is not None) + ["--c0"] * (args.c0 != 0.0))
        if required:
            raise MatrixError("this theorem needs --gamma, --big-m, --sigma-const and --horizon")
        if given:
            raise MatrixError(f"{', '.join(given)} given without {', '.join(missing)}; "
                              "give all four constants or none")
        return None
    return bounds_mod.ModelConstants(gamma=args.gamma, M=args.big_m,
                                     sigma=args.sigma_const, T=args.horizon,
                                     eta=args.eta, C0=args.c0)


def _echo(constants) -> dict:
    """The model constants as a report echoes them, eta only when given."""
    if constants is None:
        return {}
    names = ("gamma", "M", "sigma", "T", "C0") + ("eta",) * (constants.eta is not None)
    return {name: getattr(constants, name) for name in names}


def _add_constants(p: argparse.ArgumentParser):
    p.add_argument("--gamma", type=float, help="transport constant of the kernel")
    p.add_argument("--big-m", type=float, help="second-moment constant M")
    p.add_argument("--sigma-const", type=float, help="noise level sigma")
    p.add_argument("--horizon", type=float, help="time horizon T")
    p.add_argument("--eta", type=float, help="log-Sobolev constant (uniform mode)")
    p.add_argument("--c0", type=float, default=0.0, help="initial-chaoticity constant")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_matrix(args, outputs: list) -> int:
    xi = _build_xi(args)
    rows_ok = validate(xi).ok
    full = validate(xi, check_columns=True)
    report = {
        "n": xi.n,
        "delta": float(xi.delta),
        "delta_i": [float(x) for x in xi.delta_i],
        "max_row_sum": float(xi.row_sums.max()),
        "max_col_sum": float(xi.col_sums.max()),
        "rows_ok": bool(rows_ok),
        "cols_ok": bool(full.ok),
        "validity": full.describe(),
        "p_xi": float(p_xi(xi)),
    }
    if args.v:
        v = _parse_subset(args.v, xi.n)
        report["v"] = v
        report["q_xi"] = float(q_xi(xi, v))
    if args.save:
        save_matrix(xi, args.save)
        outputs.append(args.save)
    if args.format == "csv":
        rows = []
        for key, val in report.items():
            if key == "delta_i":
                rows.extend([f"delta_i[{i}]", float(x)] for i, x in enumerate(val))
            elif key == "v":
                rows.append(["v", " ".join(str(i) for i in val)])
            else:
                rows.append([key, float(val) if isinstance(val, (int, float)) and
                             not isinstance(val, bool) else str(val)])
        text = _csv_text(["quantity", "value"], rows)
    else:
        text = json_text(report)
    _deliver(text, args, outputs)
    return 0


def cmd_percolate(args, outputs: list) -> int:
    # the exact engine draws nothing: it reads --seed only to build --er
    if args.engine == "exact" and args.reps is not None:
        raise MatrixError("--reps applies only to --engine mc, fpp")
    if args.engine == "exact" and args.seed != 0 and args.er is None:
        raise MatrixError("--seed applies to --engine exact only with --er")
    xi = _build_xi(args)
    model = PercolationModel(xi, args.kappa)
    v = _parse_subset(args.v, xi.n)
    times = _parse_times(args.t)
    records = [{"engine": args.engine, "functional": args.functional,
                "v": v, "t": t} for t in times]
    if args.engine == "exact":
        # one pass over the sorted times, each value put back at its own place
        order = np.argsort(times, kind="stable")
        F = partial(perc.functional_values, args.functional, xi)
        values = perc.exact_expectations(model, F, v, np.asarray(times)[order])[:, 0]
        for i, val in zip(order, values.tolist()):
            records[i]["value"] = val
    else:
        method = "gillespie" if args.engine == "mc" else "fpp"
        if args.reps is None:  # set here, so that the manifest echoes it too
            args.reps = 10000
        for rec in records:
            est = perc.mc_expectation(model, args.functional, v, rec["t"],
                                      reps=args.reps, seed=args.seed,
                                      method=method)
            rec.update(value=est.mean, stderr=est.stderr, reps=args.reps, seed=args.seed)
    _emit(records, ["engine", "functional", "v", "t", "value", "stderr", "reps", "seed"],
          args, outputs)
    if args.emit_gnuplot:
        _emit_gnuplot(args.out, 4, 5, "t", args.functional, outputs)
    return 0


def cmd_verify(args, outputs: list) -> int:
    results = verify_mod.run_suite(args.suite, args.instances, args.seed)
    for r in results:
        worst = min((c.slack for c in r.checks), default=float("nan"))
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.suite}: {len(r.checks)} checks, min slack {worst:.3e}, {status}")
        for c in r.checks:
            if not c.passed:
                print(f"  FAIL {c.name} (slack {c.slack:.3e})")
    if args.out:
        _deliver(json_text(_verify_report(results)), args, outputs)
    return 0 if all(r.passed for r in results) else 1


def _verify_report(results) -> dict:
    """The report of `verify --out`: every check's name, verdict and slack."""
    return {"passed": all(r.passed for r in results),
            "suites": [{"suite": r.suite, "seed": r.seed, "instances": r.instances,
                        "passed": r.passed, "checks": [c._asdict() for c in r.checks]}
                       for r in results]}


def cmd_gaussian(args, outputs: list) -> int:
    xi = _build_xi(args)
    gm = gauss.sigma_T(xi, args.T)
    info = {"n": gm.n, "T": gm.T, "rho": gm.rho, "small_time": gm.small_time()}
    if args.avg_k is not None:
        avg = gauss.avg_entropy(gm, args.avg_k, mode=args.mode,
                                reps=args.reps, seed=args.seed)
        lo, hi = gauss.avg_entropy_sandwich(gm, args.avg_k)
        lo_e, hi_e = gauss.avg_entropy_sandwich(gm, args.avg_k, explicit=True)
        rec = dict(info, k=args.avg_k, mode=avg.mode, avg=avg.value,
                   lower=lo, upper=hi, explicit_lower=lo_e, explicit_upper=hi_e)
        if avg.stderr is not None:
            rec["stderr"] = avg.stderr
        _emit([rec], ["k", "mode", "avg", "stderr", "lower", "upper",
                      "explicit_lower", "explicit_upper"], args, outputs, doc=rec)
    else:
        if args.v:
            subsets = [_parse_subset(s, xi.n) for s in args.v]
        else:
            subsets = [[i] for i in range(xi.n)]
        masks = [subset_mask(v, xi.n) for v in subsets]
        exact, lower, upper = gauss.subset_entropies(gm, masks)
        cols = {"exact": exact, "lower": lower, "upper": upper,
                "clique_lower": gauss.clique_lower(xi, masks, gm.T),
                "small_time": np.full(len(masks), info["small_time"])}
        if validate(xi).ok:
            cols["max_upper"] = gauss.max_upper(gm, masks)
        rows = zip(*(col.tolist() for col in cols.values()))
        recs = [{"v": v, **dict(zip(cols, row))} for v, row in zip(subsets, rows)]
        _emit(recs, ["v", "exact", "lower", "upper", "clique_lower", "max_upper"],
              args, outputs, doc=dict(info, subsets=recs))
    return 0


# the flags of `bound` that only some theorems read, with those theorems;
# --out, --format, --seed and the constants are left to the other checks
_BOUND_READS = {
    **dict.fromkeys(("matrix", "mean_field", "random_walk", "er", "sequential"),
                    ("max", "avg", "avg-markov", "avg-2way", "setwise", "growth")),
    "k": ("max", "avg", "avg-markov", "avg-2way"),
    "v": ("setwise", "growth"),
    "pi": ("avg-markov",),
    "delta": ("h3",),
    "uniform": ("h3", "growth"),
    "h3_value": ("growth",),
}


def cmd_bound(args, outputs: list) -> int:
    for dest, theorems in _BOUND_READS.items():
        val = getattr(args, dest)  # None or False when not given; 0 is given
        if val is not None and val is not False and args.theorem not in theorems:
            raise MatrixError(f"--{dest.replace('_', '-')} applies only to "
                              f"--theorem {', '.join(theorems)}")
    if args.reversed and args.theorem in ("h3", "growth"):
        raise MatrixError(f"--reversed has no --theorem {args.theorem} form")
    constants = _constants_from(args, required=args.theorem in ("h3", "growth"))
    if args.theorem == "h3":
        if args.delta is None:
            raise MatrixError("--theorem h3 needs --delta")
        val = bounds_mod.h3_bound(constants, args.delta, uniform=args.uniform)
        report = bounds_mod.BoundReport(
            "h3", val, {"delta": args.delta, "uniform": args.uniform}, 1.0, explicit=val)
    else:
        xi = _build_xi(args)
        if args.theorem in ("setwise", "growth") and args.v is None:
            raise MatrixError(f"--theorem {args.theorem} needs --v")
        if args.theorem == "growth":
            v = _parse_subset(args.v, xi.n)
            val = float(bounds_mod.percolation_entropy_bound(xi, v, constants,
                                                             h3=args.h3_value,
                                                             uniform=args.uniform)[0])
            report = bounds_mod.BoundReport(
                "growth", val,
                {"v": v, "n": xi.n, "use_chat": args.h3_value is not None,
                 "uniform": args.uniform}, 1.0, explicit=val)
        elif args.theorem == "setwise":
            report = bounds_mod.setwise_bound(xi, _parse_subset(args.v, xi.n))
        else:
            if args.k is None:
                raise MatrixError(f"--theorem {args.theorem} needs --k")
            if args.theorem == "max":
                report = bounds_mod.max_entropy_bound(xi, args.k)
            elif args.theorem == "avg":
                report = bounds_mod.avg_entropy_bound(xi, args.k)
            elif args.theorem == "avg-2way":
                report = bounds_mod.sharper_avg_bound(xi, args.k)
            else:  # avg-markov
                if args.pi:
                    try:
                        with open(args.pi) as fh:
                            pi = np.asarray(json.load(fh), dtype=float)
                    except (TypeError, ValueError) as exc:  # ValueError: not JSON
                        raise MatrixError(
                            f"{args.pi}: want a JSON list of weights ({exc})") from None
                else:
                    pi = np.full(xi.n, 1.0 / xi.n)
                report = bounds_mod.weighted_avg_bound(xi, args.k, pi)
        if args.reversed:
            report = bounds_mod.reversed_variant(report)
    doc = report._replace(inputs={**report.inputs, **_echo(constants)}).to_json_dict()
    _emit([doc], ["theorem", "structural", "explicit", "inputs"], args, outputs, doc=doc)
    return 0


def cmd_simulate(args, outputs: list) -> int:
    if args.samples < 2:
        raise ValueError(f"--samples must be >= 2 for a covariance, got {args.samples}")
    xi = _build_xi(args)
    drift = sde.DRIFTS[args.drift]
    cfg = sde.SimConfig(dt=args.dt, T=args.T, samples=args.samples,
                        seed=args.seed, sigma=args.sigma)
    run = sde.simulate_projection if args.projection else sde.simulate_particles
    samples = run(xi, drift, cfg)
    # an overflow shows as a non-finite field, which _render names
    with np.errstate(over="ignore", invalid="ignore"):
        emp = np.atleast_2d(np.cov(samples, rowvar=False))
        stderr = np.sqrt((np.diag(emp)[:, None] * np.diag(emp)[None, :] + emp ** 2)
                         / samples.shape[0])
    dim = emp.shape[0]
    oracle = None
    if drift.kind in ("linear", "zero"):
        if args.projection or drift.kind == "zero":
            # decoupled: each coordinate is a plain Brownian motion
            oracle = args.sigma ** 2 * args.T * np.eye(dim)
        else:
            oracle = args.sigma ** 2 * gauss.sigma_T(xi, args.T).sigma_T
    recs = []
    for i in range(dim):
        for j in range(i, dim):
            rec = {"i": i, "j": j, "empirical": float(emp[i, j]),
                   "stderr": float(stderr[i, j])}
            if oracle is not None:
                ora = float(oracle[i, j])
                rec.update(oracle=ora, abs_diff=abs(float(emp[i, j]) - ora))
            recs.append(rec)
    # checked before any file is written, so a failing run leaves none
    text = _render(recs, ["i", "j", "empirical", "oracle", "abs_diff", "stderr"], args)
    if args.save_samples:
        sde.save_samples(samples, args.save_samples)
        outputs.append(args.save_samples)
    _deliver(text, args, outputs)
    if args.emit_gnuplot:
        _emit_gnuplot(args.out, 3, 4, "empirical", "oracle", outputs)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="chaoscope",
        description="entropy bounds for interacting diffusions: matrices, "
                    "growth-process runs, Gaussian certification, simulation")
    top.add_argument("--version", action="version", version=f"chaoscope {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", metavar="FILE", help="write the table here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("matrix", help="build or inspect an interaction matrix")
    _add_source(p)
    common(p)
    p.add_argument("--save", metavar="FILE", help="save the matrix (.json or .csv)")
    p.add_argument("--v", metavar="SUBSET", help="also report q_xi on this subset, e.g. '0,2,5'")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("percolate", help="run the subset growth process")
    _add_source(p)
    common(p)
    p.add_argument("--engine", choices=("exact", "mc", "fpp"), default="exact")
    p.add_argument("--functional", default="size",
                   choices=tuple(name for name, (kind, _) in perc.FAMILIES.items()
                                 if kind == "size"))
    p.add_argument("--v", required=True, metavar="SUBSET", help="start subset, e.g. '0,1'")
    p.add_argument("--t", required=True, metavar="TIMES", help="comma-separated times")
    p.add_argument("--kappa", type=float, default=1.0, help="rate scale")
    p.add_argument("--reps", type=int, help="mc, fpp: number of paths (default 10000)")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored; runs are serial")
    p.add_argument("--emit-gnuplot", action="store_true",
                   help="with --out FILE --format csv, also write FILE.gnu")
    p.set_defaults(func=cmd_percolate)

    p = sub.add_parser("verify", help="run the inequality battery")
    p.add_argument("--suite", choices=verify_mod.SUITES + ("all",), default="all")
    p.add_argument("--instances", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE", help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gaussian", help="exact entropies and bounds for linear drift")
    _add_source(p, random_n=True)
    common(p)
    p.add_argument("--T", type=float, required=True, help="time horizon")
    which = p.add_mutually_exclusive_group()
    which.add_argument("--v", action="append", metavar="SUBSET",
                       help="subset to evaluate (repeatable); default: all singletons")
    which.add_argument("--avg-k", type=int, help="average entropy over subsets of this size")
    p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    p.add_argument("--reps", type=int, default=10000, help="sample mode: number of subsets")
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("bound", help="evaluate a structural entropy bound")
    _add_source(p, required=False)  # h3 is matrix-free
    common(p)
    p.add_argument("--theorem", required=True,
                   choices=("max", "avg", "avg-markov", "avg-2way", "setwise",
                            "h3", "growth"))
    p.add_argument("--k", type=int, help="subset size for max/avg theorems")
    p.add_argument("--v", metavar="SUBSET", help="subset for setwise/growth")
    p.add_argument("--pi", metavar="FILE", help="JSON weight vector for avg-markov")
    p.add_argument("--delta", type=float, help="interaction strength for h3")
    p.add_argument("--reversed", action="store_true",
                   help="reversed-entropy variant of a structural theorem "
                        "(drops the size prefactor)")
    p.add_argument("--uniform", action="store_true", help="uniform-in-time mode")
    p.add_argument("--h3-value", type=float,
                   help="growth: use the self-improved cost C-hat with this "
                        "three-particle entropy ceiling (default: the plain cost C)")
    _add_constants(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="Euler-Maruyama particle or projected system")
    _add_source(p, random_n=True)
    common(p)
    p.add_argument("--drift", choices=tuple(sde.DRIFTS), default="linear")
    p.add_argument("--linear", dest="drift", action="store_const", const="linear")
    p.add_argument("--zero", dest="drift", action="store_const", const="zero")
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--projection", action="store_true",
                   help="simulate the decoupled projection instead of particles")
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored; samples run on one thread per usable CPU")
    p.add_argument("--save-samples", metavar="FILE")
    p.add_argument("--emit-gnuplot", action="store_true",
                   help="with --out FILE --format csv, also write FILE.gnu")
    p.set_defaults(func=cmd_simulate)

    return top


def console_main(argv=None) -> int:
    """Run one subcommand; its handler fills `outputs`, each of which gets a manifest."""
    parser = build_parser()
    args = parser.parse_args(argv)
    outputs: list = []
    t0 = time.perf_counter()
    try:
        if getattr(args, "emit_gnuplot", False) and not (args.out and args.format == "csv"):
            raise MatrixError("--emit-gnuplot needs --out FILE --format csv")
        code = args.func(args, outputs)
        _write_manifests(args.subcommand, args, outputs, time.perf_counter() - t0)
        return code
    except (ValueError, OSError, RuntimeError, ArithmeticError, MemoryError) as exc:
        # an overflow's own message ("math range error") does not say what it
        # is, nor does numpy's _ArrayMemoryError's ("Unable to allocate ...")
        kind = (f"{type(exc).__name__}: " if isinstance(exc, ArithmeticError)
                else "MemoryError: " if isinstance(exc, MemoryError) else "")
        print(f"error: {kind}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console_main())
