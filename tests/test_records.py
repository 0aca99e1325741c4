"""The package's records are immutable values: fields in a fixed order,
keyword and positional construction with immutable defaults, == by value,
no field assignment, and a pickle round trip (verify's workers send
`SuiteResult` and `Check` through a pipe) that gives an equal record."""

import pickle

import numpy as np
import pytest

from chaoscope.bounds import BoundReport, ModelConstants
from chaoscope.gaussian import AvgEntropy, GaussianModel, sigma_T
from chaoscope.matrix import Graph, ValidityReport, build_mean_field
from chaoscope.percolation import McEstimate, PercolationModel
from chaoscope.sde import DRIFTS, DriftSpec, SimConfig
from chaoscope.verify import Check, SuiteResult

XI = build_mean_field(3)
GM = sigma_T(XI, 0.2)

# (record, its fields in order, the arguments given, the defaults of the
# rest, one argument changed to another valid value)
RECORDS = [
    (ModelConstants, ("gamma", "M", "sigma", "T", "eta", "C0"),
     dict(gamma=1.0, M=2.0, sigma=1.0, T=0.5), dict(eta=None, C0=0.0), dict(M=3.0)),
    (BoundReport, ("theorem", "structural", "inputs", "prefactor", "explicit"),
     dict(theorem="max", structural=1.5, inputs={"k": 2}, prefactor=3.0),
     dict(explicit=None), dict(inputs={"k": 3})),
    (GaussianModel, ("xi", "T", "sigma_T", "series_order", "tail_bound"),
     dict(xi=XI, T=GM.T, sigma_T=GM.sigma_T, series_order=GM.series_order,
          tail_bound=GM.tail_bound), {}, dict(sigma_T=GM.sigma_T + 1.0)),
    (AvgEntropy, ("mode", "value", "stderr"),
     dict(mode="enumerate", value=0.25), dict(stderr=None), dict(value=0.5)),
    (Graph, ("n", "edges"),
     dict(n=4, edges=((0, 1), (1, 2))), {}, dict(edges=((0, 1), (1, 3)))),
    (ValidityReport,
     ("ok", "negative_entries", "nonzero_diagonal", "row_violations", "col_violations"),
     dict(ok=True, negative_entries=(), nonzero_diagonal=(), row_violations=(),
          col_violations=None), {}, dict(col_violations=())),
    (PercolationModel, ("xi", "kappa"), dict(xi=XI, kappa=0.5), {}, dict(kappa=1.0)),
    (McEstimate, ("mean", "stderr"), dict(mean=1.5, stderr=0.1), {}, dict(stderr=0.2)),
    (DriftSpec, ("kind", "b", "mean_field"),
     dict(kind="linear"), dict(b=None, mean_field=None), dict(kind="zero")),
    (SimConfig, ("dt", "T", "samples", "seed", "sigma"),
     dict(dt=0.1, T=0.5, samples=10, seed=3), dict(sigma=1.0), dict(samples=11)),
    (Check, ("name", "passed", "slack"),
     dict(name="x.l1", passed=True, slack=0.5), {}, dict(passed=False)),
    (SuiteResult, ("suite", "seed", "instances", "checks"),
     dict(suite="bounds", seed=0, instances=2), dict(checks=()),
     dict(checks=(Check("x.l1", True, 0.5),))),
]


def _same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("record, fields, given, defaults, changed", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(record, fields, given, defaults, changed):
    rec = record(**given)
    assert record._fields == fields
    for name, val in {**given, **defaults}.items():
        assert _same(getattr(rec, name), val), name
    # positional construction, and the defaults spelled out, give the same value
    assert rec == record(*given.values())
    assert rec == record(*given.values(), *defaults.values())
    # a default is immutable, so no two records share a mutable one
    for val in defaults.values():
        hash(val)
    other = record(**dict(given, **changed))
    assert other != rec and not other == rec
    assert rec != fields  # not equal to a plain value of another kind
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name, None))
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is record and back == rec and not back != rec


def test_derived_fields_are_read_only():
    # the arrays a record holds are frozen, not only its fields
    assert Graph(3, ((2, 0),)).edges == ((0, 2),)
    with pytest.raises(ValueError):
        GaussianModel(*GM).sigma_T[0] = 5
