"""The nine value types are named tuples, and the CLI starts without
dataclasses.

A record is immutable, equal and hashed by its fields, has the
`Name(field=value, ...)` repr, and survives a pickle round trip.  Being a
tuple, it also equals a plain tuple of the same fields.
"""

import os
import pickle
import subprocess
import sys

import pytest

from bassinv.groebner import MonomialOrder, Staircase
from bassinv.invariants import (BassVerdict, Bound, DuBoisTable,
                                bass_verdict, build_table)
from bassinv.polynomials import WeightSystem
from bassinv.resgraph import ResolutionGraph, Vertex, load_graph
from bassinv.singularity import SingularityProfile, analyze

from conftest import REPO, poly

_GRAPH = {"vertices": [{"id": 1, "genus": 0, "self_intersection": -2},
                       {"id": 2, "genus": 1, "self_intersection": -3}],
          "edges": [[2, 1]]}

# (type, a record, one with a field changed, the record's repr)
RECORDS = [
    (MonomialOrder, MonomialOrder.grevlex, MonomialOrder.lex,
     "MonomialOrder(kind='grevlex', weights=None)"),
    (WeightSystem, lambda: WeightSystem((3, 10, 15), 30),
     lambda: WeightSystem((3, 10, 15), 60),
     "WeightSystem(weights=(3, 10, 15), degree=30)"),
    (Staircase, lambda: Staircase(5), lambda: Staircase(None),
     "Staircase(size=5)"),
    (SingularityProfile, lambda: analyze(poly("x^2+y^2+z^3")),
     lambda: analyze(poly("x^2+y^2+z^4")),
     "SingularityProfile(f=Polynomial(z^3 + x^2 + y^2), milnor=2, "
     "tjurina=2, weights=WeightSystem(weights=(3, 3, 2), degree=6), p_g=0)"),
    (Vertex, lambda: Vertex(1, 0, -2), lambda: Vertex(1, 0, -3),
     "Vertex(id=1, genus=0, self_intersection=-2)"),
    (ResolutionGraph, lambda: load_graph(_GRAPH),
     lambda: load_graph({**_GRAPH, "edges": []}),
     "ResolutionGraph(vertices=(Vertex(id=1, genus=0, self_intersection=-2), "
     "Vertex(id=2, genus=1, self_intersection=-3)), edges=((1, 2),))"),
    (Bound, lambda: Bound.exact(1), lambda: Bound.interval(0, 1),
     "Bound(kind='exact', lo=1, hi=1)"),
    (DuBoisTable, lambda: build_table(18, 1, 0, 0, graded=True),
     lambda: build_table(18, 1, 0, 0, graded=False),
     "DuBoisTable(tau=18, p_g=1, g=0, l=0, graded=True, "
     "b01=Bound(kind='exact', lo=1, hi=1), "
     "b10=Bound(kind='exact', lo=17, hi=17), "
     "b11=Bound(kind='exact', lo=1, hi=1), "
     "b20=Bound(kind='exact', lo=17, hi=17), "
     "chi0=Bound(kind='exact', lo=-1, hi=-1), "
     "chi1=Bound(kind='exact', lo=16, hi=16), "
     "chi2=Bound(kind='exact', lo=-1, hi=-1))"),
    (BassVerdict, lambda: bass_verdict(build_table(18, 1, 0, 0, graded=True)),
     lambda: bass_verdict(build_table(18, 1, 0, 0, graded=False)),
     "BassVerdict(nk0_vanishes='no', "
     "nk_minus1_rank=Bound(kind='exact', lo=1, hi=1), "
     "answer_to_bass='not_a_counterexample', "
     "k0_polynomial_ring_description='NK_0 ≠ 0 (b^{1,1} = 1): "
     "criterion not met')"),
]


@pytest.mark.parametrize("kind, make, make_other, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(kind, make, make_other, text):
    record, other = make(), make_other()
    assert type(record) is kind and type(other) is kind
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], other[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    copy = kind(*record)
    assert copy == record and hash(copy) == hash(record)
    assert record != other and tuple(record) != tuple(other)
    assert record == tuple(record)
    assert repr(record) == text
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is kind and loaded == record


def test_cli_imports_no_dataclasses():
    """A fresh interpreter, without site-packages hooks (-S), imports the
    CLI and none of dataclasses, inspect or typing."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, bassinv.cli; print(*sorted({'dataclasses', 'inspect', "
         "'typing'} & sys.modules.keys()))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == []
