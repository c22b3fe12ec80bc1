"""What callers rely on from polysched's record classes.

The value records are immutable and compare and hash by value; a
dependence compares by identity, so equal relations stay distinct members
of a set.  Integral values are ints: transform rows, `Step` rows and
lower bounds; only values that can be non-integral, such as
solver optima, are `Fraction`s.  No record is a dataclass: building one
would generate and compile methods on every import.  The checks that some
classes make on construction are tested with their modules.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import polysched
from polysched import fcg, model, pluto, postpass, ratlp, verify
from polysched.farkas import ConstraintSystem
from polysched.model import RAW, Band, Cut, DependencePolyhedron
from polysched.pluto import ILP, LP, SchedulerConfig, Step, schedule
from polysched.postpass import dfp_schedule
from polysched.ratlp import INFEASIBLE, OPTIMAL, LPResult

VALUE_RECORDS = (
    ratlp.LPProblem, ratlp.LPResult, model.AccessFunction, model.Statement,
    model.Band, model.Cut, model.AffineTransform, pluto.Step, pluto.ScheduleResult,
    postpass.SkewOutcome, postpass.DfpResult, fcg.Coloring, verify.Violation,
    verify.LegalityReport, verify.CorpusInstance, verify.CheckResult,
    verify.SuiteReport, verify._Runs,
)


def _modules():
    yield polysched
    for info in pkgutil.iter_modules(polysched.__path__, "polysched."):
        if info.name != "polysched.__main__":  # importing it runs the CLI
            yield importlib.import_module(info.name)


def test_no_class_is_a_dataclass():
    found = [f"{m.__name__}.{name}" for m in _modules()
             for name, cls in inspect.getmembers(m, inspect.isclass)
             if cls.__module__ == m.__name__ and dataclasses.is_dataclass(cls)]
    assert found == []


@pytest.mark.parametrize("cls", VALUE_RECORDS, ids=lambda c: c.__name__)
def test_value_record_fields_cannot_be_set(cls):
    names = list(inspect.signature(cls).parameters)
    record = cls(*[None] * len(names))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize("make", [
    lambda: Band(1, 2, True, False, ("S", "T")),
    lambda: Cut(2, (("S",), ("T",))),
    lambda: Step(3, "cut", component=1),
], ids=["Band", "Cut", "Step"])
def test_equal_fields_equal_and_hash_equal(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)


def test_lp_results_compare_by_value():
    assert LPResult(OPTIMAL, {"x": Fraction(1, 2)}, (Fraction(3),)) == \
        LPResult(OPTIMAL, {"x": Fraction(1, 2)}, (Fraction(3),))
    assert LPResult(INFEASIBLE) == LPResult(INFEASIBLE)
    assert LPResult(OPTIMAL, {"x": 1}) != LPResult(OPTIMAL, {"x": 2})
    assert not LPResult(INFEASIBLE) and LPResult(OPTIMAL)
    with pytest.raises(TypeError):  # the assignment is a dict
        hash(LPResult(INFEASIBLE))


def test_equal_dependences_stay_distinct():
    relation = ConstraintSystem(("s.i", "t.i"))
    a, b = (DependencePolyhedron("A", "B", RAW, ("s.i",), ("t.i",), (), relation, "x")
            for _ in range(2))
    assert a != b and len({a, b}) == 2 and a == a


@pytest.mark.parametrize("path", [ILP, LP, "dfp"])
def test_transform_and_step_rows_are_ints(corpus, path):
    for inst in corpus:
        if path == "dfp":
            result = dfp_schedule(inst.program, inst.deps)
            transforms = (result.scaled, result.transform)
        else:
            result = schedule(inst.program, inst.deps, SchedulerConfig(mode=path))
            transforms = (result.transform,)
        rows = [row for t in transforms for listed in t.rows.values() for row in listed]
        rows += [row for s in result.steps if s.rows for row in s.rows.values()]
        assert rows, inst.name
        assert all(type(x) is int for row in rows for x in row), inst.name


def test_integral_lower_bounds_are_ints():
    system = ConstraintSystem(("x", "y", "w", "v"), lower={"x": 1, "y": -2, "w": None})
    assert system.lower == {"x": 1, "y": -2, "w": None, "v": 0}
    assert [type(b) for b in system.lower.values()] == [int, int, type(None), int]
