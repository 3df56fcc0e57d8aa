"""The value semantics of the package's record classes: ``ColoredComposition``,
``Family``, ``CheckResult`` and ``CheckReport``.  Construction, equality,
hashing, repr, ``match`` patterns, refused assignment, and round trips
through pickle and copy, as callers and the fork pool of ``verify`` rely on
them."""

import copy
import pickle

import pytest

from colorcomp.closedform import Family
from colorcomp.compgen import ColoredComposition
from colorcomp.verify import CheckReport, CheckResult

ALPHA = ColoredComposition(2, ((3, 2), (1, 1)))
FAMILY = Family("ge", 3)
RESULT = CheckResult("golden", "nu=3, d=2", 13, 1, (3, 2), 0.5)


def test_reprs():
    assert repr(ALPHA) == "ColoredComposition(d=2, parts=((3, 2), (1, 1)))"
    assert repr(FAMILY) == "Family(kind='ge', m=3)"
    assert repr(CheckResult("a", "g", 3)) == (
        "CheckResult(name='a', grid='g', cells=3, failures=0, counterexample=None, elapsed=0.0)"
    )
    assert repr(CheckReport([RESULT], 1.5)) == (
        "CheckReport(checks=[CheckResult(name='golden', grid='nu=3, d=2', cells=13, "
        "failures=1, counterexample=(3, 2), elapsed=0.5)], elapsed=1.5)"
    )


def test_constructor_and_trusted_give_equal_equal_hashing_values():
    trusted = ColoredComposition._trusted(2, ((3, 2), (1, 1)))
    assert trusted == ALPHA and hash(trusted) == hash(ALPHA)
    assert ColoredComposition(d=2, parts=[[3, 2], [1, 1]]) == ALPHA
    assert ColoredComposition(2, ((3, 1), (1, 1))) != ALPHA
    assert ColoredComposition(3, ((3, 2), (1, 1))) != ALPHA
    assert len({ALPHA, trusted, ColoredComposition(2, ((1, 1), (3, 2)))}) == 2
    assert Family(kind="ge", m=3) == FAMILY and hash(Family("ge", 3)) == hash(FAMILY)
    assert Family("ge", 4) != FAMILY and Family("mod", 3) != FAMILY
    assert CheckResult("golden", "nu=3, d=2", 13, 1, (3, 2), 0.5) == RESULT
    assert CheckResult("golden", "nu=3, d=2", 13) != RESULT
    assert CheckReport([RESULT], 1.5) == CheckReport([RESULT], 1.5) != CheckReport([RESULT])


def test_a_value_equals_no_tuple_and_no_other_class():
    assert ALPHA != (2, ((3, 2), (1, 1)))
    assert FAMILY != ("ge", 3)
    assert RESULT != ("golden", "nu=3, d=2", 13, 1, (3, 2), 0.5)
    assert ALPHA != FAMILY
    with pytest.raises(TypeError):
        iter(ALPHA)


def test_the_mutable_checks_do_not_hash():
    for value in (RESULT, CheckReport()):
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("value, name", [(ALPHA, "d"), (ALPHA, "parts"), (FAMILY, "m")])
def test_a_frozen_field_refuses_assignment_and_deletion(value, name):
    before = getattr(value, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, 5)
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    assert getattr(value, name) == before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", [ALPHA, FAMILY, RESULT, CheckReport([RESULT], 1.5)])
@pytest.mark.parametrize(
    "round_trip",
    [
        lambda v: pickle.loads(pickle.dumps(v)),
        lambda v: pickle.loads(pickle.dumps(v, 0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-0", "copy", "deepcopy"],
)
def test_round_trips(value, round_trip):
    back = round_trip(value)
    assert type(back) is type(value) and back == value and repr(back) == repr(value)


def test_round_trips_keep_hashes_and_stay_frozen():
    for value in (ALPHA, FAMILY):
        back = pickle.loads(pickle.dumps(value))
        assert hash(back) == hash(value)
        with pytest.raises(AttributeError):
            back.d = 1


def test_positional_match_patterns():
    match ALPHA:
        case ColoredComposition(d, parts):
            assert (d, parts) == (2, ((3, 2), (1, 1)))
    match FAMILY:
        case Family("ge", m):
            assert m == 3
    match RESULT:
        case CheckResult(name, grid, cells, failures, counterexample, elapsed):
            assert (name, grid, cells, failures, counterexample, elapsed) == (
                "golden", "nu=3, d=2", 13, 1, (3, 2), 0.5
            )
    match CheckReport([RESULT], 1.5):
        case CheckReport(checks, elapsed):
            assert (checks, elapsed) == ([RESULT], 1.5)


def test_check_result_keywords_and_defaults():
    result = CheckResult(name="a", grid="g", cells=3)
    assert (result.failures, result.counterexample, result.elapsed) == (0, None, 0.0)
    assert result.passed and result.cells_per_s == 0.0
    result.record([4, 5])
    result.record([6, 7])
    assert (result.failures, result.counterexample) == (2, (4, 5)) and not result.passed
    result.elapsed = 2.0
    assert result.cells_per_s == 1.5
    assert CheckResult("a", "g", 3, elapsed=2.0, failures=2, counterexample=(4, 5)) == result
    with pytest.raises(TypeError):
        CheckResult("a", "g")


def test_check_reports_do_not_share_a_list():
    first, second = CheckReport(), CheckReport()
    first.checks.append(RESULT)
    assert second.checks == [] and second.elapsed == 0.0
    assert CheckReport(elapsed=2.0).checks == []
    checks = [RESULT]
    assert CheckReport(checks).checks is checks
