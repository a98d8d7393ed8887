"""Value semantics of the package's small records: construction,
equality, hashing, repr, immutability and copying."""

import copy
import pickle

import pytest

from klpoly.bruhat import RankDifferenceTable
from klpoly.families import FamilySpec, LemmaSides
from klpoly.polynomial import ONE, IntPolynomial
from klpoly.verify import Failure, VerificationReport

ONE_PLUS_Q = IntPolynomial((1, 1))

# (record, the same record built by keyword, a record differing in one
# field, its field names, its repr).  Every one of these records is
# frozen.
FROZEN = [
    (
        RankDifferenceTable((2, 1, 3), (3, 2, 1)),
        RankDifferenceTable(x=(2, 1, 3), w=(3, 2, 1)),
        RankDifferenceTable((1, 2, 3), (3, 2, 1)),
        ("x", "w"),
        "RankDifferenceTable(x=(2, 1, 3), w=(3, 2, 1))",
    ),
    (
        FamilySpec("w", 2, 3),
        FamilySpec(kind="w", k=2, m=3),
        FamilySpec("w", 3, 2),
        ("kind", "k", "m"),
        "FamilySpec(kind='w', k=2, m=3)",
    ),
    (
        LemmaSides(ONE_PLUS_Q, ONE),
        LemmaSides(lhs=ONE_PLUS_Q, rhs=ONE),
        LemmaSides(ONE, ONE_PLUS_Q),
        ("lhs", "rhs"),
        "LemmaSides(lhs=IntPolynomial([1, 1]), rhs=IntPolynomial([1]))",
    ),
    (
        Failure("k=1", "1", "1 + q"),
        Failure(case="k=1", expected="1", actual="1 + q"),
        Failure("k=2", "1", "1 + q"),
        ("case", "expected", "actual"),
        "Failure(case='k=1', expected='1', actual='1 + q')",
    ),
]
each_frozen = pytest.mark.parametrize(
    "record, by_keyword, other, names, text",
    FROZEN,
    ids=[type(record).__name__ for record, *_ in FROZEN],
)


def _report(**changes):
    fields = dict(
        check="demo",
        parameter_range="none",
        cases=2,
        failures=[Failure("k=1", "1", "1 + q")],
        seed=4,
        millis=5,
    )
    fields.update(changes)
    return VerificationReport(**fields)


@each_frozen
def test_frozen_record_compares_and_hashes_by_fields(
    record, by_keyword, other, names, text
):
    assert record == by_keyword
    assert hash(record) == hash(by_keyword)
    assert record != other
    assert not record != by_keyword
    assert len({record, by_keyword, other}) == 2
    # A record is not the tuple of its fields.
    assert record != tuple(getattr(record, name) for name in names)


@each_frozen
def test_frozen_record_repr_names_every_field(
    record, by_keyword, other, names, text
):
    assert repr(record) == text
    assert repr(by_keyword) == text


@each_frozen
def test_assigning_a_field_of_a_frozen_record_raises(
    record, by_keyword, other, names, text
):
    before = [getattr(record, name) for name in names]
    for name, value in zip(names, before):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert [getattr(record, name) for name in names] == before
    assert record == by_keyword


@each_frozen
def test_frozen_record_survives_copy_and_pickle(
    record, by_keyword, other, names, text
):
    for twin in (
        copy.copy(record),
        copy.deepcopy(record),
        pickle.loads(pickle.dumps(record)),
    ):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == text


def test_rank_difference_table_validates_and_normalises():
    table = RankDifferenceTable(x=[2, 1, 3], w=[3, 2, 1])
    assert table.x == (2, 1, 3) and table.w == (3, 2, 1)
    assert table == RankDifferenceTable((2, 1, 3), (3, 2, 1))
    with pytest.raises(ValueError):
        RankDifferenceTable((1, 1, 2), (3, 2, 1))
    with pytest.raises(ValueError):
        RankDifferenceTable(x=(1, 2), w=(2, 1, 3))


def test_family_spec_keeps_its_validation_and_size():
    assert FamilySpec(kind="y", k=2, m=3).size == 7
    with pytest.raises(ValueError):
        FamilySpec(kind="z", k=1, m=1)
    with pytest.raises(ValueError):
        FamilySpec("x", 1, 0)


def test_lemma_sides_equal_reads_the_fields():
    assert LemmaSides(ONE, ONE).equal
    assert not LemmaSides(lhs=ONE, rhs=ONE_PLUS_Q).equal


def test_report_construction_defaults_and_equality():
    report = VerificationReport("demo", "none", 2, [])
    assert report.seed is None and report.millis == 0
    assert report == VerificationReport(
        check="demo", parameter_range="none", cases=2, failures=[]
    )
    full = VerificationReport(
        "demo", "none", 2, [Failure("k=1", "1", "1 + q")], 4, 5
    )
    assert full == _report()
    for change in (
        {"check": "other"},
        {"parameter_range": "all"},
        {"cases": 3},
        {"failures": []},
        {"seed": None},
        {"millis": 6},
    ):
        assert _report(**change) != _report()
    assert _report() != (
        "demo", "none", 2, [Failure("k=1", "1", "1 + q")], 4, 5
    )


def test_report_repr_names_every_field():
    assert repr(_report()) == (
        "VerificationReport(check='demo', parameter_range='none', cases=2, "
        "failures=[Failure(case='k=1', expected='1', actual='1 + q')], "
        "seed=4, millis=5)"
    )


def test_report_is_mutable_and_unhashable():
    report = _report()
    report.millis = 9
    report.failures = []
    assert report.millis == 9 and report.passed
    assert report == _report(millis=9, failures=[])
    with pytest.raises(TypeError):
        hash(report)


def test_report_survives_copy_and_pickle():
    report = _report()
    for twin in (copy.deepcopy(report), pickle.loads(pickle.dumps(report))):
        assert type(twin) is VerificationReport
        assert twin == report
        assert twin.failures is not report.failures
