"""The contract every record type keeps: immutable, compared and hashed by
its fields, copied through its checks by replace, and picklable; the
dataclasses functions that code written for the old dataclass records calls
keep working on them."""

import dataclasses
import pickle

import pytest

from powres import (DecompositionResult, ExpSumProfile, FitResult,
                    InvariantViolation, KResult, PhaseTable, PrimeContext,
                    SweepConfig, SweepRecord, build_prime_context,
                    expsum_profile, fit_exponent, modmath,
                    orthogonality_decomposition, phase_table, run_case,
                    run_sweep)
from powres.record import Record

# One value of each type, built afresh by each call.
RECORDS = {
    PrimeContext: lambda: PrimeContext(13),
    KResult: lambda: KResult(13, 3, 2),
    PhaseTable: lambda: phase_table(build_prime_context(13)),
    ExpSumProfile: lambda: expsum_profile(
        phase_table(build_prime_context(13)), 3),
    DecompositionResult: lambda: orthogonality_decomposition(
        build_prime_context(13), 3, 8, 6),
    SweepConfig: lambda: SweepConfig(p_min=5, p_max=50),
    SweepRecord: lambda: run_case(13, 3, with_expsums=True),
    FitResult: lambda: fit_exponent(run_sweep(SweepConfig(p_min=5,
                                                          p_max=100))),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls and a is not b
    field = cls._fields[0]
    before = getattr(a, field)
    for change in (lambda: setattr(a, field, 0),
                   lambda: setattr(a, "extra", 0),
                   lambda: delattr(a, field)):
        with pytest.raises(AttributeError):
            change()
    assert getattr(a, field) == before and not hasattr(a, "extra")

    assert a == b and not a != b
    if cls is PhaseTable:  # its cos and sin arrays are unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    values = tuple(getattr(a, name) for name in cls._fields)
    assert a != values
    for other, make in RECORDS.items():
        if other is not cls:
            assert a != make() and make() != a
    assert repr(a) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(cls._fields, values)) + ")"

    assert a.replace() == a
    restored = pickle.loads(pickle.dumps(a))
    assert type(restored) is cls and restored == a


def test_equal_fields_of_another_type_do_not_compare_equal():
    class Triple(Record):
        def __init__(self, p, n, k):
            self.__dict__.update(p=p, n=n, k=k)
    assert Triple._fields == KResult._fields
    assert Triple(13, 3, 2) != KResult(13, 3, 2)
    assert KResult(13, 3, 2) != Triple(13, 3, 2)
    assert KResult(13, 3, 2) != SweepRecord(13, 3, 2)


def test_replace_reruns_the_checks_of_construction():
    assert KResult(13, 3, 2).replace(k=3) == KResult(13, 3, 3)
    with pytest.raises(InvariantViolation, match="bound violation"):
        KResult(13, 3, 2).replace(k=0)
    config = SweepConfig(p_min=5, p_max=50)
    assert config.replace(workers=2) == SweepConfig(5, 50, workers=2)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        config.replace(workers=0)
    with pytest.raises(TypeError):
        config.replace(no_such_field=1)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_dataclasses_functions_read_the_fields(cls):
    a = RECORDS[cls]()
    assert dataclasses.is_dataclass(a)
    assert tuple(f.name for f in dataclasses.fields(a)) == cls._fields
    assert list(dataclasses.asdict(a)) == list(cls._fields)
    copy = dataclasses.replace(a)
    assert copy is not a and copy == a


def test_dataclasses_replace_reruns_the_checks_of_construction():
    # perfbench/selftest.py plants a wrong k this way
    assert dataclasses.replace(KResult(13, 3, 2), k=3) == KResult(13, 3, 3)
    with pytest.raises(InvariantViolation, match="bound violation"):
        dataclasses.replace(KResult(13, 3, 2), k=0)
    with pytest.raises(ValueError, match="workers must be >= 1"):
        dataclasses.replace(SweepConfig(p_min=5, p_max=50), workers=0)
    record = run_case(13, 3)
    assert dataclasses.replace(record, k=3).k == 3


def test_a_pickled_context_keeps_what_was_derived(monkeypatch):
    ctx = PrimeContext(13)
    assert (ctx.factors, ctx.g) == (((2, 2), (3, 1)), 2)
    restored = pickle.loads(pickle.dumps(ctx))

    def refuse(m):
        raise AssertionError(f"factored {m} again")
    monkeypatch.setattr(modmath, "factorize", refuse)
    assert restored.__dict__ == {"p": 13, "factors": ((2, 2), (3, 1)),
                                 "g": 2}
    assert (restored.factors, restored.g) == (ctx.factors, ctx.g)
    assert restored == ctx
