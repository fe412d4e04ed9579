"""The record contract: bfmi's frozen records behave as the frozen dataclasses they replace.

Every record type is one ``_Record`` subclass.  The oracle for ``repr``
and ``hash`` is a frozen dataclass with the same name and fields, built
here; only the test suite imports ``dataclasses``.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest

from bfmi.boolfn import Class1, Class2, Class3, Class4, Dictator, Lex, TruthTable
from bfmi.channel import JointYZ, joint_yz
from bfmi.karamata import DescendingSeq, MajorizationCertificate, build_karamata_sequences
from bfmi.mi import MIResult
from bfmi.verify import ExhaustiveSummary, VerifyReport, verify_class

# every field a record type declares with a default, by type; the others are required
DEFAULTS = {
    Class1: {"witness_index": 0},
    Class2: {"witness_index": 0},
    Class3: {"fixed_prefix": 0},
    Class4: {"fixed_prefix": 0},
    Dictator: {"j": 1},
    MajorizationCertificate: {"first_violation": None, "totals_equal": False, "sub_inequalities": {}},
}


def samples():
    """One record of every type, each field set away from its default."""
    return [
        TruthTable(3, 0b1010_0101),
        Class1(5),
        Class2(3),
        Class3(2, 1),
        Class4(3, 2),
        Dictator(2),
        Lex(3),
        MajorizationCertificate(False, 3, True, {"totals": True}),
        build_karamata_sequences(3, Fraction(1, 4)),
        MIResult(0.5, 0.25, -0.25),
        verify_class(Class1(), [2], [Fraction(1, 4)])[0],
        ExhaustiveSummary(2, Fraction(1, 4), 16, 0.25, 0.5, 0.25, (TruthTable(2, 1),)),
        joint_yz(TruthTable(2, 0b0110), Fraction(1, 4)),
    ]


SAMPLES = samples()
IDS = [type(r).__name__ for r in SAMPLES]


def test_every_record_type_is_sampled():
    assert sorted(IDS) == sorted([
        "TruthTable", "Class1", "Class2", "Class3", "Class4", "Dictator", "Lex", "MajorizationCertificate",
        "KaramataInstance", "MIResult", "VerifyReport", "ExhaustiveSummary", "JointYZ"])


def view(record):
    """The record's fields, with the values that compare by identity (sequences, arrays) opened up."""
    return {k: v.runs if isinstance(v, DescendingSeq) else v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(record).items()}


def oracle(record):
    """The frozen dataclass the record type was, holding the same field values."""
    cls = type(record)
    fields = list(cls.__annotations__)
    twin = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True, eq=cls is not JointYZ)
    return twin(**vars(record))


@pytest.mark.parametrize("record", SAMPLES, ids=IDS)
class TestEveryRecord:
    def test_vars_are_the_annotated_fields_in_order(self, record):
        assert list(vars(record)) == list(type(record).__annotations__)

    def test_positional_and_keyword_construction(self, record):
        cls, values = type(record), vars(record)
        for rebuilt in (cls(*values.values()), cls(**values)):
            assert type(rebuilt) is cls and view(rebuilt) == view(record)

    def test_declared_defaults(self, record):
        cls = type(record)
        defaults = DEFAULTS.get(cls, {})
        required = {k: v for k, v in vars(record).items() if k not in defaults}
        assert vars(cls(**required)) == required | defaults
        assert vars(cls(*required.values())) == required | defaults

    def test_a_missing_extra_or_repeated_argument_is_a_type_error(self, record):
        cls, values = type(record), vars(record)
        first, *_ = values
        required = [k for k in values if k not in DEFAULTS.get(cls, {})]
        for name in required:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in values.items() if k != name})
        with pytest.raises(TypeError):
            cls(*values.values(), 0)
        with pytest.raises(TypeError):
            cls(**values, extra=0)
        with pytest.raises(TypeError):
            cls(values[first], **values)

    def test_assigning_or_deleting_raises_attribute_error(self, record):
        before = repr(record)
        for name in [*vars(record), "not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == before

    def test_repr_is_the_dataclass_text(self, record):
        assert repr(record) == repr(oracle(record))

    def test_equality_and_hash_go_by_class_and_fields(self, record):
        cls = type(record)
        twin = cls(**vars(record))
        if cls is JointYZ:  # equal only to itself
            assert record == record and twin != record
            assert hash(record) == object.__hash__(record)
            return
        assert twin == record and not twin != record
        assert record != oracle(record)  # same fields, another class
        try:
            expected = hash(oracle(record))
        except TypeError:  # a field holds a dict, as the dataclass's hash could not take either
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(twin) == expected

    def test_pickle_and_deepcopy_round_trip(self, record):
        for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(copied) is type(record) and view(copied) == view(record)
            if all(view(record)[k] is v for k, v in vars(record).items()):  # every field compares by value
                assert copied == record


def test_equality_across_classes_and_defaults():
    assert Class1(0) != Class2(0) and Class3(1) != Class4(1)
    assert Class3(2) == Class3(2, 0) and hash(Class3(2)) == hash(Class3(2, 0))
    assert Class3(2) != Class3(2, 1)
    assert {Class1(): 1, Class2(): 2}[Class1(0)] == 1
    j = joint_yz(TruthTable(2, 1), Fraction(1, 4))
    assert j == j and j != joint_yz(TruthTable(2, 1), Fraction(1, 4))


def test_reprs_are_pinned():
    assert repr(TruthTable(3, 165)) == "TruthTable(n=3, mask=165)"
    assert repr(Class3(2)) == "Class3(r=2, fixed_prefix=0)"
    assert repr(MIResult(0.5, 0.25, -0.25)) == "MIResult(mi_bits=0.5, bound_bits=0.25, margin_bits=-0.25)"
    assert repr(MajorizationCertificate(True, None, True, {"totals": True})) == (
        "MajorizationCertificate(holds=True, first_violation=None, totals_equal=True, "
        "sub_inequalities={'totals': True})")
    assert repr(MajorizationCertificate(False)) == (
        "MajorizationCertificate(holds=False, first_violation=None, totals_equal=False, sub_inequalities={})")


def test_each_certificate_gets_its_own_dict():
    a, b = MajorizationCertificate(holds=False), MajorizationCertificate(holds=False)
    assert a.sub_inequalities == b.sub_inequalities == {}
    assert a.sub_inequalities is not b.sub_inequalities
    a.sub_inequalities["totals"] = False
    assert b.sub_inequalities == {} and MajorizationCertificate(False).sub_inequalities == {}


def test_post_init_still_validates():
    with pytest.raises(ValueError, match="^n must be in 1..24, got 25$"):
        TruthTable(25, 0)
    with pytest.raises(ValueError, match="^mask does not fit in 2\\^n bits$"):
        TruthTable(1, 4)
    for first, totals in ((3, True), (None, False)):
        with pytest.raises(ValueError, match="^certificate cannot hold with a violation or unequal totals$"):
            MajorizationCertificate(True, first, totals)
    assert MajorizationCertificate(False, 3, False).first_violation == 3

