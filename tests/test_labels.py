"""Semantics of the label types: immutable tuples of their fields that
hash as those tuples and are equal only to labels of their own type."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafermions import coset as co
from parafermions import fullcft as fc
from parafermions import smatrix as sm
from parafermions.errors import InvalidRankError, LabelError

TYPES = (sm.CosetWeight, fc.FullSector, co.LmLabel)
raw = st.integers(-200, 200)


def canonical(cls, a, b, k):
    """The fields a label of cls built from (a, b, k) holds, or the error
    type and message it raises, worked out without the class."""
    if cls is co.LmLabel:
        return (a, b, k), None
    if k < 1:
        return None, (InvalidRankError, f"need k >= 1, got {k}")
    if cls is sm.CosetWeight:
        return (min(a % k, b % k), max(a % k, b % k), k), None
    l, rho = a % (k + 2), b % k
    if (l - rho) % k > rho:
        return None, (LabelError, f"(l, rho) = ({l}, {rho}) violates the Z_k "
                                  f"pairing rule at k={k}")
    return (l, rho, k), None


def texts(label):
    a, b, k = label
    names = {sm.CosetWeight: ("mu", "nu"), fc.FullSector: ("l", "rho"),
             co.LmLabel: ("l", "m")}[type(label)]
    rep = (f"{type(label).__name__}({names[0]}={a}, {names[1]}={b}, "
           f"k={k})")
    return rep, rep if type(label) is co.LmLabel else f"{a},{b}"


@settings(max_examples=150, deadline=None)
@given(cls=st.sampled_from(TYPES), k=st.integers(-3, 20), a=raw, b=raw)
def test_construction_canonicalizes_or_raises_as_before(cls, k, a, b):
    fields, error = canonical(cls, a, b, k)
    if error:
        with pytest.raises(error[0]) as info:
            cls(a, b, k)
        assert str(info.value) == error[1]
        return
    label = cls(a, b, k)
    assert type(label) is cls and tuple(label) == fields
    assert tuple(getattr(label, f) for f in cls._fields) == fields
    assert cls(*label) == label and cls(*label) is not label
    assert np.array([label, label]).tolist() == [list(fields)] * 2


@settings(max_examples=150, deadline=None)
@given(cls=st.sampled_from(TYPES), k=st.integers(1, 20), a=raw, b=raw)
def test_label_semantics(cls, k, a, b):
    fields, error = canonical(cls, a, b, k)
    if error:
        return
    label = cls(a, b, k)
    assert type(label).__hash__ is tuple.__hash__  # no Python-level hash
    assert hash(label) == hash(tuple(label)) == hash(fields)

    others = [fields, list(fields), tuple.__new__(tuple, fields)]
    others += [tuple.__new__(t, fields) for t in TYPES if t is not cls]
    for other in others:
        assert not label == other and not other == label
        assert label != other and other != label
    same = cls(*fields)
    assert label == same and same == label
    assert not label != same and not same != label
    assert len({label, same, fields}) == 2

    copies = [copy.copy(label), copy.deepcopy(label)]
    copies += [pickle.loads(pickle.dumps(label, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == label and tuple(twin) == fields

    assert (repr(label), str(label)) == texts(label)

    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(label, name, 0)
    with pytest.raises(AttributeError):
        label.extra = 0
    assert tuple(label) == fields


@pytest.mark.parametrize("cls", [sm.CosetWeight, fc.FullSector])
@pytest.mark.parametrize("fields", [(0.5, 1, 3), (1.0, 1, 3), ("1", 1, 3),
                                    (1, 1, 3.0), (1, None, 3)])
def test_non_integer_fields_raise(cls, fields):
    with pytest.raises(LabelError, match="not integral"):
        cls(*fields)


@pytest.mark.parametrize("cls", [sm.CosetWeight, fc.FullSector])
def test_numpy_integers_become_ints(cls):
    label = cls(*np.array([1, 4, 3]))
    assert label == cls(1, 4, 3) and str(label) == "1,1"
    assert [type(x) for x in label] == [int] * 3


def test_exact_texts():
    assert repr(sm.CosetWeight(0, 1, 3)) == "CosetWeight(mu=0, nu=1, k=3)"
    assert str(sm.CosetWeight(4, 0, 3)) == "0,1"
    assert repr(fc.FullSector(1, 1, 3)) == "FullSector(l=1, rho=1, k=3)"
    assert str(fc.FullSector(6, 4, 3)) == "1,1"
    assert str(co.LmLabel(1, 3, 3)) == repr(co.LmLabel(1, 3, 3)) == \
        "LmLabel(l=1, m=3, k=3)"
    assert co.LmLabel(l=1, m=3, k=3) == co.LmLabel(1, 3, 3)


def test_one_base_class():
    assert all(issubclass(t, sm.Label) and t.__slots__ == () for t in TYPES)
    assert not any(hasattr(t, "__dataclass_fields__") for t in TYPES)
