"""The value records on the decision path: immutable, equal and hashed by
their fields, and printed as before."""

import pytest

from doctrines.completion import EX, QuantElem, WitnessArrow
from doctrines.dialectica import DialObj
from doctrines.fincat import Arrow

# record type, its fields in order, one field given another value, repr
RECORDS = {
    "Arrow": (Arrow, {"dom": 2, "cod": 1, "table": (0, 0)}, {"table": (0, 1)}, "Arrow(2 -> 1, [0, 0])"),
    "QuantElem": (QuantElem, {"polarity": EX, "base": 1, "qobj": 1, "pred": 1}, {"pred": 2},
                  "QuantElem(EX, base=1, qobj=1, pred=1)"),
    "WitnessArrow": (WitnessArrow, {"arrow": Arrow(2, 1, (0, 0)), "direction": "f: AxB -> C"},
                     {"direction": "g: AxC -> B"},
                     "WitnessArrow(arrow=Arrow(2 -> 1, [0, 0]), direction='f: AxB -> C')"),
    "DialObj": (DialObj, {"src": 1, "tgt": 2, "pred": 3}, {"pred": 0}, "DialObj(src=1, tgt=2, pred=3)"),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_fields_cannot_be_assigned(kind):
    make, fields, _, _ = RECORDS[kind]
    x = make(*fields.values())
    for name, value in fields.items():
        assert getattr(x, name) == value
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    with pytest.raises(AttributeError):
        x.extra = 0


@pytest.mark.parametrize("kind", RECORDS)
def test_equal_fields_equal_values(kind):
    make, fields, changed, _ = RECORDS[kind]
    x, y = make(*fields.values()), make(**fields)
    assert x is not y and x == y and hash(x) == hash(y)
    assert len({x, y}) == 1
    assert make(**dict(fields, **changed)) != x


@pytest.mark.parametrize("kind", RECORDS)
def test_repr_is_pinned(kind):
    make, fields, _, text = RECORDS[kind]
    assert repr(make(*fields.values())) == text
