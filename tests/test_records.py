"""The records of the library: the value records immutable, equal and
hashed by their fields, and printed as before, also as the hot paths
build them, without their constructors; the orders immutable and
equal by their fields within one class; the mutable reports and the law
context never sharing a default container."""

import copy
import pickle

import pytest

from doctrines.completion import EX, UN, Completion, QuantElem, WitnessArrow
from doctrines.dialectica import DialObj
from doctrines.doctrine import powerset_doctrine
from doctrines.fincat import Arrow, SkelFinSet, compose, product_map
from doctrines.laws import LawContext
from doctrines.poset import LatticeReport, Poset, Preorder
from doctrines.principles import SkolemReport
from doctrines.report import PASS, LawReport, LawResult

QE = QuantElem(EX, 1, 1, 1)
WA = WitnessArrow(Arrow(1, 1, (0,)), "f")

# record type, its fields in order, one field given another value, repr
RECORDS = {
    "Arrow": (Arrow, {"dom": 2, "cod": 1, "table": (0, 0)}, {"table": (0, 1)}, "Arrow(2 -> 1, [0, 0])"),
    "QuantElem": (QuantElem, {"polarity": EX, "base": 1, "qobj": 1, "pred": 1}, {"pred": 2},
                  "QuantElem(EX, base=1, qobj=1, pred=1)"),
    "WitnessArrow": (WitnessArrow, {"arrow": Arrow(2, 1, (0, 0)), "direction": "f: AxB -> C"},
                     {"direction": "g: AxC -> B"},
                     "WitnessArrow(arrow=Arrow(2 -> 1, [0, 0]), direction='f: AxB -> C')"),
    "DialObj": (DialObj, {"src": 1, "tgt": 2, "pred": 3}, {"pred": 0}, "DialObj(src=1, tgt=2, pred=3)"),
    "LawResult": (LawResult, {"law": "x", "status": PASS, "checked": 3, "counterexample": None, "detail": ""},
                  {"checked": 4}, "LawResult(law='x', status='PASS', checked=3, counterexample=None, detail='')"),
    "SkolemReport": (SkolemReport, {"lhs": QE, "rhs": QE, "lhs_le_rhs": WA, "rhs_le_lhs": None},
                     {"rhs_le_lhs": WA},
                     f"SkolemReport(lhs={QE!r}, rhs={QE!r}, lhs_le_rhs={WA!r}, rhs_le_lhs=None)"),
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


def test_law_result_defaults():
    assert LawResult("x", PASS) == ("x", PASS, 0, None, "")


# order type, a valid matrix for it, repr
ORDERS = {
    "Preorder": (Preorder, ((0, 1), (0b11, 0b11)), "Preorder(labels=(0, 1), rows=(3, 3))"),
    "Poset": (Poset, ((0, 1), (0b11, 0b10)), "Poset(labels=(0, 1), rows=(3, 2))"),
}


@pytest.mark.parametrize("kind", ORDERS)
def test_orders_are_immutable(kind):
    make, (labels, rows), _ = ORDERS[kind]
    p = make(labels, rows)
    for name in ("labels", "rows", "extra"):
        with pytest.raises(AttributeError):
            setattr(p, name, ())
    for name in ("labels", "rows"):
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert (p.labels, p.rows) == (labels, rows)


@pytest.mark.parametrize("kind", ORDERS)
def test_orders_equal_by_fields_within_their_class(kind):
    make, (labels, rows), text = ORDERS[kind]
    p, q = make(labels, rows), make(tuple(labels), tuple(rows))
    assert p is not q and p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert repr(p) == text
    assert p != (labels, rows) and Preorder(labels, (0b11, 0b10)) != Poset(labels, (0b11, 0b10))
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(twin) is make and twin == p


def test_mutable_defaults_are_fresh():
    one, two = LawReport("s"), LawReport("s")
    assert (one.bounds, one.results) == ({}, [])
    assert one.bounds is not two.bounds and one.results is not two.results
    one, two = LatticeReport(True, True, 0, 1), LatticeReport(True, True, 0, 1)
    assert (one.meet, one.join, one.failures) == ({}, {}, [])
    assert one.meet is not two.meet and one.join is not two.join and one.failures is not two.failures


def test_default_contexts_share_nothing():
    # each default context builds its own doctrine, so its own category and
    # memos: a shared default would let one context's answers leak into another
    one, two = LawContext(), LawContext()
    assert one.doctrine is not two.doctrine
    assert one.doctrine.cat is not two.doctrine.cat and one.doctrine.cat._memo is not two.doctrine.cat._memo
    x = one.fiber(EX, 1)[0]
    assert one.le(x, x) and one._orders and not two._orders
    assert (two.max_card, two.qmax, two.seed, two.budget) == (2, 2, 2024, None)
    assert two.comp_ex.base is two.comp_un.base is two.doctrine


def _built_records():
    """Records as the hot paths build them, beside the record type each
    must be and the repr it must print."""
    cat = SkelFinSet()
    f, g = Arrow(2, 2, (1, 0)), Arrow(2, 3, (0, 2))
    comp = Completion(powerset_doctrine(), EX)
    x, y = comp.elem(1, 2, 0b01), comp.elem(1, 1, 0b1)
    return [
        (compose(g, f), Arrow, "Arrow(2 -> 3, [2, 0])"),
        (cat.compose(g, f), Arrow, "Arrow(2 -> 3, [2, 0])"),
        (cat.pair(f, g), Arrow, "Arrow(2 -> 6, [3, 2])"),
        (cat.copair(g, Arrow(1, 3, (1,))), Arrow, "Arrow(3 -> 3, [0, 2, 1])"),
        (product_map(cat, f, g), Arrow, "Arrow(4 -> 6, [3, 5, 0, 2])"),
        (list(cat.iter_hom(2, 2))[2], Arrow, "Arrow(2 -> 2, [1, 0])"),
        (next(cat.iter_hom(0, 2)), Arrow, "Arrow(0 -> 2, [])"),
        (x, QuantElem, "QuantElem(EX, base=1, qobj=2, pred=1)"),
        (Completion(powerset_doctrine(), UN).elem(2, 0, 0), QuantElem, "QuantElem(UN, base=2, qobj=0, pred=0)"),
        (comp.leq(x, y), WitnessArrow, "WitnessArrow(arrow=Arrow(2 -> 1, [0, 0]), direction='f: AxB -> C')"),
        (comp.leq(x, y).arrow, Arrow, "Arrow(2 -> 1, [0, 0])"),
    ]


@pytest.mark.parametrize("case", range(len(_built_records())))
def test_hot_path_records_are_the_records(case):
    # built by one C call on a field tuple, they must be the same records
    # the constructors make: same type, equality, hash and repr
    r, make, text = _built_records()[case]
    twin = make(*r)
    assert type(r) is make
    assert r == twin and hash(r) == hash(twin) and len({r, twin}) == 1
    assert r._fields == make._fields and r._asdict() == twin._asdict()
    assert repr(r) == repr(twin) == text
