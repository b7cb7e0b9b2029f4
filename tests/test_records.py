"""The immutable value records: construction by position and keyword with
defaults, the validation each one does, immutability, equality and hashing
by value, `repr` (pinned from the frozen dataclasses they replaced) and
`replace`."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from hyplp.bounds import BoundResult, DssCheck, Refinement
from hyplp.constructions import OrthogonalArray
from hyplp.hypergraph import Hypergraph, IntersectionNumbers
from hyplp.orthopoly import FPoly, Params
from hyplp.simplex import SimplexResult
from hyplp.spectra import Spectrum
from poly_oracles import TridiagonalArray

P = Params(3, 2)

# (class, every field in order as given, its stored value where normalized,
#  fields left to their defaults, repr)
RECORDS = [
    (Params, {"r": 3, "u": 2}, {}, {}, "Params(r=3, u=2)"),
    (FPoly, {"params": P, "coeffs": [1, 2]},
     {"coeffs": (Fraction(1), Fraction(2))}, {},
     "FPoly(params=Params(r=3, u=2), coeffs=(Fraction(1, 1), Fraction(2, 1)))"),
    (TridiagonalArray, {"params": P, "d": 2, "c": 1}, {"c": Fraction(1)}, {},
     "TridiagonalArray(params=Params(r=3, u=2), d=2, c=Fraction(1, 1))"),
    (OrthogonalArray,
     {"rows": 2, "cols": 4, "alphabet": 2, "cells": ((0, 0, 1, 1), (0, 1, 0, 1))}, {}, {},
     "OrthogonalArray(rows=2, cols=4, alphabet=2, cells=((0, 0, 1, 1), (0, 1, 0, 1)))"),
    (Spectrum, {"values": (2.0, -1.0), "clusters": ((2.0, 1), (-1.0, 1))}, {}, {},
     "Spectrum(values=(2.0, -1.0), clusters=((2.0, 1), (-1.0, 1)))"),
    (IntersectionNumbers,
     {"valid": True, "diameter": 1, "a": (0,), "b": (3,), "c": (1,)}, {}, {"witness": None},
     "IntersectionNumbers(valid=True, diameter=1, a=(0,), b=(3,), c=(1,), witness=None)"),
    (Refinement, {"name": "divisibility", "before": 25, "after": 24, "note": ""}, {}, {},
     "Refinement(name='divisibility', before=25, after=24, note='')"),
    (BoundResult,
     {"value": 10, "theorem": "LP_CERT", "params": {"r": 3}, "certificate": FPoly(P, (1,))},
     {}, {"refinements": (), "notes": ()},
     "BoundResult(value=10, theorem='LP_CERT', params={'r': 3}, certificate=FPoly("
     "params=Params(r=3, u=2), coeffs=(Fraction(1, 1),)), refinements=(), notes=())"),
    (DssCheck, {"passed": True, "slack": 0, "order_bound": 10, "params": {}}, {}, {},
     "DssCheck(passed=True, slack=0, order_bound=10, params={})"),
    (SimplexResult, {"x": (1.0,), "value": 1.0, "duals": (0.0,)}, {}, {"pivots": 0},
     "SimplexResult(x=(1.0,), value=1.0, duals=(0.0,), pivots=0)"),
    (Hypergraph, {"n": 3, "edges": [(1, 0), (2, 1)]}, {"edges": ((0, 1), (1, 2))}, {},
     "Hypergraph(n=3, m=2)"),
]
UNHASHABLE = (BoundResult, DssCheck)  # their `params` field holds a dict


@pytest.mark.parametrize("cls, given, stored, defaults, text", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_semantics(cls, given, stored, defaults, text):
    by_position = cls(*given.values())
    by_keyword = cls(**given)
    assert by_position == by_keyword
    for name, value in {**given, **stored, **defaults}.items():
        assert getattr(by_position, name) == value, name
    assert repr(by_position) == text
    assert not isinstance(by_position, tuple)
    assert by_position != tuple(given.values())
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(by_position)
    else:
        assert hash(by_position) == hash(by_keyword)
    name = next(iter(given))
    with pytest.raises(AttributeError):
        setattr(by_position, name, given[name])
    with pytest.raises(AttributeError):
        delattr(by_position, name)
    again = by_position.replace()
    assert again == by_position and again is not by_position
    assert copy.deepcopy(by_position) == pickle.loads(pickle.dumps(by_position)) == by_position


@pytest.mark.parametrize("make", [
    lambda: Params(3),
    lambda: Params(3, 2, 1),
    lambda: Params(3, v=2),
    lambda: Params(3, r=3),
    lambda: P.replace(v=2),
])
def test_records_bind_arguments_like_a_function(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make, error", [
    (lambda: Params(1, 2), ValueError),
    (lambda: Params(2.0, 2), TypeError),
    (lambda: FPoly(P, ()), ValueError),
    (lambda: TridiagonalArray(P, 0, 1), ValueError),
    (lambda: TridiagonalArray(P, 2, 0), ValueError),
    (lambda: BoundResult(math.inf, "X", {}), ValueError),
    (lambda: BoundResult(math.nan, "X", {}), ValueError),
    (lambda: OrthogonalArray(2, 4, 2, ((0, 0, 1, 1),)), ValueError),
    (lambda: OrthogonalArray(1, 4, 2, ((0, 0, 1, 1),)), ValueError),
    (lambda: OrthogonalArray(2, 2, 2, ((0, 1), (1, 2))), ValueError),
    (lambda: Hypergraph(0, []), ValueError),
    (lambda: Hypergraph(3, [(0,)]), ValueError),
    (lambda: P.replace(r=1), ValueError),
    (lambda: TridiagonalArray(P, 2, 1).replace(c=-1), ValueError),
    (lambda: BoundResult(1, "X", {}).replace(value=math.inf), ValueError),
])
def test_records_validate(make, error):
    with pytest.raises(error):
        make()


def test_replace_returns_a_new_normalized_record():
    assert P.replace(u=3) == Params(3, 3) and P == Params(3, 2)
    coeffs = FPoly(P, (1,)).replace(coeffs=[Fraction(1, 2), 3]).coeffs
    assert coeffs == (Fraction(1, 2), 3) and all(type(c) is Fraction for c in coeffs)
    assert Hypergraph(3, [(0, 1)]).replace(edges=[(2, 1)]).edges == ((1, 2),)
    b = BoundResult(10, "X", {"r": 3})
    cut = b.replace(value=9, refinements=(Refinement("cut", 10, 9, "census"),))
    assert (cut.value, cut.theorem, cut.params) == (9, "X", {"r": 3})
    assert b.value == 10 and b.refinements == ()


def test_records_of_different_classes_differ_and_defaults_are_not_shared():
    assert Refinement("a", 1, 2, "") != DssCheck("a", 1, 2, "")
