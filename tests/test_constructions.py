"""Orthogonal arrays, cyclic Latin squares, and the named fixture catalog."""

import math

import pytest

from hyplp.constructions import (_CATALOG, OAValidationError, OrthogonalArray,
                                 fixture_names,
                                 hypergraph_from_oa, mols_cyclic, named_fixture,
                                 oa_from_mols, oa_minus_transversal,
                                 oa_validate)
from hyplp.hypergraph import check_regular_uniform, girth
from hyplp.spectra import Analysis


def test_oa_shape_validation():
    with pytest.raises(ValueError):
        OrthogonalArray(1, 4, 2, ((0, 0, 1, 1),))
    with pytest.raises(ValueError):
        OrthogonalArray(2, 4, 2, ((0, 0, 1, 1),))
    with pytest.raises(ValueError):
        OrthogonalArray(2, 4, 2, ((0, 0, 1, 1), (0, 1, 0, 2)))


def test_oa_text_roundtrip():
    oa = oa_from_mols(mols_cyclic(3, 1))
    again = OrthogonalArray.from_text(oa.to_text())
    assert again == oa
    with pytest.raises(ValueError):
        OrthogonalArray.from_text("")
    with pytest.raises(ValueError):
        OrthogonalArray.from_text("2 4\n0 0 1 1\n0 1 0 1\n")
    with pytest.raises(ValueError):
        OrthogonalArray.from_text("2 4 2\n0 0 1\n0 1 0 1\n")


def test_oa_validate_witness_wording():
    bad = OrthogonalArray(2, 4, 2, ((0, 0, 1, 1), (0, 0, 1, 1)))
    ok, witness = oa_validate(bad)
    assert not ok
    assert witness == "rows (0, 1): symbol pair (0, 0) repeats at columns 0 and 1"
    short = OrthogonalArray(2, 2, 2, ((0, 1), (1, 0)))
    ok, witness = oa_validate(short)
    assert not ok
    assert "column count 2 != alphabet^2 = 4" in witness


def test_oa_validate_accepts_good_arrays():
    for p in (2, 3, 5, 7):
        oa = oa_from_mols(mols_cyclic(p, p - 1))
        assert oa.rows == p + 1 and oa.cols == p * p
        assert oa_validate(oa) == (True, None)


def test_mols_cyclic_rejects_bad_orders():
    with pytest.raises(ValueError):
        mols_cyclic(4, 1)
    with pytest.raises(ValueError):
        mols_cyclic(6, 2)
    with pytest.raises(ValueError):
        mols_cyclic(5, 5)
    with pytest.raises(ValueError):
        mols_cyclic(5, 0)


def test_mols_cyclic_squares_are_latin_and_orthogonal():
    for p in (3, 5, 7, 11, 13):
        squares = mols_cyclic(p, p - 1)
        for sq in squares:
            for line in list(sq) + list(zip(*sq)):
                assert sorted(line) == list(range(p))
        for a in range(len(squares)):
            for b in range(a + 1, len(squares)):
                pairs = {(squares[a][i][j], squares[b][i][j])
                         for i in range(p) for j in range(p)}
                assert len(pairs) == p * p


def test_oa_from_mols_rejects_mixed_orders():
    with pytest.raises(ValueError):
        oa_from_mols([])
    with pytest.raises(ValueError):
        oa_from_mols([mols_cyclic(3, 1)[0], mols_cyclic(5, 1)[0]])


def test_hypergraph_from_oa_parameters():
    oa = oa_from_mols(mols_cyclic(5, 2))
    h = hypergraph_from_oa(oa)
    assert h.n == 20 and h.m == 25
    assert check_regular_uniform(h) == (5, 4)
    assert Analysis(h).tau2 == pytest.approx(0.0, abs=1e-8)
    assert girth(h) == 3 and Analysis(h).diameter() == 2


def test_hypergraph_from_oa_requires_valid_array():
    bad = OrthogonalArray(2, 4, 2, ((0, 0, 1, 1), (0, 0, 1, 1)))
    with pytest.raises(OAValidationError):
        hypergraph_from_oa(bad)


def test_oa_minus_transversal_parameters():
    oa = oa_from_mols(mols_cyclic(5, 2))
    for symbol in range(5):
        h = oa_minus_transversal(oa, symbol)
        assert h.n == 15 and h.m == 20
        assert check_regular_uniform(h) == (4, 3)
        assert Analysis(h).tau2 == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        oa_minus_transversal(oa, 5)
    coords = OrthogonalArray(2, 4, 2, ((0, 0, 1, 1), (0, 1, 0, 1)))
    with pytest.raises(ValueError):
        oa_minus_transversal(coords, 0)


def test_oa_minus_transversal_three_rows_gives_graph():
    h = oa_minus_transversal(oa_from_mols(mols_cyclic(3, 1)), 1)
    assert check_regular_uniform(h) == (2, 2)
    assert h.n == 6 and h.m == 6
    assert Analysis(h).tau2 == pytest.approx(1.0, abs=1e-8)


def test_fixture_names_catalog():
    names = fixture_names()
    assert names == sorted(names)
    assert len(names) == 15
    for must in ("petersen", "fano", "heawood", "oa33", "oa45-minus", "k4"):
        assert must in names


def test_every_fixture_builds_and_matches_metadata():
    for name in fixture_names():
        h = named_fixture(name)  # named_fixture only builds; the row is checked here
        _, r, u, tau2, g, diam, order = _CATALOG[name]
        assert h.n == order
        assert check_regular_uniform(h) == (r, u)
        assert girth(h) == g
        assert Analysis(h).diameter() == diam
        assert Analysis(h).tau2 == pytest.approx(tau2, abs=1e-8)


def test_unknown_fixture_name():
    with pytest.raises(KeyError) as e:
        named_fixture("does-not-exist")
    assert "known:" in str(e.value)
