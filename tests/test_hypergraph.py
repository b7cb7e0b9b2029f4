"""Data model, text format, girth, non-backtracking walk counts, duality,
and distance-regularity."""

import math

import pytest

from hyplp.constructions import named_fixture
from hyplp.hypergraph import (Hypergraph, HypergraphFormatError,
                              NotRegularUniformError, adjacency,
                              adjacency_rows, check_regular_uniform, degrees, diameter,
                              distance_matrix, distance_regularity_check,
                              dual, girth, girth_via_trace, is_connected,
                              nbw_count_matrix)
from walk_oracles import incidence_graph, nbw_count_oracle

PRISM = Hypergraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                       (0, 3), (1, 4), (2, 5)])


def test_constructor_normalizes_and_validates():
    h = Hypergraph(4, [(2, 0), (1, 3)])
    assert h.edges == ((0, 2), (1, 3))
    assert (h.n, h.m) == (4, 2)
    with pytest.raises(ValueError):
        Hypergraph(3, [(0,)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Hypergraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Hypergraph(0, [])


def test_immutable_and_hashable():
    h = Hypergraph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        h.n = 5
    assert h == Hypergraph(2, [(1, 0)])
    assert hash(h) == hash(Hypergraph(2, [(0, 1)]))


def test_from_text_errors_carry_line_numbers():
    with pytest.raises(HypergraphFormatError) as e:
        Hypergraph.from_text("")
    assert e.value.line == 1
    with pytest.raises(HypergraphFormatError) as e:
        Hypergraph.from_text("3\n0 1\n")
    assert e.value.line == 1
    with pytest.raises(HypergraphFormatError) as e:
        Hypergraph.from_text("3 1\n0 x\n")
    assert e.value.line == 2
    with pytest.raises(HypergraphFormatError) as e:
        Hypergraph.from_text("3 1\n0 1\n1 2\n")
    assert e.value.line == 3
    with pytest.raises(HypergraphFormatError):
        Hypergraph.from_text("3 2\n0 1\n")  # fewer edges than declared


def test_text_roundtrip_with_comments():
    text = "# triangle plus pendant edge\n4 4\n0 1\n1 2\n\n2 0  # closing\n2 3\n"
    h = Hypergraph.from_text(text)
    assert h.n == 4 and h.m == 4
    assert Hypergraph.from_text(h.to_text()) == h


def test_degrees_and_regularity_check():
    h = named_fixture("petersen")
    assert degrees(h) == [3] * 10
    assert check_regular_uniform(h) == (3, 2)
    with pytest.raises(NotRegularUniformError) as e:
        check_regular_uniform(Hypergraph(3, [(0, 1), (0, 1, 2)]))
    assert e.value.edge == 1
    with pytest.raises(NotRegularUniformError) as e:
        check_regular_uniform(Hypergraph(3, [(0, 1), (0, 2)]))
    assert e.value.vertex == 1
    with pytest.raises(NotRegularUniformError):
        check_regular_uniform(Hypergraph(1, []))


def test_adjacency_counts_multiplicity():
    h = Hypergraph(3, [(0, 1), (0, 1), (1, 2)])
    assert adjacency(h) == [[0, 2, 0], [2, 0, 1], [0, 1, 0]]


def test_adjacency_rows_are_the_nonzero_entries(corpus):
    for h in corpus + [Hypergraph(2, [(0, 1), (0, 1)])]:
        want = [[0] * h.n for _ in range(h.n)]
        for e in h.edges:
            for x in e:
                for y in e:
                    if x != y:
                        want[x][y] += 1
        assert adjacency_rows(h) == [[(y, w) for y, w in enumerate(row) if w]
                                     for row in want]
        assert adjacency(h) == want


def test_incidence_graph_shape():
    h = Hypergraph(3, [(0, 1, 2)])
    b = incidence_graph(h)
    assert len(b) == 4
    assert [row[3] for row in b] == [1, 1, 1, 0]


def test_dual_swaps_parameters_and_involutes():
    for name in ("petersen", "fano", "oa33", "k33"):
        h = named_fixture(name)
        r, u = check_regular_uniform(h)
        hd = dual(h)
        assert check_regular_uniform(hd) == (u, r)
        assert (hd.n, hd.m) == (h.m, h.n)
        assert dual(hd) == h


def test_dual_needs_min_degree_two():
    with pytest.raises(ValueError):
        dual(Hypergraph(3, [(0, 1), (1, 2)]))


def test_distance_matrix_and_diameter():
    h = named_fixture("petersen")
    dist, connected = distance_matrix(h)
    assert connected
    assert max(max(row) for row in dist) == 2
    assert diameter(h) == 2
    two = Hypergraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
    dist2, conn2 = distance_matrix(two)
    assert not conn2 and dist2[0][2] == -1
    assert not is_connected(two)
    with pytest.raises(ValueError):
        diameter(two)


def test_girth_fixtures():
    assert girth(named_fixture("petersen")) == 5
    assert girth(named_fixture("k4")) == 3
    assert girth(named_fixture("k33")) == 4
    assert girth(named_fixture("heawood")) == 6
    assert girth(named_fixture("fano")) == 3
    assert girth(named_fixture("oa33")) == 3
    assert girth(named_fixture("k33-minus")) == 6
    assert girth(Hypergraph(2, [(0, 1), (0, 1)])) == 2
    assert girth(Hypergraph(4, [(0, 1, 2), (0, 1, 3)])) == 2  # edges sharing a pair
    assert girth(Hypergraph(3, [(0, 1), (1, 2)])) == math.inf
    assert girth(Hypergraph(3, [(0, 1, 2)])) == math.inf


def girth_by_edge_deletion(h):
    """Independent 2-uniform oracle: min over edges e of 1 + dist(x, y) in
    the graph without e."""
    best = math.inf
    for skip, (x, y) in enumerate(h.edges):
        nbrs = [[] for _ in range(h.n)]
        for j, (a, b) in enumerate(h.edges):
            if j != skip:
                nbrs[a].append(b)
                nbrs[b].append(a)
        seen = {x: 0}
        frontier = [x]
        while frontier and y not in seen:
            nxt = []
            for v in frontier:
                for w in nbrs[v]:
                    if w not in seen:
                        seen[w] = seen[v] + 1
                        nxt.append(w)
            frontier = nxt
        if y in seen:
            best = min(best, 1 + seen[y])
    return best


def test_girth_matches_edge_deletion_oracle(corpus):
    checked = 0
    for h in corpus:
        r, u = check_regular_uniform(h)
        if u == 2:
            assert girth(h) == girth_by_edge_deletion(h), (r, u, h.n)
            checked += 1
    assert checked >= 10


def test_nbw_oracle_small_cases():
    h = named_fixture("petersen")
    # girth 5: no returns before length 5, then the cycles come back
    assert nbw_count_oracle(h, 0, 0, 0) == 1
    assert nbw_count_oracle(h, 0, 0, 1) == 0
    assert nbw_count_oracle(h, 0, 0, 2) == 0
    # six pentagons through each vertex, each walked in two directions
    assert nbw_count_oracle(h, 0, 0, 5) == 12
    assert nbw_count_oracle(h, 0, 1, 1) == 1
    with pytest.raises(ValueError):
        nbw_count_oracle(h, 0, 0, 9)
    with pytest.raises(RuntimeError):
        nbw_count_oracle(h, 0, 0, 6, cap=10)


def test_nbw_matrix_matches_oracle_on_fixtures():
    for name, imax in (("petersen", 6), ("fano", 4), ("k33", 5), ("k4", 5)):
        h = named_fixture(name)
        for i in range(imax + 1):
            want = nbw_count_matrix(h, i)
            for x in range(h.n):
                for y in range(h.n):
                    assert want[x][y] == nbw_count_oracle(h, x, y, i), (name, i, x, y)


def test_nbw_row_sums_count_all_walks(corpus):
    # total non-backtracking walks of length i from any vertex is k q^(i-1)
    for h in corpus[:8]:
        r, u = check_regular_uniform(h)
        k, q = r * (u - 1), (r - 1) * (u - 1)
        for i in range(1, 4):
            mat = nbw_count_matrix(h, i)
            for row in mat:
                assert sum(row) == k * q ** (i - 1), (r, u, i)


def test_nbw_matrix_rejects_bad_length_zero_one():
    h = named_fixture("k4")
    with pytest.raises(ValueError):
        nbw_count_matrix(h, -1)
    assert nbw_count_matrix(h, 0) == [[1 if i == j else 0 for j in range(4)]
                                      for i in range(4)]
    assert nbw_count_matrix(h, 1) == adjacency(h)


def test_girth_via_trace_fixtures():
    for name in ("petersen", "k4", "k33", "heawood", "fano", "oa33",
                 "k33-minus", "oa45-minus"):
        h = named_fixture(name)
        assert girth_via_trace(h) == girth(h), name
    assert girth_via_trace(Hypergraph(2, [(0, 1), (0, 1)])) == 2
    # long cycle: girth above the trace cutoff reports None
    c26 = Hypergraph(26, [(i, (i + 1) % 26) for i in range(26)])
    assert girth(c26) == 26
    assert girth_via_trace(c26, max_i=12) is None


def test_distance_regularity_petersen():
    rep = distance_regularity_check(named_fixture("petersen"))
    assert rep.valid
    assert rep.diameter == 2
    assert rep.b == (3, 2)
    assert rep.c == (1, 1)
    assert rep.a == (0, 0, 2)
    assert rep.witness is None


def test_distance_regularity_crown():
    rep = distance_regularity_check(named_fixture("k44-minus"))
    assert rep.valid
    assert (rep.b, rep.c) == ((3, 2, 1), (1, 2, 3))


def test_distance_regularity_rejects_prism():
    rep = distance_regularity_check(PRISM)
    assert not rep.valid
    assert rep.witness is not None
    x, y = rep.witness
    assert 0 <= x < 6 and 0 <= y < 6


def test_distance_regularity_needs_connected():
    with pytest.raises(ValueError):
        distance_regularity_check(Hypergraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)]))
