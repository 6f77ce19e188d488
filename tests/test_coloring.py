"""Equitable colorings: the constructive method and the exact decider."""

import itertools
import random

import pytest

from turanpack import (EquitableColoring, Graph, PreconditionError, VertexSet,
                       complete_graph, cross_edge_count, disjoint_union, empty_graph,
                       equitable_coloring, equitable_coloring_exact, from_edge_list,
                       union_of_cliques, verify_equitable_coloring)
from turanpack.packing import biclique_violation

C5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
C6 = from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
K33 = from_edge_list(6, [(u, v) for u in range(3) for v in range(3, 6)])


def class_sizes(coloring):
    return sorted((len(vs) for vs in coloring.classes), reverse=True)


def test_cycle_three_classes():
    coloring = equitable_coloring(C5, 3)
    assert class_sizes(coloring) == [2, 2, 1]
    assert verify_equitable_coloring(C5, coloring).ok


def test_bipartite_four_classes():
    coloring = equitable_coloring(K33, 4)
    assert class_sizes(coloring) == [2, 2, 1, 1]
    assert verify_equitable_coloring(K33, coloring).ok


def test_degree_precondition():
    with pytest.raises(PreconditionError, match="max degree"):
        equitable_coloring(complete_graph(4), 3)
    with pytest.raises(PreconditionError):
        equitable_coloring(C5, 0)


def test_all_five_vertex_graphs():
    # every graph on 5 vertices gets an equitable (max degree + 1)-coloring
    pairs = list(itertools.combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = from_edge_list(5, edges)
        r = g.max_degree() + 1
        coloring = equitable_coloring(g, r)
        assert verify_equitable_coloring(g, coloring).ok
        sizes = class_sizes(coloring)
        assert sizes[0] - sizes[-1] <= 1


def test_exact_cycle_two_classes():
    # C5 is not 2-colorable at all
    result = equitable_coloring_exact(C5, 2)
    assert result.coloring is None
    assert result.certificate is None  # even r: no certificate applies


def test_exact_balanced_biclique_blocks_odd_classes():
    # K33 has ordinary 3-colorings but no equitable one; the blocking
    # structure is the spanning K_(3,3) itself
    result = equitable_coloring_exact(K33, 3)
    assert result.coloring is None
    assert result.certificate is not None
    left, right = result.certificate
    assert len(left) == len(right) == 3
    assert left.mask & right.mask == 0
    assert cross_edge_count(K33, left, right) == 9
    assert K33.is_independent(left.mask) and K33.is_independent(right.mask)


def test_exact_even_cycle_three_classes():
    result = equitable_coloring_exact(C6, 3)
    assert result.coloring is not None
    assert class_sizes(result.coloring) == [2, 2, 2]
    assert verify_equitable_coloring(C6, result.coloring).ok


def test_exact_agrees_with_constructive_when_degree_allows():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 11)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = from_edge_list(n, pairs[: rng.randrange(0, len(pairs) + 1)])
        r = g.max_degree() + 1
        result = equitable_coloring_exact(g, r)
        assert result.coloring is not None  # always colorable at max degree + 1
        assert verify_equitable_coloring(g, result.coloring).ok


def test_random_bounded_degree_hosts():
    rng = random.Random(9)
    done = 0
    while done < 300:
        n = rng.randrange(1, 31)
        r = rng.randrange(3, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        g = Graph(n, [0] * n)
        adj = [0] * n
        for u, v in pairs:
            row_u = bin(adj[u]).count("1")
            row_v = bin(adj[v]).count("1")
            if row_u < r and row_v < r:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        g = Graph(n, adj)
        if g.max_degree() >= r + 1:
            continue
        coloring = equitable_coloring(g, r + 1)
        assert verify_equitable_coloring(g, coloring).ok
        sizes = class_sizes(coloring)
        assert sizes[0] - sizes[-1] <= 1
        done += 1


def test_verify_rejects_tampered_coloring():
    coloring = equitable_coloring(C5, 3)
    classes = list(coloring.classes)
    # merge two classes: still a partition but unbalanced and maybe improper
    merged = EquitableColoring(
        (VertexSet(5, classes[0].mask | classes[1].mask), classes[2]))
    report = verify_equitable_coloring(C5, merged)
    assert not report.ok

    # move a vertex onto its neighbor's class
    bad = EquitableColoring((VertexSet(5, 0b00011), VertexSet(5, 0b01100),
                             VertexSet(5, 0b10000)))
    report = verify_equitable_coloring(C5, bad)
    assert not report.ok and "not independent" in report.violation

    # drop a vertex entirely
    partial = EquitableColoring((VertexSet(5, 0b00101), VertexSet(5, 0b01010)))
    assert not verify_equitable_coloring(C5, partial).ok


def test_clique_union_is_easy():
    g = union_of_cliques([7, 7], 7)
    coloring = equitable_coloring(g, 7)
    assert verify_equitable_coloring(g, coloring).ok
    assert class_sizes(coloring) == [3, 3, 3, 3, 3, 3, 3]


def all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edge_list(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def colorings(n, r, equitable):
    """Every assignment of r colours to n vertices, as class masks, kept
    only when the class sizes differ by at most one if equitable."""
    out = []
    for colors in itertools.product(range(r), repeat=n):
        classes = [0] * r
        for v, c in enumerate(colors):
            classes[c] |= 1 << v
        sizes = [m.bit_count() for m in classes]
        if not equitable or max(sizes) - min(sizes) <= 1:
            out.append(classes)
    return out


def has_coloring(g, candidates):
    return any(all(g.is_independent(m) for m in classes) for classes in candidates)


def test_exact_matches_brute_force_over_colour_assignments():
    for n, top in [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5), (5, 3)]:
        for r in range(1, top + 1):
            candidates = colorings(n, r, equitable=True)
            for g in all_graphs(n):
                result = equitable_coloring_exact(g, r)
                assert (result.coloring is not None) == has_coloring(g, candidates), (g.adj, r)
                if result.coloring is not None:
                    assert len(result.coloring.classes) == r
                    assert verify_equitable_coloring(g, result.coloring).ok


def test_brooks_check_matches_brute_force_colourability():
    for r in (1, 3):
        for n in range(6):
            candidates = colorings(n, r, equitable=False)
            for g in all_graphs(n):
                if g.max_degree() <= r:
                    assert (biclique_violation(g, r) is None) == has_coloring(g, candidates)


def test_exact_named_hosts():
    # K3,3 plus K4 has no proper 3-coloring at all, so no K_(3,3) certificate
    result = equitable_coloring_exact(disjoint_union(K33, complete_graph(4)), 3)
    assert result == (None, None)
    # more classes than vertices: singletons, then empty classes
    result = equitable_coloring_exact(C5, 7)
    assert [len(vs) for vs in result.coloring.classes] == [1] * 5 + [0] * 2
    assert verify_equitable_coloring(C5, result.coloring).ok
    result = equitable_coloring_exact(empty_graph(0), 3)
    assert [vs.mask for vs in result.coloring.classes] == [0, 0, 0]
