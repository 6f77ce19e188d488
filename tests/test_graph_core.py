"""Graph primitives and codecs.

networkx serves as the independent cross-check for the graph6 encoder:
values frozen here were confirmed against its output.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from turanpack import (Graph, PreconditionError, SizeGuardError, VertexSet,
                       clique_union_profile, complement, complete_graph, components,
                       cross_edge_count, disjoint_union, empty_graph,
                       from_edge_list, from_edge_list_text, from_graph6,
                       join, to_edge_list_text, to_graph6)
from turanpack.codec import _decode_size, _encode_size, parse_graph_text
from turanpack.graphs import MAX_EDGE_LIST_N, bits, mask_of


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


# -- strategies ----------------------------------------------------------------


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return from_edge_list(n, chosen)


# -- vertex sets and masks -----------------------------------------------------


def test_mask_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]


def test_vertex_set_basics():
    vs = VertexSet.from_members(8, [1, 3, 5])
    assert len(vs) == 3
    assert 3 in vs and 2 not in vs
    assert list(vs) == [1, 3, 5]


def test_vertex_set_rejects_out_of_range():
    with pytest.raises(PreconditionError):
        VertexSet.from_members(3, [4])


# -- graph construction and invariants -----------------------------------------


def test_graph_rejects_asymmetry_and_loops():
    with pytest.raises(PreconditionError):
        Graph(2, [0b10, 0b00])
    with pytest.raises(PreconditionError):
        Graph(1, [0b1])
    with pytest.raises(PreconditionError):
        Graph(2, [0])


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(AttributeError):
        g.n = 4


def test_degree_and_edges():
    g = complete_graph(5)
    assert g.edge_count() == 10
    assert g.max_degree() == 4
    assert all(g.degree(v) == 4 for v in range(5))
    assert sorted(complete_graph(3).edges()) == [(0, 1), (0, 2), (1, 2)]


def test_independent_and_clique_checks():
    g = cycle(5)
    assert g.is_independent(mask_of([0, 2]))
    assert not g.is_independent(mask_of([0, 1]))
    assert g.is_clique(mask_of([0, 1]))
    assert not g.is_clique(mask_of([0, 2]))


def test_complement_of_cycle_five_is_cycle():
    h = complement(cycle(5))
    assert h.edge_count() == 5
    assert h.max_degree() == 2
    assert len(components(h)) == 1


def test_join_and_cross_edges():
    k33 = join(empty_graph(3), empty_graph(3))
    assert k33.edge_count() == 9
    assert cross_edge_count(k33, [0, 1, 2], [3, 4, 5]) == 9
    with pytest.raises(PreconditionError):
        cross_edge_count(k33, [0, 1], [1, 2])


def test_join_puts_first_graph_first():
    g = join(complete_graph(2), empty_graph(2))
    assert g.has_edge(0, 1)
    assert not g.has_edge(2, 3)


def test_components_and_clique_profile():
    g = disjoint_union(complete_graph(3), complete_graph(2), empty_graph(2))
    comps = components(g)
    assert [c.bit_count() for c in comps] == [3, 2, 1, 1]
    assert clique_union_profile(g) == ([0b0000111, 0b0011000], 0b1100000)
    assert clique_union_profile(cycle(4)) is None


# -- graph6 --------------------------------------------------------------------


def test_graph6_goldens():
    assert to_graph6(complete_graph(3)) == "Bw"
    assert to_graph6(empty_graph(0)) == "?"
    assert from_graph6("Bw").edge_count() == 3
    assert from_graph6(">>graph6<<Bw").n == 3


def test_graph6_rejects_malformed():
    with pytest.raises(PreconditionError):
        from_graph6("B\x1f")
    with pytest.raises(PreconditionError, match="malformed graph6 byte 233"):
        from_graph6("B\u00e9")  # not silently read as '?', an all-zero chunk
    with pytest.raises(PreconditionError):
        from_graph6("D")  # truncated body
    with pytest.raises(PreconditionError):
        from_graph6("Bww")  # trailing bytes
    with pytest.raises(PreconditionError):
        from_graph6("B~")  # nonzero padding bits


# Bit-by-bit reference codec: the straightforward reading of the graph6
# layout, one upper-triangle entry at a time in column-major order.


def reference_to_graph6(g):
    out = bytearray(_encode_size(g.n))
    acc = 0
    width = 0
    for col in range(1, g.n):
        for row in range(col):
            acc = (acc << 1) | (g.adj[col] >> row & 1)
            width += 1
            if width == 6:
                out.append(acc + 63)
                acc = 0
                width = 0
    if width:
        out.append((acc << (6 - width)) + 63)
    return out.decode("ascii")


def reference_from_graph6(data: bytes):
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    for byte in data:
        if not 63 <= byte <= 126:
            raise PreconditionError(f"malformed graph6 byte {byte}")
    n, consumed = _decode_size(data)
    body = data[consumed:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) < expected:
        raise PreconditionError("truncated graph6 body")
    if len(body) > expected:
        raise PreconditionError("trailing bytes after graph6 body")
    stream = [(byte - 63) >> shift & 1 for byte in body for shift in range(5, -1, -1)]
    adj = [0] * n
    at = 0
    for col in range(1, n):
        for row in range(col):
            if stream[at]:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            at += 1
    if any(stream[at:]):
        raise PreconditionError("nonzero padding bits in graph6 body")
    return Graph(n, adj)


def random_graph(n, density, rng):
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < density])


@pytest.mark.parametrize("n", [*range(13), 61, 62, 63, 64, 100])
def test_graph6_matches_reference_codec(n):
    rng = random.Random(n)
    for density in (0.0, 0.05, 0.3, 0.5, 0.9, 1.0):
        g = random_graph(n, density, rng)
        text = to_graph6(g)
        assert text == reference_to_graph6(g)
        assert from_graph6(text) == reference_from_graph6(text.encode()) == g
    # the 4-byte size header starts at n = 63
    assert len(_encode_size(n)) == (1 if n <= 62 else 4)


@pytest.mark.parametrize("text", [
    "B\x1f", "B\x7f", "\x1fBw",      # byte outside 63..126
    "~", "~?", "~~????",               # truncated size header
    "D", "Dw", "~?@?",                 # truncated body
    "Bww", "A_?", "C~~",               # trailing bytes
    "B~", "A`", "D~~",                 # nonzero padding bits
    "Bw", ">>graph6<<Bw", " Bw\n",    # valid
])
def test_graph6_errors_match_reference(text):
    data = text.encode("ascii")
    try:
        expected = reference_from_graph6(data)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as caught:
            from_graph6(text)
        assert str(caught.value) == str(exc)
        with pytest.raises(PreconditionError) as caught:
            from_graph6(data)
        assert str(caught.value) == str(exc)
    else:
        assert from_graph6(text) == from_graph6(data) == expected


@given(graphs())
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


@given(graphs())
def test_graph6_matches_networkx(g):
    reference = nx.Graph()
    reference.add_nodes_from(range(g.n))
    reference.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(reference, header=False).decode().strip()
    assert to_graph6(g) == theirs


@given(graphs())
def test_complement_involution_and_edge_split(g):
    h = complement(g)
    assert complement(h) == g
    assert g.edge_count() + h.edge_count() == g.n * (g.n - 1) // 2


@given(graphs(max_n=8), graphs(max_n=8))
def test_join_edge_identity(g, h):
    assert join(g, h).edge_count() == g.edge_count() + h.edge_count() + g.n * h.n


# -- edge-list text ------------------------------------------------------------


def test_edge_list_text_round_trip_keeps_isolated_vertices():
    g = disjoint_union(complete_graph(2), empty_graph(3))
    text = to_edge_list_text(g)
    assert text.splitlines()[0] == "5"
    assert from_edge_list_text(text) == g


def test_edge_list_text_without_header_infers_n():
    g = from_edge_list_text("0 1\n2 3\n")
    assert g.n == 4 and g.edge_count() == 2


def test_edge_list_text_comments_and_errors():
    g = from_edge_list_text("# a square\n4\n0 1 # first\n1 2\n")
    assert g.n == 4 and g.edge_count() == 2
    with pytest.raises(PreconditionError):
        from_edge_list_text("4\n0 1 2\n")


def test_edge_list_vertex_count_is_capped():
    assert from_edge_list(MAX_EDGE_LIST_N, [(0, MAX_EDGE_LIST_N - 1)]).edge_count() == 1
    with pytest.raises(SizeGuardError, match=f"n={MAX_EDGE_LIST_N + 1} > {MAX_EDGE_LIST_N}"):
        from_edge_list(MAX_EDGE_LIST_N + 1, [])
    with pytest.raises(SizeGuardError, match="n=1000000000 >"):
        from_edge_list_text("1000000000\n0 1\n")
    # without a header, the largest endpoint implies n
    with pytest.raises(SizeGuardError, match=f"n={MAX_EDGE_LIST_N + 1} >"):
        from_edge_list_text(f"0 {MAX_EDGE_LIST_N}\n")


def test_parse_graph_text_autodetects():
    assert parse_graph_text("Bw") == complete_graph(3)
    assert parse_graph_text("3\n0 1\n") == from_edge_list(3, [(0, 1)])
    with pytest.raises(PreconditionError):
        parse_graph_text("   ")
