"""Helpers shared across layers, each checked against a plain reference
written here: the clique-union profile and its readers, the greedy fill
behind packing's greedy pass and the engine's seed, and the reverse BFS
over the class digraph."""

from hypothesis import example, given, strategies as st

from turanpack import (build_aux_digraph, certify_k7_structure, clique_union_profile,
                       from_edge_list, init_partition, union_of_cliques)
from turanpack.graphs import is_clique_union, rigid_clique_profile
from turanpack.packing import _degree_order, _greedy_attempt, _greedy_fill
from turanpack.shifting import CLASS_COUNT, accessible_path

# -- strategies ----------------------------------------------------------------


@st.composite
def near_clique_unions(draw, choices=(1, 1, 2, 3, 5, 7), max_n=12):
    """Disjoint cliques with sizes drawn from choices, on shuffled labels,
    then up to two vertex pairs toggled, so both outcomes are common."""
    sizes = draw(st.lists(st.sampled_from(choices), max_size=max_n))
    while sum(sizes) > max_n:
        sizes.pop()
    n = sum(sizes)
    labels = draw(st.permutations(range(n)))
    edges = set()
    start = 0
    for size in sizes:
        block = [labels[v] for v in range(start, start + size)]
        edges.update((min(u, v), max(u, v)) for i, u in enumerate(block) for v in block[i + 1:])
        start += size
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges ^= set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    return from_edge_list(n, sorted(edges))


@st.composite
def sparse_graphs(draw, n, max_edges):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return from_edge_list(n, draw(st.lists(st.sampled_from(pairs), unique=True,
                                           max_size=max_edges)))


# -- references ----------------------------------------------------------------


def reference_components(g):
    """Vertex-set components by a plain search over adjacency sets."""
    neighbours = [{u for u in range(g.n) if g.has_edge(v, u)} for v in range(g.n)]
    seen, out = set(), []
    for v in range(g.n):
        if v in seen:
            continue
        comp, todo = {v}, [v]
        while todo:
            for u in neighbours[todo.pop()] - comp:
                comp.add(u)
                todo.append(u)
        seen |= comp
        out.append(comp)
    return out


def reference_profile(g):
    comps = reference_components(g)
    if any(not g.has_edge(u, v) for c in comps for u in c for v in c if u < v):
        return None
    cliques = sorted((c for c in comps if len(c) > 1), key=lambda c: (-len(c), min(c)))
    isolated = {v for c in comps if len(c) == 1 for v in c}
    return [sum(1 << v for v in c) for c in cliques], sum(1 << v for v in isolated)


def reference_rigid(g, clique_size, copies):
    """Components are isolated vertices and exactly `copies` cliques of
    clique_size vertices."""
    profile = reference_profile(g)
    return (profile is not None and len(profile[0]) == copies
            and all(m.bit_count() == clique_size for m in profile[0]))


def old_greedy_fill(g, order, sizes):
    """The engine's greedy fill as it stood before packing took it over."""
    used = 0
    masks = []
    for size in sizes:
        mask = 0
        count = 0
        for v in order:
            bit = 1 << v
            if used & bit or g.adj[v] & mask:
                continue
            mask |= bit
            count += 1
            if count == size:
                break
        if count < size:
            return None
        masks.append(mask)
        used |= mask
    return masks


def old_greedy_attempt(g, sizes):
    """Packing's greedy pass as it stood before it called the shared fill."""
    order = sorted(range(g.n), key=lambda v: (g.degree(v), v))
    avail = g.full_mask()
    sets = []
    for size in sizes:
        mask = 0
        count = 0
        blocked = 0
        for v in order:
            bit = 1 << v
            if not avail & bit or blocked & bit:
                continue
            mask |= bit
            blocked |= g.adj[v]
            count += 1
            if count == size:
                break
        if count < size:
            return None
        sets.append(mask)
        avail &= ~mask
    return sets


def reference_accessible(state):
    """Classes with a directed path to the destination, where class i has
    an arc to class j >= 1 when some vertex of i has no neighbour in j."""
    g = state.graph
    dest = state.destination
    members = [[v for v in range(g.n) if mask >> v & 1] for mask in state.classes]

    def arc(i, j):
        return j != 0 and i != j and any(
            not any(g.has_edge(v, u) for u in members[j]) for v in members[i])

    reach, todo = {dest}, [dest]
    while todo:
        j = todo.pop()
        for i in range(CLASS_COUNT):
            if i not in reach and arc(i, j):
                reach.add(i)
                todo.append(i)
    return frozenset(reach)


# -- clique-union profile and its readers ---------------------------------------


@given(near_clique_unions())
@example(union_of_cliques([7], 3))
@example(union_of_cliques([5, 5], 2))
def test_clique_union_profile_matches_a_component_scan(g):
    expected = reference_profile(g)
    assert clique_union_profile(g) == expected
    assert is_clique_union(g) == (expected is not None)


@given(near_clique_unions(choices=(1, 1, 7, 8)))
@example(union_of_cliques([7], 3))
@example(union_of_cliques([8], 2))
def test_k7_certificate_matches_its_definition(g):
    for p in range(1, 5):
        s = g.n - (4 * p - 1)
        expected = s >= 1 and s % 3 == 0 and reference_rigid(g, 7, s // 3)
        cert = certify_k7_structure(g, p)
        assert (cert is not None) == expected
        if cert is not None:
            cliques, isolated = reference_profile(g)
            assert [vs.mask for vs in cert.cliques] == cliques
            assert cert.isolated.mask == isolated and cert.s == s


@given(near_clique_unions(choices=(1, 1, 3, 5, 7)))
@example(union_of_cliques([5, 5], 2))
@example(union_of_cliques([7], 3))
def test_rigid_small_clique_union_matches_its_definition(g):
    for k in range(2, 5):
        for s in range(0, 9):
            expected = (s >= 1 and s % (k - 1) == 0
                        and reference_rigid(g, 2 * k - 1, s // (k - 1))
                        and g.edge_count() == (2 * k - 1) * s)
            assert (rigid_clique_profile(g, k, s) is not None) == expected


# -- greedy fill ------------------------------------------------------------------


@given(sparse_graphs(12, 30), st.data())
def test_greedy_fill_matches_both_old_fills(g, data):
    sizes = tuple(data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    order = data.draw(st.permutations(range(g.n)))
    assert _greedy_fill(g, order, sizes) == old_greedy_fill(g, order, sizes)
    assert _greedy_fill(g, range(g.n), sizes) == old_greedy_fill(g, range(g.n), sizes)
    assert _degree_order(g) == sorted(range(g.n), key=lambda v: (g.degree(v), v))
    descending = tuple(sorted(sizes, reverse=True))
    assert _greedy_attempt(g, descending) == old_greedy_attempt(g, descending)


# -- reverse BFS over the class digraph -------------------------------------------


@given(sparse_graphs(12, 16))
def test_accessible_classes_match_a_reverse_search(g):
    state = init_partition(g, 3)
    if state is None:
        return
    aux = build_aux_digraph(state)
    assert aux.accessible == reference_accessible(state)
    for start in aux.accessible - {aux.destination}:
        path, movers = accessible_path(aux, start)
        assert path[0] == start and path[-1] == aux.destination
        assert movers == tuple(aux.arcs[arc] for arc in zip(path, path[1:]))
