"""Five-class partition engine: state, aux digraph, moves, resolution."""

import random

import pytest

from turanpack import (EngineTrace, PackingWitness, PartitionState, PreconditionError,
                       StructureCertificate, accessible_path, build_aux_digraph,
                       certify_k7_structure, check_preconditions, clique_union_profile,
                       from_edge_list, from_graph6, init_partition,
                       naive_disjoint_independent_sets, propose_moves, resolve, shifting,
                       solo_neighbor, union_of_cliques, verify_certificate, verify_witness)
from turanpack.graphs import is_clique_union
from turanpack.shifting import _relocate, iter_moves

EMPTY14 = from_edge_list(14, [])


def minus_edge(g, edge):
    return from_edge_list(g.n, [e for e in g.edges() if e != edge])


def sparse_random(n, m, rng, max_deg=6):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    adj = [0] * n
    edges = []
    for u, v in pairs:
        if len(edges) == m:
            break
        if bin(adj[u]).count("1") < max_deg and bin(adj[v]).count("1") < max_deg:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append((u, v))
    return from_edge_list(n, edges)


# The double-solo scenario: class 1 holds the shared solo neighbor of two
# nonadjacent leftover vertices, class 0 is inaccessible, and the only
# route to the destination (class 4 = {9, 10}) leaves from class 1.
#
# solo=2 variant: the path mover (vertex 0) differs from the solo.
DOUBLE_SOLO_EDGES = [
    (11, 2), (12, 2),              # shared solo neighbor in class 1
    (13, 1),                       # blocks arc (0, 1)
    (3, 0), (4, 1), (5, 0),        # class 2 dominated by class 1
    (6, 1), (7, 0), (8, 1),        # class 3 dominated by class 1
    (3, 9), (4, 10), (5, 9),       # class 2 dominated by class 4
    (6, 10), (7, 9), (8, 10),      # class 3 dominated by class 4
    (11, 9), (12, 10), (13, 9),    # class 0 dominated by class 4
]
DOUBLE_SOLO_CLASSES = (
    0b11100000000000,  # class 0: {11, 12, 13}
    0b00000000000111,  # class 1: {0, 1, 2}
    0b00000000111000,  # class 2: {3, 4, 5}
    0b00000111000000,  # class 3: {6, 7, 8}
    0b00011000000000,  # class 4: {9, 10}, deficient
)


def double_solo_state():
    g = from_edge_list(14, DOUBLE_SOLO_EDGES)
    return PartitionState(g, 3, DOUBLE_SOLO_CLASSES)


def test_state_validation():
    st = double_solo_state()
    assert st.destination == 4
    assert st.witness() is None
    with pytest.raises(PreconditionError, match="five classes"):
        PartitionState(st.graph, 3, st.classes[:4])
    with pytest.raises(PreconditionError, match="overlap"):
        PartitionState(st.graph, 3, (st.classes[0] | 1, *st.classes[1:]))
    with pytest.raises(PreconditionError, match="cover"):
        PartitionState(st.graph, 3, (st.classes[0] & ~(1 << 11), *st.classes[1:]))
    with pytest.raises(PreconditionError, match="not independent"):
        bad = from_edge_list(14, DOUBLE_SOLO_EDGES + [(0, 1)])
        PartitionState(bad, 3, DOUBLE_SOLO_CLASSES)
    with pytest.raises(PreconditionError, match="deficient"):
        # shrink classes 3 and 4 both to p-1; vertex 8 goes to class 0
        PartitionState(st.graph, 3, (st.classes[0] | (1 << 8),
                                     st.classes[1], st.classes[2],
                                     st.classes[3] & ~(1 << 8), st.classes[4]))


def test_init_partition_empty_graph():
    st = init_partition(EMPTY14, 3)
    assert st.classes == (
        0b11100000000000,  # leftover {11, 12, 13}
        0b00000000000111,
        0b00000000111000,
        0b00000111000000,
        0b00011000000000,
    )
    with pytest.raises(PreconditionError, match="init_partition needs"):
        init_partition(EMPTY14, 2)
    with pytest.raises(PreconditionError):
        init_partition(from_edge_list(11, []), 3)  # s = 0


def test_aux_digraph_matches_brute_force():
    rng = random.Random(23)
    checked = 0
    while checked < 40:
        n = rng.choice([14, 15, 16, 17])
        g = sparse_random(n, rng.randrange(0, 25), rng)
        st = init_partition(g, 3)
        if st is None or st.destination is None:
            continue
        aux = build_aux_digraph(st)
        expect = {}
        for i in range(5):
            for j in range(1, 5):
                if i == j:
                    continue
                for v in sorted(range(n)):
                    if st.classes[i] >> v & 1 and g.adj[v] & st.classes[j] == 0:
                        expect[(i, j)] = v
                        break
        assert aux.arcs == expect
        # accessibility: closure of arcs into the growing destination set
        reach = {aux.destination}
        changed = True
        while changed:
            changed = False
            for (i, j) in expect:
                if j in reach and i not in reach:
                    reach.add(i)
                    changed = True
        assert aux.accessible == frozenset(reach)
        checked += 1


def test_aux_digraph_of_crafted_state():
    st = double_solo_state()
    aux = build_aux_digraph(st)
    assert aux.destination == 4
    assert aux.accessible == frozenset({1, 4})
    assert aux.arcs[(1, 4)] == 0
    assert (0, 4) not in aux.arcs and (2, 4) not in aux.arcs
    assert all(j != 0 for (_, j) in aux.arcs)
    path, movers = accessible_path(aux, 1)
    assert path == (1, 4) and movers == (0,)
    with pytest.raises(PreconditionError, match="not accessible"):
        accessible_path(aux, 0)


def test_solo_neighbor():
    st = double_solo_state()
    assert solo_neighbor(st, 11, 1) == 2
    assert solo_neighbor(st, 13, 1) == 1
    assert solo_neighbor(st, 11, 2) is None  # no neighbors there
    assert solo_neighbor(st, 3, 1) == 0
    with pytest.raises(PreconditionError, match="lies in class"):
        solo_neighbor(st, 0, 1)
    with pytest.raises(PreconditionError, match="out of range"):
        solo_neighbor(st, 11, 9)


def test_relocate_checks_each_step():
    st = double_solo_state()
    with pytest.raises(PreconditionError, match="mover 3 is not in class 1"):
        _relocate(st, ((3, 1, 4),))
    with pytest.raises(PreconditionError, match="mover 3 has neighbors in class 4"):
        _relocate(st, ((3, 2, 4),))  # 3 is adjacent to 9
    # class 0 need not be independent, so it is exempt as a target: 2 moves
    # there beside its neighbors 11 and 12
    shifted = _relocate(st, ((2, 1, 0), (11, 0, 1)))
    assert shifted.classes[0] == st.classes[0] ^ (1 << 2 | 1 << 11)
    assert shifted.classes[1] == st.classes[1] ^ (1 << 2 | 1 << 11)


def test_double_solo_distinct_mover():
    st = double_solo_state()
    aux = build_aux_digraph(st)
    moves = propose_moves(st, aux)
    assert moves and moves[0].kind == "double-solo"
    move = moves[0]
    # solo 2 leaves class 1 for leftovers 11 and 12, then mover 0 refills
    # the destination
    assert move.steps == ((2, 1, 0), (11, 0, 1), (12, 0, 1), (0, 1, 4))
    ended = _relocate(st, move.steps)
    witness = ended.witness()
    assert witness is not None
    assert verify_witness(st.graph, witness, 4, 3).ok


def test_double_solo_mover_is_solo():
    # same layout but the shared solo neighbor is vertex 0, which is also
    # the lowest class-1 vertex without neighbors in the destination
    st = mover_is_solo_state()
    g = st.graph
    aux = build_aux_digraph(st)
    assert aux.arcs[(1, 4)] == 0
    moves = propose_moves(st, aux)
    assert moves and moves[0].kind == "double-solo"
    move = moves[0]
    assert move.steps == ((0, 1, 4), (11, 0, 1))
    ended = _relocate(st, move.steps)
    witness = ended.witness()
    assert witness is not None
    assert verify_witness(g, witness, 4, 3).ok


def test_path_shift_has_priority_when_class0_is_accessible():
    g = from_edge_list(14, [(11, 9)])  # nearly empty host
    st = init_partition(g, 3)
    aux = build_aux_digraph(st)
    moves = propose_moves(st, aux)
    assert moves[0].kind == "path-shift"
    ended = _relocate(st, moves[0].steps)
    assert ended.witness() is not None


def mover_is_solo_state():
    edges = [
        (11, 0), (12, 0),
        (13, 1),
        (3, 1), (4, 2), (5, 1),
        (6, 2), (7, 1), (8, 2),
        (3, 9), (4, 10), (5, 9),
        (6, 10), (7, 9), (8, 10),
        (11, 9), (12, 10), (13, 9),
    ]
    return PartitionState(from_edge_list(14, edges), 3, DOUBLE_SOLO_CLASSES)


def assert_lazy_moves_agree(st, undo=None):
    aux = build_aux_digraph(st)
    eager = propose_moves(st, aux, undo)
    assert next(iter_moves(st, aux, undo), None) == (eager[0] if eager else None)


def test_iter_moves_first_move_on_crafted_states():
    crafted = [double_solo_state(), mover_is_solo_state(),
               init_partition(from_edge_list(14, [(11, 9)]), 3)]
    for st in crafted:
        assert_lazy_moves_agree(st)
        aux = build_aux_digraph(st)
        for move in propose_moves(st, aux):
            if move.kind in ("re-root", "solo-swap"):
                assert_lazy_moves_agree(st, move.steps[-1])


def test_iter_moves_first_move_on_random_hosts():
    rng = random.Random(59)
    checked = 0
    while checked < 200:
        p = rng.choice([3, 4])
        s = rng.randrange(3, 9)
        g = sparse_random(4 * p - 1 + s, rng.randrange(0, 7 * s + 1), rng)
        st = init_partition(g, p)
        if st is None:
            continue
        assert_lazy_moves_agree(st)
        checked += 1


def test_clique_union_check_agrees_with_component_scan():
    k7_union = union_of_cliques([7, 7], 7)
    hosts = [k7_union, minus_edge(k7_union, (0, 1)), EMPTY14,
             from_edge_list(0, []), union_of_cliques([1, 2, 3], 0)]
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randrange(1, 24)
        hosts.append(sparse_random(n, rng.randrange(0, 2 * n), rng))
        sizes = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 5))]
        union = union_of_cliques(sizes, rng.randrange(0, 4))
        perm = list(range(union.n))
        rng.shuffle(perm)
        union = from_edge_list(union.n, [(perm[u], perm[v]) for u, v in union.edges()])
        hosts.append(union)
        if union.edge_count():
            hosts.append(minus_edge(union, rng.choice(list(union.edges()))))
    assert any(is_clique_union(g) for g in hosts[5:])
    assert not all(is_clique_union(g) for g in hosts[5:])
    for g in hosts:
        assert is_clique_union(g) == (clique_union_profile(g) is not None)


def test_certify_k7_structure():
    g = union_of_cliques([7, 7], 7)  # n=21
    cert = certify_k7_structure(g, 4)
    assert cert is not None
    assert cert.s == 6 and cert.edges == 42 and cert.max_degree == 6
    assert verify_certificate(g, cert, 4).ok

    assert certify_k7_structure(union_of_cliques([7, 7], 9), 4) is None  # s=8
    assert certify_k7_structure(EMPTY14, 3) is None  # no cliques at all
    assert certify_k7_structure(union_of_cliques([6], 8), 3) is None


def test_verify_certificate_rejects_mismatches():
    g = union_of_cliques([7], 7)
    cert = certify_k7_structure(g, 3)
    assert verify_certificate(g, cert, 3).ok
    assert not verify_certificate(g, cert, 4).ok  # wrong regime offset
    other = minus_edge(g, list(g.edges())[0])
    report = verify_certificate(other, cert, 3)
    assert not report.ok


def test_check_preconditions_diagnostics():
    ok = check_preconditions(union_of_cliques([7], 7), 3)
    assert ok == []
    problems = check_preconditions(union_of_cliques([9], 5), 3)
    assert len(problems) == 2
    assert any("exceeds 7s" in msg for msg in problems)
    assert any("max degree" in msg for msg in problems)
    assert check_preconditions(EMPTY14, 2) == ["p=2 must be at least 3"]


def test_resolve_rigid_host():
    g = union_of_cliques([7], 7)
    trace = EngineTrace()
    out = resolve(g, 3, trace=trace)
    assert isinstance(out, StructureCertificate)
    assert out.s == 3
    # clique unions skip the heuristic and go straight to the exact search
    assert trace.used_exact_fallback
    assert trace.moves == []


def test_resolve_near_rigid_host():
    g = minus_edge(union_of_cliques([7], 7), (0, 1))
    out = resolve(g, 3)
    assert isinstance(out, PackingWitness)
    assert verify_witness(g, out, 4, 3).ok


def test_resolve_empty_host():
    out = resolve(EMPTY14, 3)
    assert isinstance(out, PackingWitness)
    assert verify_witness(EMPTY14, out, 4, 3).ok


def test_resolve_rejects_out_of_regime_hosts():
    with pytest.raises(PreconditionError, match="max degree 7"):
        resolve(union_of_cliques([8], 7), 3)  # n=15, s=4, e=28=7s but deg 7
    with pytest.raises(PreconditionError, match="exceeds 7s"):
        resolve(union_of_cliques([9], 5), 3)
    with pytest.raises(PreconditionError, match="1 <= s <= 3p-1"):
        resolve(from_edge_list(25, []), 3)


def test_resolve_agrees_with_naive_search():
    rng = random.Random(41)
    for _ in range(50):
        s = rng.randrange(3, 9)
        n = 11 + s
        m = rng.randrange(0, 7 * s + 1)
        g = sparse_random(n, m, rng)
        out = resolve(g, 3)
        naive = naive_disjoint_independent_sets(g, 4, 3)
        if isinstance(out, PackingWitness):
            assert naive is not None
            assert verify_witness(g, out, 4, 3).ok
        else:
            assert naive is None
            assert verify_certificate(g, out, 3).ok


def test_resolve_with_zero_budget_falls_back():
    g = minus_edge(union_of_cliques([7], 7), (0, 1))
    trace = EngineTrace()
    out = resolve(g, 3, budget=0, trace=trace)
    assert isinstance(out, PackingWitness)
    assert trace.used_exact_fallback


def test_trace_records_heuristic_activity(monkeypatch):
    # One inaccessible size per digraph built: none on the first host, whose
    # first move is the direct one-arc path-shift; one on the second, whose
    # first move is the two-arc path 0 -> 3 -> 4.
    builds = []

    def counting(st):
        builds.append(st)
        return build_aux_digraph(st)

    monkeypatch.setattr(shifting, "build_aux_digraph", counting)
    for g, want in ((minus_edge(union_of_cliques([7], 7), (0, 1)), 0),
                    (from_graph6("KO@?@@??D?_?"), 1)):
        builds.clear()
        trace = EngineTrace()
        out = resolve(g, 3, trace=trace)
        assert isinstance(out, PackingWitness)
        assert trace.moves == ["path-shift"] and not trace.used_exact_fallback
        assert len(builds) == want
        assert len(trace.inaccessible_sizes) == len(builds)
