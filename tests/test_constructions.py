"""Named graph families and their frozen edge counts.

Every family carries a claim about which side (the graph or its complement)
avoids a clique pattern; `build_ref` is additionally pinned against the
complement-count invariant used by the table verifier.
"""

from itertools import product

import networkx as nx
import pytest

from turanpack import (ConstructionRef, FormulaQuery, PreconditionError, SizeGuardError,
                       binom2, build_family, build_ref, claim_holds,
                       clique_union_profile, complement, dispatch_formula, ex_4_cliques,
                       from_graph6, hub_join, hub_join_edges,
                       near_tight_witness, rigid_clique_union, star_graph,
                       tight_family_a, tight_family_b, to_graph6, turan_graph,
                       union_of_cliques)
from turanpack.constructions import FAMILIES
from turanpack.graphs import MAX_EDGE_LIST_N


def clique_sizes(g):
    """The component sizes, largest first, of a disjoint union of cliques."""
    profile = clique_union_profile(g)
    assert profile is not None, "not a union of cliques"
    cliques, isolated = profile
    return [m.bit_count() for m in cliques] + [1] * isolated.bit_count()


def test_turan_graph_balanced():
    g = turan_graph(9, 3)
    assert g.n == 9
    assert g.edge_count() == 27
    # class of v is v mod 3; no edge inside a class
    for u, v in g.edges():
        assert u % 3 != v % 3


def test_turan_graph_unbalanced():
    g = turan_graph(7, 3)
    assert g.edge_count() == 16
    assert turan_graph(0, 3).n == 0
    assert turan_graph(5, 1).edge_count() == 0
    with pytest.raises(PreconditionError):
        turan_graph(5, 0)


def test_hub_join_counts():
    g = hub_join(4, 19, 3)
    assert g.n == 19
    assert g.edge_count() == 115
    assert g.edge_count() == hub_join_edges(4, 19, 3)
    # the 3 hub vertices dominate everything
    for v in range(3):
        assert g.degree(v) == 18


def test_union_of_cliques():
    g = union_of_cliques([3, 3], 2)
    assert g.n == 8
    assert g.edge_count() == 6
    assert clique_sizes(g) == [3, 3, 1, 1]


def test_star_graph():
    g = star_graph(7)
    assert g.n == 8
    assert g.degree(0) == 7
    assert g.edge_count() == 7


def test_rigid_clique_union_counts():
    g = rigid_clique_union(4, 3, 3)
    assert (g.n, g.edge_count()) == (14, 21)
    assert clique_sizes(g) == [7] + [1] * 7
    g = rigid_clique_union(4, 3, 4)
    assert (g.n, g.edge_count()) == (15, 28)
    assert clique_sizes(g) == [8] + [1] * 7
    g = rigid_clique_union(4, 4, 8)
    assert (g.n, g.edge_count()) == (23, 56)
    assert clique_sizes(g) == [8, 8] + [1] * 7
    g = rigid_clique_union(3, 3, 2)
    assert (g.n, g.edge_count()) == (10, 10)


def test_rigid_clique_union_undefined_offsets():
    for s in (1, 2, 5):
        with pytest.raises(PreconditionError, match="undefined here"):
            rigid_clique_union(4, 3, s)
    with pytest.raises(PreconditionError):
        rigid_clique_union(3, 3, 1)
    with pytest.raises(PreconditionError, match="outside"):
        rigid_clique_union(4, 3, 9)


def test_rigid_clique_union_edge_law():
    # 7s edges at every defined offset for the four-block case
    for p in (3, 4, 5):
        for s in range(1, 3 * p):
            try:
                g = rigid_clique_union(4, p, s)
            except PreconditionError:
                continue
            assert g.n == 4 * p - 1 + s
            assert g.edge_count() == 7 * s
            top = max(g.degree(v) for v in range(g.n))
            # offsets divisible by 3 use only K7 parts; others need K8s
            assert top == (6 if s % 3 == 0 else 7)


def test_tight_families():
    g = tight_family_a(4, 3)
    assert g.n == 12
    assert g.edge_count() == binom2(5)
    assert clique_sizes(g) == [5] + [1] * 7

    g = tight_family_b(5, 3, 12)
    assert g.n == 15
    assert g.edge_count() == 13
    assert max(g.degree(v) for v in range(g.n)) == 12
    with pytest.raises(PreconditionError):
        tight_family_a(5, 3)  # k > 2p-2
    with pytest.raises(PreconditionError):
        tight_family_b(3, 3, 5)  # k < 2p-2
    with pytest.raises(PreconditionError, match="star size"):
        tight_family_b(5, 3, 2)


def test_tight_families_coincide_at_boundary():
    # at k = 2p-2 both families exist with the same edge count
    p = 3
    k = 2 * p - 2
    a = tight_family_a(k, p)
    b = tight_family_b(k, p, k * p - p + 1)
    assert a.n == b.n == k * p
    assert a.edge_count() == b.edge_count() == k * p - p + 1


def test_near_tight_witness_counts():
    g1 = near_tight_witness("G1", 3)
    assert (g1.n, g1.edge_count()) == (13, 15)
    assert clique_sizes(g1) == [6] + [1] * 7
    g2 = near_tight_witness("G2", 3)
    assert (g2.n, g2.edge_count()) == (14, 21)
    g3 = near_tight_witness("G3", 3)
    assert (g3.n, g3.edge_count()) == (15, 28)
    g4 = near_tight_witness("G4", 3)
    assert (g4.n, g4.edge_count()) == (16, 35)
    g5 = near_tight_witness("G5", 4)
    assert (g5.n, g5.edge_count()) == (20, 36)
    with pytest.raises(PreconditionError):
        near_tight_witness("G4", 4)  # this shape only exists for p=3
    with pytest.raises(PreconditionError):
        near_tight_witness("G6", 3)


def test_offsets_match_closed_form():
    # complement edge deficit of each blocker equals the closed-form value
    # at its host size
    for p, name in [(3, "G1"), (3, "G2"), (3, "G3"), (3, "G4"), (4, "G5")]:
        g = near_tight_witness(name, p)
        want = ex_4_cliques(g.n, p).value
        assert binom2(g.n) - g.edge_count() == want, name


def test_build_ref_complement_invariant():
    grid = [
        ConstructionRef("J", {"p": 3, "s": 3}, complemented=True),
        ConstructionRef("J", {"p": 4, "s": 7}, complemented=True),
        ConstructionRef("tight-A", {"k": 4, "p": 3}, complemented=True),
        ConstructionRef("G1", {"p": 3}, complemented=True),
        ConstructionRef("G4", {"p": 3}, complemented=True),
        ConstructionRef("G5", {"p": 4}, complemented=True),
    ]
    for ref in grid:
        built, desc = build_ref(ref)
        value = ex_4_cliques(built.n, int(ref.params["p"])).value
        assert built.edge_count() == desc.expected_edges
        assert built.edge_count() == value, ref

    # dense families resolve uncomplemented; the value is their own count
    built, desc = build_ref(ConstructionRef("hub-join", {"k": 4, "n": 20, "p": 3}))
    assert built.edge_count() == ex_4_cliques(20, 3).value == 126


def test_build_family_cli_names():
    g, desc = build_family("turan", {"n": 9, "p": 3})
    assert g.edge_count() == 27
    assert desc.claim == (1, 4) and desc.claim_side == "self"
    g, desc = build_family("empty", {"n": 5})
    assert g.edge_count() == 0
    g, _ = build_family("complete", {"n": 5})
    assert g.edge_count() == 10
    g, _ = build_family("clique-block", {"r": 4, "n": 9})
    assert g.edge_count() == binom2(4)
    with pytest.raises(PreconditionError, match="unknown construction"):
        build_family("mystery", {"n": 5})
    with pytest.raises(PreconditionError, match="unknown construction"):
        build_ref(ConstructionRef("mystery", {}))
    with pytest.raises(PreconditionError, match="needs parameters"):
        build_family("turan", {"n": 9})
    with pytest.raises(PreconditionError, match="^J: undefined here"):
        build_family("J", {"p": 3, "s": 2})
    with pytest.raises(PreconditionError, match="needs integer parameters: n"):
        build_family("turan", {"n": "nine", "p": 3})


def test_build_ref_names_missing_parameters():
    # Library callers who build references by hand get the CLI's message,
    # not a KeyError.
    for name, family in FAMILIES.items():
        for key in family.required:
            params = {other: 3 for other in family.required if other != key}
            want = f"family {name} needs parameters: {key}"
            for build in (lambda: build_ref(ConstructionRef(name, params)),
                          lambda: build_family(name, params)):
                with pytest.raises(PreconditionError) as exc:
                    build()
                assert str(exc.value) == want



def test_build_ref_checks_parameters_as_build_family_does():
    # build_ref once ignored an unknown key and built turan with JSON true as p = 1.
    for params, message in [({"n": 9, "p": 3, "x": 1}, "unknown parameters: x"),
                            ({"n": 9, "p": True}, "family turan needs integer parameters: p"),
                            ({"n": -1, "p": 3}, "vertex count must be nonnegative")]:
        for build in (build_ref, lambda ref: build_family(ref.family, ref.params)):
            with pytest.raises(PreconditionError) as exc:
                build(ConstructionRef("turan", params))
            assert str(exc.value) == message

def test_build_family_vertex_count_and_cap():
    # The cap is checked on a count computed from the parameters alone, so
    # that count must be the built graph's n in every family.
    cases = [("turan", {"n": 9, "p": 3}), ("hub-join", {"k": 4, "n": 19, "p": 3}),
             ("J", {"p": 3, "s": 3}), ("rigid-union", {"k": 3, "p": 4, "s": 4}),
             ("tight-A", {"k": 3, "p": 3}), ("tight-B", {"k": 4, "p": 3, "x": 9}),
             ("G1", {"p": 3}), ("G2", {"p": 4}), ("G3", {"p": 3}), ("G4", {"p": 3}),
             ("G5", {"p": 5}), ("clique-block", {"r": 4, "n": 9}),
             ("empty", {"n": 5}), ("complete", {"n": 5})]
    assert {family for family, _ in cases} == set(FAMILIES)
    for family, params in cases:
        g, _ = build_family(family, params)
        assert g.n == FAMILIES[family].vertices(**params), family
    assert build_family("empty", {"n": MAX_EDGE_LIST_N})[0].n == MAX_EDGE_LIST_N
    with pytest.raises(SizeGuardError, match=f"n={MAX_EDGE_LIST_N + 1} > {MAX_EDGE_LIST_N}"):
        build_family("complete", {"n": MAX_EDGE_LIST_N + 1})
    with pytest.raises(SizeGuardError, match="tight-A has n=18000"):
        build_family("tight-A", {"k": 2, "p": 9000})


def test_golden_graph6_for_smallest_union():
    # J at p=3, s=3 is K7 with 7 isolated vertices
    g, _ = build_family("J", {"p": 3, "s": 3})
    assert to_graph6(g) == "M~~~w????????????"
    direct = union_of_cliques([7], 7)
    assert to_graph6(direct) == to_graph6(g)
    h = nx.from_graph6_bytes(b"M~~~w????????????")
    assert h.number_of_nodes() == 14
    assert h.number_of_edges() == 21
    assert from_graph6("M~~~w????????????").edge_count() == 21


def test_claim_holds():
    g, desc = build_family("J", {"p": 3, "s": 3})
    assert desc.claim == (4, 3) and desc.claim_side == "complement"
    assert claim_holds(g, desc) is True
    g, desc = build_family("complete", {"n": 5})
    assert desc.claim is None
    assert claim_holds(g, desc) is None
    # hub-join claims freeness of the built graph itself
    g, desc = build_family("hub-join", {"k": 4, "n": 20, "p": 3})
    assert desc.claim_side == "self"
    assert claim_holds(g, desc) is True


def test_builds_are_deterministic():
    a = to_graph6(hub_join(4, 20, 3))
    b = to_graph6(hub_join(4, 20, 3))
    assert a == b
    assert to_graph6(complement(complement(hub_join(4, 20, 3)))) == a



def test_every_formula_reference_builds_and_replays():
    # Every distinct construction reference the closed forms hand out over a
    # small grid, with each host size and value it was handed out for.
    refs = {}
    for pattern, n, p, k, q in product(FormulaQuery.PATTERNS, range(31), range(2, 8),
                                       range(1, 6), range(3, 9)):
        try:
            value = dispatch_formula(FormulaQuery(pattern, n=n, p=p, k=k, q=q))
        except PreconditionError:
            continue
        ref = value.construction
        if ref is None:
            continue
        host = k * p if pattern == "kKp-tight" else n
        key = (ref.family, tuple(sorted(ref.params.items())), ref.complemented)
        refs.setdefault(key, (ref, set()))[1].add((host, value.value))
    assert len(refs) == 853
    for ref, hits in refs.values():
        built, _ = build_ref(ref)
        for host, value in hits:
            assert built.n == host, ref
            assert binom2(built.n) - built.edge_count() == value, ref
        # construct and verify rebuild a printed reference by its name and
        # parameters, so every reference must be one they accept
        base = complement(built) if ref.complemented else built
        rebuilt, _ = build_family(ref.family, ref.params)
        assert to_graph6(rebuilt) == to_graph6(base), ref


def test_value_sweep_checks_rows_with_the_construction_table(monkeypatch):
    # Probe 5.2 once built and double-complemented its own hosts; its rows
    # now take the build_ref + claim_holds check that `table --verify` runs.
    from turanpack import packing, probes

    calls = []

    def counted(g, desc, guard_n=None):
        calls.append(desc.family)
        return claim_holds(g, desc, guard_n=guard_n)

    def refused(*args, **kwargs):
        raise AssertionError("probe 5.2 searched for a clique packing")

    monkeypatch.setattr(probes, "claim_holds", counted)
    monkeypatch.setattr(packing, "find_clique_packing", refused)
    report = probes.probe_value_sweep(4, 3)
    assert report.consistent
    assert calls == ["rigid-union"] * 3 + ["hub-join"] * 5
    assert len(report.rows) == len(calls)
