"""Exact disjoint-set search, its fast path, and witness verification."""

import json
import random
from itertools import combinations
from pathlib import Path

import networkx as nx
import pytest

from turanpack import (Graph, PackingWitness, PreconditionError,
                       SizeGuardError, VertexSet, complement, complete_graph,
                       components, disjoint_union, find_clique_packing,
                       find_disjoint_independent_sets, from_edge_list,
                       from_graph6, independence_number,
                       naive_disjoint_independent_sets, star_graph,
                       union_of_cliques, verify_witness)
from turanpack import packing
from turanpack.graphs import bits, is_clique_union, mask_of
from turanpack.packing import (_alpha_capped, _alpha_mask, _clique_cover_bound,
                               _cover_reaches, _find_disjoint_sets, _greedy_attempt,
                               _bipartition, _has_independent, _last_two_split,
                               _live_vertices)

ROOT = Path(__file__).resolve().parents[1]
POOL_WITNESSES = ROOT / "tests" / "data" / "pack_hard_witnesses.txt"

C5 = from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
PETERSEN = from_edge_list(10, [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
])


def random_graph(n, m, rng):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return from_edge_list(n, pairs[:m])


def test_blocker_has_no_packing():
    g = union_of_cliques([7], 7)  # K7 with 7 isolated vertices, n=14
    assert find_disjoint_independent_sets(g, 4, 3) is None


def test_one_edge_less_yields_witness():
    g = union_of_cliques([7], 7)
    u, v = list(g.edges())[0]
    edges = [e for e in g.edges() if e != (u, v)]
    h = from_edge_list(g.n, edges)
    witness = find_disjoint_independent_sets(h, 4, 3)
    assert witness is not None
    assert verify_witness(h, witness, 4, 3).ok


def test_cycle_two_pairs():
    witness = find_disjoint_independent_sets(C5, 2, 2)
    assert witness is not None
    assert witness.masks() == (0b00101, 0b01010)  # {0,2} and {1,3}
    assert find_disjoint_independent_sets(C5, 2, 3) is None


def test_clique_packing_mirrors_independent_sets():
    g = complete_graph(6)
    witness = find_clique_packing(g, 2, 3)
    assert witness is not None
    assert verify_witness(complement(g), witness, 2, 3).ok
    assert find_clique_packing(C5, 1, 3) is None  # C5 is triangle-free


def test_agrees_with_naive_enumeration():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(4, 11)
        m = rng.randrange(0, n * (n - 1) // 2 + 1)
        g = random_graph(n, m, rng)
        k = rng.randrange(1, 4)
        p = rng.randrange(1, 4)
        fast = find_disjoint_independent_sets(g, k, p)
        slow = naive_disjoint_independent_sets(g, k, p)
        assert (fast is None) == (slow is None), (n, m, k, p)
        if fast is not None:
            assert verify_witness(g, fast, k, p).ok


def test_clique_union_fast_path_matches_search():
    rng = random.Random(11)
    for _ in range(60):
        sizes = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 4))]
        iso = rng.randrange(0, 4)
        g = union_of_cliques(sizes, iso)
        if g.n > 12:
            continue
        for k, p in [(2, 2), (2, 3), (3, 2), (4, 3)]:
            if k * p > g.n:
                continue
            fast = find_disjoint_independent_sets(g, k, p)
            slow = naive_disjoint_independent_sets(g, k, p)
            assert (fast is None) == (slow is None), (sizes, iso, k, p)


def search_pool():
    """Each host of the frozen pack-hard pool with the witness found on it."""
    hosts = [json.loads(line) for line in
             (ROOT / "perfbench" / "data" / "pack_hard.jsonl").read_text().splitlines()
             if line.strip()]
    for host in hosts:
        find = find_clique_packing if host["mode"] == "clique" else find_disjoint_independent_sets
        yield host, find(from_graph6(host["graph6"]), host["k"], host["p"])


def test_pack_hard_pool_witnesses_are_pinned():
    # The first witness found is part of the search's contract: a pruning
    # rule that changed one would have cut a live subtree.
    golden = [line for line in POOL_WITNESSES.read_text().splitlines()
              if not line.startswith("#")]
    searched = list(search_pool())
    assert len(golden) == len(searched) == 72
    for (host, witness), want in zip(searched, golden):
        got = "none" if witness is None else ",".join(str(m) for m in witness.masks())
        assert got == want, host
        assert (witness is None) == (host["expected"] == "none"), host


def test_verify_witness_rejects_bad_witnesses():
    g = union_of_cliques([3, 3], 0)  # two triangles, n=6
    ok = PackingWitness((VertexSet(6, 0b001001), VertexSet(6, 0b010010)))
    assert verify_witness(g, ok, 2, 2).ok

    overlap = PackingWitness((VertexSet(6, 0b001001), VertexSet(6, 0b001001)))
    report = verify_witness(g, overlap, 2, 2)
    assert not report.ok and "overlap" in report.violation

    wrong_size = PackingWitness((VertexSet(6, 0b001001), VertexSet(6, 0b010)))
    assert "expected 2" in verify_witness(g, wrong_size, 2, 2).violation

    not_independent = PackingWitness((VertexSet(6, 0b000011), VertexSet(6, 0b011000)))
    assert "not independent" in verify_witness(g, not_independent, 2, 2).violation

    too_few = PackingWitness((VertexSet(6, 0b001001),))
    assert "expected 2 sets" in verify_witness(g, too_few, 2, 2).violation

    wrong_host = PackingWitness((VertexSet(5, 0b00101), VertexSet(5, 0b01010)))
    assert "bound to n=5" in verify_witness(g, wrong_host, 2, 2).violation

    clique_mode = PackingWitness((VertexSet(6, 0b000111), VertexSet(6, 0b111000)))
    assert verify_witness(g, clique_mode, 2, 3, mode="clique").ok
    assert not verify_witness(g, ok, 2, 2, mode="clique").ok
    with pytest.raises(PreconditionError):
        verify_witness(g, ok, 2, 2, mode="mystery")


def test_independence_number():
    assert independence_number(C5) == 2
    assert independence_number(Graph(7, [0] * 7)) == 7
    assert independence_number(complete_graph(7)) == 1
    assert independence_number(PETERSEN) == 4


def test_guard_refuses_large_irregular_hosts():
    rng = random.Random(3)
    base = random_graph(65, 80, rng)
    with pytest.raises(SizeGuardError):
        find_disjoint_independent_sets(base, 4, 3)
    # raising the guard admits the search
    assert find_disjoint_independent_sets(base, 4, 3, guard_n=70) is not None


def test_clique_union_fast_path_ignores_guard_size():
    # clique unions are resolved analytically, so large hosts are fine
    g = union_of_cliques([7] * 20, 50)  # n=190
    assert g.n == 190
    witness = find_disjoint_independent_sets(g, 4, 3)
    assert witness is not None
    assert verify_witness(g, witness, 4, 3).ok
    # 20 components supply at most 20 vertices per independent set. . .
    assert find_disjoint_independent_sets(g, 4, 25) is not None
    # . . .but a 71-set needs more vertices than any selection can give
    big = union_of_cliques([7] * 20, 0)
    assert find_disjoint_independent_sets(big, 2, 15) is not None
    assert find_disjoint_independent_sets(big, 2, 21) is None


def test_trivial_patterns():
    g = union_of_cliques([3], 0)
    assert find_disjoint_independent_sets(g, 1, 1) is not None
    with pytest.raises(PreconditionError):
        find_disjoint_independent_sets(g, 0, 3)
    assert find_disjoint_independent_sets(g, 4, 1) is None  # only 3 vertices


# -- the bounds prune only ------------------------------------------------------


def unbounded_search(g, sizes):
    """The packing core's depth-first order with every bound removed: sets by
    descending size, equal sizes with increasing minima, members low first."""
    sizes = tuple(sorted(sizes, reverse=True))
    k = len(sizes)

    def sets_from(set_mask, left, cand):
        if left == 0:
            yield set_mask
            return
        for v in bits(cand):
            above = cand >> (v + 1) << (v + 1)
            yield from sets_from(set_mask | 1 << v, left - 1, above & ~g.adj[v])

    def place(idx, avail, floor):
        if idx == k:
            return []
        need = sizes[idx]
        start = floor if idx > 0 and sizes[idx - 1] == need else 0
        for first in bits(avail >> start << start):
            above = avail >> (first + 1) << (first + 1)
            for set_mask in sets_from(1 << first, need - 1, above & ~g.adj[first]):
                rest = place(idx + 1, avail & ~set_mask, first + 1)
                if rest is not None:
                    return [set_mask] + rest
        return None

    return place(0, g.full_mask(), 0)


def reference_core(g, sizes):
    """What _find_disjoint_sets answers on a host that is not a clique union:
    the greedy pass, else the unbounded search."""
    if sum(sizes) > g.n:
        return None
    sizes = tuple(sorted(sizes, reverse=True))
    greedy = _greedy_attempt(g, sizes)
    return greedy if greedy is not None else unbounded_search(g, sizes)


def small_components(rng, count):
    """Disjoint union of random connected non-clique graphs on 4..7 vertices."""
    parts = []
    while len(parts) < count:
        n = rng.randrange(4, 8)
        h = random_graph(n, rng.randrange(n - 1, n * (n - 1) // 2), rng)
        if len(components(h)) == 1 and not is_clique_union(h):
            parts.append(h)
    return disjoint_union(*parts)


def assert_prunes_only(cases):
    searched = nones = 0
    for g, sizes in cases:
        assert not is_clique_union(g)
        got = _find_disjoint_sets(g, sizes, None)
        assert got == reference_core(g, sizes), (g, sizes)
        if _greedy_attempt(g, tuple(sorted(sizes, reverse=True))) is None:
            searched += 1
            nones += got is None
    return searched, nones


def test_bounds_prune_only_on_tight_hosts():
    rng = random.Random(41)
    cases = []
    while len(cases) < 150:
        k = rng.randrange(2, 5)
        p = rng.randrange(2, 16 // k + 1)
        n = k * p
        g = random_graph(n, rng.randrange(n // 2, n * (n - 1) // 3 + 1), rng)
        if not is_clique_union(g):
            cases.append((g, (p,) * k))
    searched, nones = assert_prunes_only(cases)
    assert searched >= 50 and nones >= 20, (searched, nones)


def test_bounds_prune_only_on_multi_component_hosts():
    # Components whose independence number exceeds p are where the cap on
    # the per-component alpha tightens the supply bound.
    rng = random.Random(43)
    cases = []
    capped = 0
    for _ in range(120):
        g = small_components(rng, rng.randrange(2, 4))
        p = rng.randrange(2, 5)
        k = max(1, g.n // p - rng.randrange(0, 2))
        cases.append((g, (p,) * k))
        capped += any(_alpha_mask(g.adj, comp, {}) > p for comp in components(g))
    searched, nones = assert_prunes_only(cases)
    assert searched >= 40 and nones >= 5 and capped >= 20, (searched, nones, capped)


def test_bounds_prune_only_with_mixed_sizes():
    # Only the smallest-size group has the leftover-vertex budget; the larger
    # sets before it restart their minima at 0.
    rng = random.Random(47)
    cases = []
    while len(cases) < 200:
        sizes = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(2, 5)))
        if len(set(sizes)) == 1:
            continue
        n = sum(sizes) + rng.randrange(0, 2)
        if n > 14:
            continue
        if rng.random() < 0.5:
            g = random_graph(n, rng.randrange(n // 2, n * (n - 1) // 3 + 1), rng)
        else:
            g = small_components(rng, 3)
        if not is_clique_union(g) and sum(sizes) <= g.n:
            cases.append((g, sizes))
    searched, nones = assert_prunes_only(cases)
    assert searched >= 40 and nones >= 15, (searched, nones)


def test_agrees_with_naive_at_the_threshold():
    # n = kp and n = kp + 1: where the leftover-vertex budget cuts hardest.
    rng = random.Random(53)
    outcomes = {True: 0, False: 0}
    for _ in range(160):
        k = rng.randrange(2, 5)
        p = rng.randrange(2, 12 // k + 1)
        n = k * p + rng.randrange(0, 2)
        g = random_graph(n, rng.randrange(n, n * (n - 1) // 3 + 1), rng)
        fast = find_disjoint_independent_sets(g, k, p)
        slow = naive_disjoint_independent_sets(g, k, p)
        assert (fast is None) == (slow is None), (g, k, p)
        if fast is not None:
            assert verify_witness(g, fast, k, p).ok
        outcomes[fast is not None] += 1
    assert min(outcomes.values()) >= 30, outcomes


def alpha_brute(g, mask):
    members = list(bits(mask))
    return max(r for r in range(len(members) + 1)
               if any(g.is_independent(mask_of(chosen)) for chosen in combinations(members, r)))


def test_capped_alpha_is_min_of_alpha_and_cap():
    # _alpha_mask for every cap 0..n+1 and uncapped, and _alpha_capped (its
    # greedy pre-pass first) for every positive cap, against brute force.
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randrange(1, 13)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), rng)
        for mask in components(g) + [rng.getrandbits(n)]:
            alpha = alpha_brute(g, mask)
            assert _alpha_mask(g.adj, mask, {}) == alpha, (g, mask)
            for cap in range(n + 2):
                assert _alpha_mask(g.adj, mask, {}, cap) == min(alpha, cap), (g, mask, cap)
                if cap:
                    assert _alpha_capped(g.adj, mask, cap, {}) == min(alpha, cap), (g, mask, cap)


def test_alpha_mask_memo_survives_mixed_caps():
    # One memo across calls with small caps first: an early exit stored as
    # if it were exact would show up as a too-small alpha later.
    rng = random.Random(97)
    for _ in range(60):
        n = rng.randrange(4, 13)
        g = random_graph(n, rng.randrange(n // 2, n * (n - 1) // 3 + 1), rng)
        masks = [g.full_mask()] + [rng.getrandbits(n) for _ in range(6)]
        expected = {mask: alpha_brute(g, mask) for mask in masks}
        memo = {}
        for cap in [1, 2, 1, 3, 2, None, 4, 3, None]:
            for mask in masks:
                want = expected[mask] if cap is None else min(expected[mask], cap)
                assert _alpha_mask(g.adj, mask, memo, cap) == want, (g, mask, cap)
        assert all(memo[mask] == alpha_brute(g, mask) for mask in memo)


def test_alpha_mask_stops_at_the_cap():
    # Three disjoint triangles: taking a vertex of maximum degree three times
    # reaches cap 3 at once, so no sub-call finishes exactly and nothing is
    # stored. A take branch searched with cap instead of cap - 1 runs on.
    g = union_of_cliques([3, 3, 3], 1)
    g = from_edge_list(g.n, list(g.edges()) + [(0, 9)])
    memo = {}
    assert _alpha_mask(g.adj, g.full_mask(), memo, 3) == 3
    assert memo == {}
    assert _alpha_mask(g.adj, g.full_mask(), memo) == 4
    assert memo[g.full_mask()] == 4


# -- the tight-host endgame ------------------------------------------------------


def split_sizes(g, mask):
    """Every |A| over the splits of mask into independent sets A and B."""
    members = list(bits(mask))
    return {r for r in range(len(members) + 1)
            for chosen in combinations(members, r)
            if g.is_independent(mask_of(chosen))
            and g.is_independent(mask & ~mask_of(chosen))}


def test_two_split_helper_matches_brute_force():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randrange(0, 13)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 4 + 1), rng)
        mask = rng.getrandbits(n) if n else 0
        expected = split_sizes(g, mask)
        for size in range(mask.bit_count() + 2):
            got = _last_two_split(g.adj, mask, size, 0)
            assert (got is not None) == (size in expected), (g, mask, size)


def test_two_split_helper_finds_conflicts_in_the_last_layer():
    # An odd cycle 0-1-...-(2r)-0 searched from 0 has its one edge inside a
    # BFS layer, r-(r+1), in the last layer. Pendant paths push the last
    # layer further out, so the conflict also sits in a middle layer; a
    # bipartite component in front keeps the scan going past the first one.
    rng = random.Random(89)
    for r in range(1, 5):
        for tail in (0, 1, 4):
            for lead in (0, 2):
                cycle = 2 * r + 1
                edges = [(lead + i, lead + (i + 1) % cycle) for i in range(cycle)]
                edges += [(v, v + 1) for v in range(lead + cycle - 1, lead + cycle + tail - 1)]
                edges += [(v, v + 1) for v in range(lead - 1)]
                n = lead + cycle + tail
                for shuffle in (False, True):
                    perm = list(range(n))
                    if shuffle:
                        rng.shuffle(perm)
                    g = from_edge_list(n, [(perm[u], perm[v]) for u, v in edges])
                    mask = g.full_mask()
                    for size in range(n + 1):
                        assert _last_two_split(g.adj, mask, size, 0) is None, (g, size)
                    # one vertex off the cycle makes it a bipartite path
                    cut = mask & ~(1 << perm[lead + r])
                    expected = split_sizes(g, cut)
                    assert expected
                    for size in range(n + 1):
                        got = _last_two_split(g.adj, cut, size, 0)
                        assert (got is not None) == (size in expected), (g, size)


def lex_first_split(g, mask, size, start):
    """The first size-subset S of mask in lex order with min(S) >= start
    such that S and mask - S are both independent; None when there is none."""
    for chosen in combinations(bits(mask), size):
        s = mask_of(chosen)
        if chosen[0] >= start and g.is_independent(s) and g.is_independent(mask & ~s):
            return s
    return None


def test_last_two_split_is_the_lex_first_split():
    rng = random.Random(101)
    found = forbidden = 0
    for _ in range(400):
        n = rng.randrange(0, 13)
        g = random_graph(n, rng.randrange(0, n + 3), rng)  # sparse: mostly bipartite
        mask = rng.getrandbits(n) if n else 0
        lowest = (mask & -mask).bit_length() - 1
        for size in range(1, mask.bit_count() + 1):
            for start in sorted({0, lowest + 1, rng.randrange(0, n + 1)}):
                got = _last_two_split(g.adj, mask, size, start)
                assert got == lex_first_split(g, mask, size, start), (g, mask, size, start)
                found += got is not None
                forbidden += got is not None and start > lowest
    assert found >= 500 and forbidden >= 200, (found, forbidden)


def record_split_calls(monkeypatch):
    """Route packing._last_two_split through a recorder of its arguments
    and answers."""
    seen = []

    def recording(adj, avail, size, start):
        got = _last_two_split(adj, avail, size, start)
        seen.append((adj, avail, size, start, got))
        return got

    monkeypatch.setattr(packing, "_last_two_split", recording)
    return seen


def test_endgame_prunes_only_on_tight_hosts(monkeypatch):
    # On a tight host the last two sets are refuted when G[avail] is not
    # bipartite or has no split with a side of the wanted size, and built
    # from the split otherwise; the last set is the rest of avail.
    seen = record_split_calls(monkeypatch)
    rng = random.Random(67)
    cases = []
    while len(cases) < 240:
        if rng.random() < 0.5:
            k = rng.randrange(2, 5)
            sizes = (rng.randrange(2, 14 // k + 1),) * k
        else:
            # the last two sizes differ: the subset sum must reach sizes[-2]
            sizes = tuple(sorted((rng.randrange(1, 5) for _ in range(rng.randrange(2, 5))),
                                 reverse=True))
            if sizes[-2] == sizes[-1] or sum(sizes) > 14:
                continue
        n = sum(sizes)
        g = random_graph(n, rng.randrange(n // 2, n * (n - 1) // 3 + 1), rng)
        if not is_clique_union(g):
            cases.append((g, sizes))
    searched, nones = assert_prunes_only(cases)
    assert searched >= 150 and nones >= 60, (searched, nones)
    ways = {"not bipartite": 0, "unbalanced": 0, "balanced": 0}
    mixed_targets = 0
    for adj, mask, size, *_ in seen[:3000]:
        found = split_sizes(Graph(len(adj), adj), mask)
        way = "not bipartite" if not found else "balanced" if size in found else "unbalanced"
        ways[way] += 1
        mixed_targets += 2 * size != mask.bit_count()
    assert min(ways.values()) >= 20 and mixed_targets >= 20, (ways, mixed_targets)


def test_endgame_prunes_only_with_a_start_above_the_lowest_vertex(monkeypatch):
    # k = 1..4 on tight hosts. With sizes like (3, 3, 2) the next-to-last
    # set shares its size with the set before it but not with the last one,
    # so it starts above that set's first vertex while lower vertices may
    # still be available; they must then go to the last set. Joining vertex
    # 0 to all but one vertex leaves it in no independent set of more than
    # two vertices, so it waits for a last set of size 2 or less.
    seen = record_split_calls(monkeypatch)
    rng = random.Random(103)
    cases = []
    while len(cases) < 300:
        k = rng.randrange(1, 5)
        low = rng.randrange(1, 4)
        sizes = tuple(sorted([low] + [rng.randrange(low, low + 3) for _ in range(k - 1)],
                             reverse=True))
        if k >= 3 and rng.random() < 0.6:
            sizes = sizes[:k - 2] + (sizes[k - 3],) + sizes[k - 1:]
        n = sum(sizes)
        if n > 12:
            continue
        g = random_graph(n, rng.randrange(n // 2, 4 * n // 5 + 2), rng)
        if n > 1 and rng.random() < 0.5:
            u = rng.randrange(1, n)
            g = from_edge_list(n, [e for e in g.edges() if 0 not in e]
                               + [(0, v) for v in range(1, n) if v != u])
        if not is_clique_union(g):
            cases.append((g, sizes))
    searched, nones = assert_prunes_only(cases)
    assert searched >= 150 and nones >= 60, (searched, nones)
    assert sum(len(sizes) == 1 for _, sizes in cases) >= 10
    above = [call for call in seen if call[3] > (call[1] & -call[1]).bit_length() - 1]
    assert len(above) >= 500 and sum(call[4] is not None for call in above) >= 10, \
        (len(above), sum(call[4] is not None for call in above))
    # Last two sets of one size: the budget would let only min(avail) start
    # the set, and the split holds it without being told.
    equal = [(avail, start, got) for _, avail, size, start, got in seen
             if 2 * size == avail.bit_count()]
    assert all(start <= (avail & -avail).bit_length() - 1 for avail, start, _ in equal)
    held = [got & avail & -avail for avail, _, got in equal if got is not None]
    assert all(held) and len(held) >= 30 and len(seen) - len(equal) >= 500, \
        (len(held), len(seen) - len(equal))


# -- the odd-cycle cut on the third-from-last set ----------------------------------


def test_bipartition_matches_brute_force():
    # None exactly when no split into two independent sets exists; otherwise
    # one [lower, upper] pair per component of G[mask], in order of lowest
    # vertex, the lower side holding it, both sides independent.
    rng = random.Random(107)
    odd = 0
    for _ in range(400):
        n = rng.randrange(0, 13)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 3 + 1), rng)
        mask = rng.getrandbits(n) if n else 0
        sides = _bipartition(g.adj, mask)
        assert (sides is None) == (not split_sizes(g, mask)), (g, mask)
        if sides is None:
            odd += 1
            continue
        sub = nx.Graph()
        sub.add_nodes_from(bits(mask))
        sub.add_edges_from((u, v) for u, v in g.edges() if mask >> u & 1 and mask >> v & 1)
        comps = sorted((mask_of(c) for c in nx.connected_components(sub)),
                       key=lambda c: c & -c)
        assert [lower | upper for lower, upper in sides] == comps, (g, mask)
        for (lower, upper), comp in zip(sides, comps):
            assert lower & upper == 0 and lower & comp & -comp
            assert g.is_independent(lower) and g.is_independent(upper), (g, mask)
    assert odd >= 50 and 400 - odd >= 250, odd


def record_odd_cycle_cuts(monkeypatch):
    """Spy on the odd-cycle rule: the answer of every packing._bipartition
    call made outside _last_two_split, True when it cut the branch."""
    cuts = []
    in_split = []

    def splitting(*args):
        in_split.append(True)
        try:
            return _last_two_split(*args)
        finally:
            in_split.pop()

    def recording(adj, mask):
        sides = _bipartition(adj, mask)
        if not in_split:
            cuts.append(sides is None)
        return sides

    monkeypatch.setattr(packing, "_last_two_split", splitting)
    monkeypatch.setattr(packing, "_bipartition", recording)
    return cuts


def test_odd_cycle_rule_prunes_only_on_tight_hosts(monkeypatch):
    # While the third-from-last set grows on a tight host, the vertices it
    # can no longer take go to the last two sets, which need them to split
    # into two independent sets: an odd cycle among them cuts the branch.
    # k = 3..5 with equal and mixed sizes, n <= 14; the rule must only
    # prune, and never run on slack hosts or with k <= 2.
    cuts = record_odd_cycle_cuts(monkeypatch)
    rng = random.Random(109)
    cases = {"tight": [], "other": []}
    while len(cases["tight"]) < 200 or len(cases["other"]) < 120:
        k = rng.randrange(1, 6)
        if rng.random() < 0.5:
            sizes = (rng.randrange(2, 14 // k + 1),) * k
        else:
            sizes = tuple(sorted((rng.randrange(1, 5) for _ in range(k)), reverse=True))
        slack = rng.randrange(1, 3) if rng.random() < 0.3 else 0
        n = sum(sizes) + slack
        if n > 14 or n < 3:
            continue
        g = random_graph(n, rng.randrange(n // 2, n * (n - 1) // 3 + 1), rng)
        if is_clique_union(g):
            continue
        kind = "tight" if slack == 0 and k >= 3 else "other"
        if len(cases[kind]) < (200 if kind == "tight" else 120):
            cases[kind].append((g, sizes))
    searched = nones = ran = 0
    for kind, group in cases.items():
        for g, sizes in group:
            before = len(cuts)
            got_searched, got_none = assert_prunes_only([(g, sizes)])
            searched += got_searched
            nones += got_none
            if kind == "other":
                assert len(cuts) == before, (g, sizes)
            else:
                ran += len(cuts) > before
            if len(set(sizes)) == 1:
                fast = find_disjoint_independent_sets(g, len(sizes), sizes[0])
                slow = naive_disjoint_independent_sets(g, len(sizes), sizes[0])
                assert (fast is None) == (slow is None), (g, sizes)
    assert searched >= 150 and nones >= 60 and ran >= 60, (searched, nones, ran)
    assert cuts.count(True) >= 300 and cuts.count(False) >= 300, \
        (cuts.count(True), cuts.count(False))


def test_pool_pass_makes_few_last_two_splits(monkeypatch):
    # The odd-cycle rule refutes most non-bipartite leftovers before the
    # split sees them: one pass over the frozen pack-hard pool made 3,288
    # split calls without it and 335 with it.
    seen = record_split_calls(monkeypatch)
    assert len(list(search_pool())) == 72
    assert 0 < len(seen) <= 400, len(seen)


# -- dead vertices at the root ----------------------------------------------------


def has_independent_brute(g, mask, need):
    return any(g.is_independent(mask_of(chosen))
               for chosen in combinations(bits(mask), need))


def test_independent_set_helper_matches_brute_force():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randrange(0, 13)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), rng)
        mask = rng.getrandbits(n) if n else 0
        for need in range(mask.bit_count() + 2):
            assert _has_independent(g.adj, mask, need) == has_independent_brute(g, mask, need), \
                (g, mask, need)


def test_live_vertices_are_those_in_some_independent_set():
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randrange(1, 13)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), rng)
        for size in range(1, 5):
            expected = 0
            for v in range(n):
                rest = g.full_mask() & ~g.adj[v] & ~(1 << v)
                if has_independent_brute(g, rest, size - 1):
                    expected |= 1 << v
            assert _live_vertices(g, size) == expected, (g, size)


def planted_clique_and_star(rng, a, b, flips, bridges=0):
    """K_a + K_(1,b) with its labels shuffled and a few pairs flipped;
    bridges joins that many clique vertices to star leaves first."""
    g = disjoint_union(complete_graph(a), star_graph(b))
    edges = set(g.edges())
    for _ in range(bridges):
        edges.add((rng.randrange(a), rng.randrange(a + 1, g.n)))
    for _ in range(flips):
        edges ^= {tuple(sorted(rng.sample(range(g.n), 2)))}
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in edges])


def test_dead_vertex_rule_prunes_only_on_slack_hosts(monkeypatch):
    # Slack hosts (sum of sizes below n): vertices in no independent set of
    # the smallest size leave the root, and too few left refutes the host.
    # Tight hosts are mixed in: the rule must not run on them.
    calls = []

    def recording(g, size):
        live = _live_vertices(g, size)
        calls.append((g, size, live))
        return live

    monkeypatch.setattr(packing, "_live_vertices", recording)
    rng = random.Random(79)
    cases = []
    while len(cases) < 400:
        shape = rng.random()
        slack = rng.randrange(1, 5) if rng.random() < 0.9 else 0
        if shape < 0.3:
            # equal sizes on a planted clique plus star
            k = rng.randrange(2, 5)
            sizes = (rng.randrange(2, 12 // k + 1),) * k
            n = sum(sizes) + slack
            a = rng.randrange(2, n - 1)
            g = planted_clique_and_star(rng, a, n - a - 1, rng.randrange(0, 3))
        else:
            if shape < 0.65:
                k = rng.randrange(2, 5)
                sizes = (rng.randrange(2, 12 // k + 1),) * k
            else:
                sizes = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(2, 5)))
                if len(set(sizes)) == 1 or sum(sizes) > 12:
                    continue
            n = sum(sizes) + slack
            g = random_graph(n, rng.randrange(n // 2, n * (n - 1) // 2 + 1), rng)
        if not is_clique_union(g):
            cases.append((g, sizes))
    searched, nones = assert_prunes_only(cases)
    assert searched >= 150 and nones >= 60, (searched, nones)
    # The rule runs once per search on a slack host, after the greedy pass failed.
    slack_searches = [(g, sizes) for g, sizes in cases if sum(sizes) < g.n
                      and _greedy_attempt(g, tuple(sorted(sizes, reverse=True))) is None]
    assert [(g, min(sizes)) for g, sizes in slack_searches] == [(g, size) for g, size, _ in calls]
    assert len(slack_searches) < searched  # some searches were on tight hosts
    dead = refuted = exact_fit = 0
    for (g, sizes), (_, _, live) in zip(slack_searches, calls):
        dead += live != g.full_mask()
        refuted += live.bit_count() < sum(sizes)
        exact_fit += live.bit_count() == sum(sizes) and reference_core(g, sizes) is not None
    assert dead >= 50 and refuted >= 20 and exact_fit >= 3, (dead, refuted, exact_fit)


def test_sporadic_blocker_is_refuted_at_the_root(monkeypatch):
    # G4's host K8 + K_(1,7): the hub is dead (its non-neighbours form a
    # clique), and then the supply bound gives 4 + 7 < 12 at the root.
    supply_bound = packing._supply_bound
    calls = []

    def counting(*args):
        calls.append(args)
        return supply_bound(*args)

    monkeypatch.setattr(packing, "_supply_bound", counting)
    g = disjoint_union(complete_graph(8), star_graph(7))
    assert _find_disjoint_sets(g, (3, 3, 3, 3), None) is None
    assert len(calls) <= 1


# -- the clique-cover bound at the root ---------------------------------------------


FOUND_SLACK_HOST = "SADO?@S?DU_@?ATGIcG?OTGW?G??OAhBO"


def test_clique_cover_rule_prunes_only_on_slack_hosts(monkeypatch):
    # After the dead-vertex rule, a greedy clique cover of the live vertices
    # bounds what k sets can take: min(|Q|, k) per clique. It runs once per
    # slack search that the dead-vertex rule left standing, never on a tight
    # host, and it must only prune.
    calls = []

    def recording(adj, mask, k):
        bound = _clique_cover_bound(adj, mask, k)
        calls.append((adj, mask, k, bound))
        return bound

    monkeypatch.setattr(packing, "_clique_cover_bound", recording)
    rng = random.Random(83)
    cases = []
    while len(cases) < 400:
        slack = rng.randrange(1, 5) if rng.random() < 0.9 else 0
        if rng.random() < 0.5:
            k = rng.randrange(2, 5)
            sizes = (rng.randrange(2, 12 // k + 1),) * k
        else:
            sizes = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(2, 5)))
            if len(set(sizes)) == 1 or sum(sizes) > 12:
                continue
        n = sum(sizes) + slack
        if rng.random() < 0.5 and n >= 5:
            # a clique plus a star, some leaves joined to the clique: the
            # shape of FOUND_SLACK_HOST
            a = rng.randrange(2, n - 2)
            g = planted_clique_and_star(rng, a, n - a - 1, rng.randrange(0, 2),
                                        rng.randrange(0, 3))
        else:
            g = random_graph(n, rng.randrange(n // 2, n * (n - 1) // 2 + 1), rng)
        if not is_clique_union(g):
            cases.append((g, sizes))
    searched, nones = assert_prunes_only(cases)
    assert searched >= 150 and nones >= 60, (searched, nones)
    expected = []
    for g, sizes in cases:
        if sum(sizes) < g.n and _greedy_attempt(g, tuple(sorted(sizes, reverse=True))) is None:
            live = _live_vertices(g, min(sizes))
            if live.bit_count() >= sum(sizes):
                expected.append((g, sizes, live))
    assert [(g.adj, live, len(sizes)) for g, sizes, live in expected] == \
        [call[:3] for call in calls]
    refuted = fits = 0
    for (g, sizes, _), (_, _, _, bound) in zip(expected, calls):
        refuted += bound < sum(sizes)
        fits += bound == sum(sizes) and reference_core(g, sizes) is not None
    assert refuted >= 40 and fits >= 10, (refuted, fits)


def test_found_slack_host_is_refuted_at_the_root(monkeypatch):
    # K8 plus a star K_(1,11) whose leaf 4 is also joined to the clique
    # (n = 20, k = p = 4). The hub is dead, and the clique cover of the 19
    # live vertices gives 4 for the K8 plus 1 per leaf: 15 < 16. No
    # component alpha and no supply bound is ever computed.
    calls = []
    for name in ("_supply_bound", "_alpha_capped"):
        original = getattr(packing, name)

        def counting(*args, original=original, name=name):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(packing, name, counting)
    g = from_graph6(FOUND_SLACK_HOST)
    assert (g.n, g.edge_count()) == (20, 40)
    assert find_disjoint_independent_sets(g, 4, 4) is None
    assert calls == []


# -- the clique-cover bound inside each set -------------------------------------------


def record_cover_calls(monkeypatch):
    """Spy on packing._cover_reaches; returns the list of its answers."""
    calls = []

    def recording(adj, mask, target):
        reaches = _cover_reaches(adj, mask, target)
        calls.append(reaches)
        return reaches

    monkeypatch.setattr(packing, "_cover_reaches", recording)
    return calls


def test_cover_reaches_never_undercounts_alpha():
    # A greedy cover with fewer than t cliques proves alpha < t: the helper
    # may answer True when alpha < t, but never False when alpha >= t.
    rng = random.Random(101)
    short = 0
    for _ in range(400):
        n = rng.randrange(0, 13)
        g = random_graph(n, rng.randrange(0, n * (n - 1) // 2 + 1), rng)
        mask = rng.getrandbits(n) if n else 0
        alpha = alpha_brute(g, mask)
        for target in range(1, mask.bit_count() + 2):
            reaches = _cover_reaches(g.adj, mask, target)
            if not reaches:
                assert alpha < target, (g, mask, target)
                short += target <= mask.bit_count()
        assert _cover_reaches(g.adj, mask, 1) == (mask != 0)
    assert short >= 300, short


def test_cover_rule_in_the_set_search_prunes_only_on_slack_hosts(monkeypatch):
    # Inside each set, a candidate mask whose greedy clique cover holds fewer
    # cliques than the vertices still wanted cannot complete the set. The
    # rule runs only on slack hosts, and must only prune. 400 slack hosts,
    # planted clique-plus-star and random, equal and mixed sizes, with tight
    # hosts mixed in.
    calls = record_cover_calls(monkeypatch)
    rng = random.Random(103)
    cases = {"slack": [], "tight": []}
    while len(cases["slack"]) < 400:
        slack = rng.randrange(1, 5) if rng.random() < 0.85 else 0
        if rng.random() < 0.5:
            k = rng.randrange(2, 5)
            sizes = (rng.randrange(2, 14 // k + 1),) * k
        else:
            sizes = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(2, 5)))
            if len(set(sizes)) == 1 or sum(sizes) > 14:
                continue
        n = sum(sizes) + slack
        if n < 5:
            continue
        if rng.random() < 0.3:
            a = rng.randrange(2, n - 2)
            g = planted_clique_and_star(rng, a, n - a - 1, rng.randrange(0, 3),
                                        rng.randrange(0, 3))
        else:
            g = random_graph(n, rng.randrange(n // 2, n * (n - 1) // 3 + 1), rng)
        if not is_clique_union(g):
            cases["tight" if slack == 0 else "slack"].append((g, sizes))
    ran = searched = nones = 0
    for kind, group in cases.items():
        for case in group:
            before = len(calls)
            got_searched, got_none = assert_prunes_only([case])
            searched += got_searched
            nones += got_none
            if kind == "tight":
                assert len(calls) == before, case
            else:
                ran += len(calls) > before
    assert searched >= 200 and nones >= 80 and len(cases["tight"]) >= 40, \
        (searched, nones, len(cases["tight"]))
    assert ran >= 60 and calls.count(False) >= 100 and calls.count(True) >= 250, \
        (ran, calls.count(False), calls.count(True))


# A sparse slack host: probes.random_bounded_graph(57, 285, 10, random.Random(2)).
SPARSE_SLACK_HOST = (
    "x?yQ?AX??A_Gc@CCW?A?@?g?D_@I?_G?PKA???G?C?A_EFA]ECoAO???@HAHA@??Oc?c??AH"
    "@QC?I?CK?APC??Cg?cA?CG?Ca?OG?A__H????@EA?Aa?Ci`?Ja?C??_@r??S@rGA??g?OgOD"
    "?CA??MF`??__@s?CoW??I_cR?OO_G?GKEROG?DO_s???_CA_?PK_?GhW_A?COG?E?gCPA_?O"
    "Gd@gI?_Rw??O?W?_DBCQ??a@A_@?Ao_C?H??Glg??EO?_GSCQC?")


def test_sparse_slack_host_is_refuted_inside_the_sets(monkeypatch):
    # n = 57, 285 edges, max degree 10, k = 4, p = 14 (answer "none"): no
    # root rule binds, and the in-set cover cuts most of the set search.
    calls = record_cover_calls(monkeypatch)
    g = from_graph6(SPARSE_SLACK_HOST)
    assert (g.n, g.edge_count(), g.max_degree()) == (57, 285, 10)
    assert find_disjoint_independent_sets(g, 4, 14) is None
    assert len(calls) >= 10000 and calls.count(False) >= len(calls) // 2, \
        (len(calls), calls.count(False))
