"""Exhaustive small-host oracle against a from-scratch reference."""

import itertools
from pathlib import Path

import pytest

from turanpack import (PreconditionError, SizeGuardError, SoundnessAlarm,
                       binom2, complement, exhaustive_ex, exhaustive_ex_sizes,
                       from_edge_list, naive_disjoint_independent_sets,
                       naive_independent_sets, to_graph6, union_of_cliques,
                       verify_witness)
from turanpack.oracle import _blocker_within, _placement_masks

GOLDEN = Path(__file__).resolve().parent / "data" / "oracle_golden.txt"


def has_disjoint_cliques(g, k, p):
    """Whether g holds k vertex-disjoint p-cliques, by the naive packing
    search on the complement."""
    return naive_disjoint_independent_sets(complement(g), k, p) is not None


def reference_ex(n, sizes):
    """Pure-itertools recount: max edges over all graphs on n labeled
    vertices containing no disjoint union of cliques of the given sizes,
    and the smallest edge mask attaining it."""
    pairs = list(itertools.combinations(range(n), 2))
    placements = []
    for groups in distinct_placements(n, sizes):
        mask = 0
        for i, (u, v) in enumerate(pairs):
            take = any(u in grp and v in grp for grp in groups)
            if take:
                mask |= 1 << i
        placements.append(mask)
    best, best_mask = -1, None
    for mask in range(1 << len(pairs)):
        if any(mask & pl == pl for pl in placements):
            continue
        count = bin(mask).count("1")
        if count > best:
            best, best_mask = count, mask
    if best < 0:
        raise PreconditionError("pattern unavoidable")
    return best, best_mask


def graph6_of_mask(n, mask):
    pairs = itertools.combinations(range(n), 2)
    return to_graph6(from_edge_list(
        n, [pair for e, pair in enumerate(pairs) if mask >> e & 1]))


def size_tuples(n):
    """Every non-increasing tuple of positive sizes with sum <= n + 1."""
    def rec(room, largest):
        yield ()
        for first in range(min(room, largest), 0, -1):
            for rest in rec(room - first, first):
                yield (first,) + rest
    return [sizes for sizes in rec(n + 1, n + 1) if sizes]


def oracle_line(n, sizes):
    """The oracle's answer in the golden file's notation."""
    try:
        value, extremal = exhaustive_ex_sizes(n, sizes)
    except PreconditionError as exc:
        assert "contains the pattern" in str(exc)
        return "unavoidable"
    return f"{value} {to_graph6(extremal)}"


def distinct_placements(n, sizes):
    """All ways to pick disjoint vertex sets of the given sizes."""
    def rec(rest, used):
        if not rest:
            yield ()
            return
        size, tail = rest[0], rest[1:]
        for grp in itertools.combinations(sorted(set(range(n)) - used), size):
            for more in rec(tail, used | set(grp)):
                yield (set(grp),) + more
    seen = set()
    for choice in rec(tuple(sizes), set()):
        key = frozenset(frozenset(grp) for grp in choice)
        if key not in seen:
            seen.add(key)
            yield choice


def test_matches_reference_on_tiny_hosts():
    # the reference scans masks in increasing order, so its first maximum is
    # the smallest mask; the oracle must return that same graph
    for n in range(0, 6):
        for sizes in size_tuples(n):
            try:
                value, mask = reference_ex(n, sizes)
                want = f"{value} {graph6_of_mask(n, mask)}"
            except PreconditionError:
                want = "unavoidable"
            assert oracle_line(n, sizes) == want, (n, sizes)
        for k, p in [(1, 2), (1, 3), (2, 2)]:
            if k * p <= n:
                extremal = exhaustive_ex(n, k, p)[1]
                assert has_disjoint_cliques(extremal, k, p) is False


def test_oracle_matches_the_golden_file():
    golden = {}
    for line in GOLDEN.read_text().splitlines():
        if line.startswith("#"):
            continue
        n, sizes, answer = line.split(" ", 2)
        golden[int(n), tuple(int(s) for s in sizes.split(","))] = answer
    assert sorted(golden) == sorted((n, sizes) for n in range(8)
                                    for sizes in size_tuples(n))
    got = {case: oracle_line(*case) for case in golden}
    wrong = {case: answer for case, answer in got.items() if answer != golden[case]}
    assert not wrong, wrong


def test_budgeted_search_is_exact_at_the_minimum():
    # the blocker search must succeed at budget tau = C(n,2) - ex and fail
    # just below it; a prune one too eager would only succeed at tau + 1
    for n in range(2, 8):
        for sizes in size_tuples(n):
            placements = _placement_masks(n, sizes)
            if not placements or 0 in placements:
                continue
            tau = binom2(n) - exhaustive_ex_sizes(n, sizes)[0]
            assert _blocker_within(placements, tau - 1) is None, (n, sizes)
            assert _blocker_within(placements, tau).bit_count() == tau, (n, sizes)


def test_bad_blocker_raises_soundness_alarm(monkeypatch):
    from turanpack import oracle

    # an empty blocker leaves every placement inside the returned graph
    monkeypatch.setattr(oracle, "_blocker_within", lambda placements, left: 0)
    with pytest.raises(SoundnessAlarm, match="contains the pattern"):
        exhaustive_ex(6, 3, 2)


def test_spec_level_values():
    assert exhaustive_ex(6, 3, 2)[0] == 10
    assert exhaustive_ex(4, 2, 2)[0] == 3
    assert exhaustive_ex(5, 1, 3)[0] == 6
    assert exhaustive_ex(6, 2, 3)[0] == 12
    assert exhaustive_ex(7, 2, 3)[0] == 15
    assert exhaustive_ex_sizes(7, (3, 4))[0] == 18


def test_extremal_graph_is_pattern_free_but_saturated():
    value, extremal = exhaustive_ex(6, 2, 3)
    assert value == 12
    assert has_disjoint_cliques(extremal, 2, 3) is False
    # adding any missing edge must create the pattern
    present = set(extremal.edges())
    for u in range(6):
        for v in range(u + 1, 6):
            if (u, v) in present:
                continue
            bigger = from_edge_list(6, list(present | {(u, v)}))
            assert has_disjoint_cliques(bigger, 2, 3), (u, v)


def test_unavoidable_pattern_is_an_error():
    with pytest.raises(PreconditionError, match="contains the pattern"):
        exhaustive_ex(3, 1, 1)  # K1 sits in every nonempty graph
    with pytest.raises(PreconditionError):
        exhaustive_ex_sizes(2, (1, 1))


def test_no_placement_branch_returns_complete_graph():
    value, extremal = exhaustive_ex(4, 2, 3)  # 2K3 cannot fit in 4 vertices
    assert value == binom2(4)
    assert extremal.edge_count() == binom2(4)


def test_huge_clique_count_is_answered_before_its_size_tuple():
    # a k far past the host is answered without building its size tuple
    value, extremal = exhaustive_ex(3, 99999999999, 1)
    assert value == binom2(3) and extremal.edge_count() == binom2(3)
    with pytest.raises(SizeGuardError, match="n=8"):
        exhaustive_ex(8, 99999999999, 1)


def test_placement_masks():
    masks = _placement_masks(4, (2, 2))
    assert len(masks) == 3  # perfect matchings of K4
    singles = _placement_masks(4, (3,))
    assert len(singles) == 4  # C(4,3) triangles
    assert len(_placement_masks(5, (2, 3))) == 10


def test_guard_refusal():
    with pytest.raises(SizeGuardError, match="n=8"):
        exhaustive_ex(8, 1, 3)
    with pytest.raises(SizeGuardError):
        exhaustive_ex(6, 2, 2, guard=5)
    assert exhaustive_ex(6, 2, 2, guard=6)[0] == ex_value_check()


def ex_value_check():
    # independent recount of ex(6, 2K2) via the matching formula shape
    return max(binom2(3), 1 + 4)  # K3 plus isolated vs star K_(1,5)


def test_naive_searches():
    g = union_of_cliques([3, 3], 0)
    sets = list(naive_independent_sets(g, 2))
    assert len(sets) == 9  # one vertex from each triangle
    w = naive_disjoint_independent_sets(g, 3, 2)
    assert w is not None
    assert verify_witness(g, w, 3, 2).ok
    assert naive_disjoint_independent_sets(g, 4, 2) is None
    assert has_disjoint_cliques(g, 2, 3) is True
    assert has_disjoint_cliques(g, 3, 3) is False
