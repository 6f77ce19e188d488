"""Brute-force references.

Everything here is deliberately independent of the formula and packing
modules: the exhaustive extremal search is an exact minimum-blocker search
over every placement of the pattern on n labeled vertices, and the naive
packing search enumerates every independent set. Both exist to check the
fast paths, not to be fast themselves.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .errors import PreconditionError, SizeGuardError, SoundnessAlarm
from .graphs import Graph, VertexSet, from_edge_list

if TYPE_CHECKING:  # loaded only by the naive packing search that returns one
    from .check import PackingWitness

DEFAULT_ORACLE_GUARD = 7


def _edge_index(n: int) -> dict[tuple[int, int], int]:
    idx = {}
    for e, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        idx[(i, j)] = e
    return idx


def _subsets_with_masks(n: int, size: int,
                        idx: dict[tuple[int, int], int]) -> list[tuple[int, int]]:
    out = []
    for sub in itertools.combinations(range(n), size):
        vm = 0
        em = 0
        for v in sub:
            vm |= 1 << v
        for a, b in itertools.combinations(sub, 2):
            em |= 1 << idx[(a, b)]
        out.append((vm, em))
    return out


def _placement_masks(n: int, sizes: tuple[int, ...]) -> list[int]:
    """Edge-index masks of every way to place disjoint cliques with the
    given sizes (equal sizes deduplicated by index order)."""
    idx = _edge_index(n)
    groups: list[tuple[int, int]] = []
    for size in sorted(sizes, reverse=True):
        if groups and groups[-1][0] == size:
            groups[-1] = (size, groups[-1][1] + 1)
        else:
            groups.append((size, 1))
    by_size = {size: _subsets_with_masks(n, size, idx) for size, _ in groups}
    placements = []

    def fill_group(gi: int, start: int, left: int, used: int, acc: int):
        if left == 0:
            next_group(gi + 1, used, acc)
            return
        lst = by_size[groups[gi][0]]
        for t in range(start, len(lst)):
            vm, em = lst[t]
            if vm & used:
                continue
            fill_group(gi, t + 1, left - 1, used | vm, acc | em)

    def next_group(gi: int, used: int, acc: int):
        if gi == len(groups):
            placements.append(acc)
            return
        fill_group(gi, 0, groups[gi][1], used, acc)

    next_group(0, 0, 0)
    return placements


def exhaustive_ex(n: int, k: int, p: int,
                  guard: int | None = None) -> tuple[int, Graph]:
    """Maximum edge count over all n-vertex graphs containing no k disjoint
    p-cliques, together with one extremal example.

    A graph avoids the pattern exactly when its missing edges meet every
    placement of it, so the value is C(n,2) minus the size of a minimum
    blocker, found by an exact hitting-set search. The extremal graph
    returned has the numerically smallest edge mask among all extremal
    graphs (edge e is the e-th pair of itertools.combinations(range(n), 2)):
    its missing edges form the numerically largest minimum blocker, which
    is the first one the search meets, as it decides edges from the highest
    index down and includes before it excludes. The search is still
    exponential; the guard (default 7) refuses larger hosts.
    """
    if k < 1 or p < 1:
        raise PreconditionError("need k >= 1 and p >= 1")
    _guard_host(n, guard)
    # n // p + 1 cliques already leave no placement, so capping k there keeps
    # the answer and spares a huge k its size tuple.
    return exhaustive_ex_sizes(n, (p,) * min(k, n // p + 1), guard=guard)


def _guard_host(n: int, guard: int | None) -> None:
    if guard is None:
        guard = DEFAULT_ORACLE_GUARD
    if n > guard:
        raise SizeGuardError(
            f"exhaustive search over 2^{n * (n - 1) // 2} graphs refused for "
            f"n={n} > guard {guard}; raise the guard knowingly")


def exhaustive_ex_sizes(n: int, sizes: tuple[int, ...],
                        guard: int | None = None) -> tuple[int, Graph]:
    """exhaustive_ex for a pattern of disjoint cliques with mixed sizes."""
    if n < 0 or not sizes or any(size < 1 for size in sizes):
        raise PreconditionError("need n >= 0 and positive clique sizes")
    _guard_host(n, guard)
    num_edges = n * (n - 1) // 2
    full = (1 << num_edges) - 1
    # sum(sizes) > n leaves no placement; testing it first spares
    # _subsets_with_masks a combinations() call that allocates size indices.
    placements = [] if sum(sizes) > n else _placement_masks(n, tuple(sizes))
    if not placements:
        # Pattern cannot be placed at all; every graph avoids it.
        return num_edges, _graph_of_mask(n, full)
    if 0 in placements:
        raise PreconditionError(
            f"every graph on {n} vertices contains the pattern {tuple(sizes)}; "
            "the extremal number is undefined")
    # Raise the budget from the disjoint-placement lower bound; the first
    # success is at the minimum size, where the search returns the
    # numerically largest minimum blocker.
    budget = _disjoint_count(placements)
    while (blocker := _blocker_within(placements, budget)) is None:
        budget += 1
    best = num_edges - blocker.bit_count()
    best_mask = full ^ blocker
    if best_mask.bit_count() != best or any(pl & best_mask == pl for pl in placements):
        raise SoundnessAlarm(
            f"oracle blocker search returned a graph that contains the pattern "
            f"{tuple(sizes)} or miscounts its {best} edges on {n} vertices")
    return best, _graph_of_mask(n, best_mask)


def _disjoint_count(masks: list[int]) -> int:
    """Size of a greedy family of pairwise-disjoint masks: a lower bound on
    the bits any set meeting every mask needs."""
    used = count = 0
    for m in masks:
        if not m & used:
            used |= m
            count += 1
    return count


def _blocker_within(unhit: list[int], left: int) -> int | None:
    """A set of at most `left` bits meeting every mask in `unhit`, or None.

    Bits are decided from the highest down, including before excluding, so
    leaves are met in decreasing numeric order and the first blocker found
    is the largest one the search admits. A bit that meets no unhit mask is
    never included; a minimum blocker holds no such bit, as dropping it
    would leave a smaller blocker. So at the minimum budget the result is
    the numerically largest minimum blocker.
    """
    if not unhit:
        return 0
    if _disjoint_count(unhit) > left:
        return None
    union = 0
    for m in unhit:
        union |= m
    bit = 1 << (union.bit_length() - 1)
    found = _blocker_within([m for m in unhit if not m & bit], left - 1)
    if found is not None:
        return found | bit
    if bit in unhit:
        return None  # a placement whose only undecided bit is excluded
    return _blocker_within([m & ~bit for m in unhit], left)


def _graph_of_mask(n: int, mask: int) -> Graph:
    edges = []
    for e, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        if mask >> e & 1:
            edges.append((i, j))
    return from_edge_list(n, edges)


def naive_independent_sets(g: Graph, p: int) -> list[int]:
    """All independent p-subsets as vertex masks, in lexicographic order."""
    out = []
    for sub in itertools.combinations(range(g.n), p):
        m = 0
        for v in sub:
            m |= 1 << v
        if g.is_independent(m):
            out.append(m)
    return out


def naive_disjoint_independent_sets(g: Graph, k: int, p: int) -> PackingWitness | None:
    """Reference search for k disjoint independent p-sets: plain DFS over
    the full list of independent p-sets in index order."""
    if k < 1 or p < 1:
        raise PreconditionError("need k >= 1 and p >= 1")
    sets = naive_independent_sets(g, p)

    def pick(start: int, used: int, acc: list[int]) -> list[int] | None:
        if len(acc) == k:
            return acc
        for t in range(start, len(sets)):
            if sets[t] & used:
                continue
            found = pick(t + 1, used | sets[t], acc + [sets[t]])
            if found is not None:
                return found
        return None

    found = pick(0, 0, [])
    if found is None:
        return None
    from .check import PackingWitness

    return PackingWitness(tuple(VertexSet(g.n, m) for m in found))

