"""Brute-force references.

Everything here is deliberately independent of the formula and packing
modules: the exhaustive extremal search enumerates every graph on n
vertices, and the naive packing search enumerates every independent set.
Both exist to check the fast paths, not to be fast themselves.
"""

from __future__ import annotations

import functools
import itertools

from .errors import PreconditionError, SizeGuardError
from .graphs import Graph, VertexSet, from_edge_list
from .packing import PackingWitness

DEFAULT_ORACLE_GUARD = 7
_CHUNK = 1 << 22


@functools.cache
def _popcount16():
    """Bit counts of every 16-bit value, built on first use so that importing
    the package does not load numpy."""
    import numpy as np

    return np.array([bin(x).count("1") for x in range(1 << 16)], dtype=np.uint8)


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
    p-cliques, found by scanning all 2^C(n,2) graphs, together with one
    extremal example.

    The scan is vectorized and chunked but still exponential; the guard
    (default 7) refuses hosts whose edge space exceeds the time budget.
    """
    if k < 1 or p < 1:
        raise PreconditionError("need k >= 1 and p >= 1")
    return exhaustive_ex_sizes(n, (p,) * k, guard=guard)


def exhaustive_ex_sizes(n: int, sizes: tuple[int, ...],
                        guard: int | None = None) -> tuple[int, Graph]:
    """exhaustive_ex for a pattern of disjoint cliques with mixed sizes."""
    if n < 0 or not sizes or any(size < 1 for size in sizes):
        raise PreconditionError("need n >= 0 and positive clique sizes")
    if guard is None:
        guard = DEFAULT_ORACLE_GUARD
    if n > guard:
        raise SizeGuardError(
            f"exhaustive search over 2^{n * (n - 1) // 2} graphs refused for "
            f"n={n} > guard {guard}; raise the guard knowingly")
    num_edges = n * (n - 1) // 2
    placements = _placement_masks(n, tuple(sizes))
    if not placements:
        # Pattern cannot be placed at all; every graph avoids it.
        return num_edges, _graph_of_mask(n, (1 << num_edges) - 1)
    import numpy as np

    popcount16 = _popcount16()
    best = -1
    best_mask = 0
    placements_np = np.array(placements, dtype=np.uint64)
    for lo in range(0, 1 << num_edges, _CHUNK):
        hi = min(lo + _CHUNK, 1 << num_edges)
        masks = np.arange(lo, hi, dtype=np.uint64)
        bad = np.zeros(masks.shape, dtype=bool)
        for t in placements_np:
            bad |= (masks & t) == t
        good = ~bad
        if not good.any():
            continue
        counts = popcount16[masks & np.uint64(0xFFFF)].astype(np.int16)
        counts = counts + popcount16[(masks >> np.uint64(16)) & np.uint64(0xFFFF)]
        counts = np.where(good, counts, -1)
        at = int(np.argmax(counts))
        if int(counts[at]) > best:
            best = int(counts[at])
            best_mask = lo + at
    if best < 0:
        raise PreconditionError(
            f"every graph on {n} vertices contains the pattern {tuple(sizes)}; "
            "the extremal number is undefined")
    return best, _graph_of_mask(n, best_mask)


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
    return PackingWitness(tuple(VertexSet(g.n, m) for m in found))


def naive_contains_clique_union(g: Graph, k: int, p: int) -> bool:
    """Whether g contains k vertex-disjoint p-cliques (reference route via
    the complement)."""
    from .graphs import complement

    return naive_disjoint_independent_sets(complement(g), k, p) is not None
