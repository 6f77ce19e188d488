"""Exact search for disjoint independent sets, plus equitable colorings.

The searches are exact and deterministic: depth-first backtracking over
sets sorted by descending size, where sets of equal size have increasing
minima (symmetry breaking), each set grown from its lowest member up. Six
rules cut subtrees that hold no solution, so the first witness found is
the one the unbounded search would find:

- dead vertices: when the sum of sizes is below n, a vertex whose
  non-neighbours hold no independent (s - 1)-set, s the smallest size, lies
  in no independent set of any wanted size; it is dropped from the root,
  and too few vertices left refutes the host outright;
- clique cover: on the same hosts, the live vertices are then covered
  greedily by disjoint cliques; k independent sets take at most
  min(|Q|, k) vertices of a clique Q, so a cover summing below the
  vertices wanted refutes the host at the root;
- supply bound: with r sets left, a component C can give them at most
  min(|avail & C|, r * min(alpha(C), max size)) vertices, because each set
  is independent and takes at most min(alpha(C), its size) vertices of C;
  the capped alpha is one branching search that stops once it reaches the
  cap, so a component's alpha is searched only up to the largest size;
- leftover-vertex budget: once a set of the smallest size starts at vertex
  f, it and every later set (all of that size, with larger minima) use only
  vertices >= f, so f is tried only while the available vertices >= f
  number at least the vertices still needed;
- clique cover inside a set (slack hosts): a set that still wants t >= 2
  vertices from candidates with more than t members needs alpha of the
  candidates >= t, so a greedy cover of them by fewer than t cliques cuts
  the branch;
- odd cycle left out (tight hosts, k >= 3): while the third-from-last set
  grows, the available vertices it can no longer take (neither in it nor
  among its candidates) must all go to the last two sets, which split them
  into two independent sets, so an odd cycle among them cuts the branch.

On a tight host (sum of sizes = n) the sets left must partition the
available vertices exactly, so the last two sets are decided outright,
before the supply bound and with no enumeration: they exist only if
G[avail] is bipartite and a choice of one side per component makes up the
size wanted. One BFS pass per component both 2-colours it and finds any
edge inside a side (`_bipartition`, which the odd-cycle rule runs too); a
suffix subset sum over the side sizes then builds the split the
enumeration would have reached first, taking each component's lower side
(the one holding its lowest vertex) whenever the components after it can
still make up the rest. The last set is every vertex left.
With k = 1 the one set is every vertex, taken iff it is independent.

Hosts whose components are all cliques or isolated vertices take an
analytic path that works at any n; everything else is guarded by a
configurable size cap. An exact equitable r-coloring is the tight search
with sizes ceil(n/r) and floor(n/r); a K_(r,r) certificate of its absence
needs a proper r-coloring, which Brooks' theorem settles.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import PreconditionError, SizeGuardError, SoundnessAlarm
from .graphs import (MAX_EDGE_LIST_N, Graph, VertexSet, bits, clique_union_profile,
                     complement, components, cross_edge_count)

DEFAULT_GUARD_N = 64
DEFAULT_EXACT_COLORING_GUARD = 20


class PackingWitness(NamedTuple):
    """k pairwise disjoint vertex sets, independent or cliques per mode."""

    sets: tuple[VertexSet, ...]

    def masks(self) -> tuple[int, ...]:
        return tuple(s.mask for s in self.sets)


class VerificationReport(NamedTuple):
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class EquitableColoring(NamedTuple):
    """Proper coloring whose class sizes differ by at most one."""

    classes: tuple[VertexSet, ...]


class ExactColoringResult(NamedTuple):
    coloring: EquitableColoring | None
    certificate: tuple[VertexSet, VertexSet] | None = None


# -- independence number -----------------------------------------------------


def _alpha_mask(adj: tuple[int, ...], mask: int, memo: dict,
                cap: int | None = None) -> int:
    """min(alpha(G[mask]), cap), cap defaulting to |mask|.

    Branches on a vertex of maximum degree, taking it first, and returns
    cap as soon as a branch reaches it; a mask with no edges counts whole.
    memo holds exact values only: a sub-call that returns less than its cap
    is exact, and an early exit is never stored.
    """
    if cap is None:
        cap = mask.bit_count()
    if mask == 0 or cap <= 0:
        return 0
    cached = memo.get(mask)
    if cached is not None:
        return min(cached, cap)
    best_v = -1
    best_deg = -1
    for v in bits(mask):
        deg = (adj[v] & mask).bit_count()
        if deg > best_deg:
            best_deg = deg
            best_v = v
    if best_deg == 0:
        result = mask.bit_count()
    else:
        taking = 1 + _alpha_mask(adj, mask & ~(adj[best_v] | (1 << best_v)), memo, cap - 1)
        if taking >= cap:
            return cap
        without = _alpha_mask(adj, mask & ~(1 << best_v), memo, cap)
        if without >= cap:
            return cap
        result = max(without, taking)
    memo[mask] = result
    return min(result, cap)


def _alpha_capped(adj: tuple[int, ...], mask: int, cap: int, memo: dict) -> int:
    """min(alpha(G[mask]), cap). A greedy independent set in ascending
    degree order that reaches cap settles it without the exact search."""
    order = sorted(bits(mask), key=lambda v: (adj[v] & mask).bit_count())
    free = mask
    count = 0
    for v in order:
        if free >> v & 1:
            count += 1
            if count == cap:
                return cap
            free &= ~adj[v]
    return _alpha_mask(adj, mask, memo, cap)


def independence_number(g: Graph, guard_n: int | None = None) -> int:
    """Exact independence number: the sum over components of the memoized
    branching search of _alpha_mask, uncapped."""
    guard = DEFAULT_GUARD_N if guard_n is None else guard_n
    if g.n > guard:
        raise SizeGuardError(f"independence_number guard: n={g.n} > {guard}")
    memo: dict = {}
    return sum(_alpha_mask(g.adj, comp, memo) for comp in components(g))


# -- exact disjoint-set search ------------------------------------------------


def _clique_union_search(g: Graph, sizes: tuple[int, ...],
                         cliques: list[int], pool: int) -> list[int] | None:
    """Analytic packing on a union of cliques plus isolated vertices.

    Feasible iff for every a, the a largest set sizes fit into one slot per
    clique per set (a cut argument on the allocation flow); the greedy
    most-needy-first dealing then realizes a witness.
    """
    k = len(sizes)
    t = pool.bit_count()
    caps = [m.bit_count() for m in cliques]
    for a in range(1, k + 1):
        if sum(sizes[:a]) > sum(min(c, a) for c in caps) + t:
            return None
    need = list(sizes)
    sets = [0] * k
    for mask in cliques:
        vertices = list(bits(mask))
        takers = sorted((i for i in range(k) if need[i] > 0),
                        key=lambda i: (-need[i], i))[: len(vertices)]
        for v, i in zip(vertices, takers):
            sets[i] |= 1 << v
            need[i] -= 1
    pool_bits = bits(pool)
    while any(need):
        i = min(range(k), key=lambda i: (-need[i], i))
        v = next(pool_bits, None)
        if v is None:  # pragma: no cover - the cut condition rules this out
            raise SoundnessAlarm("clique-union dealing failed a feasible instance")
        sets[i] |= 1 << v
        need[i] -= 1
    return sets


def _supply_bound(avail: int, k_rem: int,
                  comp_info: list[tuple[int, int]]) -> int:
    """Upper bound on the vertices k_rem more sets can take from avail.

    comp_info pairs each component C with min(alpha(C), max set size); each
    independent set takes at most that many vertices of C, so the k_rem
    sets take at most min(|avail & C|, k_rem * that) from it.
    """
    total = 0
    for comp_mask, alpha in comp_info:
        inside = (avail & comp_mask).bit_count()
        if inside:
            total += min(inside, k_rem * alpha)
    return total


def _bipartition(adj: tuple[int, ...], mask: int) -> list[list[int]] | None:
    """The two sides of each component of G[mask], or None when G[mask]
    holds an odd cycle.

    Components come in order of their lowest vertex, each as [lower, upper]
    with the lowest vertex on the lower side. Each is 2-colored by BFS
    layers; a BFS edge joins one layer to itself or to the next, so a layer
    whose neighbours meet its own side is the only way a side fails to be
    independent, and that is checked as each layer is expanded.
    """
    sides = []
    left = mask
    while left:
        frontier = left & -left
        layers = [0, 0]
        parity = 0
        seen = frontier
        while frontier:
            layers[parity] |= frontier
            grown = 0
            rem = frontier
            while rem:
                low = rem & -rem
                grown |= adj[low.bit_length() - 1]
                rem ^= low
            if grown & layers[parity]:
                return None
            frontier = grown & mask & ~seen
            seen |= frontier
            parity ^= 1
        left &= ~seen
        sides.append(layers)
    return sides


def _last_two_split(adj: tuple[int, ...], avail: int, size: int,
                    start: int) -> int | None:
    """The next-to-last set of a tight search, or None when the branch fails.

    That is the lex-first set S (sorted members compared in order) with
    |S| = size and min(S) >= start such that S and avail & ~S are both
    independent, i.e. S takes one side of each component of G[avail], as
    `_bipartition` finds them.

    Of two sets of one size, the one holding the lowest vertex of their
    difference comes first. With the components taken in order of their
    lowest vertex, that vertex is always the lowest not yet placed, so S
    takes the side holding it whenever the side is allowed and the later
    components can still make up the rest (a suffix subset sum, one bit per
    reachable total), and the other side otherwise.
    """
    sides = _bipartition(adj, avail)
    if sides is None:
        return None
    forbid = (1 << start) - 1  # S holds no vertex below start
    reach = [1]  # reach[-1]: the sizes the components after the current one can give S
    for lower, upper in reversed(sides):
        total = 0
        if not lower & forbid:
            total |= reach[-1] << lower.bit_count()
        if not upper & forbid:
            total |= reach[-1] << upper.bit_count()
        reach.append(total)
    if not reach.pop() >> size & 1:
        return None
    chosen = 0
    for lower, upper in sides:
        after = reach.pop()
        count = lower.bit_count()
        if not lower & forbid and count <= size and after >> (size - count) & 1:
            chosen |= lower
            size -= count
        else:
            chosen |= upper
            size -= upper.bit_count()
    return chosen


def _has_independent(adj: tuple[int, ...], mask: int, need: int) -> bool:
    """Whether G[mask] holds an independent set of need vertices: take or
    drop the lowest vertex, stopping at the first set found.

    This is not `_alpha_mask(adj, mask, memo, need) >= need`, which gives
    the same answers: that routine scans the degrees of the whole mask at
    every node to branch on a vertex of largest degree and writes its exact
    sub-results to the memo, while a live vertex's search here usually ends
    on its first branch. In `_live_vertices` on sparse slack hosts (probe
    5.1's at k = 5, p = 4, and n = 57, 58 at k = 4, p = 14) the swap gave
    identical masks and was more than ten times slower.
    """
    if need <= 0:
        return True
    spare = mask.bit_count() - need  # lowest vertices that may still be dropped
    while spare >= 0:
        low = mask & -mask
        mask ^= low
        if need == 1 or _has_independent(adj, mask & ~adj[low.bit_length() - 1], need - 1):
            return True
        spare -= 1
    return False


def _live_vertices(g: Graph, size: int) -> int:
    """Mask of the vertices that lie in some independent set of size
    vertices, i.e. whose non-neighbours hold an independent (size - 1)-set.

    An index-order greedy from each vertex settles most of them, and marks
    every member of the set it finds; the rest take the exact search.
    """
    adj = g.adj
    full = g.full_mask()
    need = size - 1
    live = 0
    for v in range(g.n):
        bit = 1 << v
        if live & bit:
            continue
        rest = full & ~adj[v] & ~bit
        chosen = bit
        free = rest
        count = 0
        while free and count < need:
            low = free & -free
            chosen |= low
            count += 1
            free &= ~adj[low.bit_length() - 1] & ~low
        if count == need:
            live |= chosen
        elif _has_independent(adj, rest, need):
            live |= bit
    return live


def _clique_cover_bound(adj: tuple[int, ...], mask: int, k: int) -> int:
    """Upper bound on the vertices k disjoint independent sets take from
    mask: G[mask] is covered greedily by disjoint cliques, each seeded and
    grown by largest degree in G[mask] first, and a clique Q gives at most
    min(|Q|, k) vertices, since each independent set takes at most one."""
    order = sorted(bits(mask), key=lambda v: (-(adj[v] & mask).bit_count(), v))
    left = mask
    total = 0
    for i, v in enumerate(order):
        if not left >> v & 1:
            continue
        clique = 0
        cand = left
        for u in order[i:]:
            if cand >> u & 1:
                clique |= 1 << u
                cand &= adj[u]
        left &= ~clique
        total += min(clique.bit_count(), k)
    return total


def _cover_reaches(adj: tuple[int, ...], mask: int, target: int) -> bool:
    """Whether a greedy cover of G[mask] by disjoint cliques needs at least
    target cliques; when it does not, alpha(G[mask]) < target, since an
    independent set takes at most one vertex of each clique.

    Each clique grows from the lowest vertex left by the lowest common
    neighbour, and the cover stops once target cliques are started. Index
    order, unlike the degree order of _clique_cover_bound, costs no sort.
    That matters inside the set search, which runs this at every node: with
    degree order, k = 4, p = 14 on probes.random_bounded_graph(57, 285, 10,
    Random(1)) took 8.0 s instead of 1.05 s (2 cores, Python 3.11.7). The
    root rule runs once per search, and there degree order refutes more:
    68 rather than 63 of the root cases of
    test_clique_cover_rule_prunes_only_on_slack_hosts.
    """
    started = 0
    while mask and started < target - 1:
        started += 1
        cand = mask
        while cand:
            low = cand & -cand
            mask ^= low
            cand &= adj[low.bit_length() - 1]
    return mask != 0


def _degree_order(g: Graph) -> list[int]:
    """Vertices by ascending degree, lowest index first among equals."""
    return sorted(range(g.n), key=g.degree)


def _greedy_fill(g: Graph, order: Sequence[int],
                 sizes: tuple[int, ...]) -> list[int] | None:
    """Disjoint independent sets of the given sizes, each filled by the
    first vertices of order that are unused and have no neighbour in it;
    None when some set runs out of vertices."""
    adj = g.adj
    used = 0
    masks = []
    for size in sizes:
        mask = 0
        count = 0
        for v in order:
            bit = 1 << v
            if used & bit or adj[v] & mask:
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


def _greedy_attempt(g: Graph, sizes: tuple[int, ...]) -> list[int] | None:
    """One cheap pass in degree order; a hit skips the full search."""
    return _greedy_fill(g, _degree_order(g), sizes)


def _find_disjoint_sets(g: Graph, sizes: tuple[int, ...],
                        guard_n: int | None) -> list[int] | None:
    """Find pairwise disjoint independent sets of the given sizes
    (descending); returns masks in that order or None."""
    if any(size < 1 for size in sizes):
        raise PreconditionError("set sizes must be positive")
    sizes = tuple(sorted(sizes, reverse=True))
    if sum(sizes) > g.n:
        return None
    comps = components(g)
    profile = clique_union_profile(g, comps)
    if profile is not None:
        return _clique_union_search(g, sizes, *profile)
    guard = DEFAULT_GUARD_N if guard_n is None else guard_n
    if g.n > guard:
        raise SizeGuardError(
            f"exact packing guard: n={g.n} > {guard} and host is not a clique union")
    greedy = _greedy_attempt(g, sizes)
    if greedy is not None:
        return greedy
    k = len(sizes)
    totals = [sum(sizes[i:]) for i in range(k + 1)]
    tight = totals[0] == g.n  # then every avail below has exactly totals[idx] vertices
    adj = g.adj
    root = g.full_mask()
    if not tight:
        root = _live_vertices(g, sizes[-1])
        if root.bit_count() < totals[0] or _clique_cover_bound(adj, root, k) < totals[0]:
            return None
    memo: dict = {}
    comp_info = [(comp, _alpha_capped(adj, comp, sizes[0], memo)) for comp in comps]

    def place(idx: int, avail: int, floor: int) -> list[int] | None:
        if idx == k:
            return []
        if tight and idx == k - 1:  # k = 1: the one set is every vertex
            return [avail] if g.is_independent(avail) else None
        need = sizes[idx]
        start = floor if idx > 0 and sizes[idx - 1] == need else 0
        if tight and idx == k - 2:
            # In the last group the budget below would let only min(avail)
            # start this set. The split holds it anyway: there start <=
            # min(avail), and when a split S misses min(avail), the rest of
            # avail is a split of the same size that holds it and comes
            # first. So the last set needs no floor test either.
            chosen = _last_two_split(adj, avail, need, start)
            return None if chosen is None else [chosen, avail & ~chosen]
        if _supply_bound(avail, k - idx, comp_info) < totals[idx]:
            return None
        last_group = need == sizes[-1]
        first_candidates = avail >> start << start
        odd_cut = tight and idx == k - 3

        def grow(set_mask: int, count: int, cand: int, first: int) -> list[int] | None:
            if count == need:
                rest = place(idx + 1, avail & ~set_mask, first + 1)
                if rest is not None:
                    return [set_mask] + rest
                return None
            wanted = need - count
            if odd_cut and _bipartition(adj, avail & ~set_mask & ~cand) is None:
                return None  # the last two sets must split what this set cannot take
            spare = cand.bit_count() - wanted  # lowest candidates that may still be skipped
            if not tight and wanted >= 2 and spare > 0 and not _cover_reaches(adj, cand, wanted):
                return None
            while spare >= 0:
                low = cand & -cand
                cand ^= low
                result = grow(set_mask | low, count + 1, cand & ~adj[low.bit_length() - 1], first)
                if result is not None:
                    return result
                spare -= 1
            return None

        rem = first_candidates
        while rem:
            low = rem & -rem
            first = low.bit_length() - 1
            if last_group and (avail >> first).bit_count() < totals[idx]:
                return None  # leftover-vertex budget; fails for every later first
            rem ^= low
            above = avail >> (first + 1) << (first + 1)
            result = grow(low, 1, above & ~adj[first], first)
            if result is not None:
                return result
        return None

    return place(0, root, 0)


def find_disjoint_independent_sets(g: Graph, k: int, p: int,
                                   guard_n: int | None = None) -> PackingWitness | None:
    """Exact: k pairwise disjoint independent p-sets in g, or None."""
    if k < 1 or p < 1:
        raise PreconditionError("requires k >= 1 and p >= 1")
    if k * p > g.n:  # before (p,) * k, which a huge k could not allocate
        return None
    masks = _find_disjoint_sets(g, (p,) * k, guard_n)
    if masks is None:
        return None
    ordered = sorted(masks, key=lambda m: m & -m)
    return PackingWitness(tuple(VertexSet(g.n, m) for m in ordered))


def find_clique_packing(g: Graph, k: int, p: int,
                        guard_n: int | None = None) -> PackingWitness | None:
    """Exact: k pairwise disjoint p-cliques in g, or None (searches the
    complement for independent sets; same witness sets)."""
    return find_disjoint_independent_sets(complement(g), k, p, guard_n)


def verify_witness(g: Graph, witness: PackingWitness, k: int, p: int,
                   mode: str = "independent") -> VerificationReport:
    """Re-check a witness from scratch; reports the first violation."""
    if mode not in ("independent", "clique"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if len(witness.sets) != k:
        return VerificationReport(False, f"expected {k} sets, got {len(witness.sets)}")
    seen = 0
    for i, vs in enumerate(witness.sets):
        if vs.n != g.n:
            return VerificationReport(False, f"set {i} bound to n={vs.n}, graph has n={g.n}")
        if vs.mask & ~g.full_mask():
            return VerificationReport(False, f"set {i} has vertices outside the graph")
        if len(vs) != p:
            return VerificationReport(False, f"set {i} has {len(vs)} vertices, expected {p}")
        if vs.mask & seen:
            return VerificationReport(False, f"set {i} overlaps an earlier set")
        seen |= vs.mask
        if mode == "independent" and not g.is_independent(vs.mask):
            return VerificationReport(False, f"set {i} is not independent")
        if mode == "clique" and not g.is_clique(vs.mask):
            return VerificationReport(False, f"set {i} is not a clique")
    return VerificationReport(True)


# -- equitable coloring -------------------------------------------------------


def verify_equitable_coloring(g: Graph, coloring: EquitableColoring) -> VerificationReport:
    union = 0
    sizes = []
    for i, vs in enumerate(coloring.classes):
        if vs.n != g.n:
            return VerificationReport(False, f"class {i} bound to a different graph")
        if vs.mask & union:
            return VerificationReport(False, f"class {i} overlaps an earlier class")
        union |= vs.mask
        if not g.is_independent(vs.mask):
            return VerificationReport(False, f"class {i} is not independent")
        sizes.append(len(vs))
    if union != g.full_mask():
        return VerificationReport(False, "classes do not cover every vertex")
    if sizes and max(sizes) - min(sizes) > 1:
        return VerificationReport(False, "class sizes differ by more than one")
    return VerificationReport(True)


def _movable_vertex(g: Graph, source_mask: int, target_mask: int) -> int | None:
    for v in bits(source_mask):
        if g.adj[v] & target_mask == 0:
            return v
    return None


def _balance_by_shifts(g: Graph, classes: list[int], limit: int) -> bool:
    """Shift movable vertices along class paths until sizes differ by at
    most one. Returns False when stuck before reaching balance."""
    q = len(classes)
    for _ in range(limit):
        sizes = [m.bit_count() for m in classes]
        spread = max(sizes) - min(sizes)
        if spread <= 1:
            return True
        moved = False
        for src in sorted(range(q), key=lambda i: (-sizes[i], i)):
            if sizes[src] - min(sizes) < 2:
                break
            # BFS over movability arcs from src to any class 2 smaller.
            prev: dict[int, int] = {src: -1}
            frontier = [src]
            goal = -1
            while frontier and goal < 0:
                nxt = []
                for i in frontier:
                    for j in range(q):
                        if j in prev or j == i:
                            continue
                        if _movable_vertex(g, classes[i], classes[j]) is None:
                            continue
                        prev[j] = i
                        if sizes[j] <= sizes[src] - 2:
                            goal = j
                            break
                        nxt.append(j)
                    if goal >= 0:
                        break
                frontier = nxt
            if goal < 0:
                continue
            path = [goal]
            while path[-1] != src:
                path.append(prev[path[-1]])
            path.reverse()
            for i, j in zip(path, path[1:]):
                v = _movable_vertex(g, classes[i], classes[j])
                classes[i] &= ~(1 << v)
                classes[j] |= 1 << v
            moved = True
            break
        if not moved:
            return False
    return False


def _networkx_equitable(g: Graph, num_classes: int) -> list[int]:
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    assignment = nx.equitable_color(h, num_classes)
    classes = [0] * num_classes
    for v, c in assignment.items():
        classes[c] |= 1 << v
    classes.sort(key=lambda m: (-m.bit_count(), m & -m if m else 1 << g.n))
    return classes


def equitable_coloring(g: Graph, num_classes: int) -> EquitableColoring:
    """Equitable proper coloring with num_classes >= max degree + 1 classes.

    Greedy seed, then shift vertices along movability paths (lowest class,
    lowest vertex first); a budgeted stuck state falls back to a library
    routine. The result is re-verified either way.
    """
    if num_classes < 1:
        raise PreconditionError("need at least one class")
    if num_classes > MAX_EDGE_LIST_N:
        raise SizeGuardError(f"color guard: classes={num_classes} > {MAX_EDGE_LIST_N}")
    if g.max_degree() >= num_classes:
        raise PreconditionError(
            f"equitable_coloring needs max degree < classes "
            f"(degree {g.max_degree()}, classes {num_classes})")
    classes = [0] * num_classes
    sizes = [0] * num_classes
    for v in range(g.n):
        row = g.adj[v]
        best = min((i for i in range(num_classes) if row & classes[i] == 0),
                   key=lambda i: (sizes[i], i))
        classes[best] |= 1 << v
        sizes[best] += 1
    if not _balance_by_shifts(g, classes, limit=2 * g.n + 2):
        classes = _networkx_equitable(g, num_classes)
    coloring = EquitableColoring(tuple(VertexSet(g.n, m) for m in classes))
    report = verify_equitable_coloring(g, coloring)
    if not report.ok:
        raise SoundnessAlarm(f"equitable coloring failed verification: {report.violation}")
    return coloring


def biclique_violation(g: Graph, r: int) -> str | None:
    """Why a K_(r,r) certificate cannot stand for g at r classes, or None:
    it needs odd r <= 4, max degree <= r and a proper r-coloring, which by
    Brooks' theorem exists iff no component is K_(r+1)."""
    if r % 2 == 0 or r > 4:
        return f"r={r} is not odd and at most 4"
    if g.max_degree() > r:
        return f"max degree {g.max_degree()} > r={r}"
    if any(comp.bit_count() == r + 1 and g.is_clique(comp) for comp in components(g)):
        return f"a component is K_{r + 1}, so there is no proper {r}-coloring"
    return None


def verify_biclique(g: Graph, sides: Sequence[VertexSet], r: int) -> VerificationReport:
    """Check a K_(r,r) certificate that g has no equitable r-coloring:
    `biclique_violation` finds nothing against it, and the sides are two
    disjoint r-sets joined by all r * r cross edges."""
    violation = biclique_violation(g, r)
    if violation is not None:
        return VerificationReport(False, violation)
    if len(sides) != 2 or any(len(side) != r for side in sides):
        return VerificationReport(False, f"biclique is not two sides of {r} vertices")
    if sides[0].mask & sides[1].mask:
        return VerificationReport(False, "biclique sides overlap")
    if cross_edge_count(g, *sides) != r * r:
        return VerificationReport(False, f"biclique lacks some of its {r * r} cross edges")
    return VerificationReport(True)


def _find_biclique(g: Graph, r: int) -> tuple[VertexSet, VertexSet] | None:
    """First K_(r,r) subgraph (two disjoint r-sets, all cross edges)."""
    from itertools import combinations

    for a_tuple in combinations(range(g.n), r):
        a_mask = sum(1 << v for v in a_tuple)
        common = g.full_mask() & ~a_mask
        for v in a_tuple:
            common &= g.adj[v]
        if common.bit_count() >= r:
            b_mask = sum(1 << v for v in list(bits(common))[:r])
            return VertexSet(g.n, a_mask), VertexSet(g.n, b_mask)
    return None


def equitable_coloring_exact(g: Graph, r: int,
                             guard_n: int | None = None) -> ExactColoringResult:
    """Exactly decide whether an equitable r-coloring exists: the tight
    search for classes of sizes ceil(n/r) and floor(n/r), padded with empty
    classes when r > n. When none exists and `biclique_violation` finds
    nothing against it, a K_(r,r) subgraph certificate is attached, once
    `verify_biclique` has checked it."""
    if r < 1:
        raise PreconditionError("need at least one class")
    if r > MAX_EDGE_LIST_N:
        raise SizeGuardError(f"color guard: classes={r} > {MAX_EDGE_LIST_N}")
    guard = DEFAULT_EXACT_COLORING_GUARD if guard_n is None else guard_n
    if g.n > guard:
        raise SizeGuardError(f"equitable_coloring_exact guard: n={g.n} > {guard}")
    hi, extra = divmod(g.n, r)
    sizes = (hi + 1,) * extra + ((hi,) * (r - extra) if hi else ())
    classes = _find_disjoint_sets(g, sizes, guard_n)
    if classes is not None:
        classes += [0] * (r - len(classes))
        coloring = EquitableColoring(tuple(VertexSet(g.n, m) for m in classes))
        report = verify_equitable_coloring(g, coloring)
        if not report.ok:  # pragma: no cover - search output is correct by construction
            raise SoundnessAlarm(f"exact coloring failed verification: {report.violation}")
        return ExactColoringResult(coloring)
    if biclique_violation(g, r) is not None:
        return ExactColoringResult(None)
    sides = _find_biclique(g, r)
    if sides is not None:
        report = verify_biclique(g, sides, r)
        if not report.ok:
            raise SoundnessAlarm(f"biclique certificate failed verification: {report.violation}")
    return ExactColoringResult(None, sides)
