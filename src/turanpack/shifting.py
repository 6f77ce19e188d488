"""Partition-shifting engine for the four-block dichotomy.

Given a sparse host (n = 4p-1+s vertices, at most 7s edges, max degree at
most 6), `resolve` either exhibits four disjoint independent p-sets or
certifies that the host is a disjoint union of 7-cliques plus isolated
vertices. The engine keeps a five-class partition: class 0 holds the s
leftover vertices, classes 1..4 are independent with sizes (p, p, p, p-1);
class 4 (or whichever class is currently one short) is the destination.
Every move is a list of relocation steps (vertex, from class, to class):
witness moves route a vertex along an accessible path of the class digraph
into the destination, budgeted stirring moves change a stuck state, and an
exact packing search settles whatever is left. The common case needs no
digraph: when a vertex of class 0 has no neighbor in the destination, the
digraph's first move is the one-step path-shift of the lowest such vertex,
so the engine takes it directly and builds the digraph only for the states
where class 0 has no such vertex.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .check import PackingWitness, StructureCertificate, verify_certificate, verify_witness
from .errors import PreconditionError, SoundnessAlarm
from .graphs import Graph, VertexSet, bits, is_clique_union, rigid_clique_profile
from .packing import _degree_order, _greedy_fill, find_disjoint_independent_sets

CLASS_COUNT = 5
# Move kinds: a witness move ends the heuristic with four full classes, a
# stirring move leaves another class deficient and the heuristic goes on.
WITNESS_MOVES = ("path-shift", "double-solo", "solo-reroot")
STIR_MOVES = ("re-root", "solo-swap")


class PartitionState:
    """Five-class partition; classes[1..4] independent, at most one of them
    one vertex short of p (the destination)."""

    __slots__ = ("graph", "p", "classes")

    def __init__(self, graph: Graph, p: int, classes: tuple[int, ...]):
        self.graph = graph
        self.p = p
        self.classes = classes  # vertex masks
        self.__post_init__()  # the validation, timed as its own layer by perfbench

    def __post_init__(self):
        if len(self.classes) != CLASS_COUNT:
            raise PreconditionError("partition needs exactly five classes")
        union = 0
        for mask in self.classes:
            if mask & union:
                raise PreconditionError("classes overlap")
            union |= mask
        if union != self.graph.full_mask():
            raise PreconditionError("classes do not cover every vertex")
        deficient = 0
        for i in range(1, CLASS_COUNT):
            size = self.classes[i].bit_count()
            if size == self.p - 1:
                deficient += 1
            elif size != self.p:
                raise PreconditionError(
                    f"class {i} has size {size}, expected {self.p - 1} or {self.p}")
            if not self.graph.is_independent(self.classes[i]):
                raise PreconditionError(f"class {i} is not independent")
        if deficient > 1:
            raise PreconditionError("more than one deficient class")

    @property
    def destination(self) -> int | None:
        """Index of the deficient class, or None if classes 1..4 all have
        size p (a witness state)."""
        for i in range(1, CLASS_COUNT):
            if self.classes[i].bit_count() == self.p - 1:
                return i
        return None

    def witness(self) -> PackingWitness | None:
        if self.destination is not None:
            return None
        n = self.graph.n
        masks = sorted(self.classes[1:], key=lambda m: m & -m)
        return PackingWitness(tuple(VertexSet(n, m) for m in masks))


class AuxDigraph(NamedTuple):
    """Movability digraph on the five classes: arc (i, j) iff some vertex
    of class i has no neighbor in class j; the witness is the lowest such
    vertex. hops maps each other class with a directed path to the
    destination to the next class on a shortest one (lowest-index tie
    break); those classes plus the destination are the accessible ones."""

    arcs: dict[tuple[int, int], int]
    destination: int
    hops: dict[int, int]

    @property
    def accessible(self) -> frozenset[int]:
        return frozenset({self.destination, *self.hops})

    @property
    def inaccessible(self) -> frozenset[int]:
        return frozenset(range(CLASS_COUNT)) - self.accessible


class Move(NamedTuple):
    """A move kind and its relocation steps (vertex, from class, to class),
    applied in order."""

    kind: str
    steps: tuple[tuple[int, int, int], ...]


class EngineTrace:
    """Optional record of a run: the kind of each move taken and the
    inaccessible-class count of each digraph built. Passing one never
    changes what the engine does."""

    def __init__(self):
        self.inaccessible_sizes: list[int] = []
        self.moves: list[str] = []
        self.used_exact_fallback = False


# -- construction of the initial partition ------------------------------------


def init_partition(g: Graph, p: int) -> PartitionState | None:
    """Greedy seed: three independent p-sets and one (p-1)-set by lowest
    index, retried in ascending-degree order; None when both passes fail."""
    s = g.n - (4 * p - 1)
    if p < 3 or not 1 <= s <= 3 * p - 1:
        raise PreconditionError(
            f"init_partition needs p >= 3 and n = 4p-1+s with 1 <= s <= 3p-1 "
            f"(n={g.n}, p={p})")
    sizes = (p, p, p, p - 1)
    masks = _greedy_fill(g, range(g.n), sizes)
    if masks is None:
        masks = _greedy_fill(g, _degree_order(g), sizes)
        if masks is None:
            return None
    leftover = g.full_mask() & ~(masks[0] | masks[1] | masks[2] | masks[3])
    return PartitionState(g, p, (leftover, *masks))


# -- aux digraph ---------------------------------------------------------------


def _neighborhood(adj: list[int], mask: int) -> int:
    """Union of the neighborhoods of the vertices in mask. A vertex has no
    neighbor in a class exactly when it lies outside the class's union
    (adjacency is symmetric), so one union settles every arc into it."""
    reach = 0
    while mask:
        low = mask & -mask
        reach |= adj[low.bit_length() - 1]
        mask ^= low
    return reach


def build_aux_digraph(st: PartitionState) -> AuxDigraph:
    dest = st.destination
    if dest is None:
        raise PreconditionError("witness state has no destination class")
    adj = st.graph.adj
    classes = st.classes
    outside = [0] * CLASS_COUNT
    for j in range(1, CLASS_COUNT):
        outside[j] = ~_neighborhood(adj, classes[j])
    arcs: dict[tuple[int, int], int] = {}
    # Arcs never target class 0: vertices shift between independent classes
    # only, while class 0 serves as a source.
    for i in range(CLASS_COUNT):
        for j in range(1, CLASS_COUNT):
            if i != j:
                free = classes[i] & outside[j]
                if free:
                    arcs[(i, j)] = (free & -free).bit_length() - 1
    # Reverse BFS from dest: each class with a path to dest gets the next
    # class on a shortest one.
    hops: dict[int, int] = {}
    frontier = [dest]
    while frontier:
        nxt = []
        for j in sorted(frontier):
            for i in range(CLASS_COUNT):
                if i != dest and i not in hops and (i, j) in arcs:
                    hops[i] = j
                    nxt.append(i)
        frontier = nxt
    return AuxDigraph(arcs, dest, hops)


def accessible_path(aux: AuxDigraph, start: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shortest class path from start to the destination plus the arc
    witnesses as movers."""
    if start != aux.destination and start not in aux.hops:
        raise PreconditionError(f"class {start} is not accessible")
    path = [start]
    while path[-1] != aux.destination:
        path.append(aux.hops[path[-1]])
    movers = tuple(aux.arcs[(i, j)] for i, j in zip(path, path[1:]))
    return tuple(path), movers


def solo_neighbor(st: PartitionState, v: int, j: int) -> int | None:
    """The unique neighbor of v inside class j, or None if v has zero or
    several neighbors there. v must not itself lie in class j."""
    if not 0 <= j < CLASS_COUNT:
        raise PreconditionError(f"class index {j} out of range")
    if st.classes[j] >> v & 1:
        raise PreconditionError(f"vertex {v} lies in class {j}")
    inside = st.graph.adj[v] & st.classes[j]
    if inside.bit_count() == 1:
        return inside.bit_length() - 1
    return None


def _relocate(st: PartitionState, steps: Iterable[tuple[int, int, int]]) -> PartitionState:
    """Apply the steps (v, i, j) in order: move v from class i to class j.
    v must lie in class i and have no neighbor in class j as the classes
    stand at that step; class 0, which need not be independent, is not
    checked as a target."""
    classes = list(st.classes)
    adj = st.graph.adj
    for v, i, j in steps:
        bit = 1 << v
        if not classes[i] & bit:
            raise PreconditionError(f"mover {v} is not in class {i}")
        if j != 0 and adj[v] & classes[j]:
            raise PreconditionError(f"mover {v} has neighbors in class {j}")
        classes[i] &= ~bit
        classes[j] |= bit
    return PartitionState(st.graph, st.p, tuple(classes))


# -- move proposals ------------------------------------------------------------


def propose_moves(st: PartitionState, aux: AuxDigraph,
                  undo: tuple[int, int, int] | None = None) -> list[Move]:
    """Candidate moves in priority order. The first three kinds produce a
    witness immediately; the last two stir a stuck state. A stirring move
    whose last step equals undo (the reverse of the previous stirring
    move's first step) is skipped."""
    return list(iter_moves(st, aux, undo))


def _path_steps(aux: AuxDigraph, start: int) -> tuple[tuple[int, int, int], ...]:
    path, movers = accessible_path(aux, start)
    return tuple(zip(movers, path, path[1:]))


def iter_moves(st: PartitionState, aux: AuxDigraph,
               undo: tuple[int, int, int] | None = None) -> Iterator[Move]:
    """The moves of `propose_moves`, in the same order, built one at a time
    so the engine pays only for the move it takes."""
    g = st.graph
    dest = aux.destination
    if 0 in aux.hops:
        yield Move("path-shift", _path_steps(aux, 0))
    class0 = st.classes[0]
    # Two nonadjacent leftover vertices sharing a solo neighbor in an
    # accessible class: swap them in after routing the shared neighbor away.
    for j in sorted(aux.hops.keys() - {0}):
        by_solo: dict[int, list[int]] = {}
        for x in bits(class0):
            v = solo_neighbor(st, x, j)
            if v is not None:
                by_solo.setdefault(v, []).append(x)
        for v in sorted(by_solo):
            xs = by_solo[v]
            pair = next(((a, b) for ai, a in enumerate(xs) for b in xs[ai + 1:]
                         if not g.has_edge(a, b)), None)
            if pair is None:
                continue
            x, x2 = pair
            route = _path_steps(aux, j)
            if route[0][0] == v:
                # The shared neighbor is the path's own mover: one leftover
                # takes its place.
                yield Move("double-solo", route + ((x, 0, j),))
            else:
                # Both leftovers replace it, and the path mover refills the
                # destination.
                yield Move("double-solo", ((v, j, 0), (x, 0, j), (x2, 0, j)) + route)
            break
    # One leftover vertex whose solo neighbor can move straight to the
    # destination: re-root in a single compound move.
    dest_mask = st.classes[dest]
    for j in range(1, CLASS_COUNT):
        if j == dest:
            continue
        for x in bits(class0):
            v = solo_neighbor(st, x, j)
            if v is not None and g.adj[v] & dest_mask == 0:
                yield Move("solo-reroot", ((v, j, dest), (x, 0, j)))
                break
        else:
            continue
        break
    # Stirring moves: re-root the destination, or swap a leftover vertex
    # with its solo neighbor in an accessible class.
    for j in range(1, CLASS_COUNT):
        if j != dest and (j, dest) in aux.arcs:
            step = (aux.arcs[(j, dest)], j, dest)
            if step != undo:
                yield Move("re-root", (step,))
                break
    for j in sorted(aux.hops.keys() - {0}):
        for x in bits(class0):
            v = solo_neighbor(st, x, j)
            if v is not None and (x, 0, j) != undo:
                yield Move("solo-swap", ((v, j, 0), (x, 0, j)))
                return


# -- certificate ---------------------------------------------------------------


def certify_k7_structure(g: Graph, p: int) -> StructureCertificate | None:
    """Certificate that g is exactly (s/3) disjoint 7-cliques plus isolated
    vertices for s = n - (4p-1); None when g is not of this form."""
    if p < 1:
        raise PreconditionError("p must be positive")
    s = g.n - (4 * p - 1)
    profile = rigid_clique_profile(g, 4, s)
    if profile is None:
        return None
    cliques, isolated = profile
    return StructureCertificate(
        cliques=tuple(VertexSet(g.n, m) for m in cliques),
        isolated=VertexSet(g.n, isolated),
        s=s,
        edges=g.edge_count(),
        max_degree=g.max_degree(),
    )


# -- driver --------------------------------------------------------------------


def check_preconditions(g: Graph, p: int) -> list[str]:
    """Diagnostics for the resolve preconditions; empty when satisfied."""
    problems = []
    if p < 3:
        problems.append(f"p={p} must be at least 3")
        return problems
    s = g.n - (4 * p - 1)
    if not 1 <= s <= 3 * p - 1:
        problems.append(
            f"n={g.n} must equal 4p-1+s with 1 <= s <= 3p-1 (got s={s})")
    else:
        if g.edge_count() > 7 * s:
            problems.append(f"edge count {g.edge_count()} exceeds 7s = {7 * s}")
    if g.max_degree() > 6:
        problems.append(f"max degree {g.max_degree()} exceeds 6")
    return problems


def resolve(g: Graph, p: int, budget: int | None = None,
            guard_n: int | None = None,
            trace: EngineTrace | None = None) -> PackingWitness | StructureCertificate:
    """Witness four disjoint independent p-sets or certify the rigid form.

    Raises PreconditionError when the host is outside the covered regime
    and SoundnessAlarm if neither outcome can be established (which would
    contradict the dichotomy the engine is built on).
    """
    problems = check_preconditions(g, p)
    if problems:
        raise PreconditionError("; ".join(problems))
    if budget is None:
        budget = 10 * g.n

    witness = None
    if not is_clique_union(g):
        witness = _heuristic_phase(g, p, budget, trace)
    if witness is None:
        witness = find_disjoint_independent_sets(g, 4, p, guard_n=guard_n)
        if trace is not None:
            trace.used_exact_fallback = True
    if witness is not None:
        verify_witness(g, witness, 4, p, "independent").require("engine produced a bad witness")
        return witness
    cert = certify_k7_structure(g, p)
    if cert is None:
        raise SoundnessAlarm(
            "no witness found and host is not the rigid clique union; "
            "this contradicts the engine's dichotomy")
    verify_certificate(g, cert, p).require("bad structure certificate")
    return cert


def _heuristic_phase(g: Graph, p: int, budget: int,
                     trace: EngineTrace | None) -> PackingWitness | None:
    st = init_partition(g, p)
    if st is None:
        return None
    undo: tuple[int, int, int] | None = None
    for _ in range(budget):
        # When class 0 has a vertex with no neighbor in the destination, the
        # reverse BFS sets hops[0] = dest, so the digraph's first move is the
        # one-step path-shift of the lowest such vertex: take it without
        # building the digraph.
        dest = st.destination
        free = st.classes[0] & ~_neighborhood(g.adj, st.classes[dest])
        if free:
            if trace is not None:
                trace.moves.append("path-shift")
            return _relocate(st, (((free & -free).bit_length() - 1, 0, dest),)).witness()
        aux = build_aux_digraph(st)
        if trace is not None:
            trace.inaccessible_sizes.append(len(aux.inaccessible))
        move = next(iter_moves(st, aux, undo), None)
        if move is None:
            return None
        if trace is not None:
            trace.moves.append(move.kind)
        st = _relocate(st, move.steps)
        if move.kind in WITNESS_MOVES:
            return st.witness()
        v, i, j = move.steps[0]
        undo = (v, j, i)
    return None
