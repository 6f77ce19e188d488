"""Immutable simple graphs on dense vertex labels 0..n-1.

Adjacency is stored as one Python int bitmask per vertex, which keeps the
packing searches branch-free on set operations. Graphs are value objects:
every operation returns a new Graph.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import PreconditionError, SizeGuardError

# Largest vertex count an edge list may declare (or imply by its largest
# endpoint), and the largest host `construct` builds. Checked before the
# adjacency rows are allocated, so a header line like "1000000000" fails
# fast instead of exhausting memory; at the cap even a complete graph's rows
# take 32 MiB. graph6 input needs no such cap: its body length already
# bounds n.
MAX_EDGE_LIST_N = 1 << 14


def mask_of(members: Iterable[int]) -> int:
    m = 0
    for v in members:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class VertexSet:
    """A subset of a graph's vertex range, stored as a bitmask."""

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int):
        self.n = n
        self.mask = mask

    def __eq__(self, other: object) -> bool:
        if type(other) is not VertexSet:
            return NotImplemented
        return self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet(n={self.n}, mask={self.mask})"

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "VertexSet":
        m = 0
        for v in members:
            if not 0 <= v < n:
                raise PreconditionError(f"vertex {v} outside range 0..{n - 1}")
            m |= 1 << v
        return cls(n, m)

    def members(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)


class Graph:
    """Undirected simple graph; vertices are 0..n-1, rows are bitmasks."""

    __slots__ = ("n", "adj", "_edges")

    def __init__(self, n: int, adj: Sequence[int]):
        if n < 0:
            raise PreconditionError("vertex count must be nonnegative")
        if len(adj) != n:
            raise PreconditionError("adjacency row count must equal n")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise PreconditionError(f"adjacency row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise PreconditionError(f"self loop at vertex {v}")
        for v, row in enumerate(adj):
            bit = 1 << v
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] & bit:
                    raise PreconditionError(f"asymmetric adjacency between {u} and {v}")
                row ^= low
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "_edges", sum(map(int.bit_count, adj)) // 2)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Graph is immutable")

    # -- accessors ---------------------------------------------------------

    def edge_count(self) -> int:
        return self._edges

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max(map(int.bit_count, self.adj), default=0)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                yield (u, v)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def is_independent(self, mask: int) -> bool:
        adj = self.adj
        rest = mask
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & mask:
                return False
            rest ^= low
        return True

    def is_clique(self, mask: int) -> bool:
        adj = self.adj
        rest = mask
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & mask != mask ^ low:
                return False
            rest ^= low
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# -- constructors ----------------------------------------------------------


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from (u, v) pairs; duplicates collapse, loops are errors."""
    if n < 0:
        raise PreconditionError("vertex count must be nonnegative")
    if n > MAX_EDGE_LIST_N:
        raise SizeGuardError(f"edge-list guard: declared n={n} > {MAX_EDGE_LIST_N}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise PreconditionError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
        if u == v:
            raise PreconditionError(f"self loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full ^ (1 << v) for v in range(n)])


# -- operations ------------------------------------------------------------


def complement(g: Graph) -> Graph:
    full = g.full_mask()
    return Graph(g.n, [full & ~row & ~(1 << v) for v, row in enumerate(g.adj)])


def disjoint_union(*graphs: Graph) -> Graph:
    """Concatenate graphs; the i-th input keeps its labels shifted by the
    total size of the inputs before it."""
    adj: list[int] = []
    offset = 0
    for g in graphs:
        adj.extend(row << offset for row in g.adj)
        offset += g.n
    return Graph(offset, adj)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all cross edges; g's vertices come first."""
    g_all = g.full_mask()
    h_all = h.full_mask() << g.n
    adj = [row | h_all for row in g.adj]
    adj.extend((row << g.n) | g_all for row in h.adj)
    return Graph(g.n + h.n, adj)


def cross_edge_count(g: Graph, a: VertexSet | Iterable[int], b: VertexSet | Iterable[int]) -> int:
    """Number of edges with one endpoint in a and the other in b.

    The two sets must be disjoint; overlapping sets would double-count.
    """
    am = a.mask if isinstance(a, VertexSet) else mask_of(a)
    bm = b.mask if isinstance(b, VertexSet) else mask_of(b)
    if am & ~g.full_mask() or bm & ~g.full_mask():
        raise PreconditionError("set contains vertices outside the graph")
    if am & bm:
        raise PreconditionError("cross_edge_count requires disjoint sets")
    return sum((g.adj[v] & bm).bit_count() for v in bits(am))


# -- structure helpers -----------------------------------------------------


def components(g: Graph) -> list[int]:
    """Connected component masks, ordered by smallest member."""
    out = []
    rem = g.full_mask()
    while rem:
        seed = rem & -rem
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in bits(frontier):
                grow |= g.adj[v]
            frontier = grow & rem & ~comp
            comp |= frontier
        out.append(comp)
        rem &= ~comp
    return out


def is_clique_union(g: Graph) -> bool:
    """Whether every component induces a complete graph.

    Equals `clique_union_profile(g) is not None`, but exits at the first
    edge uv with N[u] != N[v]: within a connected component, equal closed
    neighborhoods along every edge force one common closed neighborhood,
    which then contains the whole component."""
    adj = g.adj
    for v in range(g.n):
        closed = adj[v] | 1 << v
        later = adj[v] >> (v + 1) << (v + 1)
        while later:
            low = later & -later
            if adj[low.bit_length() - 1] | low != closed:
                return False
            later ^= low
    return True


def clique_union_profile(g: Graph,
                         comps: list[int] | None = None) -> tuple[list[int], int] | None:
    """If every component induces a complete graph, return (the masks of
    the components with at least two vertices, sorted by descending size
    then smallest member, the mask of the isolated vertices); otherwise
    None. comps, when given, is components(g), which is then not rerun."""
    cliques: list[int] = []
    pool = 0
    for comp in components(g) if comps is None else comps:
        if comp.bit_count() == 1:
            pool |= comp
        elif g.is_clique(comp):
            cliques.append(comp)
        else:
            return None
    cliques.sort(key=lambda m: (-m.bit_count(), m & -m))
    return cliques, pool


def rigid_clique_profile(g: Graph, k: int, s: int) -> tuple[list[int], int] | None:
    """clique_union_profile(g) when g is exactly s/(k-1) copies of the
    (2k-1)-clique plus isolated vertices, with s >= 1 divisible by k-1;
    otherwise None. The rigid outcome of the k-block dichotomy; needs k >= 2."""
    if s < 1 or s % (k - 1) != 0:
        return None
    profile = clique_union_profile(g)
    if (profile is None or len(profile[0]) != s // (k - 1)
            or any(m.bit_count() != 2 * k - 1 for m in profile[0])):
        return None
    return profile


# -- edge-list text format -------------------------------------------------


def to_edge_list_text(g: Graph) -> str:
    """Human-friendly format: a leading vertex-count line, then one "u v"
    pair per line. '#' starts a comment."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    """Parse the edge-list format. The leading single-integer line is the
    vertex count; if absent, n is max endpoint + 1."""
    declared_n: int | None = None
    pairs: list[tuple[int, int]] = []
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) == 1 and not saw_data:
            try:
                declared_n = int(tokens[0])
            except ValueError:
                raise PreconditionError(f"line {lineno}: expected an integer vertex count")
            saw_data = True
            continue
        if len(tokens) != 2:
            raise PreconditionError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise PreconditionError(f"line {lineno}: endpoints must be integers")
        if u < 0 or v < 0:
            raise PreconditionError(f"line {lineno}: endpoints must be nonnegative")
        pairs.append((u, v))
        saw_data = True
    if declared_n is None:
        declared_n = 1 + max((max(u, v) for u, v in pairs), default=-1)
    return from_edge_list(declared_n, pairs)
