"""Extremal construction families.

Families that serve as complement-side witnesses (rigid clique unions,
tight families, the near-tight blocks G1..G5) are built directly with a
fixed component labeling: cliques first in descending size, then stars and
matchings, then isolated vertices. Dense families (turan, hub-join) build
the extremal graph itself; TuranValue references resolve them with
complemented=True so that e(complement(built)) always equals the value.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import PreconditionError, SizeGuardError, check_params
from .formulas import ConstructionRef, binom2, hub_join_edges, turan_edges
from .graphs import (MAX_EDGE_LIST_N, Graph, complement, complete_graph, disjoint_union,
                     empty_graph, from_edge_list, join)


class ConstructionDescriptor(NamedTuple):
    """What was built and which freeness claim it carries.

    claim is a (k, p) pattern; claim_side says which graph avoids k
    disjoint p-cliques: "self" for the built graph, "complement" for its
    complement. Either way the claim is machine-checkable by the packing
    search (k disjoint p-cliques in X = k disjoint independent p-sets in
    the complement of X).
    """

    family: str
    parameters: dict
    expected_edges: int
    claim: tuple[int, int] | None
    claim_side: str | None


def turan_graph(n: int, p: int) -> Graph:
    """Balanced complete p-partite graph; vertex v sits in part v mod p."""
    if p < 1:
        raise PreconditionError("part count must be at least 1")
    if n < 0:
        raise PreconditionError("vertex count must be nonnegative")
    full = (1 << n) - 1
    part_masks = [0] * p
    for v in range(n):
        part_masks[v % p] |= 1 << v
    return Graph(n, [full & ~part_masks[v % p] for v in range(n)])


def hub_join(k: int, n: int, p: int) -> Graph:
    """K_(k-1) joined to the balanced (p-1)-partite graph on the remaining
    n-k+1 vertices; hub vertices come first."""
    if k < 1 or p < 2:
        raise PreconditionError("requires k >= 1 and p >= 2")
    if n < k - 1:
        raise PreconditionError("host smaller than the hub")
    return join(complete_graph(k - 1), turan_graph(n - k + 1, p - 1))


def union_of_cliques(sizes: list[int], isolated: int) -> Graph:
    """Disjoint cliques in descending size order, then isolated vertices."""
    parts = [complete_graph(size) for size in sorted(sizes, reverse=True)]
    parts.append(empty_graph(isolated))
    return disjoint_union(*parts)


def star_graph(leaves: int) -> Graph:
    """K_(1,leaves): hub is vertex 0."""
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def rigid_clique_union(k: int, p: int, s: int) -> Graph:
    """The minimum-edge blocker of k disjoint independent p-sets on
    n = kp-1+s vertices: cliques on 2k-1 (and up to k-2 cliques on 2k)
    vertices carrying (2k-1)s edges, plus isolated vertices.

    Undefined offsets (those needing a negative component count) are
    rejected; for k=4 these are exactly s in {1, 2, 5}.
    """
    if k < 2 or p < 2:
        raise PreconditionError("requires k >= 2 and p >= 2")
    if not 1 <= s <= (k - 1) * p - 1:
        raise PreconditionError(f"offset s={s} outside 1..{(k - 1) * p - 1}")
    big = s % (k - 1)  # count of (2k)-cliques; each covers k units of s
    small, rem = divmod(s - big * k, k - 1)
    if rem or small < 0:
        raise PreconditionError(f"undefined here (k={k}, s={s})")
    n = k * p - 1 + s
    used = small * (2 * k - 1) + big * 2 * k
    if used > n:
        raise PreconditionError(f"undefined here (k={k}, p={p}, s={s})")
    sizes = [2 * k] * big + [2 * k - 1] * small
    return union_of_cliques(sizes, n - used)


def tight_family_a(k: int, p: int) -> Graph:
    """K_(k+1) plus isolated vertices on kp vertices; blocker for k
    disjoint independent p-sets when k <= 2p-2."""
    if k < 1 or p < 3:
        raise PreconditionError("requires k >= 1 and p >= 3")
    if k > 2 * p - 2:
        raise PreconditionError("family A needs k <= 2p-2")
    return union_of_cliques([k + 1], k * p - k - 1)


def tight_family_b(k: int, p: int, x: int) -> Graph:
    """Star K_(1,x), a matching, and isolated vertices on kp vertices;
    blocker for k disjoint independent p-sets when k >= 2p-2."""
    if p < 3:
        raise PreconditionError("requires p >= 3")
    if k < 2 * p - 2:
        raise PreconditionError("family B needs k >= 2p-2")
    lo, hi = k * p - 2 * p + 3, k * p - p + 1
    if not lo <= x <= hi:
        raise PreconditionError(f"star size x={x} outside {lo}..{hi}")
    pairs = k * p - p - x + 1
    singles = 2 * p - k * p + x - 3
    parts = [star_graph(x)]
    parts.extend(complete_graph(2) for _ in range(pairs))
    parts.append(empty_graph(singles))
    return disjoint_union(*parts)


_NEAR_TIGHT = {
    # name -> (clique size, edge count); all live on 4p-5 extra vertices
    "G1": (6, 15),
    "G2": (7, 21),
    "G3": (8, 28),
    "G5": (9, 36),
}


def near_tight_witness(name: str, p: int) -> Graph:
    """The five blocker graphs for hosts just above 4p vertices: G1, G2,
    G3, G5 are a single clique plus isolated vertices; G4 (p=3 only) is
    K_8 plus a star on 8 vertices."""
    if p < 3:
        raise PreconditionError("requires p >= 3")
    if name == "G4":
        if p != 3:
            raise PreconditionError("G4 exists only for p=3")
        return disjoint_union(complete_graph(8), star_graph(7))
    if name not in _NEAR_TIGHT:
        raise PreconditionError(f"unknown witness name {name!r}")
    size, _ = _NEAR_TIGHT[name]
    return union_of_cliques([size], 4 * p - 5)


# -- the family table --------------------------------------------------------


class Family(NamedTuple):
    """One construction family, called with its parameters as keywords.

    build returns the base graph, its claim (k, p) or None, and the side
    that avoids k disjoint p-cliques. edges and vertices count the base
    graph from the parameters alone, so build_ref can guard the size before
    building and check the built graph against an independent count.
    """

    required: tuple[str, ...]
    optional: tuple[str, ...]
    build: Callable[..., tuple[Graph, tuple[int, int] | None, str | None]]
    edges: Callable[..., int]
    vertices: Callable[..., int] = lambda n, **_: n


def _near_tight(name: str) -> Family:
    if name == "G4":  # K_8 plus a star on 8 vertices
        edges, vertices = 35, (lambda p: 16)
    else:
        size, edges = _NEAR_TIGHT[name]
        vertices = (lambda p: size + 4 * p - 5)
    return Family(("p",), (),
                  lambda p: (near_tight_witness(name, p), (4, p), "complement"),
                  edges=lambda p: edges, vertices=vertices)


def _clique_block(r: int, n: int) -> tuple[Graph, tuple[int, int] | None, str | None]:
    if not 0 <= r <= n:
        raise PreconditionError("clique block larger than host")
    claim = ((r + 1) // 2, 2) if r % 2 == 1 else None
    return union_of_cliques([r], n - r), claim, "self" if claim else None


def _empty(n: int, k: int | None = None,
           p: int | None = None) -> tuple[Graph, tuple[int, int] | None, str | None]:
    # k and p only name the claim of a host smaller than the pattern
    claim = (k, p) if k is not None and p is not None and n < k * p else None
    return empty_graph(n), claim, "complement" if claim else None


FAMILIES = {
    "turan": Family(("n", "p"), (),
                    lambda n, p: (turan_graph(n, p), (1, p + 1), "self"),
                    edges=turan_edges),
    "hub-join": Family(("k", "n", "p"), (),
                       lambda k, n, p: (hub_join(k, n, p), (k, p), "self"),
                       edges=hub_join_edges),
    "J": Family(("p", "s"), (),
                lambda p, s: (rigid_clique_union(4, p, s), (4, p), "complement"),
                edges=lambda p, s: 7 * s, vertices=lambda p, s: 4 * p - 1 + s),
    "rigid-union": Family(("k", "p", "s"), (),
                          lambda k, p, s: (rigid_clique_union(k, p, s), (k, p), "complement"),
                          edges=lambda k, p, s: (2 * k - 1) * s,
                          vertices=lambda k, p, s: k * p - 1 + s),
    "tight-A": Family(("k", "p"), (),
                      lambda k, p: (tight_family_a(k, p), (k, p), "complement"),
                      edges=lambda k, p: binom2(k + 1), vertices=lambda k, p: k * p),
    "tight-B": Family(("k", "p", "x"), (),
                      lambda k, p, x: (tight_family_b(k, p, x), (k, p), "complement"),
                      edges=lambda k, p, x: k * p - p + 1, vertices=lambda k, p, x: k * p),
    **{name: _near_tight(name) for name in ("G1", "G2", "G3", "G4", "G5")},
    "clique-block": Family(("r", "n"), (), _clique_block, edges=lambda r, n: binom2(r)),
    "empty": Family(("n",), ("k", "p"), _empty, edges=lambda n, **_: 0),
    "complete": Family(("n",), (), lambda n: (complete_graph(n), None, None), edges=binom2),
}

_OTHER_SIDE = {"self": "complement", "complement": "self", None: None}


def _family(name: str, params: dict) -> Family:
    """The table entry of a family, refusing an unknown name and any
    parameter set check_params refuses."""
    family = FAMILIES.get(name)
    if family is None:
        raise PreconditionError(f"unknown construction family {name!r}")
    check_params(f"family {name}", params, family.required, family.optional)
    return family


def _build(family: Family, ref: ConstructionRef) -> tuple[Graph, ConstructionDescriptor]:
    n = family.vertices(**ref.params)
    if n > MAX_EDGE_LIST_N:
        raise SizeGuardError(f"construct guard: {ref.family} has n={n} > {MAX_EDGE_LIST_N}")
    g, claim, side = family.build(**ref.params)
    edges = family.edges(**ref.params)
    if ref.complemented:
        g, side, edges = complement(g), _OTHER_SIDE[side], binom2(n) - edges
    if g.edge_count() != edges:
        raise PreconditionError(
            f"construction {ref.family} edge count {g.edge_count()} != "
            f"expected {edges}")
    return g, ConstructionDescriptor(ref.family, dict(ref.params), edges, claim, side)


def build_ref(ref: ConstructionRef) -> tuple[Graph, ConstructionDescriptor]:
    """Resolve a ConstructionRef into a graph plus its descriptor."""
    return _build(_family(ref.family, ref.params), ref)


def build_family(family: str, params: dict) -> tuple[Graph, ConstructionDescriptor]:
    """CLI entry: build the family's base graph (never complemented)."""
    spec = _family(family, params)
    try:
        return _build(spec, ConstructionRef(family, params))
    except PreconditionError as exc:
        raise PreconditionError(f"{family}: {exc}") from None


def claim_holds(g: Graph, desc: ConstructionDescriptor,
                guard_n: int | None = None) -> bool | None:
    """Check the descriptor's freeness claim by exact packing search.

    Returns None when the descriptor carries no claim. May raise
    SizeGuardError on hosts past the packing guard.
    """
    from .packing import find_clique_packing, find_disjoint_independent_sets

    if desc.claim is None:
        return None
    k, p = desc.claim
    if desc.claim_side == "self":
        return find_clique_packing(g, k, p, guard_n=guard_n) is None
    # k disjoint p-cliques in the complement are k disjoint independent
    # p-sets in g itself.
    return find_disjoint_independent_sets(g, k, p, guard_n=guard_n) is None
