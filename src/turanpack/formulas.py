"""Closed-form extremal edge counts for disjoint-clique patterns.

Every ex_* operation returns a TuranValue: the extremal value, a regime
label naming the piecewise branch that applied, and (when a verified
extremal family is known) a reference to a construction whose complement
attains the value. Hosts smaller than the pattern are not errors: any
graph qualifies, so the value is C(n,2) under the regime
"pattern-larger-than-host".
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from .errors import PreconditionError

# Regime labels (piecewise branches) shared across operations.
REGIME_SMALL_HOST = "pattern-larger-than-host"
REGIME_TURAN = "turan"
REGIME_CLIQUE_BLOCK = "clique-block"
REGIME_CLIQUE_UNION = "clique-union"
REGIME_HUB_JOIN = "hub-join"
REGIME_TIGHT_A = "tight-family-A"
REGIME_TIGHT_B = "tight-family-B"
REGIME_NEAR_TIGHT = ("near-tight-1", "near-tight-2", "near-tight-3", "near-tight-4")


class ConstructionRef(NamedTuple):
    """Pointer to a construction family; resolved by constructions.build_ref.

    complemented=True means the attaining graph handed back to callers is
    the complement of the family's base graph, so that in all cases
    e(complement(built graph)) equals the TuranValue.
    """

    family: str
    params: dict
    complemented: bool = False


class TuranValue(NamedTuple):
    value: int
    regime: str
    construction: ConstructionRef | None = None


def binom2(n: int) -> int:
    return comb(n, 2)


def turan_edges(n: int, p: int) -> int:
    """Edge count of the balanced complete p-partite graph on n vertices."""
    if p < 1:
        raise PreconditionError("part count must be at least 1")
    if n < 0:
        raise PreconditionError("vertex count must be nonnegative")
    q, r = divmod(n, p)
    return binom2(n) - r * binom2(q + 1) - (p - r) * binom2(q)


def _small_host(n: int, k: int, p: int) -> TuranValue:
    ref = ConstructionRef("empty", {"n": n, "k": k, "p": p})
    return TuranValue(binom2(n), REGIME_SMALL_HOST, ref)


def ex_single_clique(n: int, p: int) -> TuranValue:
    """Largest edge count of an n-vertex graph with no p-clique."""
    if p < 2:
        raise PreconditionError("clique size must be at least 2")
    if n < 0:
        raise PreconditionError("vertex count must be nonnegative")
    if n < p:
        return _small_host(n, 1, p)
    ref = ConstructionRef("turan", {"n": n, "p": p - 1}, complemented=True)
    return TuranValue(turan_edges(n, p - 1), REGIME_TURAN, ref)


def ex_k_matchings(n: int, k: int) -> TuranValue:
    """Largest edge count avoiding k pairwise disjoint edges."""
    if k < 1:
        raise PreconditionError("matching size must be at least 1")
    if n < 0:
        raise PreconditionError("vertex count must be nonnegative")
    if n < 2 * k:
        return _small_host(n, k, 2)
    if 2 * n < 5 * k - 2:
        ref = ConstructionRef("clique-block", {"r": 2 * k - 1, "n": n},
                              complemented=True)
        return TuranValue(binom2(2 * k - 1), REGIME_CLIQUE_BLOCK, ref)
    ref = ConstructionRef("hub-join", {"k": k, "n": n, "p": 2}, complemented=True)
    return TuranValue(binom2(k - 1) + (k - 1) * (n - k + 1), REGIME_HUB_JOIN, ref)


def ex_2_cliques(n: int, p: int) -> TuranValue:
    """Largest edge count avoiding two disjoint p-cliques."""
    if p < 2:
        raise PreconditionError("clique size must be at least 2")
    if p == 2:
        return ex_k_matchings(n, 2)
    if n < 2 * p:
        return _small_host(n, 2, p)
    if n <= 3 * p - 2:
        s = n - 2 * p + 1
        ref = ConstructionRef("rigid-union", {"k": 2, "p": p, "s": s})
        return TuranValue(binom2(n) - 3 * s, REGIME_CLIQUE_UNION, ref)
    ref = ConstructionRef("hub-join", {"k": 2, "n": n, "p": p}, complemented=True)
    return TuranValue((n - 1) + turan_edges(n - 1, p - 1), REGIME_HUB_JOIN, ref)


def ex_two_distinct_cliques(n: int, p: int, q: int) -> TuranValue:
    """Largest edge count avoiding disjoint cliques of sizes p and q, q > p >= 3."""
    if not q > p >= 3:
        raise PreconditionError("requires q > p >= 3")
    if n < p + q:
        return TuranValue(binom2(n), REGIME_SMALL_HOST,
                          ConstructionRef("empty", {"n": n}))
    threshold = p + q + max(2 * p - q, p // 2 - 1)
    if n <= threshold:
        return TuranValue(binom2(n) - 3 * (n - p - q + 1), REGIME_CLIQUE_UNION)
    ref = ConstructionRef("turan", {"n": n, "p": q - 1}, complemented=True)
    return TuranValue(turan_edges(n, q - 1), REGIME_TURAN, ref)


def ex_tight_k_cliques(k: int, p: int) -> TuranValue:
    """Largest edge count avoiding k disjoint p-cliques on exactly n = kp
    vertices."""
    if k < 1:
        raise PreconditionError("clique count must be at least 1")
    if p < 3:
        raise PreconditionError("clique size must be at least 3")
    n = k * p
    if k <= 2 * p - 2:
        ref = ConstructionRef("tight-A", {"k": k, "p": p})
        return TuranValue(binom2(n) - binom2(k + 1), REGIME_TIGHT_A, ref)
    x = k * p - 2 * p + 3  # smallest valid star size; any valid x matches
    ref = ConstructionRef("tight-B", {"k": k, "p": p, "x": x})
    return TuranValue(binom2(n) - (n - p + 1), REGIME_TIGHT_B, ref)


def ex_3_cliques(n: int, p: int) -> TuranValue:
    """Largest edge count avoiding three disjoint p-cliques."""
    if p < 3:
        raise PreconditionError("clique size must be at least 3")
    if n < 3 * p:
        return _small_host(n, 3, p)
    if n == 3 * p:
        return ex_tight_k_cliques(3, p)
    if n <= 5 * p - 2:
        s = n - 3 * p + 1
        ref = ConstructionRef("rigid-union", {"k": 3, "p": p, "s": s})
        return TuranValue(binom2(n) - 5 * s, REGIME_CLIQUE_UNION, ref)
    ref = ConstructionRef("hub-join", {"k": 3, "n": n, "p": p}, complemented=True)
    return TuranValue(1 + 2 * (n - 2) + turan_edges(n - 2, p - 1), REGIME_HUB_JOIN, ref)


def ex_4_cliques(n: int, p: int) -> TuranValue:
    """Largest edge count avoiding four disjoint p-cliques.

    The large-n branch is the construction count e(K_3 v T(n-3,p-1)) =
    3 + 3(n-3) + t(n-3,p-1); the alternative closed form 3 + 3(n-1) +
    t(n-3,p-1) seen elsewhere overstates it by exactly 6 and is not used
    (the boundary identity at n = 7p-2 pins the construction count).
    """
    if p < 3:
        raise PreconditionError("clique size must be at least 3")
    if n < 4 * p:
        return _small_host(n, 4, p)
    if n == 4 * p:
        return ex_tight_k_cliques(4, p)
    offset = n - 4 * p
    if offset == 1:
        return TuranValue(binom2(n) - 15, REGIME_NEAR_TIGHT[0],
                          ConstructionRef("G1", {"p": p}))
    if offset == 2:
        return TuranValue(binom2(n) - 21, REGIME_NEAR_TIGHT[1],
                          ConstructionRef("G2", {"p": p}))
    if offset == 3:
        return TuranValue(binom2(n) - 28, REGIME_NEAR_TIGHT[2],
                          ConstructionRef("G3", {"p": p}))
    if offset == 4:
        if p == 3:
            return TuranValue(binom2(n) - 35, REGIME_NEAR_TIGHT[3],
                              ConstructionRef("G4", {"p": p}))
        return TuranValue(binom2(n) - 36, REGIME_NEAR_TIGHT[3],
                          ConstructionRef("G5", {"p": p}))
    if n <= 7 * p - 2:
        s = n - 4 * p + 1
        ref = ConstructionRef("J", {"p": p, "s": s})
        return TuranValue(binom2(n) - 7 * s, REGIME_CLIQUE_UNION, ref)
    ref = ConstructionRef("hub-join", {"k": 4, "n": n, "p": p}, complemented=True)
    return TuranValue(3 + 3 * (n - 3) + turan_edges(n - 3, p - 1), REGIME_HUB_JOIN, ref)


def f3_min_edges(n: int, p: int) -> int:
    """Minimum edge count of an n-vertex graph with no three disjoint
    independent p-sets, for n = 3p-1+s with 1 <= s <= 2p-1."""
    if p < 3:
        raise PreconditionError("set size must be at least 3")
    s = n - (3 * p - 1)
    if not 1 <= s <= 2 * p - 1:
        raise PreconditionError(
            f"n={n} is outside the covered range (need n = 3p-1+s, 1 <= s <= 2p-1)")
    return 6 if s == 1 else 5 * s


def hub_join_edges(k: int, n: int, p: int) -> int:
    """Edge count of K_(k-1) joined to the balanced (p-1)-partite graph on
    n-k+1 vertices; the general large-n candidate value."""
    if k < 1 or p < 2:
        raise PreconditionError("requires k >= 1 and p >= 2")
    if n < k - 1:
        raise PreconditionError("host too small for the hub")
    m = n - k + 1
    return binom2(k - 1) + (k - 1) * m + turan_edges(m, p - 1)


def _tight_cliques(query: FormulaQuery) -> tuple[int, ...]:
    if query.n != query.k * query.p:
        raise PreconditionError("kKp-tight needs n = k*p")
    return (query.p,) * query.k


def _distinct_cliques(query: FormulaQuery) -> tuple[int, ...]:
    if not query.q > query.p:
        raise PreconditionError("KpKq needs q > p")
    return (query.p, query.q)


class Pattern(NamedTuple):
    """One pattern of the catalogue: the parameters its operation reads, in
    call order; the operation; and the clique sizes the pattern is made of
    on the query's n-vertex host, None for the minimum-edge quantity f3."""

    params: tuple[str, ...]
    operation: Callable[..., TuranValue]
    cliques: Callable[[FormulaQuery], tuple[int, ...]] | None


PATTERNS = {
    "Kp": Pattern(("n", "p"), ex_single_clique, lambda query: (query.p,)),
    "kK2": Pattern(("n", "k"), ex_k_matchings, lambda query: (2,) * query.k),
    "kKp-tight": Pattern(("k", "p"), ex_tight_k_cliques, _tight_cliques),
    "2Kp": Pattern(("n", "p"), ex_2_cliques, lambda query: (query.p,) * 2),
    "KpKq": Pattern(("n", "p", "q"), ex_two_distinct_cliques, _distinct_cliques),
    "3Kp": Pattern(("n", "p"), ex_3_cliques, lambda query: (query.p,) * 3),
    "4Kp": Pattern(("n", "p"), ex_4_cliques, lambda query: (query.p,) * 4),
    "f3": Pattern(("n", "p"),
                  lambda n, p: TuranValue(f3_min_edges(n, p), "min-edges-3-blocks"), None),
}


def lookup_pattern(name: str) -> Pattern:
    """The catalogue entry of a pattern name."""
    if name not in PATTERNS:
        raise PreconditionError(f"unknown pattern {name!r}")
    return PATTERNS[name]


class FormulaQuery:
    """Parsed formula request: which pattern, and its parameters."""

    PATTERNS = tuple(PATTERNS)

    def __init__(self, pattern: str, n: int | None = None, p: int | None = None,
                 q: int | None = None, k: int | None = None):
        lookup_pattern(pattern)
        self.pattern = pattern
        self.n = n
        self.p = p
        self.q = q
        self.k = k


def _arguments(query: FormulaQuery) -> list[int]:
    """The values of the parameters the query's pattern reads, in call order."""
    names = PATTERNS[query.pattern].params
    values = [getattr(query, name) for name in names]
    missing = [name for name, value in zip(names, values) if value is None]
    if missing:
        raise PreconditionError(
            f"pattern {query.pattern} needs parameters: {', '.join(missing)}")
    return values


def dispatch_formula(query: FormulaQuery) -> TuranValue:
    """Route a FormulaQuery to its pattern's operation."""
    return PATTERNS[query.pattern].operation(*_arguments(query))


def pattern_cliques(query: FormulaQuery) -> tuple[int, ...]:
    """The clique sizes that make up the query's pattern."""
    cliques = PATTERNS[query.pattern].cliques
    if cliques is None:
        raise PreconditionError(
            f"{query.pattern} is a minimum-edge quantity; the exhaustive oracle only "
            "maximizes edges of pattern-free hosts")
    _arguments(query)  # refuses a missing parameter
    return cliques(query)
