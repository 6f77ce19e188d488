"""Closed-form extremal values.

Small cases are pinned against two independent references: a
partition-enumeration count for the balanced multipartite values, and the
exhaustive all-graphs oracle for the pattern values. Larger frozen values
were derived from those oracles plus the piecewise definitions and are
asserted exactly (tolerance 0 throughout).
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from turanpack import (FormulaQuery, PreconditionError, binom2,
                       dispatch_formula, ex_2_cliques, ex_3_cliques,
                       ex_4_cliques, ex_k_matchings, ex_single_clique,
                       ex_tight_k_cliques, ex_two_distinct_cliques,
                       exhaustive_ex, exhaustive_ex_sizes, f3_min_edges,
                       hub_join_edges, turan_edges)


def multipartite_max_edges(n, p):
    """Independent reference: maximize complete-multipartite edge count
    over all size partitions into at most p parts."""
    best = 0
    for cuts in itertools.combinations_with_replacement(range(n + 1), p - 1):
        sizes = []
        prev = 0
        for cut in cuts:
            sizes.append(cut - prev)
            prev = cut
        sizes.append(n - prev)
        if any(size < 0 for size in sizes):
            continue
        total = binom2(n) - sum(binom2(size) for size in sizes)
        best = max(best, total)
    return best


# -- balanced multipartite counts ------------------------------------------------


def test_turan_edges_frozen():
    assert turan_edges(9, 3) == 27
    assert turan_edges(7, 3) == 16
    assert turan_edges(6, 3) == 12
    assert turan_edges(17, 2) == 72
    assert turan_edges(5, 1) == 0
    assert turan_edges(0, 3) == 0
    assert turan_edges(4, 7) == 6  # more parts than vertices: complete


def test_turan_edges_against_partition_enumeration():
    for n in range(0, 9):
        for p in range(1, 5):
            assert turan_edges(n, p) == multipartite_max_edges(n, p), (n, p)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=1, max_value=8))
def test_turan_edges_monotone_in_parts(n, p):
    assert turan_edges(n, p) <= turan_edges(n, p + 1) <= binom2(n)


# -- single clique ---------------------------------------------------------------


def test_single_clique_frozen():
    assert ex_single_clique(5, 3).value == 6
    assert ex_single_clique(9, 4).value == 27
    assert ex_single_clique(2, 3).value == 1


def test_single_clique_matches_oracle():
    for n in range(0, 7):
        assert ex_single_clique(n, 3).value == exhaustive_ex(n, 1, 3)[0], n


# -- matchings -------------------------------------------------------------------


def test_matchings_frozen():
    assert ex_k_matchings(6, 3).value == 10
    assert ex_k_matchings(4, 2).value == 3
    assert ex_k_matchings(5, 1).value == 0
    assert ex_k_matchings(3, 2).value == 3  # host smaller than pattern
    assert ex_k_matchings(100, 3).value == 1 + 2 * 98


def test_matchings_match_oracle():
    for n in range(0, 7):
        for k in (1, 2, 3):
            assert ex_k_matchings(n, k).value == exhaustive_ex(n, k, 2)[0], (n, k)


# -- two cliques -----------------------------------------------------------------


def test_two_cliques_frozen():
    assert ex_2_cliques(7, 3).value == 15
    assert ex_2_cliques(9, 3).value == 24
    assert ex_2_cliques(6, 3).value == 12
    assert ex_2_cliques(5, 3).value == binom2(5)
    assert ex_2_cliques(6, 2).value == ex_k_matchings(6, 2).value


def test_two_cliques_matches_oracle_at_smallest_host():
    assert ex_2_cliques(6, 3).value == exhaustive_ex(6, 2, 3)[0]
    assert ex_2_cliques(7, 3).value == exhaustive_ex(7, 2, 3)[0]


def test_two_distinct_cliques_frozen():
    assert ex_two_distinct_cliques(7, 3, 4).value == 18
    assert ex_two_distinct_cliques(10, 3, 4).value == 33
    assert ex_two_distinct_cliques(8, 3, 5).value == 25
    assert ex_two_distinct_cliques(6, 3, 4).value == binom2(6)
    with pytest.raises(PreconditionError):
        ex_two_distinct_cliques(9, 4, 4)


def test_two_distinct_cliques_matches_oracle():
    assert ex_two_distinct_cliques(7, 3, 4).value == exhaustive_ex_sizes(7, (3, 4))[0]


# -- tight hosts -----------------------------------------------------------------


def test_tight_frozen():
    assert ex_tight_k_cliques(4, 3).value == 56
    assert ex_tight_k_cliques(5, 3).value == 92
    assert ex_tight_k_cliques(1, 3).value == 2
    assert ex_tight_k_cliques(2, 3).value == 12


def test_tight_families_coincide_at_shared_boundary():
    # k = 2p-2 satisfies both constructions; the two counts agree there.
    for p in range(3, 9):
        k = 2 * p - 2
        n = k * p
        assert binom2(n) - binom2(k + 1) == binom2(n) - (n - p + 1)
        assert ex_tight_k_cliques(k, p).value == binom2(n) - binom2(k + 1)


def test_tight_matches_oracle_for_two_triangles():
    assert ex_tight_k_cliques(2, 3).value == exhaustive_ex(6, 2, 3)[0]


# -- three and four cliques ------------------------------------------------------


def test_three_cliques_frozen():
    assert ex_3_cliques(9, 3).value == 30
    assert ex_3_cliques(10, 3).value == 35
    assert ex_3_cliques(14, 3).value == 61
    assert ex_3_cliques(8, 3).value == binom2(8)


def test_four_cliques_frozen():
    assert ex_4_cliques(12, 3).value == 56
    assert ex_4_cliques(13, 3).value == 63
    assert ex_4_cliques(14, 3).value == 70
    assert ex_4_cliques(15, 3).value == 77
    assert ex_4_cliques(16, 3).value == 85
    assert ex_4_cliques(17, 3).value == 94
    assert ex_4_cliques(19, 3).value == 115
    assert ex_4_cliques(20, 3).value == 126
    assert ex_4_cliques(20, 4).value == 154
    assert ex_4_cliques(16, 4).value == 110
    assert ex_4_cliques(21, 4).value == 168
    assert ex_4_cliques(27, 4).value == 3 + 3 * 24 + turan_edges(24, 3)
    assert ex_4_cliques(11, 3).value == binom2(11)


def test_four_cliques_regimes():
    assert ex_4_cliques(12, 3).regime == "tight-family-A"
    assert ex_4_cliques(13, 3).regime == "near-tight-1"
    assert ex_4_cliques(16, 3).regime == "near-tight-4"
    assert ex_4_cliques(17, 3).regime == "clique-union"
    assert ex_4_cliques(20, 3).regime == "hub-join"
    assert ex_4_cliques(16, 3).construction.family == "G4"
    assert ex_4_cliques(20, 4).construction.family == "G5"
    assert ex_4_cliques(17, 3).construction.family == "J"


@given(st.integers(min_value=9, max_value=60), st.integers(min_value=3, max_value=5))
def test_four_cliques_monotone_in_n(n, p):
    a = ex_4_cliques(n, p).value
    b = ex_4_cliques(n + 1, p).value
    assert a <= b <= binom2(n + 1)


# -- minimum edges for three blocks ----------------------------------------------


def test_f3_frozen():
    assert f3_min_edges(9, 3) == 6
    assert f3_min_edges(11, 3) == 15
    assert f3_min_edges(10, 3) == 10
    with pytest.raises(PreconditionError):
        f3_min_edges(8, 3)
    with pytest.raises(PreconditionError):
        f3_min_edges(14, 3)


# -- hub join --------------------------------------------------------------------


def test_hub_join_edges_frozen():
    assert hub_join_edges(4, 19, 3) == 115
    assert hub_join_edges(3, 14, 3) == 61
    assert hub_join_edges(2, 9, 3) == 24


@given(st.integers(min_value=19, max_value=80))
def test_extension_agrees_with_direct_formula(n):
    assert hub_join_edges(4, n, 3) == ex_4_cliques(n, 3).value


# -- dispatch --------------------------------------------------------------------


def test_dispatch_routes_every_pattern():
    cases = [
        ("Kp", dict(n=5, p=3), 6),
        ("kK2", dict(n=6, k=3), 10),
        ("kKp-tight", dict(k=4, p=3), 56),
        ("2Kp", dict(n=7, p=3), 15),
        ("KpKq", dict(n=7, p=3, q=4), 18),
        ("3Kp", dict(n=9, p=3), 30),
        ("4Kp", dict(n=16, p=3), 85),
        ("f3", dict(n=9, p=3), 6),
    ]
    for pattern, params, want in cases:
        assert dispatch_formula(FormulaQuery(pattern, **params)).value == want


def test_dispatch_reports_missing_parameters():
    with pytest.raises(PreconditionError, match="needs parameters"):
        dispatch_formula(FormulaQuery("4Kp", n=16))
    with pytest.raises(PreconditionError, match="unknown pattern"):
        FormulaQuery("5Kp", n=20, p=3)
