"""Randomized dichotomy probe and two-branch value sweep."""

import random

import pytest

from turanpack import (PreconditionError, binom2, probe_dichotomy, probe_value_sweep,
                       random_bounded_graph, rigid_clique_union, union_of_cliques)
from turanpack.graphs import rigid_clique_profile


def test_sampler_exact_edges_and_degree_cap():
    rng = random.Random(1)
    for n, m, cap in [(10, 15, 4), (7, 0, 3), (20, 30, 3), (5, 10, 4)]:
        g = random_bounded_graph(n, m, cap, rng)
        assert g.n == n
        assert g.edge_count() == m
        assert g.max_degree() <= cap


def test_sampler_determinism():
    a = random_bounded_graph(12, 18, 5, random.Random(99))
    b = random_bounded_graph(12, 18, 5, random.Random(99))
    assert a.adj == b.adj


def test_sampler_rejects_infeasible_demands():
    with pytest.raises(PreconditionError, match="no graph"):
        random_bounded_graph(4, 7, 6, random.Random(0))  # m > C(4,2)
    with pytest.raises(PreconditionError, match="no graph"):
        random_bounded_graph(6, 10, 2, random.Random(0))  # 2m > n*cap
    with pytest.raises(PreconditionError):
        random_bounded_graph(-1, 0, 0, random.Random(0))


def test_rigid_detector():
    def rigid(g, k, s):
        return rigid_clique_profile(g, k, s) is not None

    assert rigid(rigid_clique_union(4, 3, 3), 4, 3)
    assert rigid(union_of_cliques([7, 7], 0), 4, 6)
    # wrong offset, wrong clique size, missing edges
    assert not rigid(union_of_cliques([7], 7), 4, 4)
    assert not rigid(union_of_cliques([8], 6), 4, 3)
    assert not rigid(union_of_cliques([7], 7), 4, 2)
    assert not rigid(union_of_cliques([6, 6], 2), 4, 3)
    assert rigid(union_of_cliques([3], 2), 2, 1)


def test_dichotomy_probe_k4():
    report = probe_dichotomy(4, 3, trials=60, seed=0)
    assert report.consistent
    assert report.counterexample is None
    assert report.witnessed + report.rigid + report.skipped == 60
    assert report.witnessed > 0  # sparse draws nearly always admit a packing


def test_dichotomy_probe_small_k():
    report = probe_dichotomy(2, 3, trials=40, seed=3)
    assert report.consistent
    report = probe_dichotomy(3, 4, trials=40, seed=5)
    assert report.consistent


def test_dichotomy_probe_determinism():
    a = probe_dichotomy(4, 3, trials=30, seed=11)
    b = probe_dichotomy(4, 3, trials=30, seed=11)
    assert (a.witnessed, a.rigid, a.skipped) == (b.witnessed, b.rigid, b.skipped)


def test_dichotomy_probe_preconditions():
    with pytest.raises(PreconditionError):
        probe_dichotomy(1, 3)
    with pytest.raises(PreconditionError):
        probe_dichotomy(4, 2)


def test_value_sweep_k4_matches_proved_values():
    report = probe_value_sweep(4, 3)
    assert report.consistent
    assert report.boundary_consistent
    assert report.matches_four_block_values is True
    branches = [row.branch for row in report.rows]
    assert branches[0] == "middle" and branches[-1] == "hub-join"
    # middle branch covers 4p+5 .. 7p-2, hub join from 7p-1 on
    first = report.rows[0]
    assert first.n == 17 and first.value == binom2(17) - 7 * 6


def test_value_sweep_k5():
    report = probe_value_sweep(5, 4, window=3)
    assert report.consistent
    assert report.matches_four_block_values is None
    seam_rows = [row for row in report.rows if row.branch == "middle"]
    assert seam_rows[-1].n == 9 * 4 - 2


def test_value_sweep_rejects_small_p():
    # k=5 needs (k-1)p >= k^2-3k+3 = 13, so p=3 is out
    with pytest.raises(PreconditionError, match="too small"):
        probe_value_sweep(5, 3)
    with pytest.raises(PreconditionError):
        probe_value_sweep(3, 3)


def test_value_sweep_rows_carry_real_counts():
    report = probe_value_sweep(4, 4, window=2)
    for row in report.rows:
        assert row.value == row.construction_edges
        assert row.pattern_free
