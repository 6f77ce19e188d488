"""Randomized and sweep-based probes for the two open generalizations.

Probe "5.1" samples sparse bounded-degree hosts and checks the dichotomy
"k disjoint independent p-sets, or rigid small-clique union" for general k.
Probe "5.2" sweeps the conjectured piecewise extremal values for k >= 4 and
confirms that the matching constructions realize them and avoid the
pattern. Neither probe proves anything; each either reports consistency or
emits a concrete counterexample.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .codec import to_graph6
from .errors import PreconditionError, SizeGuardError, SoundnessAlarm
from .formulas import binom2, ex_4_cliques, hub_join_edges
from .constructions import hub_join, rigid_clique_union
from .graphs import (MAX_EDGE_LIST_N, Graph, complement, from_edge_list,
                     rigid_clique_profile)
from .packing import find_clique_packing, find_disjoint_independent_sets, verify_witness

SAMPLER_ATTEMPTS = 5000


def random_bounded_graph(n: int, m: int, max_deg: int,
                         rng: random.Random) -> Graph:
    """Uniform-ish random graph with exactly m edges and maximum degree at
    most max_deg: shuffle all vertex pairs, place edges greedily skipping
    saturated endpoints, retry the whole draw when stranded."""
    if n < 0 or m < 0 or max_deg < 0:
        raise PreconditionError("need n, m, max_deg >= 0")
    if m > n * (n - 1) // 2 or 2 * m > n * max_deg:
        raise PreconditionError(
            f"no graph on {n} vertices has {m} edges with max degree {max_deg}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(SAMPLER_ATTEMPTS):
        rng.shuffle(pairs)
        degree = [0] * n
        chosen = []
        for i, j in pairs:
            if degree[i] == max_deg or degree[j] == max_deg:
                continue
            chosen.append((i, j))
            degree[i] += 1
            degree[j] += 1
            if len(chosen) == m:
                return from_edge_list(n, chosen)
        if m == 0:
            return from_edge_list(n, [])
    raise RuntimeError(
        f"sampler gave up after {SAMPLER_ATTEMPTS} draws for n={n}, m={m}, "
        f"max_deg={max_deg}")


def _guard_largest_host(n: int) -> None:
    """Refuse a probe whose largest host has more than MAX_EDGE_LIST_N
    vertices, before any host is sampled or built."""
    if n > MAX_EDGE_LIST_N:
        raise SizeGuardError(f"probe guard: largest host n={n} > {MAX_EDGE_LIST_N}")


class DichotomyProbeReport:
    def __init__(self, k: int, p: int, trials: int, seed: int):
        self.k = k
        self.p = p
        self.trials = trials
        self.seed = seed
        self.witnessed = 0
        self.rigid = 0
        self.skipped = 0
        self.counterexample: str | None = None  # graph6
        self.counterexample_params: dict | None = None

    @property
    def consistent(self) -> bool:
        return self.counterexample is None


def probe_dichotomy(k: int, p: int, trials: int = 200, seed: int = 0,
                    guard_n: int | None = None) -> DichotomyProbeReport:
    """Sample hosts with n = kp-1+s, at most (2k-1)s edges and max degree
    at most 2k-2, then test the conjectured dichotomy: k disjoint
    independent p-sets exist, or the host is the rigid small-clique union.
    """
    if p < 3 or k < 2 or trials < 1:
        raise PreconditionError("need p >= 3, k >= 2, trials >= 1")
    if trials > MAX_EDGE_LIST_N:
        raise SizeGuardError(f"probe guard: trials={trials} > {MAX_EDGE_LIST_N}")
    _guard_largest_host((2 * k - 1) * p - 2)
    rng = random.Random(seed)
    report = DichotomyProbeReport(k=k, p=p, trials=trials, seed=seed)
    for _ in range(trials):
        s = rng.randint(1, (k - 1) * p - 1)
        n = k * p - 1 + s
        m = rng.randint(0, min((2 * k - 1) * s, n * (2 * k - 2) // 2))
        g = random_bounded_graph(n, m, 2 * k - 2, rng)
        try:
            witness = find_disjoint_independent_sets(g, k, p, guard_n=guard_n)
        except SizeGuardError:
            report.skipped += 1
            continue
        if witness is not None:
            check = verify_witness(g, witness, k, p, "independent")
            if not check.ok:
                raise SoundnessAlarm(f"search returned a bad witness: {check.violation}")
            report.witnessed += 1
        elif rigid_clique_profile(g, k, s) is not None:
            report.rigid += 1
        else:
            report.counterexample = to_graph6(g)
            report.counterexample_params = {"n": n, "s": s, "edges": m}
            break
    return report


class ValueSweepRow(NamedTuple):
    n: int
    branch: str
    value: int
    construction: str
    construction_edges: int
    pattern_free: bool

    @property
    def consistent(self) -> bool:
        return self.value == self.construction_edges and self.pattern_free


class ValueSweepReport:
    def __init__(self, k: int, p: int):
        self.k = k
        self.p = p
        self.rows: list[ValueSweepRow] = []
        self.boundary_consistent = True
        self.matches_four_block_values: bool | None = None  # k = 4 only

    @property
    def consistent(self) -> bool:
        ok = all(row.consistent for row in self.rows) and self.boundary_consistent
        if self.matches_four_block_values is not None:
            ok = ok and self.matches_four_block_values
        return ok


def probe_value_sweep(k: int, p: int, window: int | None = None,
                      guard_n: int | None = None) -> ValueSweepReport:
    """Sweep the conjectured two-branch extremal values for k disjoint
    p-cliques (k >= 4): middle branch C(n,2) - (2k-1)(n-kp+1) realized by
    the complement of the rigid clique union, large branch realized by the
    hub join. Checks edge counts and pattern freeness; for k = 4 also
    checks agreement with the proved values."""
    if p < 3 or k < 4:
        raise PreconditionError("need p >= 3 and k >= 4")
    if (k - 1) * p - k * k + 3 * k - 3 < 0:
        raise PreconditionError(
            f"conjecture needs (k-1)p >= k^2-3k+3; p={p} is too small for k={k}")
    if window is None:
        window = p + 2
    if window > MAX_EDGE_LIST_N:
        raise SizeGuardError(f"probe guard: window={window} > {MAX_EDGE_LIST_N}")
    _guard_largest_host((2 * k - 1) * p - 2 + window)
    first_lo = k * p + k * k - 3 * k + 1
    first_hi = (2 * k - 1) * p - 2
    second_lo = (2 * k - 1) * p - 1
    # One host per row: their adjacency bits together may not exceed those
    # of one largest allowed host.
    total = sum(n * n for n in range(first_lo, second_lo + window))
    if total > MAX_EDGE_LIST_N ** 2:
        raise SizeGuardError(
            f"probe guard: sum of n^2 over the sweep's hosts = {total} > {MAX_EDGE_LIST_N}^2")
    report = ValueSweepReport(k=k, p=p)
    four_block_ok = True
    for n in range(first_lo, second_lo + window):
        if n <= first_hi:
            branch = "middle"
            value = binom2(n) - (2 * k - 1) * (n - k * p + 1)
            built = complement(rigid_clique_union(k, p, n - k * p + 1))
            construction = "rigid-union complement"
        else:
            branch = "hub-join"
            value = hub_join_edges(k, n, p)
            built = hub_join(k, n, p)
            construction = "hub join"
        packing = find_clique_packing(built, k, p, guard_n=guard_n)
        row = ValueSweepRow(n=n, branch=branch, value=value,
                            construction=construction,
                            construction_edges=built.edge_count(),
                            pattern_free=packing is None)
        report.rows.append(row)
        if k == 4:
            four_block_ok = four_block_ok and ex_4_cliques(n, p).value == value
    # At the last middle-branch point both closed forms agree.
    seam = binom2(first_hi) - (2 * k - 1) * (first_hi - k * p + 1)
    report.boundary_consistent = seam == hub_join_edges(k, first_hi, p)
    report.matches_four_block_values = four_block_ok if k == 4 else None
    return report
