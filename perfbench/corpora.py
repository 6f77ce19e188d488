"""Seeded input generators for the benchmark workloads.

Everything here is self-contained: the sampler, the planted structures and
the graph6 encoder use only the standard library, so no change to the
turanpack package can change what the benchmark feeds it. The same seed
gives byte-identical corpora (see selftest.py).

Graphs are lists of adjacency bitmasks, one int per vertex.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
PACK_HARD_POOL = DATA_DIR / "pack_hard.jsonl"

RESOLVE_PER_CELL = {"criterion3": 150, "edge-bound": 18, "rigid": 10}
COLOR_GRAPHS = 1400
SMALL_COLOR_N = 20


def rng_for(workload: str, seed: int, part: str = "") -> random.Random:
    # String seeds hash with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(f"{workload}:{seed}:{part}")


# -- graphs --------------------------------------------------------------------


def bounded_graph(rng: random.Random, n: int, m: int, max_deg: int) -> list[int]:
    """A random graph with exactly m edges and maximum degree <= max_deg.

    Edges join two random unsaturated vertices; a draw that strands (the
    open vertices are pairwise adjacent) restarts. Expected O(m) per draw.
    """
    if 2 * m > n * max_deg or m > n * (n - 1) // 2:
        raise ValueError(f"no graph on {n} vertices has {m} edges of degree <= {max_deg}")
    for _ in range(10_000):
        adj = [0] * n
        deg = [0] * n
        open_ = list(range(n)) if max_deg else []
        edges = misses = 0
        while edges < m and len(open_) >= 2 and misses < 20 * n + 100:
            i = rng.randrange(len(open_))
            j = rng.randrange(len(open_) - 1)
            if j >= i:
                j += 1
            u, v = open_[i], open_[j]
            if adj[u] >> v & 1:
                misses += 1
                continue
            misses = 0
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
            edges += 1
            for pos in sorted((i, j), reverse=True):
                if deg[open_[pos]] == max_deg:
                    open_[pos] = open_[-1]
                    open_.pop()
        if edges == m:
            return adj
    raise RuntimeError(f"sampler stranded for n={n}, m={m}, max_deg={max_deg}")


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """Vertex v becomes perm[v]."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        mask = 0
        while row:
            low = row & -row
            mask |= 1 << perm[low.bit_length() - 1]
            row ^= low
        out[perm[v]] = mask
    return out


def complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(adj)]


def k7_union(rng: random.Random, n: int, cliques: int) -> list[int]:
    """`cliques` disjoint 7-cliques plus isolated vertices, labels shuffled."""
    adj = [0] * n
    for c in range(cliques):
        block = ((1 << 7) - 1) << (7 * c)
        for v in range(7 * c, 7 * c + 7):
            adj[v] = block & ~(1 << v)
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(adj, perm)


def planted_partite(rng: random.Random, k: int, p: int, m: int,
                    max_deg: int) -> list[int]:
    """n = kp vertices split into k hidden independent p-sets; m random
    cross edges of degree <= max_deg; labels shuffled."""
    n = k * p
    for _ in range(10_000):
        adj = [0] * n
        deg = [0] * n
        edges = tries = 0
        while edges < m and tries < 50 * m + 100:
            tries += 1
            u, v = rng.randrange(n), rng.randrange(n)
            if u // p == v // p or adj[u] >> v & 1:
                continue
            if deg[u] == max_deg or deg[v] == max_deg:
                continue
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            deg[u] += 1
            deg[v] += 1
            edges += 1
        if edges == m:
            perm = list(range(n))
            rng.shuffle(perm)
            return relabel(adj, perm)
    raise RuntimeError(f"planted sampler stranded for k={k}, p={p}, m={m}")


def to_graph6(adj: list[int]) -> str:
    """Standard graph6 (n <= 62 uses a one-byte header)."""
    n = len(adj)
    if n <= 62:
        out = [n + 63]
    else:
        out = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    acc = width = 0
    for col in range(1, n):
        for row in range(col):
            acc = (acc << 1) | (adj[col] >> row & 1)
            width += 1
            if width == 6:
                out.append(acc + 63)
                acc = width = 0
    if width:
        out.append((acc << (6 - width)) + 63)
    return bytes(out).decode("ascii")


# -- workload corpora ----------------------------------------------------------


def resolve_cells() -> list[tuple[str, int, int]]:
    """(kind, p, s) cells; each holds RESOLVE_PER_CELL[kind] hosts, so every
    seed draws the same mix and only edges and labels vary."""
    cells = [("criterion3", p, s) for p in (3, 4) for s in range(3, 9)]
    cells += [("edge-bound", p, s) for p in range(3, 7) for s in range(1, 3 * p)]
    cells += [("rigid", p, s) for p in range(3, 7) for s in range(3, 3 * p, 3)]
    return cells


def resolve_corpus(seed: int) -> list[dict]:
    """Hosts in the `resolve` regime (n = 4p-1+s, max degree 6, <= 7s edges):
    the criterion-3 mix (m uniform in 0..7s), hosts at the 7s edge bound for
    p = 3..6, and planted unions of 7-cliques that take the certificate
    branch. Returned in a seeded order."""
    rng = rng_for("resolve-stream", seed)
    hosts = []
    for kind, p, s in resolve_cells():
        n = 4 * p - 1 + s
        for _ in range(RESOLVE_PER_CELL[kind]):
            if kind == "rigid":
                adj = k7_union(rng, n, s // 3)
            else:
                m = rng.randint(0, 7 * s) if kind == "criterion3" else 7 * s
                adj = bounded_graph(rng, n, m, 6)
            hosts.append({"kind": kind, "p": p, "graph6": to_graph6(adj)})
    rng.shuffle(hosts)
    return hosts


def color_corpus(seed: int) -> list[dict]:
    """The criterion-8 mix: r cycles 2..8, n spread evenly over 1..200 (one
    jittered draw per stratum), m uniform up to the degree-r limit. Hosts
    with n <= 20 take the exhaustive decider."""
    rng = rng_for("color-mass", seed)
    hosts = []
    for i in range(COLOR_GRAPHS):
        r = 2 + i % 7
        n = 1 + int((i + rng.random()) * 200 / COLOR_GRAPHS)
        m = rng.randint(0, min(n * (n - 1) // 2, n * r // 2))
        adj = bounded_graph(rng, n, m, r)
        hosts.append({"r": r, "exact": n <= SMALL_COLOR_N, "graph6": to_graph6(adj)})
    rng.shuffle(hosts)
    return hosts


# Tight hosts (n = kp) with max degree d and m edges; the degree-order greedy
# pass fails on them, so branch-and-bound decides. (3,8,5) at m=51 sits at the
# feasibility threshold and supplies the refutations. Clique mode packs the
# complement of a (4,8,5) host. Families are fixed by parameters only; no
# instance is ever dropped.
PACK_FAMILIES = (
    # (k, p, max_deg, m, mode, count)
    (3, 8, 4, 48, "independent", 12),
    (4, 7, 6, 84, "independent", 12),
    (4, 8, 5, 80, "independent", 12),
    (4, 9, 5, 90, "independent", 12),
    (3, 8, 5, 51, "independent", 16),
    (4, 8, 5, 80, "clique", 8),
)


def pack_hard_instances() -> list[dict]:
    """The pool's hosts, from a fixed seed (no outcomes)."""
    out = []
    for k, p, d, m, mode, count in PACK_FAMILIES:
        family = f"k{k}p{p}d{d}m{m}-{mode}"
        rng = random.Random(f"pack-hard-pool:{family}")
        for _ in range(count):
            adj = bounded_graph(rng, k * p, m, d)
            if mode == "clique":
                adj = complement(adj)
            out.append({"family": family, "k": k, "p": p, "mode": mode,
                        "graph6": to_graph6(adj)})
    return out


def pack_hard_pool() -> list[dict]:
    """The frozen hard-packing pool with outcomes recorded at definition."""
    with open(PACK_HARD_POOL, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def pack_hard_corpus(seed: int) -> list[dict]:
    """Every pool instance, in a seeded order."""
    pool = pack_hard_pool()
    rng_for("pack-hard", seed).shuffle(pool)
    return pool


def cli_hosts(seed: int) -> dict[str, str]:
    """graph6 inputs for the one-shot commands of the cli-cold workload."""
    rng = rng_for("cli-cold", seed)
    p = 3
    s = 6
    edge_bound = bounded_graph(rng, 4 * p - 1 + s, 7 * s, 6)
    return {
        "resolve-cert": to_graph6(k7_union(rng, 4 * p - 1 + s, s // 3)),
        "resolve-witness": to_graph6(edge_bound),
        # Complement of a planted 4-partite degree-5 host: four disjoint
        # 6-cliques exist by construction.
        "pack": to_graph6(complement(planted_partite(rng, 4, 6, 60, 5))),
        "color": to_graph6(bounded_graph(rng, 150, 450, 6)),
        "color-exact": to_graph6(bounded_graph(rng, 16, 28, 4)),
    }
