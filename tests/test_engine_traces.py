"""Pinned traces of the shifting engine.

`tests/data/engine_traces.txt` holds, for two fixed host sets, what the
engine decided and which moves it took on the way, so a refactor of the
engine that changes any decision fails here. Regenerate the file only for
a deliberate change of behaviour:

    PYTHONPATH=src python tests/test_engine_traces.py --write

- `resolve` lines: every host of the benchmark's resolve corpus of seed 1,
  in corpus order. That traffic takes only `path-shift` moves.
- `near-rigid` lines: `_heuristic_phase` on seeded near-rigid hosts, the
  only known hosts on which the other move kinds fire. The heuristic is
  called directly because some of these hosts take tens of seconds in the
  exact fallback.

The traces are recorded with an `EngineTrace`, which records the engine's
moves and one inaccessible-class count per class digraph built, and never
changes what the engine does: untraced outcomes are checked against the same
file.
"""

import functools
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

from turanpack import (PackingWitness, check_preconditions, from_edge_list,
                       from_graph6, rigid_clique_union, shifting, to_graph6)
from turanpack.graphs import bits, is_clique_union
from turanpack.records import certificate_payload, witness_payload
from turanpack.shifting import (EngineTrace, Move, _heuristic_phase, _relocate,
                                build_aux_digraph, iter_moves, resolve)

ROOT = Path(__file__).resolve().parents[1]
TRACES = ROOT / "tests" / "data" / "engine_traces.txt"
NEAR_RIGID_DRAWS = 1500
HEADER = """\
# Shifting-engine traces; written by tests/test_engine_traces.py --write.
# resolve <digest> <moves> <inaccessible sizes> <fallback>: one line per host
#   of perfbench's resolve corpus of seed 1, in corpus order. The digest is
#   the first 12 hex digits of the SHA-256 of the record's outcome and
#   payload as sorted JSON.
# near-rigid <graph6> <p> <witness masks | none> <moves> <inaccessible sizes>:
#   _heuristic_phase(g, p, 10 n) on the kept hosts of near_rigid_hosts().
# Moves list every move taken; inaccessible sizes hold one inaccessible size
#   per digraph built. Lists are comma-separated, "-" when empty.
"""


def load_corpora():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import corpora
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return corpora


def joined(items):
    return ",".join(str(x) for x in items) or "-"


def outcome_digest(out):
    if isinstance(out, PackingWitness):
        decided = {"outcome": "witness", "payload": witness_payload(out)}
    else:
        decided = {"outcome": "certificate", "payload": certificate_payload(out)}
    blob = json.dumps(decided, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def witness_field(out):
    return "none" if out is None else joined(out.masks())


def resolve_line(host):
    g = from_graph6(host["graph6"])
    trace = EngineTrace()
    out = resolve(g, host["p"], trace=trace)
    return " ".join(["resolve", outcome_digest(out),
                     joined(trace.moves), joined(trace.inaccessible_sizes),
                     str(int(trace.used_exact_fallback))])


def near_rigid_hosts(rng, draws):
    """c = 1..p-1 copies of K7 plus isolated vertices on n = 4p-1+3c vertices,
    labels shuffled; then 1-3 times delete a random edge at a random vertex
    (none if it is isolated) and join two random vertices of degree < 6.
    Yields the (graph, p) pairs that pass check_preconditions."""
    for _ in range(draws):
        p = rng.choice((3, 4, 5, 6))
        base = rigid_clique_union(4, p, 3 * rng.randint(1, p - 1))
        n = base.n
        perm = list(range(n))
        rng.shuffle(perm)
        adj = [0] * n
        for u, v in base.edges():
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        for _ in range(rng.randint(1, 3)):
            v = rng.randrange(n)
            nbrs = [u for u in range(n) if adj[v] >> u & 1]
            if nbrs:
                u = rng.choice(nbrs)
                adj[u] &= ~(1 << v)
                adj[v] &= ~(1 << u)
            a, b = rng.sample([w for w in range(n) if adj[w].bit_count() < 6], 2)
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if adj[u] >> v & 1])
        if not check_preconditions(g, p):
            yield g, p


@functools.cache
def near_rigid_set():
    return tuple(near_rigid_hosts(random.Random("near-rigid"), NEAR_RIGID_DRAWS))


def near_rigid_line(g, p):
    trace = EngineTrace()
    out = _heuristic_phase(g, p, 10 * g.n, trace)
    return " ".join(["near-rigid", to_graph6(g), str(p), witness_field(out),
                     joined(trace.moves), joined(trace.inaccessible_sizes)])


def resolve_lines():
    return [resolve_line(host) for host in load_corpora().resolve_corpus(1)]


def near_rigid_lines():
    return [near_rigid_line(g, p) for g, p in near_rigid_set()]


def pinned(kind):
    return [line for line in TRACES.read_text().splitlines()
            if line.split(" ", 1)[0] == kind]


def first_difference(got, want):
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return i, a, b
    return len(want), len(got), len(want)


def test_resolve_corpus_traces_are_pinned():
    got, want = resolve_lines(), pinned("resolve")
    assert len(want) == 2840
    assert got == want, first_difference(got, want)


def test_near_rigid_traces_are_pinned():
    got, want = near_rigid_lines(), pinned("near-rigid")
    assert got == want, first_difference(got, want)
    kinds = Counter(kind for line in want for kind in line.split(" ")[4].split(","))
    # The stirring and solo moves fire on these hosts, not only on crafted
    # partitions.
    assert kinds["double-solo"] and kinds["solo-reroot"] and kinds["re-root"]


def test_untraced_engine_keeps_the_pinned_outcomes():
    # A trace must not change any outcome: untraced runs give the pinned
    # digests and witnesses.
    hosts = load_corpora().resolve_corpus(1)
    digests = [outcome_digest(resolve(from_graph6(host["graph6"]), host["p"]))
               for host in hosts]
    assert digests == [line.split(" ")[1] for line in pinned("resolve")]
    witnesses = [witness_field(_heuristic_phase(g, p, 10 * g.n, None))
                 for g, p in near_rigid_set()]
    assert witnesses == [line.split(" ")[3] for line in pinned("near-rigid")]


def test_direct_path_shift_is_the_digraphs_first_move(monkeypatch):
    """Wherever class 0 has a vertex with no neighbor in the destination,
    the digraph's first move is the one-step path-shift of the lowest such
    vertex, on every state from which the heuristic takes a move (after
    stirring moves too). Every move taken passes its state through
    `_relocate`; a state's undo is the reverse of the previous move's first
    step."""
    taken = []

    def recording(st, steps):
        steps = tuple(steps)
        taken[-1].append((st, steps))
        return _relocate(st, steps)

    def run(g, p):
        taken.append([])
        _heuristic_phase(g, p, 10 * g.n, None)

    monkeypatch.setattr(shifting, "_relocate", recording)
    corpora = load_corpora()
    for seed in (1, 2, 3):
        for host in corpora.resolve_corpus(seed):
            g = from_graph6(host["graph6"])
            if not is_clique_union(g):  # as resolve does
                run(g, host["p"])
    # As the pinned near-rigid lines do, clique unions included: those are
    # the hosts that stir longest.
    for g, p in near_rigid_set():
        run(g, p)
    monkeypatch.undo()
    direct = stirred = 0
    for moves in taken:
        undo = None
        for st, steps in moves:
            dest = st.destination
            free = [v for v in bits(st.classes[0]) if not st.graph.adj[v] & st.classes[dest]]
            if free:
                move = Move("path-shift", ((free[0], 0, dest),))
                assert next(iter_moves(st, build_aux_digraph(st), undo)) == move
                assert steps == move.steps
                direct += 1
            stirred += undo is not None
            v, i, j = steps[0]
            undo = (v, j, i)
    assert direct > 7000 and stirred > 4000, (direct, stirred)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    TRACES.write_text(HEADER + "\n".join(resolve_lines() + near_rigid_lines()) + "\n")
