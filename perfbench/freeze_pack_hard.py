"""Record the expected outcome of every pack-hard pool instance.

Run once, from the repository root, when the pool is defined:

    python3 perfbench/freeze_pack_hard.py

Each instance is solved with the exact search; a witness is re-checked with
`verify_witness`, and a "none" is confirmed by the brute-force reference
`naive_disjoint_independent_sets`, which shares no code with the search.
The result is written to perfbench/data/pack_hard.jsonl and committed, so
every later run checks its answers against this record.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import corpora  # noqa: E402
from turanpack import (complement, find_clique_packing,  # noqa: E402
                       find_disjoint_independent_sets, from_graph6,
                       naive_disjoint_independent_sets, verify_witness)


def main() -> int:
    lines = []
    for inst in corpora.pack_hard_instances():
        g = from_graph6(inst["graph6"])
        k, p, mode = inst["k"], inst["p"], inst["mode"]
        if mode == "clique":
            witness = find_clique_packing(g, k, p)
        else:
            witness = find_disjoint_independent_sets(g, k, p)
        if witness is not None:
            if not verify_witness(g, witness, k, p, mode).ok:
                raise SystemExit(f"bad witness for {inst['graph6']}")
            expected = "packable"
        else:
            side = complement(g) if mode == "clique" else g
            if naive_disjoint_independent_sets(side, k, p) is not None:
                raise SystemExit(f"search and reference disagree on {inst['graph6']}")
            expected = "none"
        lines.append(json.dumps({**inst, "expected": expected}, sort_keys=True))
        print(inst["family"], expected, file=sys.stderr)
    corpora.PACK_HARD_POOL.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
