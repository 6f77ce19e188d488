"""Self-tests of the benchmark: deterministic inputs and failure counting.

    python3 perfbench/selftest.py      # from the root of a checkout

The file name keeps it out of the package's own pytest collection.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import corpora  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from turanpack import codec  # noqa: E402


def _bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


class FakeWorkload:
    """Feeds fixed results through the real loop and the real checker."""

    op_timeout = 0.2

    def __init__(self, real, items, produce):
        self.real = real
        self.items = items
        self.op = produce

    def check(self, item, result):
        return self.real.check(item, result)


class Corpora(unittest.TestCase):
    def test_same_seed_gives_byte_identical_corpora(self):
        for make in (corpora.resolve_corpus, corpora.color_corpus,
                     corpora.cli_hosts, corpora.pack_hard_corpus):
            self.assertEqual(_bytes(make(7)), _bytes(make(7)), make.__name__)

    def test_other_seed_gives_other_inputs(self):
        for make in (corpora.resolve_corpus, corpora.color_corpus, corpora.cli_hosts):
            self.assertNotEqual(_bytes(make(7)), _bytes(make(8)), make.__name__)

    def test_frozen_pool_is_the_generator_output(self):
        frozen = [{k: v for k, v in inst.items() if k != "expected"}
                  for inst in corpora.pack_hard_pool()]
        self.assertEqual(_bytes(frozen), _bytes(corpora.pack_hard_instances()))
        for inst in corpora.pack_hard_pool():
            self.assertIn(inst["expected"], ("packable", "none"))

    def test_sampler_and_encoder(self):
        import random
        rng = random.Random(3)
        for n, m, d in ((19, 56, 6), (40, 119, 6), (200, 800, 8), (1, 0, 2)):
            adj = corpora.bounded_graph(rng, n, m, d)
            g = codec.from_graph6(corpora.to_graph6(adj))
            self.assertEqual(list(g.adj), adj)
            self.assertEqual(g.edge_count(), m)
            self.assertLessEqual(g.max_degree(), d)


class Checker(unittest.TestCase):
    def setUp(self):
        self.out = Path.cwd() / run.OUT_DIR
        self.out.mkdir(exist_ok=True)

    def test_corrupted_witness_is_a_failed_op(self):
        rs = workloads.ResolveStream(1, self.out)
        item = next(h for h in rs.items if h["kind"] == "edge-bound")
        line = rs.op(item)
        self.assertIsNone(rs.check(item, line))
        record = json.loads(line)
        self.assertEqual(record["outcome"], "witness")
        sets = record["payload"]["sets"]
        sets[0][0] = sets[1][0]  # two sets now share a vertex
        bad = json.dumps(record)
        tally = run.Tally()
        run.run_pass(FakeWorkload(rs, [item, item], lambda it: bad), tally)
        self.assertEqual((tally.failed, len(tally.latencies)), (2, 2))

    def test_packing_against_the_recorded_outcome(self):
        ph = workloads.PackHard(1, self.out)
        packable = next(i for i in ph.items if i["expected"] == "packable")
        unpackable = next(i for i in ph.items if i["expected"] == "none")
        self.assertIsNone(ph.check(packable, ph.op(packable)))
        self.assertIsNone(ph.check(unpackable, ph.op(unpackable)))
        self.assertIsNotNone(ph.check(packable, (None, None)))
        witness, report = ph.op(packable)
        self.assertIsNotNone(ph.check(unpackable, (witness, report)))
        overlapping = type(witness)((witness.sets[1],) + witness.sets[1:])
        self.assertIsNotNone(ph.check(packable, (overlapping, report)))

    def test_wrong_formula_value_is_a_failed_op(self):
        argv = ["formula", "4Kp", "n=16", "p=3"]
        right = {"command": "formula", "outcome": "value",
                 "payload": {"value": 85, "regime": "x"}}
        wrong = {**right, "payload": {"value": 86, "regime": "x"}}
        self.assertIsNone(workloads.check_cli_record("formula", argv, [right], {}))
        self.assertIsNotNone(workloads.check_cli_record("formula", argv, [wrong], {}))

        class Cli:
            def check(self, item, result):
                return workloads.check_cli_record(item["label"], item["argv"],
                                                  [json.loads(result)], {})

        tally = run.Tally()
        items = [{"label": "formula", "argv": argv}]
        run.run_pass(FakeWorkload(Cli(), items, lambda it: json.dumps(wrong)), tally)
        run.run_pass(FakeWorkload(Cli(), items, lambda it: json.dumps(right)), tally)
        self.assertEqual((tally.failed, len(tally.latencies)), (1, 2))

    def test_timeout_and_exception_are_failed_ops(self):
        cm = workloads.ColorMass(1, self.out)
        item = cm.items[0]
        tally = run.Tally()
        run.run_pass(FakeWorkload(cm, [item], lambda it: time.sleep(5)), tally)
        run.run_pass(FakeWorkload(cm, [item], lambda it: 1 / 0), tally)
        run.run_pass(FakeWorkload(cm, [item], cm.op), tally)
        self.assertEqual((tally.failed, len(tally.latencies)), (2, 3))
        self.assertIn("timed out", tally.failures[0])


if __name__ == "__main__":
    unittest.main(verbosity=2)
