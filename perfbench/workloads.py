"""The four workloads: their inputs, the timed op, and the per-op check.

An op's check reads the op's output, never its raw bytes, and re-verifies
every witness, certificate and coloring with the package's verifiers, so
an additive record field never counts as a failure while a wrong answer
always does. A check returns None when the op is correct, else a reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

import corpora
from turanpack import codec, formulas, graphs, packing, records, shifting


def _sets(n: int, members_lists) -> tuple:
    return tuple(graphs.VertexSet.from_members(n, members) for members in members_lists)


def check_witness_payload(g, payload: dict, k: int, p: int, mode: str) -> str | None:
    witness = packing.PackingWitness(_sets(g.n, payload["sets"]))
    report = packing.verify_witness(g, witness, k, p, mode)
    return None if report.ok else f"witness rejected: {report.violation}"


def check_certificate_payload(g, payload: dict, p: int) -> str | None:
    cert = shifting.StructureCertificate(
        cliques=_sets(g.n, payload["cliques"]),
        isolated=graphs.VertexSet.from_members(g.n, payload["isolated"]),
        s=payload["s"], edges=payload["edges"], max_degree=payload["max_degree"])
    report = shifting.verify_certificate(g, cert, p)
    return None if report.ok else f"certificate rejected: {report.violation}"


def check_coloring(g, coloring, classes: int) -> str | None:
    if coloring is None:
        return "no coloring returned"
    if len(coloring.classes) != classes:
        return f"{len(coloring.classes)} classes, expected {classes}"
    report = packing.verify_equitable_coloring(g, coloring)
    return None if report.ok else f"coloring rejected: {report.violation}"


def tiny_host(n: int, m: int, max_deg: int) -> graphs.Graph:
    """A fixed small host for warm-up calls."""
    adj = corpora.bounded_graph(random.Random("warm-up"), n, m, max_deg)
    return codec.from_graph6(corpora.to_graph6(adj))


# -- resolve-stream ------------------------------------------------------------


class ResolveStream:
    """Op: decode one graph6 line, resolve it, build its ResultRecord line."""

    name = "resolve-stream"
    op_timeout = 10.0

    def __init__(self, seed: int, out_dir: Path):
        self.items = corpora.resolve_corpus(seed)

    @classmethod
    def warm_up(cls) -> None:
        cls.op({"p": 3, "graph6": codec.to_graph6(tiny_host(12, 7, 6))})

    @staticmethod
    def op(item: dict) -> str:
        g = codec.from_graph6(item["graph6"])
        p = item["p"]
        out = shifting.resolve(g, p)
        parameters = {"p": p, "graph6": codec.to_graph6(g)}
        if isinstance(out, packing.PackingWitness):
            record = records.ResultRecord("resolve", parameters, "witness",
                                          records.witness_payload(out))
        else:
            record = records.ResultRecord("resolve", parameters, "certificate",
                                          records.certificate_payload(out))
        return record.to_json_line()

    def check(self, item: dict, line: str) -> str | None:
        obj = json.loads(line)
        if obj["command"] != "resolve" or obj["parameters"]["p"] != item["p"]:
            return "record names the wrong command or p"
        if obj["parameters"]["graph6"] != item["graph6"]:
            return "record graph6 differs from the input host"
        g = codec.from_graph6(item["graph6"])
        if obj["outcome"] == "witness":
            if item["kind"] == "rigid":
                return "witness on a planted union of 7-cliques"
            return check_witness_payload(g, obj["payload"], 4, item["p"], "independent")
        if obj["outcome"] == "certificate":
            return check_certificate_payload(g, obj["payload"], item["p"])
        return f"unexpected outcome {obj['outcome']!r}"


# -- pack-hard -------------------------------------------------------------------


class PackHard:
    """Op: one exact packing search plus verify_witness on its answer."""

    name = "pack-hard"
    op_timeout = 60.0

    def __init__(self, seed: int, out_dir: Path):
        self.items = corpora.pack_hard_corpus(seed)
        for item in self.items:
            item["graph"] = codec.from_graph6(item["graph6"])

    @classmethod
    def warm_up(cls) -> None:
        g = tiny_host(12, 12, 3)
        cls.op({"graph": g, "k": 3, "p": 4, "mode": "independent"})

    @staticmethod
    def op(item: dict):
        g, k, p, mode = item["graph"], item["k"], item["p"], item["mode"]
        if mode == "clique":
            witness = packing.find_clique_packing(g, k, p)
        else:
            witness = packing.find_disjoint_independent_sets(g, k, p)
        report = None if witness is None else packing.verify_witness(g, witness, k, p, mode)
        return witness, report

    def check(self, item: dict, result) -> str | None:
        witness, report = result
        if witness is None:
            return None if item["expected"] == "none" else "no packing found on a packable host"
        if item["expected"] != "packable":
            return "packing reported on a host recorded as unpackable"
        again = packing.verify_witness(item["graph"], witness, item["k"], item["p"], item["mode"])
        if not (report.ok and again.ok):
            return f"witness rejected: {report.violation or again.violation}"
        return None


# -- color-mass ------------------------------------------------------------------


class ColorMass:
    """Op: equitable_coloring(g, r+1); hosts with n <= 20 take the exhaustive
    decider, which must find a coloring because max degree < r+1."""

    name = "color-mass"
    op_timeout = 10.0

    def __init__(self, seed: int, out_dir: Path):
        self.items = corpora.color_corpus(seed)
        for item in self.items:
            item["graph"] = codec.from_graph6(item["graph6"])

    @classmethod
    def warm_up(cls) -> None:
        cls.op({"graph": tiny_host(30, 40, 3), "r": 3, "exact": False})
        cls.op({"graph": tiny_host(8, 8, 3), "r": 3, "exact": True})

    @staticmethod
    def op(item: dict):
        if item["exact"]:
            return packing.equitable_coloring_exact(item["graph"], item["r"] + 1).coloring
        return packing.equitable_coloring(item["graph"], item["r"] + 1)

    def check(self, item: dict, coloring) -> str | None:
        return check_coloring(item["graph"], coloring, item["r"] + 1)


# -- cli-cold ------------------------------------------------------------------------


def cli_commands(seed: int, files: dict[str, str]) -> list[tuple[str, list[str]]]:
    """The fixed command list; the seed picks the formula point, the hosts
    and the probe's sampler seed."""
    rng = corpora.rng_for("cli-cold", seed, "commands")
    p = rng.choice((3, 4))
    n = rng.randint(4 * p, 40)
    return [
        ("formula", ["formula", "4Kp", f"n={n}", f"p={p}"]),
        ("table-p3", ["table", "4Kp", "p=3", "n=12:30", "--verify"]),
        ("table-p4", ["table", "4Kp", "p=4", "n=16:34", "--verify"]),
        ("construct", ["construct", "J", "p=3", "s=3", "--verify"]),
        ("resolve-cert", ["resolve", "p=3", "--input", files["resolve-cert"]]),
        ("resolve-witness", ["resolve", "p=3", "--input", files["resolve-witness"]]),
        ("pack", ["pack", "k=4", "p=6", "mode=clique", "--input", files["pack"]]),
        ("color", ["color", "classes=7", "--input", files["color"]]),
        ("color-exact", ["color", "classes=5", "exact=1", "--input", files["color-exact"]]),
        ("verify", ["verify", "--record", files["records"]]),
        ("oracle", ["oracle", "3K2", "n=7"]),
        ("probe-5.1", ["probe", "5.1", "k=5", "p=4", f"--seed={rng.randint(0, 10**6)}"]),
        ("probe-5.2", ["probe", "5.2", "k=4", "p=3"]),
    ]


RECORD_PRODUCERS = ("resolve-cert", "resolve-witness", "pack", "color", "color-exact")
CLI_LABELS = tuple(label for label, _ in cli_commands(
    0, dict.fromkeys(RECORD_PRODUCERS + ("records",), "")))


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str
    rss_kb: int = 0


def run_child(argv: list[str], env: dict, cwd: Path, timeout: float) -> CliResult:
    """Run a child to completion and read its own peak RSS with wait4.
    A child that outlives `timeout` is killed and reported as exit -9; if
    the wait is interrupted (the runner's op timeout), the child is killed
    and reaped before the exception propagates."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=cwd)
        killer = None
        if timeout:
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            if killer is not None:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        err.seek(0)
        return CliResult(proc.returncode, out.read().decode("utf-8", "replace"),
                         err.read().decode("utf-8", "replace"), usage.ru_maxrss)


class CliCold:
    """Op: one command as `python -m turanpack.cli ...` in a fresh process.
    The traced run sends the same argv list through turanpack.cli.main."""

    name = "cli-cold"
    op_timeout = 60.0

    def __init__(self, seed: int, out_dir: Path):
        self.root = Path.cwd()
        self.work = out_dir / f"cli-{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        files = {}
        self.hosts = {}
        for label, graph6 in corpora.cli_hosts(seed).items():
            path = self.work / f"{label}.g6"
            path.write_text(graph6 + "\n", encoding="utf-8")
            files[label] = str(path)
            self.hosts[label] = codec.from_graph6(graph6)
        files["records"] = str(self.work / "records.jsonl")
        self.items = [{"label": label, "argv": argv}
                      for label, argv in cli_commands(seed, files)]
        self.in_process = False
        self.peak_child_kb = 0
        self.pass_records: list[str] = []
        self.env = child_env(self.root)

    @classmethod
    def warm_up(cls) -> None:
        import turanpack.cli  # noqa: F401  (what every command imports)

    def before_op(self, item: dict) -> None:
        if item["label"] == RECORD_PRODUCERS[0]:
            self.pass_records = []
        if item["label"] == "verify":
            Path(item["argv"][-1]).write_text("".join(self.pass_records), encoding="utf-8")

    def op(self, item: dict) -> CliResult:
        if self.in_process:
            from turanpack import cli
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(item["argv"]))
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code if isinstance(exc.code, int) else 2
            return CliResult(code, out.getvalue(), err.getvalue())
        result = run_child([sys.executable, "-m", "turanpack.cli", *item["argv"]],
                           self.env, self.root, self.op_timeout)
        self.peak_child_kb = max(self.peak_child_kb, result.rss_kb)
        return result

    def check(self, item: dict, result: CliResult) -> str | None:
        label = item["label"]
        if result.code != 0:
            return f"exit code {result.code}: {result.stderr.strip()[-200:]}"
        lines = [json.loads(line) for line in result.stdout.splitlines() if line.strip()]
        if not lines:
            return "no record printed"
        if label in RECORD_PRODUCERS:
            self.pass_records.append(result.stdout.splitlines()[-1] + "\n")
        return check_cli_record(label, item["argv"], lines, self.hosts,
                                len(self.pass_records))


def _formula(pattern: str, **params) -> int:
    return formulas.dispatch_formula(formulas.FormulaQuery(pattern, **params)).value


def check_cli_record(label: str, argv: list[str], lines: list[dict],
                     hosts: dict, fed_records: int = 0) -> str | None:
    """Check one command's parsed output records by field."""
    rec = lines[-1]
    payload = rec.get("payload", {})
    kv = dict(tok.split("=", 1) for tok in argv if "=" in tok and not tok.startswith("--"))
    if label == "formula":
        want = _formula("4Kp", n=int(kv["n"]), p=int(kv["p"]))
        return None if payload.get("value") == want else f"value {payload.get('value')} != {want}"
    if label.startswith("table"):
        p = int(kv["p"])
        lo, hi = map(int, kv["n"].split(":"))
        rows = payload.get("rows", [])
        if [row["n"] for row in rows] != list(range(lo, hi + 1)):
            return "table rows do not cover the requested n range"
        for row in rows:
            if row["value"] != _formula("4Kp", n=row["n"], p=p):
                return f"row n={row['n']} value {row['value']} is wrong"
            if row["verified"] != "yes":
                return f"row n={row['n']} is not verified"
        return None
    if label == "construct":
        if payload.get("claim_verified") is not True:
            return "construction claim not verified"
        g = codec.from_graph6(payload["graph6"])
        expected = payload["descriptor"]["expected_edges"]
        if not g.edge_count() == payload["edges"] == expected:
            return "construction edge count disagrees with its descriptor"
        return None
    if label in ("resolve-cert", "resolve-witness"):
        want = "certificate" if label == "resolve-cert" else "witness"
        if rec.get("outcome") != want:
            return f"outcome {rec.get('outcome')!r}, expected {want}"
        g = hosts[label]
        if want == "certificate":
            return check_certificate_payload(g, payload, 3)
        return check_witness_payload(g, payload, 4, 3, "independent")
    if label == "pack":
        if rec.get("outcome") != "witness":
            return "no clique packing on a host with a planted one"
        return check_witness_payload(hosts["pack"], payload, 4, 6, "clique")
    if label in ("color", "color-exact"):
        if rec.get("outcome") != "witness":
            return f"outcome {rec.get('outcome')!r}, expected a coloring"
        g = hosts[label]
        coloring = packing.EquitableColoring(_sets(g.n, payload["classes"]))
        return check_coloring(g, coloring, int(kv["classes"]))
    if label == "verify":
        if len(lines) != fed_records:
            return f"{len(lines)} verify records for {fed_records} inputs"
        bad = [obj for obj in lines if obj.get("payload", {}).get("verified") is not True]
        return f"{len(bad)} records not verified" if bad else None
    if label == "oracle":
        want = _formula("kK2", n=7, k=3)
        if payload.get("value") != want or payload["extremal"]["edges"] != want:
            return f"oracle value {payload.get('value')} != {want}"
        return None
    if label == "probe-5.1":
        if rec.get("outcome") != "none":
            return f"probe 5.1 outcome {rec.get('outcome')!r}"
        if payload["witnessed"] + payload["rigid"] + payload["skipped"] != payload["trials"]:
            return "probe 5.1 trial counts do not add up"
        return None
    if label == "probe-5.2":
        if rec.get("outcome") != "none" or payload.get("matches_four_block_values") is not True:
            return "probe 5.2 reports an inconsistent row"
        return None
    return f"no check for {label}"


def child_env(root: Path) -> dict:
    """Children import turanpack from the checkout's src only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


WORKLOADS = {cls.name: cls for cls in (CliCold, ResolveStream, PackHard, ColorMass)}
