"""Command line surface: record shapes, formats, exit codes, settings."""

import argparse
import ast
import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from turanpack import (complete_graph, disjoint_union, from_edge_list, to_edge_list_text,
                       to_graph6, union_of_cliques)

SRC = Path(__file__).resolve().parents[1] / "src"

C5_TEXT = "5\n0 1\n1 2\n2 3\n3 4\n4 0\n"
K33_TEXT = "6\n" + "".join(f"{u} {v}\n" for u in range(3) for v in range(3, 6))


def record_of(text, line=0):
    return json.loads(text.strip().splitlines()[line])


def test_formula_examples(run_cli):
    code, out = run_cli(["formula", "4Kp", "n=16", "p=3"])
    assert code == 0
    rec = record_of(out)
    assert rec["payload"]["value"] == 85
    assert rec["payload"]["regime"] == "near-tight-4"
    assert rec["outcome"] == "value"
    assert rec["record_version"] == 1

    code, out = run_cli(["formula", "3Kp", "n=9", "p=3"])
    assert record_of(out)["payload"]["value"] == 30

    code, out = run_cli(["formula", "f3", "n=9", "p=3"])
    assert record_of(out)["payload"]["value"] == 6


def test_formula_bad_inputs(run_cli):
    code, _ = run_cli(["formula", "5Kp", "n=20", "p=3"])
    assert code == 2
    code, _ = run_cli(["formula", "4Kp", "n=16"])
    assert code == 2
    code, _ = run_cli(["formula", "4Kp", "n16", "p=3"])
    assert code == 2


def test_table_rows_and_formats(run_cli):
    code, out = run_cli(["table", "4Kp", "p=3", "n=12:30"])
    assert code == 0
    rows = record_of(out)["payload"]["rows"]
    assert len(rows) == 19
    by_n = {row["n"]: row for row in rows}
    assert by_n[12]["value"] == 56
    assert by_n[13]["value"] == 63
    assert by_n[16]["value"] == 85
    assert by_n[20]["value"] == 126
    assert "overstates it by exactly 6" in by_n[20]["note"]
    assert by_n[19]["note"] == ""

    code, out_csv = run_cli(["table", "4Kp", "p=3", "n=12:30", "--format", "csv"])
    assert code == 0
    parsed = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(parsed) == 19
    assert [int(r["value"]) for r in parsed] == [row["value"] for row in rows]
    assert list(parsed[0].keys()) == [
        "pattern", "n", "p", "value", "regime", "construction", "note", "verified"]


def test_table_verified_column(run_cli):
    code, out = run_cli(["table", "4Kp", "p=4", "n=20:21", "--verify"])
    assert code == 0
    rows = record_of(out)["payload"]["rows"]
    assert [row["value"] for row in rows] == [154, 168]
    assert all(row["verified"] == "yes" for row in rows)
    # without the flag the column stays empty
    code, out = run_cli(["table", "4Kp", "p=4", "n=20:21"])
    assert all(row["verified"] == "" for row in record_of(out)["payload"]["rows"])


def test_table_3kp_rows_all_verify(run_cli):
    # The 3Kp clique-union rows (n = 3p+1..5p-2) once printed no
    # construction, so --verify left them unchecked.
    rows = []
    for p in range(3, 8):
        code, out = run_cli(["table", "3Kp", f"p={p}", f"n={3 * p}:{5 * p + 2}", "--verify"])
        assert code == 0
        rows += record_of(out)["payload"]["rows"]
    assert len(rows) == 65
    assert all(row["verified"] == "yes" for row in rows)
    assert {row["construction"] for row in rows if row["regime"] == "clique-union"} == {
        "rigid-union"}


def test_table_refuses_reversed_range(run_cli):
    # A reversed span once printed an empty table with exit 0.
    for argv, message in [(["n=14:12", "p=3"], "n=14:12 is a reversed range; write 12:14"),
                          (["n=20:10", "p=3", "--format", "csv"], "n=20:10 is a reversed range"),
                          (["n=20", "p=4:3"], "p=4:3 is a reversed range")]:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code, out = run_cli(["table", "4Kp", *argv])
        assert code == 2, argv
        assert out == ""
        assert message in stderr.getvalue()
    code, out = run_cli(["table", "4Kp", "p=3", "n=12:12"])
    assert code == 0
    assert [row["n"] for row in record_of(out)["payload"]["rows"]] == [12]


def test_table_rejects_tight_pattern(run_cli):
    code, _ = run_cli(["table", "kKp-tight", "k=4", "p=3", "n=12:13"])
    assert code == 2


def test_construct_graph6_and_json(run_cli):
    code, out = run_cli(["construct", "J", "p=3", "s=3", "--format", "graph6"])
    assert code == 0
    assert out.strip() == "M~~~w????????????"

    code, out = run_cli(["construct", "J", "p=3", "s=3"])
    rec = record_of(out)
    assert rec["payload"]["graph6"] == "M~~~w????????????"
    assert rec["payload"]["n"] == 14
    assert rec["payload"]["edges"] == 21
    assert rec["payload"]["descriptor"]["family"] == "J"


def test_construct_hub_join_count(run_cli):
    code, out = run_cli(["construct", "hub-join", "k=4", "n=19", "p=3"])
    assert code == 0
    assert record_of(out)["payload"]["edges"] == 115


def test_construct_verify_flag(run_cli):
    code, out = run_cli(["construct", "J", "p=3", "s=3", "--verify"])
    assert code == 0
    assert record_of(out)["payload"]["claim_verified"] is True


def test_construct_undefined_offset(run_cli):
    code, out = run_cli(["construct", "J", "p=3", "s=2"])
    assert code == 2
    assert out == ""  # the error goes to stderr


def test_resolve_certificate_and_witness(run_cli):
    g = union_of_cliques([7], 7)
    code, out = run_cli(["resolve", "p=3", "--input", "-"],
                        stdin=to_edge_list_text(g))
    assert code == 0
    rec = record_of(out)
    assert rec["outcome"] == "certificate"
    assert rec["payload"]["s"] == 3
    assert rec["payload"]["edges"] == 21

    edges = list(g.edges())[1:]
    text = "14\n" + "".join(f"{u} {v}\n" for u, v in edges)
    code, out = run_cli(["resolve", "p=3", "--input", "-"], stdin=text)
    assert code == 0
    rec = record_of(out)
    assert rec["outcome"] == "witness"
    assert len(rec["payload"]["sets"]) == 4


def test_resolve_out_of_regime(run_cli):
    g = union_of_cliques([9], 5)
    code, out = run_cli(["resolve", "p=3", "--input", "-"],
                        stdin=to_edge_list_text(g))
    assert code == 2
    assert out == ""


def test_pack_cycle(run_cli):
    code, out = run_cli(["pack", "k=2", "p=2", "--input", "-"], stdin=C5_TEXT)
    assert code == 0
    rec = record_of(out)
    assert rec["outcome"] == "witness"
    assert rec["payload"]["sets"] == [[0, 2], [1, 3]]

    code, out = run_cli(["pack", "k=2", "p=3", "--input", "-"], stdin=C5_TEXT)
    assert code == 0
    assert record_of(out)["outcome"] == "none"


def test_pack_clique_mode(run_cli):
    text = to_edge_list_text(union_of_cliques([3, 3], 0))
    code, out = run_cli(["pack", "k=2", "p=3", "mode=clique", "--input", "-"],
                        stdin=text)
    assert code == 0
    rec = record_of(out)
    assert rec["outcome"] == "witness"
    assert rec["payload"]["sets"] == [[0, 1, 2], [3, 4, 5]]


def test_verify_record_round_trip(run_cli, tmp_path):
    g = union_of_cliques([7], 7)
    code, cert_line = run_cli(["resolve", "p=3", "--input", "-"],
                              stdin=to_edge_list_text(g))
    assert code == 0
    path = tmp_path / "records.jsonl"
    path.write_text(cert_line)
    code, out = run_cli(["verify", "--record", str(path)])
    assert code == 0
    rec = record_of(out)
    assert rec["payload"]["verified"] is True

    # tampering with the certificate payload must be caught
    broken = json.loads(cert_line)
    broken["payload"]["edges"] = 20
    code, out = run_cli(["verify", "--record", "-"],
                        stdin=json.dumps(broken) + "\n")
    assert code == 2
    assert record_of(out)["payload"]["verified"] is False


def test_verify_stream_of_mixed_records(run_cli):
    _, witness_line = run_cli(["pack", "k=2", "p=2", "--input", "-"],
                              stdin=C5_TEXT)
    _, color_line = run_cli(["color", "classes=3", "--input", "-"],
                            stdin=C5_TEXT)
    code, out = run_cli(["verify", "--record", "-"],
                        stdin=witness_line + color_line)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line)["payload"]["verified"] for line in lines)


def test_verify_refuses_malformed_records(run_cli):
    # Each of these once ended in a traceback (exit 1): the record is not an
    # object, a key the branch reads is missing, or a value has the wrong type.
    _, witness_line = run_cli(["pack", "k=2", "p=2", "--input", "-"], stdin=C5_TEXT)
    _, color_line = run_cli(["color", "classes=3", "--input", "-"], stdin=C5_TEXT)
    _, cert_line = run_cli(["resolve", "p=3", "--input", "-"],
                           stdin=to_edge_list_text(union_of_cliques([7], 7)))
    no_graph = json.loads(witness_line)
    del no_graph["parameters"]["graph6"]
    bad_classes = json.loads(color_line)
    bad_classes["payload"]["classes"] = "ab"
    bad_p = json.loads(cert_line)
    bad_p["parameters"]["p"] = "x"
    # bool is a subclass of int; JSON true must not rebuild J with p = 1
    _, construct_line = run_cli(["construct", "J", "p=3", "s=3"])
    bool_p = json.loads(construct_line)
    bool_p["parameters"]["p"] = True
    for record, message in [([1, 2], "record line 0: not a JSON object"),
                            (no_graph, "record line 0: parameters has no 'graph6'"),
                            (bad_classes, "record line 0: payload['classes'] is not "
                                          "a list of integer lists"),
                            (bad_p, "record line 0: parameters['p'] is not an integer"),
                            (bool_p, "record line 0: family J needs integer parameters: p")]:
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code, out = run_cli(["verify", "--record", "-"], stdin=json.dumps(record) + "\n")
        assert code == 2, (record, stderr.getvalue())
        assert out == ""
        assert stderr.getvalue() == f"error: {message}\n"
    # the well-formed records still verify, and a bad line after them
    # stops the stream with its own line number
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code, out = run_cli(["verify", "--record", "-"],
                            stdin=witness_line + color_line + cert_line + "[1, 2]\n")
    assert code == 2
    assert [json.loads(line)["payload"]["verified"] for line in out.splitlines()] == [True] * 3
    assert stderr.getvalue() == "error: record line 3: not a JSON object\n"


def test_verify_refuses_parameters_the_commands_refuse(run_cli):
    # Each record once verified with exit 0, though `pack` and `color`
    # refuse its parameters with exit 2.
    refused = [
        ({"command": "pack", "outcome": "witness",
          "parameters": {"graph6": "D?{", "k": 0, "p": 2}, "payload": {"sets": []}},
         "requires k >= 1 and p >= 1"),
        ({"command": "pack", "outcome": "witness",
          "parameters": {"graph6": "D?{", "k": 1, "p": 0}, "payload": {"sets": [[]]}},
         "requires k >= 1 and p >= 1"),
        ({"command": "color", "outcome": "witness",
          "parameters": {"graph6": "?", "classes": 0}, "payload": {"classes": []}},
         "need at least one class"),
    ]
    for record, message in refused:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(["verify", "--record", "-"], stdin=json.dumps(record) + "\n")
        assert code == 2 and out == "", record
        assert err.getvalue() == f"error: record line 0: {message}\n"
    for argv, graph6, message in [(["pack", "k=0", "p=2"], "D?{", "requires k >= 1 and p >= 1"),
                                  (["color", "classes=0"], "?", "need at least one class")]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli([*argv, "--input", "-"], stdin=graph6 + "\n")
        assert code == 2 and out == ""
        assert err.getvalue() == f"error: {message}\n"


def test_verify_counts_every_line(run_cli):
    # Blank lines were once skipped before counting, so this bad record on
    # the fourth line was reported as line 1.
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["verify", "--record", "-"], stdin='\n\n{"command":"pack"}\n[1]\n')
    assert code == 2
    assert record_of(out)["parameters"] == {"line": 2, "source_command": "pack"}
    assert err.getvalue() == "error: record line 3: not a JSON object\n"


def test_verify_checks_set_and_class_counts(run_cli):
    # verify once took k from the payload's own set count when a record had
    # no k, so a resolve witness with a set dropped verified, and it never
    # compared a colouring's class count with its classes parameter.
    _, resolve_line = run_cli(["resolve", "p=3", "--input", "-"], stdin="K??C?????oD?\n")
    short = json.loads(resolve_line)
    assert short["outcome"] == "witness" and len(short["payload"]["sets"]) == 4
    del short["payload"]["sets"][-1]
    code, out = run_cli(["verify", "--record", "-"], stdin=json.dumps(short) + "\n")
    assert code == 2
    assert record_of(out)["payload"] == {"verified": False, "detail": "expected 4 sets, got 3"}

    _, pack_line = run_cli(["pack", "k=2", "p=2", "--input", "-"], stdin=C5_TEXT)
    no_k = json.loads(pack_line)
    del no_k["parameters"]["k"]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code, out = run_cli(["verify", "--record", "-"], stdin=json.dumps(no_k) + "\n")
    assert code == 2
    assert out == ""
    assert stderr.getvalue() == "error: record line 0: parameters has no 'k'\n"

    for extra in ([], ["exact=1"]):
        _, color_line = run_cli(["color", "classes=3", *extra, "--input", "-"], stdin=C5_TEXT)
        wrong = json.loads(color_line)
        wrong["parameters"]["classes"] = 5
        code, out = run_cli(["verify", "--record", "-"], stdin=json.dumps(wrong) + "\n")
        assert code == 2, extra
        assert record_of(out)["payload"] == {
            "verified": False, "detail": "payload has 3 classes, parameters say 5"}
        code, out = run_cli(["verify", "--record", "-"], stdin=color_line)
        assert code == 0
        assert record_of(out)["payload"]["verified"] is True


def test_verify_checks_color_certificates(run_cli):
    # verify once answered "verified": null for a color exact=1 certificate.
    _, line = run_cli(["color", "classes=3", "exact=1", "--input", "-"], stdin=K33_TEXT)
    good = json.loads(line)
    assert good["outcome"] == "certificate"
    assert good["payload"] == {"biclique": [[0, 1, 2], [3, 4, 5]], "r": 3}
    code, out = run_cli(["verify", "--record", "-"], stdin=line)
    assert code == 0
    assert record_of(out)["payload"] == {"verified": True, "detail": "certificate checks out"}

    k33_edges = [(u, v) for u in range(3) for v in range(3, 6)]
    k33 = from_edge_list(6, k33_edges)
    hub = to_graph6(from_edge_list(6, [*k33_edges, (0, 1)]))
    with_k4 = to_graph6(disjoint_union(k33, complete_graph(4)))
    tampered = [
        ({"payload.r": 5}, "payload has r=5, parameters say 3 classes"),
        ({"payload.r": 2, "parameters.classes": 2}, "r=2 is not odd and at most 4"),
        ({"payload.r": 5, "parameters.classes": 5}, "r=5 is not odd and at most 4"),
        ({"parameters.graph6": hub}, "max degree 4 > r=3"),
        ({"parameters.graph6": with_k4},
         "a component is K_4, so there is no proper 3-coloring"),
        ({"payload.biclique": [[0, 1, 2], [3, 4]]}, "biclique is not two sides of 3 vertices"),
        ({"payload.biclique": [[0, 1, 2]]}, "biclique is not two sides of 3 vertices"),
        ({"payload.biclique": [[0, 1, 2], [2, 4, 5]]}, "biclique sides overlap"),
        ({"payload.biclique": [[0, 1, 3], [2, 4, 5]]},
         "biclique lacks some of its 9 cross edges"),
    ]
    for changes, detail in tampered:
        record = json.loads(line)
        for path, value in changes.items():
            section, key = path.split(".")
            record[section][key] = value
        code, out = run_cli(["verify", "--record", "-"], stdin=json.dumps(record) + "\n")
        assert code == 2, changes
        assert record_of(out)["payload"] == {"verified": False, "detail": detail}, changes


def test_oversized_patterns_end_without_allocating(run_cli):
    # Each built a size tuple of about 10**11 entries before any guard and
    # ended in a MemoryError traceback.
    code, out = run_cli(["pack", "k=99999999999", "p=1", "--input", "-"], stdin=K33_TEXT)
    assert code == 0
    assert record_of(out)["outcome"] == "none"
    for argv in (["oracle", "99999999999K2", "n=3"], ["oracle", "kK2", "n=3", "k=99999999999"]):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code, out = run_cli(argv)
        assert (code, out) == (3, ""), argv
        assert stderr.getvalue() == "size guard: oracle guard: 99999999999 cliques > 16384\n"
    for argv in (["oracle", "3K99999999999", "n=3"], ["oracle", "4Kp", "n=3", "p=99999999999"]):
        code, out = run_cli(argv)
        assert code == 0, argv
        payload = record_of(out)["payload"]
        assert payload["value"] == 3 and payload["extremal"]["edges"] == 3, argv
        assert set(payload["sizes"]) == {99999999999}, argv


def test_graph6_input_holds_one_graph(run_cli):
    # A second line after a graph6 line was once ignored.
    for text in ("KO@?@@??D?_?\nnot-a-graph junk\n", "KO@?@@??D?_?\nKO@?@@??D?_?\n"):
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code, out = run_cli(["resolve", "p=3", "--input", "-"], stdin=text)
        assert code == 2
        assert out == ""
        assert "graph6 input holds more than one line" in stderr.getvalue()
    # trailing blank lines are fine
    code, out = run_cli(["resolve", "p=3", "--input", "-"], stdin="KO@?@@??D?_?\n\n  \n")
    assert code == 0
    assert record_of(out)["outcome"] == "witness"


def test_oracle_values_and_guard(run_cli):
    code, out = run_cli(["oracle", "3K2", "n=6"])
    assert code == 0
    rec = record_of(out)
    assert rec["payload"]["value"] == 10
    assert rec["payload"]["extremal"]["edges"] == 10

    code, out = run_cli(["oracle", "K3", "n=8"])
    assert code == 3
    assert out == ""


def test_oracle_guard_settings(run_cli, monkeypatch, tmp_path):
    code, out = run_cli(["oracle", "K3", "n=6", "--guard-n", "7"])
    assert code == 0
    assert record_of(out)["payload"]["value"] == 9
    # The guard has one source, its flag: the environment variable and the
    # config file that once set it are not read.
    monkeypatch.setenv("TURANPACK_GUARD_N", "5")
    code, out = run_cli(["oracle", "K3", "n=6"])
    assert code == 0
    assert record_of(out)["payload"]["value"] == 9
    config = tmp_path / "turanpack.conf"
    config.write_text("guard_n = 5\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run_cli(["oracle", "K3", "n=6", "--config", str(config)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --config" in err.getvalue()


def test_every_guard_flag_is_read(run_cli):
    # Each subcommand that declares --guard-n hands it to its search.
    k12 = "KO@?@@??D?_?\n"
    for argv, stdin in [
            (["pack", "k=2", "p=3", "--input", "-", "--guard-n", "4"], k12),
            (["oracle", "K3", "n=6", "--guard-n", "5"], None),
            (["color", "classes=3", "exact=1", "--input", "-", "--guard-n", "5"], "EFz_\n"),
            (["table", "4Kp", "p=3", "n=16", "--verify", "--guard-n", "5"], None),
            (["construct", "G4", "p=3", "--verify", "--guard-n", "5"], None),
            (["resolve", "p=3", "--budget", "0", "--input", "-", "--guard-n", "5"], k12)]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(argv, stdin=stdin)
        assert code == 3 and out == "", (argv, err.getvalue())
        assert err.getvalue().startswith("size guard: "), argv
    # probe 5.1 skips the sampled hosts above the guard and counts them.
    skipped = {}
    for guard in ("0", "64"):
        code, out = run_cli(["probe", "5.1", "k=2", "p=3", "trials=20", "--guard-n", guard])
        assert code == 0
        skipped[guard] = record_of(out)["payload"]["skipped"]
    assert skipped["0"] > skipped["64"] == 0


def test_negative_guard_and_budget_exit_2(run_cli):
    # resolve --budget -5 once ran zero moves, and pack --guard-n -4 exited 3
    # with "n=12 > -4"; argparse now refuses both.
    k12 = "KO@?@@??D?_?\n"
    for argv, message in [
            (["resolve", "p=3", "--input", "-", "--budget", "-5"],
             "argument --budget: must be an integer, 0 or more, got '-5'"),
            (["pack", "k=2", "p=3", "--input", "-", "--guard-n", "-4"],
             "argument --guard-n: must be an integer, 0 or more, got '-4'"),
            (["oracle", "K3", "n=6", "--guard-n", "abc"],
             "argument --guard-n: must be an integer, 0 or more, got 'abc'")]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            run_cli(argv, stdin=k12)
        assert exc.value.code == 2, argv
        assert message in err.getvalue(), (argv, err.getvalue())
    # 0 stays valid for both.
    code, out = run_cli(["resolve", "p=3", "--input", "-", "--budget", "0", "--guard-n", "20"],
                        stdin=k12)
    assert code == 0 and record_of(out)["outcome"] == "witness"
    code, out = run_cli(["pack", "k=2", "p=3", "--input", "-", "--guard-n", "0"],
                        stdin="6\n0 1\n")
    assert code == 0 and record_of(out)["outcome"] == "witness"


def test_color_certificate_is_checked_before_printing(run_cli, monkeypatch):
    # A color exact=1 certificate was once printed without any check.
    from turanpack import VertexSet, packing

    monkeypatch.setattr(packing, "_find_biclique", lambda g, r: (
        VertexSet.from_members(g.n, [0, 1, 3]), VertexSet.from_members(g.n, [2, 4, 5])))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["color", "classes=3", "exact=1", "--input", "-"], stdin="EFz_\n")
    assert code == 4 and out == ""
    assert err.getvalue() == ("soundness alarm: biclique certificate failed verification: "
                              "biclique lacks some of its 9 cross edges\n")


def test_color_constructive_and_exact(run_cli):
    code, out = run_cli(["color", "classes=3", "--input", "-"], stdin=C5_TEXT)
    assert code == 0
    rec = record_of(out)
    assert rec["outcome"] == "witness"
    sizes = sorted(len(c) for c in rec["payload"]["classes"])
    assert sizes == [1, 2, 2]

    code, out = run_cli(["color", "classes=3", "exact=1", "--input", "-"],
                        stdin=K33_TEXT)
    assert code == 0
    rec = record_of(out)
    assert rec["outcome"] == "certificate"
    assert rec["payload"]["biclique"] == [[0, 1, 2], [3, 4, 5]]

    code, out = run_cli(["color", "classes=4", "--input", "-"], stdin=K33_TEXT)
    assert code == 0
    assert record_of(out)["outcome"] == "witness"


def test_color_degree_precondition(run_cli):
    text = to_edge_list_text(union_of_cliques([4], 0))
    code, out = run_cli(["color", "classes=3", "--input", "-"], stdin=text)
    assert code == 2


def test_probe_determinism(run_cli):
    args = ["probe", "5.1", "k=2", "p=3", "trials=8"]
    code_a, out_a = run_cli(args)
    code_b, out_b = run_cli(args)
    assert code_a == code_b == 0
    assert out_a == out_b
    rec = record_of(out_a)
    assert rec["payload"]["witnessed"] + rec["payload"]["rigid"] \
        + rec["payload"]["skipped"] == 8
    assert rec["provenance"]["seed"] == 0


def test_probe_value_sweep_cli(run_cli):
    code, out = run_cli(["probe", "5.2", "k=4", "p=3"])
    assert code == 0
    rec = record_of(out)
    assert rec["outcome"] == "none"
    assert rec["payload"]["boundary_consistent"] is True
    assert rec["payload"]["matches_four_block_values"] is True
    code, _ = run_cli(["probe", "5.2", "k=5", "p=3"])
    assert code == 2


def test_timing_flag_controls_provenance(run_cli):
    code, out = run_cli(["formula", "4Kp", "n=16", "p=3"])
    prov = record_of(out)["provenance"]
    assert prov["runtime_seconds"] is None and prov["timestamp"] is None

    code, out = run_cli(["formula", "4Kp", "n=16", "p=3", "--timing"])
    prov = record_of(out)["provenance"]
    assert prov["runtime_seconds"] is not None
    assert prov["timestamp"] is not None


def test_seed_flag_recorded(run_cli):
    code, out = run_cli(["probe", "5.1", "k=2", "p=3", "trials=3",
                         "--seed", "17"])
    assert code == 0
    rec = record_of(out)
    assert rec["provenance"]["seed"] == 17


def test_malformed_graph_input(run_cli):
    code, _ = run_cli(["pack", "k=2", "p=2", "--input", "-"],
                      stdin="not a graph\n")
    assert code == 2
    code, _ = run_cli(["resolve", "p=3", "--input", "/nonexistent/path"])
    assert code == 2


def test_cli_import_loads_neither_numpy_nor_networkx():
    # The package does not use numpy, and networkx serves only a coloring
    # fallback; no command should pay for importing them up front.
    # dataclasses (which pulls in inspect, ast and dis) is not used at all.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    check = ("import turanpack.cli, sys; "
             "assert not {'numpy', 'networkx', 'dataclasses', 'inspect'} & set(sys.modules)")
    result = subprocess.run([sys.executable, "-c", check], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_oracle_runs_without_numpy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    check = """
import contextlib, io, json, sys
from turanpack import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["oracle", "3K2", "n=7"])
assert code == 0 and json.loads(out.getvalue())["payload"]["value"] == 11, code
assert "numpy" not in sys.modules
"""
    result = subprocess.run([sys.executable, "-c", check], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_non_integer_or_negative_parameters_exit_2(run_cli):
    # these once escaped as TypeError/ValueError tracebacks (exit 1)
    for argv, message in [
            (["formula", "4Kp", "n=abc", "p=3"], "needs integer parameters: n"),
            (["formula", "4Kp", "n=-3", "p=3"], "vertex count must be nonnegative"),
            (["formula", "Kp", "n=-1", "p=3"], "vertex count must be nonnegative"),
            (["oracle", "3K2", "n=abc"], "needs integer parameters: n"),
            (["oracle", "KpKq", "n=6", "p=2", "q=abc"], "needs integer parameters: q"),
            (["table", "kK2", "k=x", "n=6:7"], "needs integer parameters: k"),
            (["table", "4Kp", "p=3", "n=-2:2"], "vertex count must be nonnegative"),
            (["pack", "k=abc", "p=2", "--input", "-"], "pack needs integer parameters: k"),
            (["resolve", "p=abc", "--input", "-"], "resolve needs integer parameters: p"),
            (["color", "classes=abc", "--input", "-"], "needs integer parameters: classes"),
            (["probe", "5.1", "k=2", "p=3", "trials=abc"], "needs integer parameters: trials"),
            (["probe", "5.2", "k=4", "p=3", "window=abc"], "needs integer parameters: window")]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(argv, stdin=C5_TEXT)
        assert code == 2, argv
        assert out == "" and message in err.getvalue(), (argv, err.getvalue())


def test_unknown_parameters_exit_2(run_cli):
    # these were recorded in the output but never read
    for argv, message in [
            (["probe", "5.1", "k=3", "p=3", "trails=7"], "unknown parameters: trails"),
            (["probe", "5.2", "k=4", "p=3", "trials=7"], "unknown parameters: trials"),
            (["color", "classes=3", "exact=no", "--input", "-"], "exact must be 0 or 1"),
            (["color", "classes=3", "exact=2", "--input", "-"], "exact must be 0 or 1"),
            (["color", "classes=3", "colours=3", "--input", "-"], "unknown parameters: colours"),
            (["pack", "k=2", "p=2", "mod=clique", "--input", "-"], "unknown parameters: mod"),
            (["resolve", "p=3", "k=4", "--input", "-"], "unknown parameters: k"),
            (["oracle", "3K2", "n=6", "m=1"], "unknown parameters: m"),
            (["table", "4Kp", "p=3", "n=12:13", "x=1"], "unknown parameters: x"),
            (["construct", "J", "p=3", "s=3", "t=1"], "unknown parameters: t"),
            (["verify", "junk=1", "k=9", "--record", "-"], "unknown parameters: junk, k")]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(argv, stdin=C5_TEXT)
        assert code == 2, argv
        assert out == "" and message in err.getvalue(), (argv, err.getvalue())
    code, out = run_cli(["color", "classes=3", "exact=0", "--input", "-"], stdin=C5_TEXT)
    assert code == 0 and "exact" not in record_of(out)["parameters"]



def test_missing_and_repeated_parameters_exit_2(run_cli):
    # A repeated key once silently overwrote the first value.
    for argv, message in [
            (["resolve", "--input", "-"], "resolve needs parameters: p"),
            (["pack", "p=2", "--input", "-"], "pack needs parameters: k"),
            (["color", "--input", "-"], "color needs parameters: classes"),
            (["probe", "5.1", "p=3"], "probe needs parameters: k"),
            (["oracle", "3K2"], "pattern 3K2 needs parameters: n"),
            (["resolve", "p=3", "p=4", "--input", "-"], "parameter p is given more than once"),
            (["formula", "4Kp", "n=16", "n=20", "p=3"], "parameter n is given more than once"),
            (["table", "4Kp", "p=3", "n=12:13", "p=4"], "parameter p is given more than once")]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(argv, stdin=C5_TEXT)
        assert code == 2, argv
        assert out == "" and err.getvalue() == f"error: {message}\n", (argv, err.getvalue())


# A minimal accepted argv per subcommand; no command reads its input
# before argparse has refused a flag.
ACCEPTED_ARGV = {
    "formula": ["4Kp", "n=16", "p=3"],
    "table": ["4Kp", "p=3", "n=12:13"],
    "construct": ["J", "p=3", "s=3"],
    "resolve": ["p=3", "--input", "-"],
    "pack": ["k=2", "p=2", "--input", "-"],
    "verify": ["--record", "-"],
    "oracle": ["3K2", "n=6"],
    "probe": ["5.1", "k=2", "p=3", "trials=2"],
    "color": ["classes=3", "--input", "-"],
}


def test_each_subcommand_takes_only_the_flags_it_reads():
    # Every subcommand once took all nine shared flags, and ignored most of
    # them: formula --format csv printed JSON with exit 0.
    from turanpack import cli

    assert not {"HANDLERS", "check_known", "check_int_params"} & set(vars(cli))
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(cli.COMMANDS) == set(ACCEPTED_ARGV)
    slots = {}
    for name, command in cli.COMMANDS.items():
        strings = {string for action in subparsers.choices[name]._actions
                   for string in action.option_strings} - {"-h", "--help"}
        assert strings == {"--timing", *command.flags}, name
        slots[name] = len(strings)
    assert slots == {"formula": 1, "table": 4, "construct": 4, "resolve": 4, "pack": 3,
                     "verify": 2, "oracle": 2, "probe": 3, "color": 3}
    assert sum(slots.values()) == 26
    refused = []
    for name, command in cli.COMMANDS.items():
        for flag, spec in cli.FLAGS.items():
            if flag in ("--timing", *command.flags):
                continue
            value = [] if spec.get("action") == "store_true" else ["1"]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                try:
                    cli.main([name, *ACCEPTED_ARGV[name], flag, *value])
                except SystemExit as exc:
                    assert exc.code == 2, (name, flag)
                else:
                    raise AssertionError(f"{name} accepted {flag}")
            assert f"unrecognized arguments: {flag}" in err.getvalue(), (name, flag)
            refused.append(flag)
    # --record was only ever verify's; the other 38 refusals were accepted before.
    assert len(refused) - refused.count("--record") == 38


def test_probe_payloads_are_their_reports(run_cli):
    from turanpack import DichotomyProbeReport, ValueSweepReport, ValueSweepRow

    for argv, report in [(["probe", "5.1", "k=4", "p=3", "trials=5"], DichotomyProbeReport),
                         (["probe", "5.2", "k=4", "p=3"], ValueSweepReport)]:
        code, out = run_cli(argv)
        assert code == 0
        payload = record_of(out)["payload"]
        assert set(payload) == {*report._fields, "message"}, argv
    assert all(set(row) == set(ValueSweepRow._fields) for row in payload["rows"])


def test_probe_sweep_refuses_a_negative_window(run_cli):
    # window=-1 once left out the last middle-branch row (n = 19), and
    # window=-3 swept no row yet printed "all rows consistent" with exit 0.
    for window in ("-1", "-3"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(["probe", "5.2", "k=4", "p=3", f"window={window}"])
        assert code == 2 and out == ""
        assert err.getvalue() == f"error: window must be 0 or more, got {window}\n"
    code, out = run_cli(["probe", "5.2", "k=4", "p=3", "window=0"])
    rows = record_of(out)["payload"]["rows"]
    assert code == 0 and [(row["n"], row["branch"]) for row in rows] == [
        (17, "middle"), (18, "middle"), (19, "middle")]


def test_probe_sweep_refuses_a_seed(run_cli):
    # probe 5.2 draws nothing at random, so a seed once looked honoured and was not.
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["probe", "5.2", "k=4", "p=3", "--seed", "99"])
    assert code == 2 and out == ""
    assert err.getvalue() == "error: probe 5.2 draws nothing at random; it takes no --seed\n"


NOT_UTF8 = b"\xff\xfe\x00bad"


def test_non_utf8_input_exits_2(run_cli, tmp_path, monkeypatch):
    # Each of these once ended in a UnicodeDecodeError traceback (exit 1).
    path = tmp_path / "bin.g6"
    path.write_bytes(NOT_UTF8)
    for argv in (["pack", "k=2", "p=2", "--input", str(path)],
                 ["verify", "--record", str(path)]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = run_cli(argv)
        assert code == 2, argv
        assert out == "" and "can't decode byte 0xff" in err.getvalue(), (argv, err.getvalue())
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["resolve", "p=3", "--input", "-"])
    assert code == 2 and out == ""
    assert "can't decode byte 0xff" in err.getvalue()


def test_probe_bad_witness_is_a_soundness_alarm(run_cli, monkeypatch):
    # probe 5.1 once raised AssertionError here: a traceback with exit 1.
    from turanpack import packing, probes

    monkeypatch.setattr(probes, "verify_witness",
                        lambda *args: packing.VerificationReport(False, "forced"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["probe", "5.1", "k=2", "p=3", "trials=8"])
    assert code == 4 and out == ""
    assert err.getvalue() == "soundness alarm: search returned a bad witness: forced\n"

def run_cli_capped(argv):
    """The CLI in a subprocess under a 1 GiB address-space cap, where a
    huge allocation is a MemoryError instead of a swapping host."""
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "turanpack.cli", *argv],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory)


def test_huge_declared_edge_list_hits_the_guard_before_allocating(tmp_path):
    # A header of 10**9 vertices once made the parser allocate 10**9 rows;
    # the guard must refuse the input (exit 3) before any allocation.
    path = tmp_path / "huge.txt"
    path.write_text("1000000000\n0 1\n")
    result = run_cli_capped(["pack", "k=2", "p=2", "--input", str(path)])
    assert result.returncode == 3, result.stderr
    assert "declared n=1000000000 > 16384" in result.stderr
    assert "MemoryError" not in result.stderr


def test_huge_construct_hits_the_guard_before_allocating():
    # construct once built any family at any n: these ended in MemoryError.
    for argv, declared in [(["empty", "n=1000000000"], 1000000000),
                           (["complete", "n=200000"], 200000),
                           (["G1", "p=100000"], 400001),
                           (["rigid-union", "k=3", "p=10000", "s=5"], 30004)]:
        result = run_cli_capped(["construct", *argv])
        assert result.returncode == 3, (argv, result.stderr)
        assert f"n={declared} > 16384" in result.stderr, result.stderr
        assert "MemoryError" not in result.stderr


def test_huge_table_span_hits_the_guard_before_allocating():
    # table once built list(range(a, b + 1)) for any span: n=1:100000000
    # ran for minutes and a wider span ended in MemoryError.
    for argv, message in [
            (["4Kp", "p=3", "n=1:100000000"], "n=1:100000000 spans 100000000 values > 16384"),
            (["4Kp", "p=3", "n=1:10000000000000"], "spans 10000000000000 values > 16384"),
            (["4Kp", "p=1:200", "n=1:200"], "40000 rows > 16384"),
            # --verify rebuilds each row's construction at the row's n
            (["4Kp", "p=3", "n=100000000000:100000000010", "--verify"],
             "has n=100000000000 > 16384")]:
        result = run_cli_capped(["table", *argv])
        assert result.returncode == 3, (argv, result.stderr)
        assert message in result.stderr, result.stderr
        assert "MemoryError" not in result.stderr
    # the largest allowed span still renders
    result = run_cli_capped(["table", "Kp", "p=3", "n=0:16383", "--format", "csv"])
    assert result.returncode == 0, result.stderr
    assert len(result.stdout.splitlines()) == 1 + 16384


def test_huge_counts_hit_the_guard_before_looping(tmp_path):
    # The class count, the trial count and the sweep window once went
    # straight into loops and allocations: each of these ran until killed.
    path = tmp_path / "c5.txt"
    path.write_text(C5_TEXT)
    for argv, message in [
            (["color", "classes=100000000", "--input", str(path)], "classes=100000000 > 16384"),
            (["color", "classes=100000000", "exact=1", "--input", str(path)],
             "classes=100000000 > 16384"),
            (["probe", "5.1", "k=2", "p=3", "trials=100000000"], "trials=100000000 > 16384"),
            (["probe", "5.2", "k=4", "p=3", "window=100000000"], "window=100000000 > 16384")]:
        result = run_cli_capped(argv)
        assert result.returncode == 3, (argv, result.stderr)
        assert message in result.stderr, result.stderr
        assert result.stdout == ""


def test_huge_probe_hosts_hit_the_guard_before_sampling():
    # probe 5.1 samples hosts up to n = (2k-1)p - 2 and probe 5.2 builds them
    # up to n = (2k-1)p - 2 + window: the first of these once listed all
    # C(n,2) pairs and ended in MemoryError.
    for argv, message in [
            (["probe", "5.1", "k=2", "p=100000", "trials=1"], "largest host n=299998 > 16384"),
            (["probe", "5.1", "k=100000", "p=3", "trials=1"], "largest host n=599995 > 16384"),
            (["probe", "5.2", "k=4", "p=2400", "window=1"], "largest host n=16799 > 16384")]:
        result = run_cli_capped(argv)
        assert result.returncode == 3, (argv, result.stderr)
        assert message in result.stderr, result.stderr
        assert result.stdout == "" and "MemoryError" not in result.stderr


def test_probe_sweep_total_work_hits_the_guard_before_building():
    # The largest host of this sweep (n = 16019) passes its guard, but the
    # probe builds one host per row, about 16,000 of them: the sum of n^2
    # over the rows may not exceed the bits of one largest allowed host.
    result = run_cli_capped(["probe", "5.2", "k=4", "p=3", "window=16000"])
    assert result.returncode == 3, result.stderr
    assert "sum of n^2 over the sweep's hosts = 1370331416974 > 16384^2" in result.stderr
    assert result.stdout == "" and "MemoryError" not in result.stderr


# -- each command loads only what it runs ---------------------------------------


def modules_loaded_by(argv):
    """The turanpack modules one CLI command loads, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    script = """
import contextlib, io, json, sys
from turanpack import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("turanpack"))]))
"""
    result = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout)
    assert code == 0, (argv, result.stderr)
    return {name.partition(".")[2] for name in modules}


def test_formula_loads_no_graph_layer():
    loaded = modules_loaded_by(["formula", "4Kp", "n=20", "p=3"])
    assert "formulas" in loaded
    assert not {"codec", "graphs", "packing", "shifting", "constructions", "oracle",
                "probes"} & loaded, loaded


def test_oracle_and_graph_commands_skip_unused_layers(tmp_path):
    loaded = modules_loaded_by(["oracle", "3K2", "n=7"])
    assert "oracle" in loaded and not {"packing", "shifting", "probes"} & loaded, loaded
    path = tmp_path / "c5.txt"
    path.write_text(C5_TEXT)
    for argv in (["pack", "k=2", "p=2", "--input", str(path)],
                 ["color", "classes=3", "--input", str(path)]):
        loaded = modules_loaded_by(argv)
        assert "packing" in loaded, (argv, loaded)
        assert not {"shifting", "oracle", "probes"} & loaded, (argv, loaded)


# -- the checker stands apart from the searches ---------------------------------

SEARCH_MODULES = {"packing", "shifting", "oracle", "probes"}


def test_checker_imports_no_search_module():
    tree = ast.parse((SRC / "turanpack" / "check.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):  # module level and inside functions alike
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert "graphs.VertexSet" in imported and "constructions.build_family" in imported
    bad = [name for name in imported if SEARCH_MODULES & set(name.split("."))]
    assert not bad, bad


# One record of each kind verify checks: (command, outcome, argv, stdin).
CHECKED_RECORDS = [
    ("pack", "witness", ["pack", "k=2", "p=2", "--input", "-"], C5_TEXT),
    ("resolve", "witness", ["resolve", "p=3", "--input", "-"], "KO@?@@??D?_?\n"),
    ("resolve", "certificate", ["resolve", "p=3", "--input", "-"], "M~~~w????????????\n"),
    ("color", "witness", ["color", "classes=3", "--input", "-"], C5_TEXT),
    ("color", "certificate", ["color", "classes=3", "exact=1", "--input", "-"], K33_TEXT),
    ("construct", "value", ["construct", "J", "p=3", "s=3"], None),
]


def test_verify_loads_no_search_module(run_cli, tmp_path):
    # verify once imported packing, shifting, constructions and formulas to
    # check any record; now it reads check.py, and constructions only to
    # rebuild a construct record.
    for command, outcome, argv, stdin in CHECKED_RECORDS:
        code, out = run_cli(argv, stdin)
        rec = record_of(out)
        assert code == 0 and (rec["command"], rec["outcome"]) == (command, outcome)
        path = tmp_path / f"{command}-{outcome}.jsonl"
        path.write_text(out)
        code, out = run_cli(["verify", "--record", str(path)])
        assert code == 0 and record_of(out)["payload"]["verified"] is True, out
        loaded = modules_loaded_by(["verify", "--record", str(path)])
        assert "check" in loaded and not {"packing", "shifting"} & loaded, (command, loaded)
        if command != "construct":
            assert not {"constructions", "formulas"} & loaded, (command, outcome, loaded)


PUBLIC_NAMES = [
    "AuxDigraph", "ConstructionDescriptor", "ConstructionRef", "DichotomyProbeReport",
    "EngineTrace", "EquitableColoring", "ExactColoringResult", "FormulaQuery", "Graph",
    "Move", "PackingWitness", "PartitionState", "PreconditionError", "RECORD_VERSION",
    "ResultRecord", "SizeGuardError", "SoundnessAlarm", "StructureCertificate",
    "TuranValue", "ValueSweepReport", "ValueSweepRow", "VerificationReport",
    "VertexSet", "accessible_path", "binom2", "build_aux_digraph", "build_family",
    "build_ref", "certify_k7_structure", "check", "check_preconditions", "claim_holds",
    "clique_union_profile", "codec", "complement", "complete_graph", "components",
    "constructions", "cross_edge_count", "disjoint_union", "dispatch_formula",
    "empty_graph", "equitable_coloring", "equitable_coloring_exact", "errors",
    "ex_2_cliques", "ex_3_cliques", "ex_4_cliques", "ex_k_matchings",
    "ex_single_clique", "ex_tight_k_cliques", "ex_two_distinct_cliques",
    "exhaustive_ex", "exhaustive_ex_sizes", "f3_min_edges", "find_clique_packing",
    "find_disjoint_independent_sets", "formulas", "from_edge_list",
    "from_edge_list_text", "from_graph6", "graphs", "hub_join", "hub_join_edges",
    "independence_number", "init_partition", "join", "naive_disjoint_independent_sets",
    "naive_independent_sets", "near_tight_witness", "oracle", "packing",
    "parse_graph_text", "probe_dichotomy", "probe_value_sweep", "probes",
    "propose_moves", "random_bounded_graph", "records", "resolve", "rigid_clique_union",
    "shifting", "solo_neighbor", "star_graph", "tight_family_a", "tight_family_b",
    "to_edge_list_text", "to_graph6", "turan_edges", "turan_graph", "union_of_cliques",
    "verify_certificate", "verify_equitable_coloring", "verify_witness"]


def test_lazy_package_keeps_its_public_names():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    check = """
import json, sys, types
import turanpack
assert [m for m in sys.modules if m.startswith("turanpack.")] == ["turanpack._version"]
names = list(turanpack.__all__)
assert set(names) <= set(dir(turanpack))
try:
    turanpack.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("unknown attribute did not raise")
scope = {}
exec("from turanpack import *", scope)
missing = [name for name in names if name not in scope]
assert not missing, missing
assert isinstance(scope["packing"], types.ModuleType)
assert scope["resolve"] is sys.modules["turanpack.shifting"].resolve
print(json.dumps(names))
"""
    result = subprocess.run([sys.executable, "-c", check], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 94
