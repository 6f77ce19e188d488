"""Command line front end.

One subcommand per task; results print as one JSON record per line
(tables also render to CSV, construct also to bare graph6). Identical
command plus seed gives byte-identical output: timing fields stay null
unless --timing is passed, dict keys are sorted, and every sweep emits in
a canonical order.

Exit codes: 0 success, 2 precondition violation or malformed input,
3 size-guard refusal, 4 internal soundness alarm.

Each subcommand imports the modules it runs inside its handler, so a
one-shot command loads (and, without cached bytecode, compiles) only those.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from ._version import __version__
from .errors import PreconditionError, SizeGuardError, SoundnessAlarm, check_params, is_int
from .records import (ResultRecord, certificate_payload, coloring_payload,
                      graph_payload, stamp, vertex_set_payload,
                      witness_payload)

if TYPE_CHECKING:
    from .formulas import FormulaQuery
    from .graphs import Graph

DEFAULT_SEED = 0
FORMATS = ("json", "csv", "graph6")

CLOSED_FORM_NOTE = (
    "value is the hub-join count 3+3(n-3)+t(n-3,p-1); the variant closed "
    "form 3+3(n-1)+t(n-3,p-1) overstates it by exactly 6")

TABLE_COLUMNS = ("pattern", "n", "p", "value", "regime", "construction",
                 "note", "verified")


# -- parameter plumbing --------------------------------------------------------


def parse_kv(tokens: list[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for tok in tokens:
        key, sep, raw = tok.partition("=")
        if not sep or not key:
            raise PreconditionError(f"expected key=value, got {tok!r}")
        if key in params:
            raise PreconditionError(f"parameter {key} is given more than once")
        params[key] = int(raw) if re.fullmatch(r"-?\d+", raw) else raw
    return params


def parse_span(value: Any, name: str) -> list[int]:
    """A single integer or an inclusive a:b range."""
    if isinstance(value, int):
        return [value]
    m = re.fullmatch(r"(-?\d+):(-?\d+)", str(value))
    if not m:
        raise PreconditionError(f"{name} must be an integer or a:b range, got {value!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise PreconditionError(f"{name}={value} is a reversed range; write {hi}:{lo}")
    from .graphs import MAX_EDGE_LIST_N

    if hi - lo + 1 > MAX_EDGE_LIST_N:
        raise SizeGuardError(
            f"table guard: {name}={value} spans {hi - lo + 1} values > {MAX_EDGE_LIST_N}")
    return list(range(lo, hi + 1))


def read_graph(args: argparse.Namespace) -> Graph:
    from .codec import parse_graph_text

    if not args.input:
        raise PreconditionError("this command needs --input <path|->")
    if args.input == "-":
        text = sys.stdin.read()
    else:
        with open(args.input, encoding="utf-8") as handle:
            text = handle.read()
    return parse_graph_text(text)


def emit(record: ResultRecord, args: argparse.Namespace, started: float) -> None:
    if args.timing:
        stamp(record, started)
    print(record.to_json_line())


def _ref_dict(ref) -> dict | None:
    if ref is None:
        return None
    return {"family": ref.family, "parameters": dict(ref.params),
            "complemented": ref.complemented}


def _query_from(pattern: str, params: dict[str, Any]) -> FormulaQuery:
    from .formulas import FormulaQuery, lookup_pattern

    check_params(f"pattern {pattern}", params, optional=lookup_pattern(pattern).params)
    return FormulaQuery(pattern, **params)


# -- subcommands ---------------------------------------------------------------


def cmd_formula(args, started: float) -> int:
    if not args.tokens:
        raise PreconditionError("usage: formula <pattern> key=value ...")
    from .formulas import dispatch_formula

    pattern = args.tokens[0]
    params = parse_kv(args.tokens[1:])
    value = dispatch_formula(_query_from(pattern, params))
    record = ResultRecord(
        command="formula",
        parameters={"pattern": pattern, **params},
        outcome="value",
        payload={"value": value.value, "regime": value.regime,
                 "construction": _ref_dict(value.construction)},
    )
    emit(record, args, started)
    return 0


def _table_rows(pattern: str, params: dict[str, Any],
                args: argparse.Namespace) -> list[dict[str, Any]]:
    from .formulas import REGIME_HUB_JOIN, binom2, dispatch_formula, lookup_pattern
    from .graphs import MAX_EDGE_LIST_N

    if pattern == "kKp-tight":
        raise PreconditionError(
            "kKp-tight fixes n = k*p; use the formula subcommand")
    check_params(f"pattern {pattern}", params, optional=lookup_pattern(pattern).params,
                 ints=())
    n_span = parse_span(params.get("n"), "n") if "n" in params else [None]
    p_span = parse_span(params.get("p"), "p") if "p" in params else [None]
    fixed = {key: value for key, value in params.items() if key not in ("n", "p")}
    if len(p_span) * len(n_span) > MAX_EDGE_LIST_N:
        raise SizeGuardError(
            f"table guard: {len(p_span) * len(n_span)} rows > {MAX_EDGE_LIST_N}")
    rows = []
    for p in p_span:
        for n in n_span:
            value = dispatch_formula(_query_from(pattern, {
                **fixed,
                **({"n": n} if n is not None else {}),
                **({"p": p} if p is not None else {}),
            }))
            note = ""
            if pattern == "4Kp" and value.regime == REGIME_HUB_JOIN:
                note = CLOSED_FORM_NOTE
            verified = ""
            if args.verify and value.construction is not None:
                from .constructions import build_ref, claim_holds

                built, desc = build_ref(value.construction)
                if binom2(built.n) - built.edge_count() != value.value:
                    raise SoundnessAlarm(
                        f"complement edge count of {desc.family} disagrees "
                        f"with the formula value at n={n}, p={p}")
                if claim_holds(built, desc, guard_n=args.guard_n) is False:
                    raise SoundnessAlarm(
                        f"construction {desc.family} fails its freeness "
                        f"claim at n={n}, p={p}")
                verified = "yes"
            rows.append({
                "pattern": pattern,
                "n": "" if n is None else n,
                "p": "" if p is None else p,
                "value": value.value,
                "regime": value.regime,
                "construction": value.construction.family if value.construction else "",
                "note": note,
                "verified": verified,
            })
    return rows


def cmd_table(args, started: float) -> int:
    if not args.tokens:
        raise PreconditionError("usage: table <pattern> n=a:b p=c[:d] ...")
    pattern = args.tokens[0]
    params = parse_kv(args.tokens[1:])
    rows = _table_rows(pattern, params, args)
    if args.format == "csv":
        import csv
        import io

        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=TABLE_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
        return 0
    if args.format != "json":
        raise PreconditionError("table renders as json or csv")
    record = ResultRecord(
        command="table",
        parameters={"pattern": pattern, **params},
        outcome="value",
        payload={"rows": rows},
    )
    emit(record, args, started)
    return 0


def cmd_construct(args, started: float) -> int:
    if not args.tokens:
        raise PreconditionError("usage: construct <family> key=value ...")
    from .codec import to_graph6
    from .constructions import build_family, claim_holds

    family = args.tokens[0]
    params = parse_kv(args.tokens[1:])
    g, desc = build_family(family, params)
    text = to_graph6(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    if args.format == "graph6":
        print(text)
        return 0
    if args.format != "json":
        raise PreconditionError("construct renders as json or graph6")
    payload = {
        **graph_payload(g),
        "descriptor": {**desc._asdict(), "claim": list(desc.claim) if desc.claim else None},
    }
    if args.verify:
        payload["claim_verified"] = claim_holds(g, desc, guard_n=args.guard_n)
    record = ResultRecord(
        command="construct",
        parameters={"family": family, **params},
        outcome="value",
        payload=payload,
    )
    emit(record, args, started)
    return 0


def cmd_resolve(args, started: float) -> int:
    from .codec import to_graph6
    from .packing import PackingWitness
    from .shifting import resolve

    p = args.params["p"]
    g = read_graph(args)
    outcome = resolve(g, p, budget=args.budget, guard_n=args.guard_n)
    # resolve re-verifies both outcome kinds before returning.
    parameters = {"p": p, "graph6": to_graph6(g)}
    if isinstance(outcome, PackingWitness):
        record = ResultRecord("resolve", parameters, "witness",
                              witness_payload(outcome))
    else:
        record = ResultRecord("resolve", parameters, "certificate",
                              certificate_payload(outcome))
    emit(record, args, started)
    return 0


def cmd_pack(args, started: float) -> int:
    from .codec import to_graph6
    from .packing import (find_clique_packing, find_disjoint_independent_sets,
                          verify_witness)

    params = args.params
    mode = params.get("mode", "independent")
    if mode not in ("independent", "clique"):
        raise PreconditionError("mode must be independent or clique")
    g = read_graph(args)
    k, p = params["k"], params["p"]
    if mode == "independent":
        witness = find_disjoint_independent_sets(g, k, p, guard_n=args.guard_n)
    else:
        witness = find_clique_packing(g, k, p, guard_n=args.guard_n)
    parameters = {"k": k, "p": p, "mode": mode, "graph6": to_graph6(g)}
    if witness is None:
        record = ResultRecord("pack", parameters, "none", {})
    else:
        report = verify_witness(g, witness, k, p, mode)
        if not report.ok:
            raise SoundnessAlarm(f"pack witness failed verification: {report.violation}")
        record = ResultRecord("pack", parameters, "witness", witness_payload(witness))
    emit(record, args, started)
    return 0


def _is_members(value: Any) -> bool:
    return isinstance(value, list) and all(is_int(v) for v in value)


_SHAPES = {
    "an integer": is_int,
    "a string": lambda value: isinstance(value, str),
    "a list of integers": _is_members,
    "a list of integer lists": lambda value: (
        isinstance(value, list) and all(_is_members(v) for v in value)),
}


def _section(obj: dict[str, Any], key: str) -> dict[str, Any]:
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise PreconditionError(f"{key} is not an object")
    return value


def _field(section: dict[str, Any], name: str, key: str, shape: str) -> Any:
    """section[key], which must be present and have the shape the
    verifier reads (a key of _SHAPES); name is the section's name."""
    if key not in section:
        raise PreconditionError(f"{name} has no {key!r}")
    value = section[key]
    if not _SHAPES[shape](value):
        raise PreconditionError(f"{name}[{key!r}] is not {shape}")
    return value


def _verify_one(obj: Any) -> tuple[bool | None, str]:
    """Re-check one decoded record; a record whose shape differs from what
    its branch reads raises PreconditionError."""
    from .codec import parse_graph_text, to_graph6
    from .constructions import build_family
    from .graphs import VertexSet
    from .packing import (EquitableColoring, PackingWitness, verify_biclique,
                          verify_equitable_coloring, verify_witness)
    from .shifting import StructureCertificate, verify_certificate

    if not isinstance(obj, dict):
        raise PreconditionError("not a JSON object")
    command = obj.get("command")
    outcome = obj.get("outcome")
    parameters = _section(obj, "parameters")
    payload = _section(obj, "payload")

    def param(key, shape):
        return _field(parameters, "parameters", key, shape)

    def recorded(key, shape):
        return _field(payload, "payload", key, shape)

    if outcome == "witness" and command in ("pack", "resolve"):
        g = parse_graph_text(param("graph6", "a string"))
        sets = tuple(VertexSet.from_members(g.n, members)
                     for members in recorded("sets", "a list of integer lists"))
        witness = PackingWitness(sets)
        if command == "resolve":
            k, mode = 4, "independent"
        else:
            k, mode = param("k", "an integer"), parameters.get("mode", "independent")
        p = param("p", "an integer")
        report = verify_witness(g, witness, k, p, mode)
        return report.ok, report.violation or "witness checks out"
    if outcome == "certificate" and command == "resolve":
        g = parse_graph_text(param("graph6", "a string"))
        p = param("p", "an integer")
        cert = StructureCertificate(
            cliques=tuple(VertexSet.from_members(g.n, members)
                          for members in recorded("cliques", "a list of integer lists")),
            isolated=VertexSet.from_members(g.n, recorded("isolated", "a list of integers")),
            s=recorded("s", "an integer"),
            edges=recorded("edges", "an integer"),
            max_degree=recorded("max_degree", "an integer"),
        )
        report = verify_certificate(g, cert, p)
        return report.ok, report.violation or "certificate checks out"
    if outcome == "witness" and command == "color":
        g = parse_graph_text(param("graph6", "a string"))
        classes = param("classes", "an integer")
        coloring = EquitableColoring(tuple(
            VertexSet.from_members(g.n, members)
            for members in recorded("classes", "a list of integer lists")))
        if len(coloring.classes) != classes:
            return False, (f"payload has {len(coloring.classes)} classes, "
                           f"parameters say {classes}")
        report = verify_equitable_coloring(g, coloring)
        return report.ok, report.violation or "coloring checks out"
    if outcome == "certificate" and command == "color":
        g = parse_graph_text(param("graph6", "a string"))
        classes = param("classes", "an integer")
        r = recorded("r", "an integer")
        if r != classes:
            return False, f"payload has r={r}, parameters say {classes} classes"
        sides = [VertexSet.from_members(g.n, members)
                 for members in recorded("biclique", "a list of integer lists")]
        report = verify_biclique(g, sides, r)
        return report.ok, report.violation or "certificate checks out"
    if command == "construct" and outcome == "value":
        family = param("family", "a string")
        graph6 = recorded("graph6", "a string")
        edges = recorded("edges", "an integer")
        params = {key: value for key, value in parameters.items() if key != "family"}
        g, desc = build_family(family, params)
        if to_graph6(g) != graph6:
            return False, "rebuilt graph differs from recorded graph6"
        if g.edge_count() != edges:
            return False, "recorded edge count is wrong"
        return True, "construction rebuilt identically"
    return None, "record carries no verifiable payload"


def cmd_verify(args, started: float) -> int:
    if not args.record:
        raise PreconditionError("verify needs --record <path|->")
    if args.record == "-":
        text = sys.stdin.read()
    else:
        with open(args.record, encoding="utf-8") as handle:
            text = handle.read()
    failures = 0
    for index, line in enumerate(s for s in text.splitlines() if s.strip()):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise PreconditionError(f"record line {index} is not JSON: {exc}")
        try:
            verified, detail = _verify_one(obj)
        except PreconditionError as exc:
            raise PreconditionError(f"record line {index}: {exc}") from None
        if verified is False:
            failures += 1
        record = ResultRecord(
            command="verify",
            parameters={"line": index, "source_command": obj.get("command")},
            outcome="value",
            payload={"verified": verified, "detail": detail},
        )
        emit(record, args, started)
    return 2 if failures else 0


def cmd_oracle(args, started: float) -> int:
    if not args.tokens:
        raise PreconditionError("usage: oracle <pattern> n=<int> [k=..] [p=..] [q=..]")
    from .formulas import FormulaQuery, lookup_pattern, pattern_cliques
    from .graphs import MAX_EDGE_LIST_N
    from .oracle import exhaustive_ex_sizes

    pattern = args.tokens[0]
    params = parse_kv(args.tokens[1:])
    # A compact pattern such as 3K2 names its cliques; the oracle reads the
    # host size n on top of the keys of a named pattern.
    compact = re.fullmatch(r"(\d*)K(\d+)", pattern)
    check_params(f"pattern {pattern}", params, required=("n",),
                 optional=() if compact else lookup_pattern(pattern).params)
    # The record echoes sizes, so refuse a clique count too large to build;
    # a named pattern has at most four cliques unless it reads k.
    count = int(compact.group(1) or 1) if compact else params.get("k", 1)
    if count > MAX_EDGE_LIST_N:
        raise SizeGuardError(f"oracle guard: {count} cliques > {MAX_EDGE_LIST_N}")
    if compact:
        sizes = (int(compact.group(2)),) * count
    else:
        sizes = pattern_cliques(FormulaQuery(pattern, **params))
    value, extremal = exhaustive_ex_sizes(params["n"], sizes,
                                          guard=args.guard_n)
    record = ResultRecord(
        command="oracle",
        parameters={"pattern": pattern, **params},
        outcome="value",
        payload={"value": value, "sizes": list(sizes),
                 "extremal": graph_payload(extremal)},
    )
    emit(record, args, started)
    return 0


def cmd_probe(args, started: float) -> int:
    if not args.tokens:
        raise PreconditionError("usage: probe <5.1|5.2> k=<int> p=<int> ...")
    from .probes import probe_dichotomy, probe_value_sweep

    which = args.tokens[0]
    if which not in ("5.1", "5.2"):
        raise PreconditionError(f"unknown probe {which!r}; use 5.1 or 5.2")
    params = parse_kv(args.tokens[1:])
    check_params("probe", params, required=("k", "p"),
                 optional=("trials",) if which == "5.1" else ("window",))
    if which == "5.1":
        seed = DEFAULT_SEED if args.seed is None else args.seed
        report = probe_dichotomy(params["k"], params["p"],
                                 trials=params.get("trials", 200),
                                 seed=seed,
                                 guard_n=args.guard_n)
        payload = {
            "k": report.k, "p": report.p, "trials": report.trials,
            "witnessed": report.witnessed, "rigid": report.rigid,
            "skipped": report.skipped,
            "counterexample": report.counterexample,
            "counterexample_params": report.counterexample_params,
            "message": ("counterexample found" if report.counterexample
                        else f"no counterexample in {report.trials} trials"),
        }
        outcome = "counterexample" if report.counterexample else "none"
        record = ResultRecord("probe", {"which": which, **params}, outcome,
                              payload, seed=seed)
    else:
        if args.seed is not None:
            raise PreconditionError("probe 5.2 draws nothing at random; it takes no --seed")
        report = probe_value_sweep(params["k"], params["p"],
                                   window=params.get("window"),
                                   guard_n=args.guard_n)
        payload = {
            "k": report.k, "p": report.p, "rows": [row._asdict() for row in report.rows],
            "boundary_consistent": report.boundary_consistent,
            "matches_four_block_values": report.matches_four_block_values,
            "message": ("all rows consistent" if report.consistent
                        else "inconsistent row found"),
        }
        outcome = "none" if report.consistent else "counterexample"
        record = ResultRecord("probe", {"which": which, **params}, outcome, payload)
    emit(record, args, started)
    return 0


def cmd_color(args, started: float) -> int:
    from .codec import to_graph6
    from .packing import equitable_coloring, equitable_coloring_exact

    params = args.params
    if params.get("exact", 0) not in (0, 1):
        raise PreconditionError(f"exact must be 0 or 1, got {params['exact']!r}")
    g = read_graph(args)
    classes = params["classes"]
    parameters = {"classes": classes, "graph6": to_graph6(g)}
    if params.get("exact"):
        parameters["exact"] = 1
        result = equitable_coloring_exact(g, classes, guard_n=args.guard_n)
        if result.coloring is not None:
            record = ResultRecord("color", parameters, "witness",
                                  coloring_payload(result.coloring))
        elif result.certificate is not None:
            a, b = result.certificate
            record = ResultRecord("color", parameters, "certificate", {
                "biclique": [vertex_set_payload(a), vertex_set_payload(b)],
                "r": classes,
            })
        else:
            record = ResultRecord("color", parameters, "none", {})
    else:
        coloring = equitable_coloring(g, classes)
        record = ResultRecord("color", parameters, "witness",
                              coloring_payload(coloring))
    emit(record, args, started)
    return 0


class Command(NamedTuple):
    """One subcommand: its handler, the flags it reads besides --timing,
    and the key=value keys it requires (integers) and may take. Its flags
    are the only source of its settings. main checks those keys before the handler runs and hands them over as
    args.params. required None leaves the tokens to the handler, for a
    command whose keys depend on its leading pattern, family or probe."""

    handler: Callable[[argparse.Namespace, float], int]
    flags: tuple[str, ...]
    required: tuple[str, ...] | None = None
    optional: tuple[str, ...] = ()


def _count(raw: str) -> int:
    """The argparse type of --guard-n and --budget: an integer, 0 or more."""
    if not re.fullmatch(r"\d+", raw):
        raise argparse.ArgumentTypeError(f"must be an integer, 0 or more, got {raw!r}")
    return int(raw)


FLAGS = {
    "--input": {"help": "graph file (graph6 or edge list), - for stdin"},
    "--output": {"help": "also write the built graph6 to this path"},
    "--record": {"help": "result-record file to re-verify, - for stdin"},
    "--format": {"choices": FORMATS, "default": "json"},
    "--seed": {"type": int},
    "--verify": {"action": "store_true",
                 "help": "re-check constructions via exact packing search"},
    "--guard-n": {"type": _count},
    "--budget": {"type": _count},
    "--timing": {"action": "store_true",
                 "help": "fill timestamp/runtime (breaks byte determinism)"},
}

COMMANDS = {
    "formula": Command(cmd_formula, ()),
    "table": Command(cmd_table, ("--format", "--verify", "--guard-n")),
    "construct": Command(cmd_construct, ("--output", "--format", "--verify", "--guard-n")),
    "resolve": Command(cmd_resolve, ("--input", "--budget", "--guard-n"), ("p",)),
    "pack": Command(cmd_pack, ("--input", "--guard-n"), ("k", "p"), ("mode",)),
    "verify": Command(cmd_verify, ("--record",), ()),
    "oracle": Command(cmd_oracle, ("--guard-n",)),
    "probe": Command(cmd_probe, ("--seed", "--guard-n")),
    "color": Command(cmd_color, ("--input", "--guard-n"), ("classes",), ("exact",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turanpack",
        description="Extremal values, constructions and searches for "
                    "disjoint-clique patterns.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name)
        for flag in ("--timing", *command.flags):
            cmd.add_argument(flag, **FLAGS[flag])
        cmd.add_argument("tokens", nargs="*")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    started = time.monotonic()
    try:
        if command.required is not None:
            args.params = parse_kv(args.tokens)
            check_params(args.command, args.params, command.required, command.optional,
                         ints=command.required)
        return command.handler(args, started)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return 3
    except SoundnessAlarm as exc:
        print(f"soundness alarm: {exc}", file=sys.stderr)
        return 4
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
