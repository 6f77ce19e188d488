"""Every check of a printed outcome, and no search.

The searches call these checks before they return, and `verify` calls the
same ones on a decoded record (`verify_record`). Each re-checks an outcome
from the host alone, by independence and clique tests and counting, so this
module imports only `errors`, `graphs` and `codec`, plus `constructions` to
rebuild a construct record.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Sequence

from .errors import PreconditionError, SoundnessAlarm, is_int
from .graphs import Graph, VertexSet, components, cross_edge_count


class VerificationReport(NamedTuple):
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    def require(self, what: str) -> None:
        """Raise SoundnessAlarm naming what failed and why, unless ok."""
        if not self.ok:
            raise SoundnessAlarm(f"{what}: {self.violation}")


class PackingWitness(NamedTuple):
    """k pairwise disjoint vertex sets, independent or cliques per mode."""

    sets: tuple[VertexSet, ...]

    def masks(self) -> tuple[int, ...]:
        return tuple(s.mask for s in self.sets)


class EquitableColoring(NamedTuple):
    """Proper coloring whose class sizes differ by at most one."""

    classes: tuple[VertexSet, ...]


class StructureCertificate(NamedTuple):
    """The rigid outcome: the host is a union of 7-cliques plus isolated
    vertices, with the bookkeeping facts re-checked at construction."""

    cliques: tuple[VertexSet, ...]
    isolated: VertexSet
    s: int
    edges: int
    max_degree: int


def verify_witness(g: Graph, witness: PackingWitness, k: int, p: int,
                   mode: str = "independent") -> VerificationReport:
    """Re-check a witness from scratch; reports the first violation."""
    if mode not in ("independent", "clique"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if len(witness.sets) != k:
        return VerificationReport(False, f"expected {k} sets, got {len(witness.sets)}")
    seen = 0
    for i, vs in enumerate(witness.sets):
        if vs.n != g.n:
            return VerificationReport(False, f"set {i} bound to n={vs.n}, graph has n={g.n}")
        if vs.mask & ~g.full_mask():
            return VerificationReport(False, f"set {i} has vertices outside the graph")
        if len(vs) != p:
            return VerificationReport(False, f"set {i} has {len(vs)} vertices, expected {p}")
        if vs.mask & seen:
            return VerificationReport(False, f"set {i} overlaps an earlier set")
        seen |= vs.mask
        if mode == "independent" and not g.is_independent(vs.mask):
            return VerificationReport(False, f"set {i} is not independent")
        if mode == "clique" and not g.is_clique(vs.mask):
            return VerificationReport(False, f"set {i} is not a clique")
    return VerificationReport(True)


def verify_equitable_coloring(g: Graph, coloring: EquitableColoring) -> VerificationReport:
    union = 0
    sizes = []
    for i, vs in enumerate(coloring.classes):
        if vs.n != g.n:
            return VerificationReport(False, f"class {i} bound to a different graph")
        if vs.mask & union:
            return VerificationReport(False, f"class {i} overlaps an earlier class")
        union |= vs.mask
        if not g.is_independent(vs.mask):
            return VerificationReport(False, f"class {i} is not independent")
        sizes.append(len(vs))
    if union != g.full_mask():
        return VerificationReport(False, "classes do not cover every vertex")
    if sizes and max(sizes) - min(sizes) > 1:
        return VerificationReport(False, "class sizes differ by more than one")
    return VerificationReport(True)


def biclique_violation(g: Graph, r: int) -> str | None:
    """Why a K_(r,r) certificate cannot stand for g at r classes, or None:
    it needs odd r <= 4, max degree <= r and a proper r-coloring, which by
    Brooks' theorem exists iff no component is K_(r+1)."""
    if r % 2 == 0 or r > 4:
        return f"r={r} is not odd and at most 4"
    if g.max_degree() > r:
        return f"max degree {g.max_degree()} > r={r}"
    if any(comp.bit_count() == r + 1 and g.is_clique(comp) for comp in components(g)):
        return f"a component is K_{r + 1}, so there is no proper {r}-coloring"
    return None


def verify_biclique(g: Graph, sides: Sequence[VertexSet], r: int) -> VerificationReport:
    """Check a K_(r,r) certificate that g has no equitable r-coloring:
    `biclique_violation` finds nothing against it, and the sides are two
    disjoint r-sets joined by all r * r cross edges."""
    violation = biclique_violation(g, r)
    if violation is not None:
        return VerificationReport(False, violation)
    if len(sides) != 2 or any(len(side) != r for side in sides):
        return VerificationReport(False, f"biclique is not two sides of {r} vertices")
    if sides[0].mask & sides[1].mask:
        return VerificationReport(False, "biclique sides overlap")
    if cross_edge_count(g, *sides) != r * r:
        return VerificationReport(False, f"biclique lacks some of its {r * r} cross edges")
    return VerificationReport(True)


def verify_certificate(g: Graph, cert: StructureCertificate, p: int) -> VerificationReport:
    """Re-check a structure certificate from scratch."""
    s = g.n - (4 * p - 1)
    if cert.s != s:
        return VerificationReport(False, f"certificate s={cert.s} but n-(4p-1)={s}")
    if s % 3 != 0 or len(cert.cliques) != s // 3:
        return VerificationReport(False, "clique count does not match s/3")
    union = 0
    for i, vs in enumerate(cert.cliques):
        if len(vs) != 7 or not g.is_clique(vs.mask):
            return VerificationReport(False, f"component {i} is not a 7-clique")
        if vs.mask & union:
            return VerificationReport(False, f"component {i} overlaps")
        union |= vs.mask
    if union & cert.isolated.mask or (union | cert.isolated.mask) != g.full_mask():
        return VerificationReport(False, "cliques plus isolated set do not partition")
    for v in cert.isolated:
        if g.adj[v]:
            return VerificationReport(False, f"vertex {v} is not isolated")
    if cert.edges != g.edge_count() or cert.edges != 7 * s:
        return VerificationReport(False, "edge count mismatch")
    if cert.max_degree != g.max_degree() or cert.max_degree > 6:
        return VerificationReport(False, "max degree mismatch")
    return VerificationReport(True)


# -- decoded records -------------------------------------------------------------


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


def verify_record(obj: Any) -> tuple[bool | None, str]:
    """Re-check one decoded record; a record whose shape differs from what
    its branch reads raises PreconditionError."""
    from .codec import parse_graph_text, to_graph6

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
        if k < 1 or p < 1:  # `pack` refuses these parameters
            raise PreconditionError("requires k >= 1 and p >= 1")
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
    if command == "color" and outcome in ("witness", "certificate"):
        g = parse_graph_text(param("graph6", "a string"))
        classes = param("classes", "an integer")
        if classes < 1:  # `color` refuses these parameters
            raise PreconditionError("need at least one class")
        if outcome == "witness":
            coloring = EquitableColoring(tuple(
                VertexSet.from_members(g.n, members)
                for members in recorded("classes", "a list of integer lists")))
            if len(coloring.classes) != classes:
                return False, (f"payload has {len(coloring.classes)} classes, "
                               f"parameters say {classes}")
            report = verify_equitable_coloring(g, coloring)
            return report.ok, report.violation or "coloring checks out"
        r = recorded("r", "an integer")
        if r != classes:
            return False, f"payload has r={r}, parameters say {classes} classes"
        sides = [VertexSet.from_members(g.n, members)
                 for members in recorded("biclique", "a list of integer lists")]
        report = verify_biclique(g, sides, r)
        return report.ok, report.violation or "certificate checks out"
    if command == "construct" and outcome == "value":
        from .constructions import build_family

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
