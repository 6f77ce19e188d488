"""Stable JSON result records emitted by the command line tools.

One record per result, one JSON object per line, keys sorted. Timing
fields stay null unless explicitly requested so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import json
import time
from typing import TYPE_CHECKING, Any

from ._version import __version__

if TYPE_CHECKING:  # annotations only; importing them would load the search layers
    from .graphs import Graph, VertexSet
    from .packing import EquitableColoring, PackingWitness
    from .shifting import StructureCertificate

RECORD_VERSION = 1


class ResultRecord:
    """One result; outcome is "value", "witness", "certificate",
    "counterexample" or "none"."""

    def __init__(self, command: str, parameters: dict[str, Any], outcome: str,
                 payload: dict[str, Any] | None = None, seed: int | None = None,
                 timestamp: str | None = None, runtime_seconds: float | None = None):
        self.command = command
        self.parameters = parameters
        self.outcome = outcome
        self.payload = {} if payload is None else payload
        self.seed = seed
        self.timestamp = timestamp
        self.runtime_seconds = runtime_seconds

    def to_dict(self) -> dict[str, Any]:
        return {
            "record_version": RECORD_VERSION,
            "tool_version": __version__,
            "command": self.command,
            "parameters": self.parameters,
            "outcome": self.outcome,
            "payload": self.payload,
            "provenance": {
                "seed": self.seed,
                "timestamp": self.timestamp,
                "runtime_seconds": self.runtime_seconds,
            },
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def stamp(record: ResultRecord, started: float) -> ResultRecord:
    """Fill the timing fields in place (opt-in via --timing)."""
    record.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    record.runtime_seconds = round(time.monotonic() - started, 6)
    return record


def vertex_set_payload(vs: VertexSet) -> list[int]:
    return list(vs.members())


def witness_payload(witness: PackingWitness) -> dict[str, Any]:
    return {"sets": [vertex_set_payload(vs) for vs in witness.sets]}


def certificate_payload(cert: StructureCertificate) -> dict[str, Any]:
    return {
        "cliques": [vertex_set_payload(vs) for vs in cert.cliques],
        "isolated": vertex_set_payload(cert.isolated),
        "s": cert.s,
        "edges": cert.edges,
        "max_degree": cert.max_degree,
    }


def coloring_payload(coloring: EquitableColoring) -> dict[str, Any]:
    return {"classes": [vertex_set_payload(vs) for vs in coloring.classes]}


def graph_payload(g: Graph) -> dict[str, Any]:
    from .codec import to_graph6

    return {"graph6": to_graph6(g), "n": g.n, "edges": g.edge_count()}
