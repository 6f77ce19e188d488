"""graph6 interchange format, plus input autodetection for the CLI.

Encoding follows the standard byte layout: a size header (1 byte for
n <= 62, '~' + 3 bytes for n <= 258047, '~~' + 6 bytes above), then the
upper adjacency triangle in column-major order packed 6 bits per byte,
each offset by 63. Decoding is strict: bad header bytes, out-of-range
bytes, truncated or trailing data, and nonzero padding bits are errors.
"""

from __future__ import annotations

import binascii

from .errors import PreconditionError
from .graphs import Graph, from_edge_list_text

_HEADER = b">>graph6<<"
_MAX_N = 68719476735


def _encode_size(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= _MAX_N:
        parts = [(n >> shift) & 63 for shift in (30, 24, 18, 12, 6, 0)]
        return bytes([126, 126] + [part + 63 for part in parts])
    raise PreconditionError(f"graph too large for graph6 ({n} vertices)")


def _decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, number of header bytes consumed)."""
    if not data:
        raise PreconditionError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise PreconditionError("truncated graph6 size header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        return n, 4
    if len(data) < 8:
        raise PreconditionError("truncated graph6 size header")
    n = 0
    for byte in data[2:8]:
        n = (n << 6) | (byte - 63)
    return n, 8


# The body packs the bit stream six bits per byte, most significant bit
# first, which is base64 with the alphabet chr(63)..chr(126).
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_GRAPH6 = bytes(range(63, 127))
_TO_GRAPH6 = bytes.maketrans(_BASE64, _GRAPH6)
_FROM_GRAPH6 = bytes.maketrans(_GRAPH6, _BASE64)


def to_graph6(g: Graph) -> str:
    # Column col of the upper triangle lists rows 0..col-1; the binary form
    # of row col's lower bits lists the same entries from row col-1 down,
    # so the columns written last to first spell the stream backwards. The
    # sentinel bit col keeps leading zeros; [3:] drops it with the "0b".
    adj = g.adj
    backwards = "".join([bin(adj[col] & ((1 << col) - 1) | 1 << col)[3:]
                         for col in range(g.n - 1, 0, -1)])
    nbits = len(backwards)
    stream = backwards[::-1] + "0" * (-nbits % 24)
    packed = int(stream or "0", 2).to_bytes(len(stream) // 8, "big")
    body = binascii.b2a_base64(packed, newline=False)[:(nbits + 5) // 6]
    return (_encode_size(g.n) + body.translate(_TO_GRAPH6)).decode("ascii")


def from_graph6(data: bytes | str) -> Graph:
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise PreconditionError(
                f"malformed graph6 byte {ord(data[exc.start])}") from None
    data = data.strip()
    if data.startswith(_HEADER):
        data = data[len(_HEADER):]
    if data and (min(data) < 63 or max(data) > 126):
        bad = next(byte for byte in data if not 63 <= byte <= 126)
        raise PreconditionError(f"malformed graph6 byte {bad}")
    n, consumed = _decode_size(data)
    if n < 0 or n > _MAX_N:
        raise PreconditionError("malformed graph6 size header")
    body = data[consumed:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) < expected:
        raise PreconditionError("truncated graph6 body")
    if len(body) > expected:
        raise PreconditionError("trailing bytes after graph6 body")
    packed = binascii.a2b_base64(body.translate(_FROM_GRAPH6) + b"A" * (-len(body) % 4))
    stream = format(int.from_bytes(packed, "big"), f"0{8 * len(packed)}b")
    if "1" in stream[nbits:]:
        raise PreconditionError("nonzero padding bits in graph6 body")
    # Read backwards, column col is the binary form of row col's lower bits.
    backwards = stream[:nbits][::-1]
    adj = [0] * n
    end = nbits
    for col in range(1, n):
        lower = int(backwards[end - col:end], 2)
        end -= col
        if lower:
            adj[col] |= lower
            bit = 1 << col
            while lower:
                low = lower & -lower
                adj[low.bit_length() - 1] |= bit
                lower ^= low
    return Graph(n, adj)


def parse_graph_text(text: str) -> Graph:
    """Autodetect graph6 vs edge-list text.

    graph6 bytes are all >= '?' (63) and contain no whitespace; edge lists
    contain digits/spaces, which fall below that range. graph6 input holds
    one graph: a non-blank line after it is refused, not ignored.
    """
    stripped = text.strip()
    if not stripped:
        raise PreconditionError("empty graph input")
    first, *rest = stripped.splitlines()
    first = first.strip()
    if first.startswith(">>graph6<<") or (
            " " not in first and all(63 <= ord(ch) <= 126 for ch in first)):
        if any(line.strip() for line in rest):
            raise PreconditionError("graph6 input holds more than one line; "
                                    "give one graph per input")
        return from_graph6(first)
    return from_edge_list_text(text)
