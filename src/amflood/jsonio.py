"""Byte-stable JSON serialization: sorted keys, fixed separators, one trailing
newline. Identical inputs always produce identical bytes. Every caller passes
a fresh tree, so json's cycle check is off: a self-containing one ends in
RecursionError. A builder may hand over a large value already as text."""

from __future__ import annotations

import json

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


class Encoded:
    """A value already written as stable JSON text, held as a list of chunks."""

    __slots__ = ("chunks",)

    def __init__(self, chunks: list[str]):
        self.chunks = chunks

    @classmethod
    def array(cls, texts) -> Encoded:
        """The JSON array of the already-encoded ``texts``."""
        chunks = []
        for text in texts:
            chunks += (",", text)
        chunks[:1] = ["["]  # replaces the first comma, or starts an empty array
        chunks.append("]")
        return cls(chunks)


def dumps_stable(obj) -> str:
    """Walks dicts with str keys, copying each Encoded value as it is; the
    encoder takes every other value whole and refuses an Encoded inside it
    with TypeError. So an Encoded is the whole document or a dict value."""
    out: list[str] = []
    _write(obj, out)
    out.append("\n")
    return "".join(out)


def _write(obj, out: list[str]) -> None:
    if isinstance(obj, Encoded):
        out += obj.chunks
    elif isinstance(obj, dict) and all(type(k) is str for k in obj):
        sep = "{"
        for k in sorted(obj):
            out += (sep, _encode(k), ":")
            _write(obj[k], out)
            sep = ","
        out.append("}" if sep == "," else "{}")
    else:
        out.append(_encode(obj))
