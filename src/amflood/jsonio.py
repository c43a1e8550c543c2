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
        writer = ArrayWriter()
        for text in texts:
            writer.add(text)
        return writer.close()


# Items an ArrayWriter joins into one chunk. A block bounds the item strings
# alive at once: the JSON of a trace on path:20000 peaked at 11.5x its text
# when it kept every round's string and round-set until one final join, and
# at 2.0x in blocks of 256 (tracemalloc).
_BLOCK = 256


class ArrayWriter:
    """Writes a JSON array from already-encoded texts handed over one at a
    time, joining each run of _BLOCK of them into one chunk as it goes, so no
    item's string outlives its block. close() returns the array as Encoded."""

    __slots__ = ("_chunks", "_block")

    def __init__(self):
        self._chunks, self._block = [], []

    def add(self, text: str) -> None:
        self._block.append(text)
        if len(self._block) == _BLOCK:
            self._chunks += (",", ",".join(self._block))
            self._block.clear()

    def close(self) -> Encoded:
        if self._block:
            self._chunks += (",", ",".join(self._block))
        self._chunks[:1] = ["["]  # replaces the first comma, or starts an empty array
        self._chunks.append("]")
        return Encoded(self._chunks)


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
