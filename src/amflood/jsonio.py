"""Byte-stable JSON serialization: sorted keys, fixed separators, one trailing
newline. Identical inputs always produce identical bytes. Every caller passes
a fresh tree, so json's cycle check is off: a self-containing one ends in
RecursionError."""

from __future__ import annotations

import json


def dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"
