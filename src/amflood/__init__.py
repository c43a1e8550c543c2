"""Deterministic simulator and verification harness for amnesiac flooding on
finite graphs: a synchronous engine, a round-asynchronous engine with
adversarial scheduling, static graph oracles, trace audits, and exhaustive
small-graph sweeps."""

from . import analysis, async_engine, graph, jsonio, sync_engine

__version__ = "0.1.0"
