"""Round-asynchronous amnesiac flooding.

Computation still proceeds in global rounds, but an adversary decides, per
in-flight message, whether it arrives this round or waits. A message may wait
at most ``hold_cap`` rounds (eventual delivery); arrivals merged at a node in
one round count as a single receipt event, and the node answers everyone who
did not just reach it. For schedulers that are pure functions of the
configuration, an exact configuration recurrence certifies non-termination.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import DisconnectedGraphError, Graph, is_connected
from .sync_engine import InternalInvariantError, Trace, _acyclic, _forward

Message = tuple[int, int, int]  # (sender, receiver, rounds already held)
AsyncConfiguration = frozenset[Message]

OUTCOME_TERMINATED = "terminated"
OUTCOME_CYCLE = "cycle"
OUTCOME_EXHAUSTED = "exhausted"


class UnfairScheduleError(ValueError):
    """The adversary tried to hold a message past the fairness cap."""


@dataclass(frozen=True)
class AdversaryDecision:
    """Arcs (sender, receiver) to hold this round; everything else arrives."""

    hold: frozenset[tuple[int, int]] = frozenset()


class Adversary:
    """Per-round delivery scheduler.

    decide() sees the round-start configuration alone. ``deterministic``
    declares it to be a pure function of that configuration; only then can a
    repeated configuration certify non-termination. ``bind`` is called once
    at the start of each run.
    """

    deterministic = False

    def bind(self, g: Graph) -> None:
        pass

    def decide(self, config: AsyncConfiguration) -> AdversaryDecision:
        raise NotImplementedError


class ZeroDelayAdversary(Adversary):
    """Delivers everything immediately, reducing the run to the synchronous one."""

    deterministic = True

    def decide(self, config):
        return AdversaryDecision()


class HoldSecondSenderAdversary(Adversary):
    """On a triangle, whenever exactly two messages converge on one node, the
    lower-id sender gets through and the other message waits one round. That
    keeps a two-node exchange alive forever, so flooding never drains. On any
    other graph it makes no holds at all."""

    deterministic = True
    _active = False

    def bind(self, g: Graph) -> None:
        self._active = g.n == 3 and g.m == 3

    def decide(self, config):
        if not self._active or len(config) != 2:
            return AdversaryDecision()
        (u1, v1, _a1), (u2, v2, a2) = sorted(config)
        if v1 == v2 and u1 != u2 and a2 == 0:
            return AdversaryDecision(hold=frozenset(((u2, v2),)))
        return AdversaryDecision()


# The adversaries the CLI offers as ``--mode async:NAME``.
ADVERSARIES = {"zero": ZeroDelayAdversary, "fig6": HoldSecondSenderAdversary}


@dataclass(frozen=True)
class AsyncRound:
    """One executed round: the round-start pool and how it was resolved."""

    pool: AsyncConfiguration
    delivered: AsyncConfiguration
    held: AsyncConfiguration
    receipts: frozenset[int]

    def to_json_obj(self) -> dict:
        return {
            "pool": [list(msg) for msg in sorted(self.pool)],
            "delivered": [list(msg) for msg in sorted(self.delivered)],
            "held": [list(msg) for msg in sorted(self.held)],
            "receipts": sorted(self.receipts),
        }


@dataclass(frozen=True)
class AsyncVerdict:
    """Outcome of a round-asynchronous run plus its full per-round record."""

    n: int
    source: int
    outcome: str
    termination_round: int | None
    first_seen: int | None
    period: int | None
    rounds: tuple[AsyncRound, ...]
    round_sets: tuple[frozenset[int], ...]

    @_acyclic
    def to_json_obj(self) -> dict:
        return {
            "source": self.source,
            "verdict": {
                "outcome": self.outcome,
                "termination_round": self.termination_round,
                "first_seen": self.first_seen,
                "period": self.period,
            },
            "rounds": [r.to_json_obj() for r in self.rounds],
            "round_sets": [sorted(rs) for rs in self.round_sets],
        }

    def to_sync_trace(self) -> Trace:
        """Reinterpret a hold-free terminated run as a synchronous trace."""
        if self.outcome != OUTCOME_TERMINATED:
            raise ValueError(f"run did not terminate (outcome={self.outcome})")
        if any(rec.held for rec in self.rounds):
            raise ValueError("run used holds; it has no synchronous equivalent")
        rounds = tuple(frozenset((u, v) for u, v, _ in rec.delivered)
                       for rec in self.rounds)
        return Trace(self.n, self.source, rounds, self.round_sets,
                     self.termination_round)


def _freeze(pending: dict[tuple[int, int], int]) -> AsyncConfiguration:
    return frozenset((u, v, age) for (u, v), age in pending.items())


def _execute_round(g: Graph, pending: dict[tuple[int, int], int],
                   pool: AsyncConfiguration, decision: AdversaryDecision,
                   hold_cap: int) -> tuple[dict[tuple[int, int], int], AsyncRound]:
    """Resolve one round; ``pool`` is ``_freeze(pending)``."""
    hold = decision.hold
    for arc in hold:
        if arc not in pending:
            raise UnfairScheduleError(f"adversary held {arc} which is not in flight")
        if pending[arc] >= hold_cap:
            raise UnfairScheduleError(
                f"message on {arc} held past the {hold_cap}-round cap")
    if hold:
        delivered = frozenset(m for m in pool if (m[0], m[1]) not in hold)
        held = frozenset(m for m in pool if (m[0], m[1]) in hold)
    else:
        delivered, held = pool, frozenset()
    receipts, sends = _forward(g, ((u, v) for u, v, _age in delivered))
    nxt = {arc: pending[arc] + 1 for arc in hold}
    for arc in sends:
        # a fresh send on an arc that already carries a held copy collapses
        # into it; the token is a single indistinguishable M
        nxt.setdefault(arc, 0)
    return nxt, AsyncRound(pool=pool, delivered=delivered, held=held, receipts=receipts)


def run_async(g: Graph, source: int, adversary: Adversary,
              max_rounds: int = 64, hold_cap: int = 1) -> AsyncVerdict:
    """Drive flooding with ``adversary`` choosing per-message delays.

    Terminates when nothing is in flight. For a scheduler declared
    deterministic, an exact repeat of a round-start configuration yields a
    cycle verdict, certified by replaying one full period and requiring the
    recorded segment to repeat exactly (the replayed rounds stay in the
    record). Otherwise the round budget runs out and the verdict is
    exhaustion.
    """
    g.check_node(source)
    if not is_connected(g):
        raise DisconnectedGraphError("flooding needs a connected graph")
    if hold_cap < 1:
        raise ValueError(f"hold_cap must be >= 1, got {hold_cap}")
    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")

    adversary.bind(g)
    pending = {(source, w): 0 for w in g.adj[source]}
    rounds: list[AsyncRound] = []

    def verdict(outcome: str, termination_round: int | None = None,
                first_seen: int | None = None, period: int | None = None):
        round_sets = (frozenset((source,)), *(rec.receipts for rec in rounds))
        return AsyncVerdict(g.n, source, outcome, termination_round, first_seen,
                            period, tuple(rounds), round_sets)

    seen: dict[AsyncConfiguration, int] = {}
    r = 0
    while pending:
        r += 1
        if r > max_rounds:
            return verdict(OUTCOME_EXHAUSTED)
        config = _freeze(pending)
        if adversary.deterministic:
            if config in seen:
                break
            seen[config] = r
        pending, record = _execute_round(g, pending, config,
                                         adversary.decide(config), hold_cap)
        rounds.append(record)
    if not pending:
        return verdict(OUTCOME_TERMINATED, termination_round=r)

    first = seen[config]
    period = r - first
    # Certify: one more period must reproduce the recorded segment exactly.
    for k in range(period):
        config = _freeze(pending)
        if config != rounds[first - 1 + k].pool:
            raise InternalInvariantError("configuration cycle failed to replay")
        pending, record = _execute_round(g, pending, config,
                                         adversary.decide(config), hold_cap)
        rounds.append(record)
    if _freeze(pending) != rounds[first - 1].pool:
        raise InternalInvariantError("configuration cycle failed to close")
    return verdict(OUTCOME_CYCLE, first_seen=first, period=period)
