"""Independent checks of amflood's emitted JSON.

Nothing here imports amflood. The oracle rests on the double-cover view of
amnesiac flooding (Turau, *Analysis of amnesiac flooding*, 2020): the set of
nodes receiving in round t is BFS layer t of the bipartite double cover
G x K2 from (source, 0), so the termination round j is the eccentricity of
(source, 0) there. The forward rule is checked separately against every
emitted round: round t+1 sends along (v, w) for v in R_t and w a neighbour of
v exactly when (w, v) was not sent in round t.

Every check raises CheckFailed naming the first round and node that differ.
"""

from __future__ import annotations

import json
from itertools import combinations

# Connected labeled graphs (OEIS A001187) and connected bipartite labeled
# graphs (OEIS A001832), indexed by node count.
CONNECTED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
CONNECTED_BIPARTITE = {1: 1, 2: 1, 3: 3, 4: 19, 5: 195, 6: 3031, 7: 67263}


class CheckFailed(AssertionError):
    """An emitted output disagrees with the oracle."""


def edge_list(text: str) -> list[tuple[int, int]]:
    """The "u v" lines of a numeric edge list."""
    return [(int(u), int(v)) for u, v in (line.split() for line in text.splitlines())]


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def double_cover_layers(adj: list[list[int]], source: int) -> list[list[int]]:
    """BFS layers of G x K2 from (source, 0), as sorted node lists.

    Layer t holds the nodes v whose shortest walk from source with the parity
    of t has length exactly t; the last layer's index is the termination round.
    """
    seen = ([False] * len(adj), [False] * len(adj))
    seen[0][source] = True
    layers = [[source]]
    frontier = [source]
    parity = 0
    while frontier:
        parity ^= 1
        mark = seen[parity]
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if not mark[w]:
                    mark[w] = True
                    nxt.append(w)
        if nxt:
            nxt.sort()
            layers.append(nxt)
        frontier = nxt
    return layers


def check_stable(text: str, what: str) -> object:
    """The text is its own sorted-key, compact re-serialization; returns the
    parsed object."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise CheckFailed(f"{what}: not JSON ({exc})") from None
    if json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n" != text:
        raise CheckFailed(f"{what}: bytes differ from the canonical re-serialization")
    return obj


def _first_difference(got: list, want: list) -> str:
    for k, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"first difference at position {k}: {a} != {b}"
    return f"lengths {len(got)} and {len(want)}"


def check_sync_trace(obj: dict, adj: list[list[int]], source: int) -> None:
    """Every round-set against the double cover, every round against the
    forward rule."""
    if sorted(obj) != ["round_sets", "rounds", "source", "termination_round"]:
        raise CheckFailed(f"sync trace keys {sorted(obj)}")
    if obj["source"] != source:
        raise CheckFailed(f"source {obj['source']} != {source}")
    want = double_cover_layers(adj, source)
    got = obj["round_sets"]
    for t in range(max(len(got), len(want))):
        a = got[t] if t < len(got) else None
        b = want[t] if t < len(want) else None
        if a != b:
            raise CheckFailed(f"round-set {t} differs from double-cover layer {t}: "
                              + _first_difference(a or [], b or []))
    if obj["termination_round"] != len(want) - 1:
        raise CheckFailed(f"termination_round {obj['termination_round']} != "
                          f"double-cover eccentricity {len(want) - 1}")
    rounds = obj["rounds"]
    if len(rounds) != len(want) - 1:
        raise CheckFailed(f"{len(rounds)} rounds for termination round {len(want) - 1}")
    prev: set[tuple[int, int]] = set()
    for t, receivers in enumerate(want):
        expect = sorted((v, w) for v in receivers for w in adj[v]
                        if (w, v) not in prev)
        if t == len(rounds):
            if expect:
                raise CheckFailed(f"forward rule still sends {expect[0]} after the "
                                  f"last emitted round {t}")
            break
        sends = [tuple(arc) for arc in rounds[t]]
        if sends != expect:
            raise CheckFailed(f"round {t + 1} sends break the forward rule: "
                              + _first_difference(sends, expect))
        heads = sorted({w for _, w in sends})
        if t + 1 < len(want) and heads != want[t + 1]:
            raise CheckFailed(f"heads of round {t + 1} are not round-set {t + 1}")
        prev = set(sends)


def check_async_zero_delay(obj: dict, sync_obj: dict) -> None:
    """A zero-delay run terminates, holds nothing, and delivers exactly the
    synchronous rounds."""
    if sorted(obj) != ["round_sets", "rounds", "source", "verdict"]:
        raise CheckFailed(f"async verdict keys {sorted(obj)}")
    verdict = obj["verdict"]
    want = {"outcome": "terminated", "termination_round": sync_obj["termination_round"],
            "first_seen": None, "period": None}
    if verdict != want:
        raise CheckFailed(f"async verdict {verdict} != {want}")
    if obj["source"] != sync_obj["source"] or obj["round_sets"] != sync_obj["round_sets"]:
        raise CheckFailed("async round-sets differ from the sync run")
    if len(obj["rounds"]) != len(sync_obj["rounds"]):
        raise CheckFailed(f"{len(obj['rounds'])} async rounds, "
                          f"{len(sync_obj['rounds'])} sync rounds")
    for t, (rec, sends) in enumerate(zip(obj["rounds"], sync_obj["rounds"])):
        if rec["held"]:
            raise CheckFailed(f"round {t + 1} holds {rec['held'][0]}")
        arcs = [[u, v] for u, v, _age in rec["delivered"]]
        if arcs != sends or rec["pool"] != rec["delivered"]:
            raise CheckFailed(f"round {t + 1} delivered arcs differ from the sync "
                              "round: " + _first_difference(arcs, sends))
        if any(age != 0 for _u, _v, age in rec["delivered"]):
            raise CheckFailed(f"round {t + 1} delivers an aged message")
        if rec["receipts"] != sync_obj["round_sets"][t + 1]:
            raise CheckFailed(f"round {t + 1} receipts differ from round-set {t + 1}")


def exhaustive_summary(n_max: int) -> dict:
    """Graph and run counts, max j and the j-e histogram over every connected
    labeled graph on 2..n_max nodes from every source, from adjacency bitmasks."""
    graphs = runs = max_j = 0
    hist: dict[int, int] = {}
    per_n: dict[int, tuple[int, int]] = {}
    for n in range(2, n_max + 1):
        pairs = list(combinations(range(n), 2))
        full = (1 << n) - 1
        n_graphs = n_bip = 0
        for mask in range(1 << len(pairs)):
            adj = [0] * n
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            # nbr[m]: union of the neighbourhoods of the node set m
            nbr = [0] * (1 << n)
            for m in range(1, 1 << n):
                low = m & -m
                nbr[m] = nbr[m ^ low] | adj[low.bit_length() - 1]
            seen = frontier = 1
            while frontier:
                frontier = nbr[frontier] & ~seen
                seen |= frontier
            if seen != full:
                continue
            n_graphs += 1
            bipartite = True
            for s in range(n):
                start = 1 << s
                cover = [start, 0]
                reached = frontier = start
                parity = t = e = 0
                while True:
                    parity ^= 1
                    frontier = nbr[frontier] & ~cover[parity]
                    if not frontier:
                        break
                    cover[parity] |= frontier
                    t += 1
                    if frontier & ~reached:
                        e = t
                        reached |= frontier
                if cover[0] & cover[1]:
                    bipartite = False
                hist[t - e] = hist.get(t - e, 0) + 1
                max_j = max(max_j, t)
            n_bip += bipartite
            runs += n
        graphs += n_graphs
        per_n[n] = (n_graphs, n_bip)
    return {"graphs": graphs, "runs": runs, "max_j": max_j,
            "histogram": dict(sorted(hist.items())), "per_n": per_n}


def check_sweep_summary(obj: dict, n_max: int, oracle: dict) -> None:
    """Counts against OEIS, histogram and max j against the oracle, and no
    violations. ``oracle`` is exhaustive_summary(n_max)."""
    for n, (n_graphs, n_bip) in oracle["per_n"].items():
        if (n_graphs, n_bip) != (CONNECTED[n], CONNECTED_BIPARTITE[n]):
            raise CheckFailed(f"oracle enumerates {n_graphs} graphs, {n_bip} bipartite "
                              f"at n={n}; OEIS says {CONNECTED[n]}, "
                              f"{CONNECTED_BIPARTITE[n]}")
    sizes = range(2, n_max + 1)
    want = {
        "n_max": n_max,
        "graphs": sum(CONNECTED[n] for n in sizes),
        "runs": sum(n * CONNECTED[n] for n in sizes),
        "max_j": oracle["max_j"],
        "j_minus_e_histogram": {str(k): v for k, v in oracle["histogram"].items()},
        "violations": [],
    }
    if sorted(obj) != sorted(want):
        raise CheckFailed(f"sweep summary keys {sorted(obj)}")
    bipartite_runs = sum(n * CONNECTED_BIPARTITE[n] for n in sizes)
    if obj["j_minus_e_histogram"].get("0") != bipartite_runs:
        raise CheckFailed(f"histogram bucket 0 is {obj['j_minus_e_histogram'].get('0')}, "
                          f"expected {bipartite_runs} bipartite runs")
    for key in ("n_max", "graphs", "runs", "max_j", "j_minus_e_histogram", "violations"):
        if obj[key] != want[key]:
            raise CheckFailed(f"sweep {key}: {str(obj[key])[:200]} != {str(want[key])[:200]}")
