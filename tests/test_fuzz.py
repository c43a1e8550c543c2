"""Fuzz the input boundary: edge-list text and CLI argv.

Whatever arrives, parsing ends in a Graph or a GraphError, and the CLI ends
with an exit code in 0..4 and no traceback; exit 2 prints exactly one line
on stderr. Graphs stay small and sweeps stop at n=4 with one worker, so no
example starts a long run.
"""

from __future__ import annotations

import contextlib
import io
import random
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amflood import cli
from amflood.graph import Graph, GraphError, parse_edge_list, render_edge_list

_DECIMAL = st.sampled_from([*map(str, range(30)), "007", "٣"])
_TOKENS = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["a", "b", "c", "node", "-1", "1.5", "0x1", "1e3", "007",
                     "#", "#x", "a#b", "²", "٣", "é"]),
    st.text(alphabet="ab01 \t#-", max_size=4),
)
_PAD = st.sampled_from(["", " ", "\t"])
_GAP = st.sampled_from([" ", "\t", " \t "])
_SKIPPED = st.sampled_from(["", " ", "\t", "#", "# comment", "  # 0 1", "#1 1 1", "\t#a b"])
# Every line boundary str.splitlines knows is whitespace to str.split.
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x1c", "\u2028"])


@st.composite
def edge_texts(draw) -> str:
    """Lines of two endpoints or skipped lines, and in half the texts also
    self-loops and lines of other lengths, each ended by a drawn line break
    but the last sometimes. Half the texts draw decimal ids only, so both id
    modes are parsed."""
    tok = draw(st.sampled_from([_DECIMAL, _TOKENS]))
    pair = st.builds("{}{}{}{}{}".format, _PAD, tok, _GAP, tok, _PAD)
    line = st.one_of(pair, _SKIPPED)
    if draw(st.booleans()):
        line = st.one_of(pair, _SKIPPED, tok.map("{0} {0}".format),
                         st.lists(tok, max_size=4).map(" ".join))
    lines = draw(st.lists(line, max_size=12))
    breaks = draw(st.lists(_BREAKS, min_size=len(lines), max_size=len(lines)))
    if breaks and draw(st.booleans()):
        breaks[-1] = ""
    return "".join(map(add, lines, breaks))


EDGE_TEXT = edge_texts()


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_exit(code, err) -> None:
    assert code in range(5), (code, err)
    if code == cli.EXIT_INPUT_ERROR:
        assert len(err.splitlines()) == 1, err


@settings(max_examples=300, deadline=None)
@given(EDGE_TEXT)
def test_edge_list_text_parses_to_a_graph_or_a_graph_error(text):
    try:
        g = parse_edge_list(text)
    except GraphError:
        return
    assert isinstance(g, Graph)
    again = parse_edge_list(render_edge_list(g))
    assert (again.n, again.edges) == (g.n, g.edges)


def _reference_parse(text: str) -> Graph:
    """The line-by-line parser parse_edge_list replaced, kept as its
    specification: one row per line, then one id pair per row."""
    rows: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if len(toks) != 2:
            raise GraphError(f"line {lineno}: expected two endpoints, got {len(toks)}")
        rows.append((lineno, toks[0], toks[1]))
    if not rows:
        raise GraphError("empty edge list")
    numeric = all(a.isdecimal() and b.isdecimal() for _, a, b in rows)
    if numeric:
        ids = [(ln, int(a), int(b)) for ln, a, b in rows]
        n = max(max(u, v) for _, u, v in ids) + 1
        labels = None
    else:
        first_seen: dict[str, int] = {}
        ids = [(ln, first_seen.setdefault(a, len(first_seen)),
                first_seen.setdefault(b, len(first_seen))) for ln, a, b in rows]
        n = len(first_seen)
        labels = tuple(first_seen)
    edges = set()
    for ln, u, v in ids:
        if u == v:
            raise GraphError(f"line {ln}: self-loop")
        edges.add((u, v) if u < v else (v, u))
    return Graph(n=n, edges=tuple(sorted(edges)), labels=labels)


def _parsed(parse, text):
    try:
        g = parse(text)
    except GraphError as exc:
        return str(exc)
    return g.n, g.edges, g.labels, g.adj


@settings(max_examples=300, deadline=None)
@given(EDGE_TEXT)
def test_parse_matches_the_line_by_line_reference(text):
    assert _parsed(parse_edge_list, text) == _parsed(_reference_parse, text)


@pytest.mark.parametrize("seed", [1, 2])
def test_parse_matches_the_reference_on_a_large_shuffled_list(seed):
    # Duplicates in both endpoint orders, ids up to 10^5 (keys past 2^30),
    # a comment header and CRLF line ends.
    rng = random.Random(seed)
    pairs = [(rng.randrange(10**5), rng.randrange(10**5)) for _ in range(3000)]
    pairs = [(u, v) for u, v in pairs if u != v]
    pairs += [(v, u) for u, v in pairs[:500]]
    rng.shuffle(pairs)
    text = "# shuffled\r\n" + "".join(f"{u}\t{v}\r\n" for u, v in pairs)
    for t in (text, text.replace("\t", "\tv")):  # numeric ids, then labels
        assert _parsed(parse_edge_list, t) == _parsed(_reference_parse, t)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {"@dir": str(root), "@missing": str(root / "no" / "such.edges"),
             "@out": str(root / "out.json"), "@text": str(root / "fuzz.edges")}
    for name, text in (("@tri", "a b\nb c\nc a\n"), ("@split", "0 1\n2 3\n"),
                       ("@bad", "0 1 2\n"), ("@empty", "# nothing\n")):
        path = root / f"{name[1:]}.edges"
        path.write_text(text)
        paths[name] = str(path)
    return paths


@settings(max_examples=200, deadline=None)
@given(text=EDGE_TEXT, source=st.sampled_from(["0", "1", "a", "x"]))
def test_cli_reads_any_edge_list(files, text, source):
    with open(files["@text"], "w") as fh:
        fh.write(text)
    code, _, err = _cli(["run", "--graph", files["@text"], "--source", source])
    _check_exit(code, err)


# (valid values, invalid values) per argument; GRAPHS per graph source.
GRAPHS = {
    "--named": (["petersen", "cycle:3", "cycle:7", "path:5", "hypercube:3", "complete:5"],
                ["cycle:2", "cycle:x", "torus:3", "petersen:2", "hypercube:0", "",
                 "complete:4473", "cycle:1000001", "hypercube:40"]),
    "--random": (["8,0.5,1", "12,0.2,7", "5,0,1", "6,1,3", "1,0.5,1"],
                 ["5,1.5,1", "0,0.5,1", "-3,0.5,1", "4473,0.5,1", "5,x,1", "5,0.5",
                  "5,0.5,y"]),
    "--graph": (["@tri"], ["@split", "@bad", "@empty", "@missing", "@dir"]),
}
ARGS = {
    "command": (["run", "run", "analyze", "sweep"], ["bogus"]),
    "graphs": ([1], [0, 2]),
    "--source": (["0", "1", "a"], [None, "4", "11", "-1", "x"]),
    "--mode": ([None, "sync", "async:zero", "async:fig6", "async:fig6,2"],
               ["async:zero,0", "async:nope", "async:", "sync2", "async:fig6,x"]),
    "--max-rounds": ([None, "1", "3", "100"], ["0", "-1", "z"]),
    "--n-max": (["2", "3", "4"], [None, "0", "1", "8", "-1", "x"]),
    "--jobs": ([None, "1"], ["0", "-2", "y"]),
    "--out": ([None, "@out"], ["@dir", "@missing"]),
    "extra": ([None], ["--bogus", "extra", "--help"]),
}


@st.composite
def argvs(draw) -> list[str]:
    """An argv whose every piece is valid nine times in ten, so that most
    examples get past argument checking and run."""
    rnd = draw(st.randoms(use_true_random=False))

    def pick(valid, invalid):
        return rnd.choice(valid if rnd.random() < 0.9 else invalid)

    def add(argv, flag, value):
        if value is not None:
            argv += [flag, value]

    command = pick(*ARGS["command"])
    argv = [command]
    if command in ("run", "analyze"):
        for _ in range(pick(*ARGS["graphs"])):
            flag = rnd.choice(sorted(GRAPHS))
            add(argv, flag, pick(*GRAPHS[flag]))
        add(argv, "--source", pick(*ARGS["--source"]))
    if command == "run":
        add(argv, "--mode", pick(*ARGS["--mode"]))
        add(argv, "--max-rounds", pick(*ARGS["--max-rounds"]))
    if command == "sweep":
        add(argv, "--n-max", pick(*ARGS["--n-max"]))
        add(argv, "--jobs", pick(*ARGS["--jobs"]))
    add(argv, "--out", pick(*ARGS["--out"]))
    extra = pick(*ARGS["extra"])
    return argv if extra is None else argv + [extra]


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_cli_argv_ends_with_a_documented_exit_code(files, argv):
    argv = [files.get(a, a) for a in argv]
    code, _, err = _cli(argv)
    _check_exit(code, err)
    assert "Traceback" not in err
