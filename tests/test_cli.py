from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from amflood import async_engine, cli, sync_engine
from amflood.analysis import connected_graphs, find_sharp_example
from amflood.graph import gen_named
from amflood.jsonio import dumps_stable
from amflood.sync_engine import InternalInvariantError

from conftest import arcs_to_masks, masks_to_arcs


def _run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse reports usage errors by exiting
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_petersen(capsys):
    code, out, _ = _run(capsys, "run", "--named", "petersen", "--source", "0")
    assert code == cli.EXIT_OK
    assert json.loads(out)["termination_round"] == 5


def test_run_cycle6(capsys):
    code, out, _ = _run(capsys, "run", "--named", "cycle:6", "--source", "0")
    assert code == cli.EXIT_OK
    assert json.loads(out)["termination_round"] == 3


def test_run_async_fig6_exit_code(capsys):
    code, out, _ = _run(capsys, "run", "--named", "cycle:3", "--source", "0",
                        "--mode", "async:fig6")
    assert code == cli.EXIT_CYCLE
    assert json.loads(out)["verdict"]["outcome"] == "cycle"


def test_run_async_exhausted_exit_code(capsys):
    code, out, _ = _run(capsys, "run", "--named", "cycle:3", "--source", "0",
                        "--mode", "async:fig6", "--max-rounds", "2")
    assert code == cli.EXIT_EXHAUSTED


def test_run_async_zero_terminates(capsys):
    code, out, _ = _run(capsys, "run", "--named", "cycle:6", "--source", "0",
                        "--mode", "async:zero")
    assert code == cli.EXIT_OK
    assert json.loads(out)["verdict"]["termination_round"] == 3


def test_run_async_zero_outlasts_sixty_four_rounds(capsys):
    # the async default budget is never below the sync guard 2n+2, so the
    # zero-delay run of a 201-cycle ends in round 201 as the sync run does
    code, out, _ = _run(capsys, "run", "--named", "cycle:201", "--source", "0",
                        "--mode", "async:zero")
    assert code == cli.EXIT_OK
    assert json.loads(out)["verdict"]["termination_round"] == 201
    g = gen_named("cycle", 201)
    verdict = async_engine.run_async(g, 0, async_engine.ZeroDelayAdversary())
    assert (dumps_stable(verdict.to_sync_trace().to_json_obj())
            == dumps_stable(sync_engine.run_sync(g, 0).to_json_obj()))


def test_run_with_labels_from_file(tmp_path, capsys):
    f = tmp_path / "tri.edges"
    f.write_text("a b\nb c\nc a\n")
    code, out, _ = _run(capsys, "run", "--graph", str(f), "--source", "b")
    assert code == cli.EXIT_OK
    assert json.loads(out)["source"] == 1


def test_analyze_hypercube(capsys):
    code, out, _ = _run(capsys, "analyze", "--named", "hypercube:3",
                        "--source", "0")
    assert code == cli.EXIT_OK
    obj = json.loads(out)
    assert obj["classification"]["window_ok"] is True
    assert obj["classification"]["theorem_applied"] == "bipartite_exact"
    assert obj["audit"]["all_ok"] is True


def test_analyze_triangle_window_gap(capsys):
    code, out, _ = _run(capsys, "analyze", "--named", "cycle:3", "--source", "0")
    assert code == cli.EXIT_OK
    c = json.loads(out)["classification"]
    assert c["theorem_applied"] == "nonbipartite_window"
    assert c["termination_round"] - c["eccentricity"] == 2


def test_analyze_petersen_boundary(capsys):
    code, out, _ = _run(capsys, "analyze", "--named", "petersen", "--source", "0")
    assert code == cli.EXIT_OK
    c = json.loads(out)["classification"]
    assert c["termination_round"] - c["eccentricity"] == c["diameter"] + 1


def test_sweep_counts_against_enumeration(capsys):
    code, out, _ = _run(capsys, "sweep", "--n-max", "4")
    assert code == cli.EXIT_OK
    obj = json.loads(out)
    graphs = sum(1 for n in range(2, 5) for _ in connected_graphs(n))
    runs = sum(n for n in range(2, 5) for _ in connected_graphs(n))
    assert obj["graphs"] == graphs
    assert obj["runs"] == runs
    assert obj["violations"] == []


def test_sweep_jobs_do_not_change_bytes(capsys):
    _, a, _ = _run(capsys, "sweep", "--n-max", "5", "--jobs", "1")
    _, b, _ = _run(capsys, "sweep", "--n-max", "5", "--jobs", "8")
    assert a == b


def test_out_file_matches_stdout(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    code, stdout, _ = _run(capsys, "run", "--named", "cycle:5", "--source", "2")
    code2 = cli.main(["run", "--named", "cycle:5", "--source", "2",
                      "--out", str(out_path)])
    capsys.readouterr()
    assert code == code2 == cli.EXIT_OK
    assert out_path.read_text() == stdout


def test_random_graph_ignores_a_seed_variable(capsys, monkeypatch):
    # SEED comes from the command line alone: an exported AMNESIA_SEED, which
    # once overrode it, changes no byte
    monkeypatch.delenv("AMNESIA_SEED", raising=False)
    _, base, _ = _run(capsys, "run", "--random", "12,0.4,5", "--source", "0")
    monkeypatch.setenv("AMNESIA_SEED", "6")
    code, same, _ = _run(capsys, "run", "--random", "12,0.4,5", "--source", "0")
    assert code == cli.EXIT_OK
    assert same == base


def _amflood(*argv, **env):
    """Run the CLI in a fresh interpreter with ``env`` added to the environment."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run([sys.executable, "-m", "amflood", *argv],
                          env={**os.environ, "PYTHONPATH": str(src), **env},
                          capture_output=True, timeout=120)


def test_graph_file_is_read_as_utf8_whatever_the_locale(tmp_path):
    f = tmp_path / "labels.edges"
    f.write_bytes("\u00e9 b\nb c\nc \u00e9\n".encode())
    argv = ("run", "--graph", str(f), "--source", "b")
    c_locale = _amflood(*argv, PYTHONUTF8="0", LC_ALL="C")
    utf8 = _amflood(*argv, PYTHONUTF8="1")
    assert (c_locale.returncode, c_locale.stderr) == (cli.EXIT_OK, b"")
    assert (utf8.returncode, utf8.stderr) == (cli.EXIT_OK, b"")
    assert c_locale.stdout == utf8.stdout


def test_graph_file_that_is_not_utf8_exits_two(tmp_path, capsys):
    f = tmp_path / "bad.edges"
    f.write_bytes(b"\xff 1\n")
    code, out, err = _run(capsys, "run", "--graph", str(f), "--source", "0")
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert err == (f"amflood: cannot read {f}: 'utf-8' codec can't decode byte 0xff "
                   f"in position 0: invalid start byte\n")


@pytest.mark.parametrize("text, labels", [("0 1\n1 2\n2 0\n", "012"), ("a b\nb c\nc a\n", "abc")],
                         ids=["numeric", "labels"])
def test_graph_file_with_a_byte_order_mark_loads_as_written(tmp_path, capsys, text, labels):
    # A leading UTF-8 mark, as some editors save it, must not stick to the
    # first id: numeric ids would switch to labels and load a 4-node path.
    f = tmp_path / "tri.edges"
    f.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for v, label in enumerate(labels):
        code, out, _ = _run(capsys, "run", "--graph", str(f), "--source", label)
        assert (code, json.loads(out)["termination_round"]) == (cli.EXIT_OK, 3)
        assert out == _run(capsys, "run", "--named", "complete:3", "--source", str(v))[1]


@pytest.mark.parametrize("argv", [
    ("run", "--graph", "/no/such/file", "--source", "0"),
    ("run", "--named", "torus:3", "--source", "0"),
    ("run", "--named", "cycle:abc", "--source", "0"),
    ("run", "--named", "cycle:5", "--source", "nope"),
    ("run", "--named", "cycle:5", "--source", "0", "--mode", "async:unknown"),
    ("run", "--random", "5,0.5", "--source", "0"),
    ("run", "--random", "5,x,1", "--source", "0"),
    ("run", "--named", "cycle:5", "--source", "0", "--mode", "nope"),
    ("run", "--named", "cycle:5", "--source", "0", "--mode", "async:zero,x"),
    ("run", "--named", "cycle:5", "--source", "0", "--mode", "async:zero,0"),
    ("run", "--named", "", "--source", "0"),
    ("run", "--named", "cycle:5"),
    ("run", "--named", "cycle:5", "--source", "0", "--max-rounds", "x"),
    ("sweep", "--n-max", "3", "--bogus"),
    ("sweep", "--n-max", "8"),
    ("sharp", "--n-max", "9"),
    ("sharp", "--eccentricity", "5", "--diameter", "2"),
])
def test_input_errors_exit_two(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("mode, message", [
    ("async:unknown", "unknown adversary 'unknown' (known: fig6, zero)"),
    ("nope", "unknown mode 'nope'"),
    ("async:zero,x", "bad hold cap in 'async:zero,x'"),
    ("async:zero,0", "hold_cap must be >= 1, got 0"),
])
def test_run_refuses_a_bad_mode_before_building_the_graph(capsys, monkeypatch, mode, message):
    def no_graph(args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(cli, "_load_graph", no_graph)
    got = _run(capsys, "run", "--named", "cycle:5", "--source", "0", "--mode", mode)
    assert got == (cli.EXIT_INPUT_ERROR, "", f"amflood: {message}\n")


@pytest.mark.parametrize("name", sorted(async_engine.ADVERSARIES))
def test_every_registered_adversary_runs(capsys, name):
    code, out, _ = _run(capsys, "run", "--named", "cycle:3", "--source", "0",
                        "--mode", f"async:{name}")
    assert code in (cli.EXIT_OK, cli.EXIT_CYCLE)
    assert json.loads(out)["verdict"]["outcome"] in ("terminated", "cycle")


def test_unknown_adversary_lists_the_registry(capsys):
    code, _, err = _run(capsys, "run", "--named", "cycle:3", "--source", "0",
                        "--mode", "async:nope")
    assert code == cli.EXIT_INPUT_ERROR
    known = err.strip().rpartition("(known: ")[2].removesuffix(")")
    assert known.split(", ") == sorted(async_engine.ADVERSARIES)


def test_package_import_reaches_the_modules(tmp_path):
    # A fresh interpreter that only imports the package must reach each module.
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import amflood as am; print(am.analysis.sweep.__name__, "
             "am.graph.parse_edge_list.__name__, am.sync_engine.run_sync.__name__, "
             "am.async_engine.run_async.__name__)")
    res = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert res.stdout.split() == ["sweep", "parse_edge_list", "run_sync", "run_async"]


@pytest.mark.parametrize("make", ["x = []; x.append(x)", "x = {}; x['k'] = x"],
                         ids=["list", "dict"])
def test_self_containing_json_fails_and_does_not_hang(tmp_path, make):
    # dumps_stable skips json's cycle check, so a container holding itself is
    # caught only by the recursion limit; run it apart, under a time limit.
    src = Path(cli.__file__).resolve().parents[1]
    probe = (f"from amflood.jsonio import dumps_stable\n{make}\n"
             "try:\n    dumps_stable(x)\nexcept Exception as exc:\n"
             "    print(type(exc).__name__)\n")
    res = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stdout) == (0, "RecursionError\n"), res.stderr


@pytest.mark.parametrize("argv, code", [
    (("--n-max", "4", "--eccentricity", "1", "--diameter", "1"), cli.EXIT_OK),
    (("--n-max", "3", "--eccentricity", "2", "--diameter", "4"), cli.EXIT_VIOLATION),
], ids=["attained", "not_attained"])
def test_sharp_prints_the_search(capsys, argv, code):
    got, out, err = _run(capsys, "sharp", *argv)
    n_max, e, d = map(int, argv[1::2])
    assert (got, err) == (code, "")
    assert out == dumps_stable(find_sharp_example(n_max, target=(e, d)).to_json_obj())


def test_sharp_defaults():
    args = cli.build_parser().parse_args(["sharp"])
    assert (args.n_max, args.eccentricity, args.diameter) == (8, 2, 4)


@pytest.mark.parametrize("argv, message", [
    (("sweep", "--n-max", "x"), "argument --n-max: invalid int value: 'x'"),
    (("sharp", "--diameter"), "argument --diameter: expected one argument"),
], ids=["sweep", "sharp"])
def test_sweep_and_sharp_usage_errors_are_one_line(capsys, argv, message):
    code, out, err = _run(capsys, *argv)
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert err == f"amflood {argv[0]}: error: {message}\n"


def test_empty_named_graph_is_reported_as_unknown(capsys):
    code, out, err = _run(capsys, "run", "--named", "", "--source", "0")
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert err == "amflood: unknown named graph ''\n"


DEV_FULL = Path("/dev/full")
needs_dev_full = pytest.mark.skipif(not DEV_FULL.exists(), reason="no /dev/full")


@pytest.mark.parametrize("command", ["run", "analyze", "sweep"])
@pytest.mark.parametrize("target", [
    "missing_dir", "directory", pytest.param("dev_full", marks=needs_dev_full)])
def test_unwritable_out_exits_two(tmp_path, capsys, command, target):
    # dev_full opens but every write fails, so the error surfaces only on flush
    out_path = {"missing_dir": tmp_path / "missing" / "x.json", "directory": tmp_path,
                "dev_full": DEV_FULL}[target]
    args = {"run": ["--named", "cycle:3", "--source", "0"],
            "analyze": ["--named", "cycle:3", "--source", "0"],
            "sweep": ["--n-max", "3"]}[command] + ["--out", str(out_path)]
    code, out, err = _run(capsys, command, *args)
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith(f"amflood: cannot write {out_path}: ")
    assert len(err.splitlines()) == 1 and err.endswith("\n")


@needs_dev_full
@pytest.mark.parametrize("argv", [
    ("sharp", "--n-max", "4", "--eccentricity", "1", "--diameter", "1"),
    ("sweep", "--n-max", "3"),
], ids=["sharp", "sweep"])
def test_sweep_and_sharp_report_a_failed_stdout_write_in_one_line(argv):
    src = Path(cli.__file__).resolve().parents[1]
    with DEV_FULL.open("w") as full:
        res = subprocess.run([sys.executable, "-m", "amflood", *argv],
                             env={**os.environ, "PYTHONPATH": str(src)},
                             stdout=full, stderr=subprocess.PIPE, text=True)
    assert res.returncode == cli.EXIT_INPUT_ERROR
    assert res.stderr == ("amflood: cannot write <stdout>: "
                          "[Errno 28] No space left on device\n")


def test_module_entry_exits_two_on_bad_jobs():
    src = Path(cli.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-m", "amflood", "sweep", "--n-max", "3",
                          "--jobs", "-3"],
                         env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == cli.EXIT_INPUT_ERROR
    assert res.stdout == ""
    assert res.stderr == "amflood: --jobs must be >= 1, got -3\n"


def _spy_open(monkeypatch):
    """Record every file cli opens."""
    opened = []

    def spy(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]
    monkeypatch.setattr(cli, "open", spy, raising=False)
    return opened


@needs_dev_full
def test_failed_write_closes_the_out_file(capsys, monkeypatch):
    opened = _spy_open(monkeypatch)
    code, _, _ = _run(capsys, "run", "--named", "cycle:3", "--source", "0",
                      "--out", str(DEV_FULL))
    assert code == cli.EXIT_INPUT_ERROR
    assert [fh.closed for fh in opened] == [True]


def test_failed_close_after_the_write_exits_two(tmp_path, capsys, monkeypatch):
    # the write and its flush succeed; only the final close fails
    class CloseFails(io.StringIO):
        def close(self):
            raise OSError(5, "Input/output error")
    monkeypatch.setattr(cli, "open", lambda *args, **kwargs: CloseFails(),
                        raising=False)
    path = tmp_path / "trace.json"
    code, out, err = _run(capsys, "run", "--named", "cycle:3", "--source", "0",
                          "--out", str(path))
    assert (code, out) == (cli.EXIT_INPUT_ERROR, "")
    assert err == f"amflood: cannot write {path}: [Errno 5] Input/output error\n"


def test_computation_error_is_not_a_write_error(tmp_path, monkeypatch):
    # an OSError from the sweep itself propagates as it is, and --out is closed
    def broken_sweep(*args, **kwargs):
        raise OSError("no workers")
    monkeypatch.setattr(cli.analysis, "sweep", broken_sweep)
    opened = _spy_open(monkeypatch)
    with pytest.raises(OSError, match="^no workers$"):
        cli.main(["sweep", "--n-max", "3", "--out", str(tmp_path / "s.json")])
    assert [fh.closed for fh in opened] == [True]


def _not_called(*args, **kwargs):
    raise AssertionError("the computation started before --out was opened")


@pytest.mark.parametrize("argv, module, name", [
    (("sweep", "--n-max", "7"), "analysis", "sweep"),
    (("run", "--named", "cycle:5", "--source", "0"), "cli", "run_sync"),
    (("run", "--named", "cycle:5", "--source", "0", "--mode", "async:zero"),
     "async_engine", "run_async"),
    (("analyze", "--named", "cycle:5", "--source", "0"), "analysis", "analyze"),
])
def test_unwritable_out_fails_before_the_computation(tmp_path, capsys, monkeypatch,
                                                     argv, module, name):
    monkeypatch.setattr({"cli": cli, "analysis": cli.analysis,
                         "async_engine": async_engine}[module], name, _not_called)
    code, out, err = _run(capsys, *argv, "--out", str(tmp_path))
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert err.startswith(f"amflood: cannot write {tmp_path}: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("run",), ("run", "--mode", "async:zero"), ("run", "--max-rounds", "1"), ("analyze",)],
    ids=["run", "run_async_zero", "run_max_rounds_1", "analyze"])
def test_disconnected_graph_exits_two(tmp_path, capsys, argv):
    f = tmp_path / "two_parts.edges"
    f.write_text("0 1\n2 3\n")
    code, out, err = _run(capsys, argv[0], "--graph", str(f), "--source", "0", *argv[1:])
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert err == "amflood: flooding needs a connected graph\n"


@pytest.mark.parametrize("graph_args", [
    ("--named", "hypercube:20"),
    ("--named", "hypercube:1000000000"),
    ("--named", "complete:4473"),
    ("--named", "cycle:1000001"),
    ("--named", "path:1000001"),
    ("--random", "4473,0.5,1"),
    ("--random", "1000000000,0.000001,1"),
    ("--graph", "0 1\n0 4000000000\n"),
    ("--graph", "0 1\n" * 20),
])
def test_oversized_input_exits_two_before_it_allocates(tmp_path, capsys, monkeypatch,
                                                       graph_args):
    flag, value = graph_args
    if flag == "--graph":
        # a huge node id, then a file longer than a lowered length limit
        monkeypatch.setattr(cli, "MAX_EDGE_LIST_CHARS", 48)
        path = tmp_path / "input.edges"
        path.write_text(value)
        value = path
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, "run", flag, str(value), "--source", "0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "over the limit" in err
    assert peak < 1 << 20


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_endless_graph_file_exits_two():
    # The address-space cap applies to the child only, so a reader that
    # slurps the endless file dies there instead of exhausting the machine.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(cli.__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, "-m", "amflood", "run", "--graph", "/dev/zero",
                          "--source", "0"], env={**os.environ, "PYTHONPATH": str(src)},
                         preexec_fn=cap, capture_output=True, text=True, timeout=120)
    assert res.returncode == cli.EXIT_INPUT_ERROR
    assert res.stdout == ""
    assert res.stderr == (f"amflood: edge list /dev/zero is over the limit of "
                          f"{cli.MAX_EDGE_LIST_CHARS} characters\n")


def test_reruns_are_byte_identical(capsys):
    _, a, _ = _run(capsys, "run", "--named", "petersen", "--source", "3")
    _, b, _ = _run(capsys, "run", "--named", "petersen", "--source", "3")
    assert a == b


def test_sync_user_budget_exhausted_exits_four_with_partial_trace(capsys):
    code, out, _ = _run(capsys, "run", "--named", "cycle:5", "--source", "0",
                        "--max-rounds", "1")
    assert code == cli.EXIT_EXHAUSTED
    obj = json.loads(out)
    assert obj["rounds"] == [[[0, 1], [0, 4]]]
    assert obj["round_sets"] == [[0], [1, 4]]
    assert obj["termination_round"] is None


def test_sync_budget_that_suffices_exits_zero(capsys):
    code, out, _ = _run(capsys, "run", "--named", "cycle:5", "--source", "0",
                        "--max-rounds", "5")
    assert code == cli.EXIT_OK
    assert json.loads(out)["termination_round"] == 5


@pytest.mark.parametrize("argv", [
    ("run", "--named", "cycle:5", "--source", "0", "--max-rounds", "0"),
    ("run", "--named", "cycle:5", "--source", "0", "--max-rounds", "-2"),
    ("run", "--named", "cycle:3", "--source", "0", "--mode", "async:fig6",
     "--max-rounds", "0"),
    ("sweep", "--n-max", "3", "--jobs", "-3"),
    ("sweep", "--n-max", "3", "--jobs", "0"),
])
def test_non_positive_budget_or_jobs_exits_two(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == cli.EXIT_INPUT_ERROR
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("flags, message", [
    (("--mode", "async:zero,0"), "hold_cap must be >= 1, got 0"),
    (("--mode", "async:fig6,-1"), "hold_cap must be >= 1, got -1"),
    (("--max-rounds", "0"), "--max-rounds must be >= 1, got 0"),
], ids=["hold_cap_0", "hold_cap_negative", "max_rounds_0"])
def test_bad_budget_leaves_the_out_file_alone(tmp_path, capsys, flags, message):
    out_path = tmp_path / "out.json"
    out_path.write_text("old\n")
    code, out, err = _run(capsys, "run", "--named", "cycle:3", "--source", "0", *flags,
                          "--out", str(out_path))
    assert (code, out, err) == (cli.EXIT_INPUT_ERROR, "", f"amflood: {message}\n")
    assert out_path.read_text() == "old\n"


def test_default_guard_breach_stays_internal_error(capsys, monkeypatch):
    # A kernel that bounces every arc back never drains; without a user
    # budget that is an engine bug, not an exhausted budget.
    forward = sync_engine._forward

    def bouncing(g, inbox):
        if not any(inbox.values()):  # the source's start inbox goes through unchanged
            return forward(g, inbox)
        return arcs_to_masks(g, {(v, u) for u, v in masks_to_arcs(g, inbox)})

    monkeypatch.setattr(sync_engine, "_forward", bouncing)
    with pytest.raises(InternalInvariantError, match="still active after 12 rounds"):
        cli.main(["run", "--named", "cycle:5", "--source", "0"])
    assert capsys.readouterr().out == ""


# sha256 of each run's stdout followed by "\nexit=<code>", recorded before the
# asynchronous engine was reduced to one frozen state; any change to the
# engine must leave every digest as it is.
ASYNC_DIGESTS = [
    (("cycle:3", "0", "async:fig6"),
     "044beff3e3fe6ee32d528ac12e547d05a791d89e19c6328c38acb9b3bc8f3c43"),
    (("cycle:3", "0", "async:fig6", "--max-rounds", "3"),
     "60d073123c5f105a8ad5aeaff1bb1520e6ab60b8b2bcbe84eb53ebaf9d476dbc"),
    (("cycle:3", "1", "async:fig6"),
     "fbb8ea16ba6b111502632107b26b208527e9513d1e90de59c0caa5c80f9e7eb6"),
    (("cycle:3", "1", "async:fig6", "--max-rounds", "3"),
     "0bd5049e34c027051cfb20da3d6be31ccdf14be733f2bffa4f127b6653b1ae33"),
    (("cycle:3", "2", "async:fig6"),
     "c4b7cd9c87ad814e262dbbac8a3cd2c768ad4718103e76e37fbcf30263024bbc"),
    (("cycle:3", "2", "async:fig6", "--max-rounds", "3"),
     "c0949356dfd2d3bcc0af1a3da9a9182c09c9f6f9963d4a8736f9a73851fa85b9"),
    (("hypercube:4", "0", "async:fig6,2"),
     "8a5c7ff8c5483209bbc407606276e21a7fe37f6392e1f769edc270d3b2c5eca7"),
    (("petersen", "0", "async:zero"),
     "0c28633510d2cf1eb0d2c3621b0d22d6a15ff48e8c52407640a1167c06f08537"),
]


@pytest.mark.parametrize("case, digest", ASYNC_DIGESTS)
def test_async_runs_keep_their_bytes(capsys, case, digest):
    named, source, mode, *budget = case
    code, out, _ = _run(capsys, "run", "--named", named, "--source", source,
                        "--mode", mode, *budget)
    got = hashlib.sha256(out.encode() + b"\nexit=%d" % code).hexdigest()
    assert got == digest
