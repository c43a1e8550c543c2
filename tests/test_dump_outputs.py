"""The byte manifest of scripts/dump_outputs.py, on a small corpus: the full
corpus takes seconds to build, and its check is a tier-2 command."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "dump_outputs.py"
CORPUS = {"cli/b.txt": '{"x":[1,2,3]}\nexit=0\n', "cli/a.txt": "{}\nexit=0\n",
          "errors/c.txt": "run\nexit=2\namflood: error\n"}


@pytest.fixture(scope="module")
def dump():
    spec = importlib.util.spec_from_file_location("dump_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_manifest_is_sorted_sha256sum_lines(dump):
    assert dump.manifest(CORPUS) == "".join(
        f"{hashlib.sha256(CORPUS[name].encode()).hexdigest()}  {name}\n"
        for name in ("cli/a.txt", "cli/b.txt", "errors/c.txt"))
    assert dump.check(dump.manifest(CORPUS), dict(CORPUS)) == []


def test_check_names_every_missing_extra_and_changed_output(dump, tmp_path):
    for name, text in CORPUS.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    doctored = {**CORPUS, "cli/b.txt": '{"x":[1,2,4]}\nexit=0\n',
                "errors/c.txt": "run\nexit=2\namflood: error\nmore\n", "new.txt": ""}
    del doctored["cli/a.txt"]
    recorded = dump.manifest(CORPUS)
    assert dump.check(recorded, doctored) == [
        "missing: cli/a.txt", "changed: cli/b.txt", "changed: errors/c.txt", "extra: new.txt"]
    assert dump.check(recorded, doctored, tmp_path) == [
        "missing: cli/a.txt",
        "changed: cli/b.txt", "  line 1, column 11:", "  - '3]}\\n'", "  + '4]}\\n'",
        "changed: errors/c.txt", "  line 4, column 1:", "  - ''", "  + 'more\\n'",
        "extra: new.txt"]


def test_check_exits_1_naming_the_changed_output(dump, tmp_path, monkeypatch, capsys):
    recorded = tmp_path / "OUTPUTS.sha256"
    monkeypatch.setattr(dump, "outputs", lambda: dict(CORPUS))
    assert dump.main(["--manifest", str(recorded)]) == 0
    assert dump.main(["--check", str(recorded)]) == 0
    assert capsys.readouterr().out == f"all 3 outputs match {recorded}\n"
    monkeypatch.setattr(dump, "outputs", lambda: {**CORPUS, "cli/a.txt": "{}\nexit=1\n"})
    assert dump.main(["--check", str(recorded)]) == 1
    assert capsys.readouterr().out == "changed: cli/a.txt\n"
    assert dump.main(["--check"]) == 2
