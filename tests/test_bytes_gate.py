"""``tools/bytes.py`` passes identical trees and fails on a one-byte difference."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def gate(monkeypatch):
    spec = importlib.util.spec_from_file_location("bytes_gate", ROOT / "tools" / "bytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "argvs",
                        lambda: [["oracle-check", "--trials", "1", "--points", "100"]])
    return module


def test_byte_gate_passes_identical_trees(gate, capsys):
    assert gate.main(str(ROOT)) == 0
    out = capsys.readouterr().out
    assert "no difference" in out and "DIFF" not in out


def test_byte_gate_fails_on_one_changed_byte(gate, tmp_path, capsys):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    main = src / "rmflab" / "__main__.py"
    text = main.read_text()
    # One byte more on stdout, before the CLI writes its rows.
    main.write_text("import sys\n\nsys.stdout.write(' ')\n" + text)
    assert gate.main(str(tmp_path)) == 1
    out = capsys.readouterr().out
    assert "DIFF" in out and "no difference" not in out
