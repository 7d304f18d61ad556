"""Recorded ``--help`` text of the top-level parser and of every subcommand.

``data/help_golden.json`` holds what ``touchardstar [COMMAND] --help`` prints
with ``COLUMNS=80``, byte for byte, so a refactor of the parser cannot move a
flag, a default or a help string unnoticed.  argparse's layout differs
between Python minor versions, so the file names the version it was recorded
under and the comparison runs only under that version.

After an intended change of the help text, rerecord with
``PYTHONPATH=src python tests/test_cli_help.py``.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from touchardstar.cli import main

GOLDEN = Path(__file__).parent / "data" / "help_golden.json"
COMMANDS = ("", "moment", "coeffs", "check-class", "check-theorem", "threshold",
            "verify-disk", "sweep")
PYTHON = "%d.%d" % sys.version_info[:2]


def render(command: str) -> str:
    """stdout of ``main([command, "--help"])`` (the top level for "")."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    return out.getvalue()


@pytest.fixture
def columns_80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c or "top")
def test_help_matches_recording(command, columns_80):
    data = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if data["python"] != PYTHON:
        pytest.skip(f"help recorded under Python {data['python']}, running {PYTHON}")
    assert render(command) == data["help"][command]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    record = {"python": PYTHON, "help": {c: render(c) for c in COMMANDS}}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
