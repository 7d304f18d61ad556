"""Recorded command-line outputs, replayed in-process.

``data/cli_golden.json`` holds, for each argv, the exit code and the exact
stdout: every subcommand in every format, every criterion, both check-class
classes and sources, sweeps with invalid and failing rows, and exit-2 and
exit-3 cases, which write nothing to stdout.  The files the commands read
are under "files"; they are written to a temporary directory whose path
replaces ``{dir}`` in each argv.  Bytes must match exactly, except that the
floats ``verify-disk`` prints may move by 1e-12 relative, since they come
out of an FFT whose summation order is not part of the contract.

After an intended change of output, rerecord with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

from touchardstar.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
DATA = json.loads(GOLDEN.read_text(encoding="utf-8"))

_FLOAT = re.compile(r"-?\d+\.\d*(?:e[-+]?\d+)?|-?\d+e[-+]?\d+")


def replay(argv, directory) -> tuple:
    """(exit code, stdout) of ``main`` on ``argv`` with ``{dir}`` filled in."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([a.replace("{dir}", str(directory)) for a in argv])
        except SystemExit as exc:  # argparse errors and --version
            code = exc.code
    return code, out.getvalue()


def same_output(got: str, want: str, loose: bool) -> bool:
    if not loose:
        return got == want
    got_floats, want_floats = _FLOAT.findall(got), _FLOAT.findall(want)
    return (_FLOAT.split(got) == _FLOAT.split(want) and len(got_floats) == len(want_floats)
            and all(math.isclose(float(a), float(b), rel_tol=1e-12, abs_tol=0.0)
                    for a, b in zip(got_floats, want_floats)))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    for name, text in DATA["files"].items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@pytest.mark.parametrize("case", DATA["cases"], ids=lambda c: " ".join(c["argv"]))
def test_replay(case, data_dir):
    code, out = replay(case["argv"], data_dir)
    assert code == case["exit"]
    if code in (2, 3):
        assert out == ""
    assert same_output(out, case["stdout"], loose=case["argv"][0] == "verify-disk")


def test_covers_every_subcommand_format_and_exit_code():
    argvs = [c["argv"] for c in DATA["cases"]]
    for command in ("moment", "coeffs", "check-class", "check-theorem", "threshold",
                    "verify-disk", "sweep"):
        for fmt in ("json", "csv", "human"):
            assert [command, "--format", fmt] in [[a[0], *a[-2:]] for a in argvs]
    assert {c["exit"] for c in DATA["cases"]} == {0, 2, 3}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in DATA["files"].items():
            Path(tmp, name).write_text(text, encoding="utf-8")
        for case in DATA["cases"]:
            case["exit"], case["stdout"] = replay(case["argv"], tmp)
    GOLDEN.write_text(json.dumps(DATA, indent=1) + "\n", encoding="utf-8")
