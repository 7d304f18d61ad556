"""Lazy package exports, and the closed-form CLI route starting without numpy.

A test process has long since loaded numpy, so the import boundary is
checked in fresh interpreters that import this checkout's ``src/``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import touchardstar
from touchardstar import explore, series
from touchardstar.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Runs the package as ``python -m touchardstar`` does, then fails with exit
#: code 99 if numpy was imported along the way.
CHILD = """\
import runpy, sys
try:
    runpy.run_module("touchardstar", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
sys.exit(99 if "numpy" in sys.modules else code)
"""

CLASS = ["--lambda", "0.3", "--alpha", "1.2"]
CLOSED_FORM_COMMANDS = [
    ["--version"],
    ["moment", "--l", "3", "--m", "1.5"],
    *(["check-theorem", "--which", w, "--l", "3", "--m", "1.5", *CLASS]
      for w in ("M", "N", "integral")),
    ["check-theorem", "--which", "rtau", "--l", "3", "--m", "1.5", *CLASS,
     "--tau", "1+1j", "--A", "1", "--B", "-1"],
    ["threshold", "--which", "N", "--l", "2", *CLASS],
    ["check-theorem", "--which", "M", "--l", "60", "--m", "1e7", "--lambda", "0",
     "--alpha", "1.2"],  # overflows: exit 3
]


def child(args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=60)


def in_process(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --version
        code = exc.code
    return code, capsys.readouterr().out


class TestImportBoundary:
    @pytest.mark.parametrize("argv", CLOSED_FORM_COMMANDS, ids=" ".join)
    def test_closed_form_subcommand_runs_without_numpy(self, capsys, argv):
        code, out = in_process(capsys, argv)
        proc = child(["-c", CHILD, *argv])
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
        assert "Traceback" not in proc.stderr

    def test_usual_exit_codes(self, capsys):
        codes = [in_process(capsys, argv)[0] for argv in CLOSED_FORM_COMMANDS]
        assert codes == [0] * (len(CLOSED_FORM_COMMANDS) - 1) + [3]

    def test_package_import_loads_no_numpy(self):
        proc = child(["-c", "import sys, touchardstar\n"
                            "from touchardstar import cli, moments, NumericFailure\n"
                            "print(touchardstar.__version__, cli.__name__, moments.L_MAX)\n"
                            "sys.exit('numpy' in sys.modules)"])
        assert (proc.returncode, proc.stdout) == (0, "0.1.0 touchardstar.cli 64\n"), proc.stderr

    def test_guard_sees_numpy(self):
        # the check itself: a subcommand on the series route does load numpy
        proc = child(["-c", CHILD, "coeffs", "--l", "1", "--m", "0.5", "--order", "3"])
        assert proc.returncode == 99


class TestLazyExports:
    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from touchardstar import *", namespace)
        assert set(touchardstar.__all__) <= set(namespace)
        assert namespace["sweep"] is explore.sweep
        assert namespace["TruncatedSeries"] is series.TruncatedSeries

    def test_dir_lists_exports(self):
        listed = dir(touchardstar)
        assert set(touchardstar.__all__) <= set(listed)
        assert "__version__" in listed and listed == sorted(listed)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            touchardstar.no_such_name
        assert not hasattr(touchardstar, "np")

    def test_submodule_import(self):
        from touchardstar import cli

        assert cli.main is main

    def test_export_follows_the_submodule_attribute(self, monkeypatch):
        def fake(*args):
            return None

        monkeypatch.setattr(explore, "sweep", fake)
        assert touchardstar.sweep is fake
