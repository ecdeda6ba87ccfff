"""bench.py's command line: the only mode is the default 3-rep run, so
any flag but ``--help`` must fail fast with the usage text — before Ray
is imported, let alone started."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs bench.py as __main__ and reports on stderr whether the run
# imported ray (bench.py imports it only once a bench actually starts).
_RUN_BENCH = """
import runpy, sys
sys.argv = ["bench.py", *sys.argv[1:]]
try:
    runpy.run_path("bench.py", run_name="__main__")
finally:
    sys.stderr.write(f"ray imported: {'ray' in sys.modules}\\n")
"""


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _RUN_BENCH, *args],
        cwd=REPO, capture_output=True, text=True, timeout=30,
    )


@pytest.mark.parametrize("flag", ["--scaling", "--probe", "--bogus"])
def test_unknown_flag_exits_2_with_usage(flag):
    proc = _bench(flag)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage: bench.py")
    assert "ray imported: False" in proc.stderr
    assert proc.stdout == ""


def test_help_exits_0():
    proc = _bench("--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: bench.py")
    assert "ray imported: False" in proc.stderr
