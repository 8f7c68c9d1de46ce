"""What a command imports, seen from a fresh interpreter.

The package and every command run on numpy alone: no command, ``fit-trace``
included, loads a scipy module. The test process has scipy loaded already
(the oracles of other tests import it), so only a new process shows what a
command pulls in.
"""

import os
import subprocess
import sys
from pathlib import Path

import spin_atlas

from test_golden import COMMANDS, assert_matches_recording

_SRC = str(Path(spin_atlas.__file__).parents[1])


def run_python(code, *argv):
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_SCIPY_MODULES = 'sorted(m for m in sys.modules if m.startswith("scipy"))'


def test_commands_other_than_fit_trace_load_no_scipy():
    out = run_python(f"""
import sys
from spin_atlas.cli import main
assert main(["catalog"]) == 0
assert main(["features", "--system", "nv", "--points", "64"]) == 0
print({_SCIPY_MODULES})
""")
    assert out.splitlines()[-1] == "[]"


def test_fit_trace_loads_no_scipy():
    out = run_python(f"""
import sys
from spin_atlas.cli import main
code = main(sys.argv[1:])
print({_SCIPY_MODULES})
sys.exit(code)
""", *COMMANDS["fit-trace-3dip"])
    *report, modules = out.splitlines()
    assert modules == "[]"
    assert_matches_recording("fit-trace-3dip", "\n".join(report) + "\n")
