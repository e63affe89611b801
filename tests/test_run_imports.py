"""What a run loads into the process it runs in.

``numpy.ma`` costs about 1.6 MB of resident memory and no run needs it.
NumPy 2 imports it only on demand, and a plain ``np.unique`` is one such
demand, so a fresh interpreter captures, analyses and lists the nodes of
a small run and must still be without it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
import tempfile

import numpy

print("numpy.ma" in sys.modules)
from repro.analysis import AnalysisEngine
from repro.core import ExperimentRunner
from repro.store import RunCatalog

with tempfile.TemporaryDirectory() as root:
    result = ExperimentRunner(nnodes=2, seed=1, sink=root).run("ppm")
    AnalysisEngine(RunCatalog(root), workers=1, cache=False).analyze("ppm")
    assert result.trace.nodes().tolist() == [0, 1]
print("numpy.ma" in sys.modules)
"""


def test_a_captured_and_analysed_run_leaves_numpy_ma_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    with_numpy, after_run = out.stdout.split()
    if with_numpy == "True":
        pytest.skip("this NumPy imports numpy.ma with numpy itself")
    assert after_run == "False"
