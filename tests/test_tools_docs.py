"""The API-doc generator runs and covers the public surface."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_gen_api_docs(tmp_path):
    out = tmp_path / "API.md"
    subprocess.run([sys.executable, str(REPO / "tools" / "gen_api_docs.py"),
                    str(out)], check=True, cwd=REPO)
    text = out.read_text()
    for symbol in ("Simulator", "Disk", "InstrumentedIDEDriver",
                   "NodeKernel", "BeowulfCluster", "WaveletApplication",
                   "ExperimentRunner", "WorkloadModel", "TraceDataset",
                   "TraceWriter", "TraceReader", "RunCatalog"):
        assert symbol in text, symbol
    # every subpackage is documented
    for package in ("repro.sim", "repro.disk", "repro.driver",
                    "repro.kernel", "repro.cluster", "repro.apps",
                    "repro.core", "repro.synth", "repro.store",
                    "repro.viz"):
        assert f"## `{package}`" in text, package


def test_api_reference_is_current():
    # docs/API.md is generated; it must hold exactly what the generator
    # renders from today's public surface (regenerate with
    # `python tools/gen_api_docs.py`)
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "gen_api_docs", REPO / "tools" / "gen_api_docs.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.render() == (REPO / "docs" / "API.md").read_text()


def test_gen_api_docs_help_writes_no_file(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "gen_api_docs.py"), "--help"],
        check=True, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert "usage:" in done.stdout
    assert list(tmp_path.iterdir()) == []
