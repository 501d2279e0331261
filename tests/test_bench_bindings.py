"""The benchmark's tracer must find every package function it wraps.

`perfbench/tracing.py` counts calls by rebinding functions such as
`report.run_residual_check`, `manifold.sample_chart`,
`manifold._piece_sample` and `tensor.field_jet` wherever the package binds
them, and its worker rebinds `corpus.build_example`.  A refactor that
drops one of those names makes the rebinding raise; this test turns that
into a failure here instead of failed benchmark operations.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path.insert(0, "perfbench")
from sasaki_lab import cli, corpus
from tracing import Tracer, rebind
Tracer().install()
rebind(corpus.build_example, lambda key, **params: None)
"""


def test_tracer_installs_on_the_package():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
