"""The benchmark's tracer must find every package function it wraps.

`perfbench/tracing.py` counts calls by rebinding functions such as
`report.run_residual_check`, `manifold.sample_chart`,
`manifold._piece_sample` and `tensor.field_jet` wherever the package binds
them, and its worker rebinds `corpus.build_example`.  A refactor that
drops one of those names makes the rebinding raise; this test turns that
into a failure here instead of failed benchmark operations.

The memo counters wrap `TensorField.at` and look its memo key up in each
env.  A change to `at` or to that key would zero them without an error,
so a tiny traced run checks that they still count.
"""

import json
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


TRACED_VERIFY = """
import contextlib, io, json, sys
sys.path.insert(0, "perfbench")
from sasaki_lab import cli
from tracing import Tracer
tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "darboux-1", "--checks", "killing", "--samples", "2"])
print(json.dumps({"code": code, **tracer.counts}))
"""


def test_traced_verify_counts_memo_hits_and_misses():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_VERIFY],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["code"] == 0
    hits, misses = counts["tensor.memo_hits"], counts["tensor.memo_misses"]
    assert hits > 0 and misses > 0
    assert counts["tensor.at_calls"] == (
        hits + misses + counts.get("tensor.at_plain_env", 0)
    )
