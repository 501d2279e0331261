"""Benchmark of sasaki-lab: end-to-end and per-layer figures of ``verify``.

    python3 perfbench/run.py --workload gallery --seed 42 --seconds 30 --trace 0

Run it from the root of a source checkout (the directory holding ``src/``).
Every invocation of ``sasaki-lab`` runs in a fresh interpreter
(``worker.py``) with ``SASAKI_LAB_THREADS`` unset, so with one worker, as a
user runs it.  A round is one pass over the workload's invocations.  The run
first sets up ``SETUP_ROUNDS`` times without verifying, then runs whole
rounds while the next one is expected to end within ``--seconds``, at
least one.  Times are medians over rounds, in seconds at the reference
speed: the box's speed is sampled while the program runs and every time is
scaled by it (``speed.py``).  The raw wall-time median goes to stderr.

With ``--trace 1`` the run skips the set-up rounds and, after the untraced
rounds, makes one traced round (cProfile and call counters, see
``tracing.py``) and one set of microbenchmarks; it prints the per-layer
metrics and writes them to ``perfbench/results/trace-<workload>.json``.

Every report is checked (``checker.py``); the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Outside a source checkout the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import selftest  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

SRC = Path("src")
RESULTS = HERE / "results"
SETUP_ROUNDS = 3
WORKER_TIMEOUT = 170.0
# Environment of every invocation: one worker, no BLAS thread pool.
_DROP = ("SASAKI_LAB_THREADS", "PYTHONPATH")
_SINGLE = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "longest_check_s": "s", "peak_rss_mb": "MB",
}
_COUNTS = (
    "numkernel.dual_ops", "numkernel.seeds_order1", "numkernel.seeds_order2",
    "numkernel.solves", "tensor.memo_hits", "tensor.memo_misses",
    "tensor.at_plain_env", "tensor.at_calls", "tensor.jets", "exprlang.evals",
    "exprlang.parses", "manifold.points_sampled", "manifold.envs",
    "report.residual_checks",
)
_MICRO = (
    "micro.dual_mul_o1_d7_us", "micro.dual_mul_o2_d7_us", "micro.dual_div_o2_d7_us",
    "micro.solve_linear_o1_d5_us", "micro.field_jet_sphere5_us", "micro.eval_expr_us",
)
# The gallery's check names (the union over its entries).
CHECK_NAMES = (
    "almost_complex", "atlas_consistency", "base_atlas_consistency", "compatibility",
    "complex_structure_solves_pair", "contact_form", "contact_form_reference",
    "contact_metric", "cross_frame_commutators", "eigenframe_commutators",
    "embedding_frame", "homogeneous_complex", "homogeneous_metric",
    "homogeneous_two_form", "integrability", "killing", "loop_sign",
    "mixed_commutator_identity", "paired_consistency", "projectable",
    "projection_reference", "reconstruction", "reeb_is_sum", "reeb_reference",
    "reeb_residual", "reparametrization_routes", "round_metric", "sasaki",
    "second_order_identity", "sections_global", "sections_independent",
    "single_valued_complex", "single_valued_eta", "single_valued_metric",
    "single_valued_two_form", "slope_form_closed", "slope_form_homogeneous",
    "slope_form_invariant", "slope_recovery", "structure_axioms", "symplectic_form",
    "torsion_tensors_vanish",
)
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in _COUNTS},
    "tensor.memo_hit_ratio": "ratio",
    **{name: "us" for name in _MICRO},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    **{f"check.{name}_s": "s" for name in CHECK_NAMES},
    **{f"entry.{key}_s": "s" for key in workloads.GALLERY_KEYS},
}


class WorkerFailed(RuntimeError):
    pass


def _spawn(mode: str, inv: workloads.Invocation | None = None) -> dict:
    """Run one worker to its end; adds ``setup`` (seconds from spawn to ready)."""
    spec = {"src": str(SRC), "mode": mode}
    if inv is not None:
        spec.update(argv=list(inv.argv), builds=[[k, [list(p) for p in ps]] for k, ps in inv.builds])
    env = {k: v for k, v in os.environ.items() if k not in _DROP}
    env.update(_SINGLE)
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} {inv and inv.argv}: timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise WorkerFailed(f"{mode} {inv and inv.argv}: exit {proc.returncode}: {tail}")
    result = json.loads(lines[-1])
    if "ready" in result:
        result["setup"] = result["ready"] - start
    return result


class Tally:
    """Operations attempted and failed, and the problems found, over a run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, inv: workloads.Invocation, res: dict) -> str:
        """Check one invocation's reports; returns the digest of its report text."""
        try:
            reports = json.loads(res["report"])
        except json.JSONDecodeError as exc:
            reports = []
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{inv.argv}: report is not JSON ({exc})")
        if self.workload == "slope-family":
            keys, checks, const = {"main1-family"}, None, inv.slope_constant
        elif self.workload == "dense-first-order":
            keys, checks, const = set(workloads.GALLERY_KEYS), set(workloads.DENSE_CHECKS), None
        else:
            keys, checks, const = set(workloads.GALLERY_KEYS), None, None
        failed, problems = checker.invocation_problems(
            reports, res["rc"], res["charts"], keys, checks, const)
        if res["served"] != res["builds"]:
            problems.append(f"{inv.argv}: the CLI built {res['builds'] - res['served']} "
                            "entries itself; set-up would be timed as verification")
        self.attempted += len(reports)
        self.failed += failed
        self.problems.extend(problems)
        return hashlib.sha256(res["report"].encode()).hexdigest()


def _round(invs, mode: str, tally: Tally) -> dict | None:
    """One pass over the invocations; None if a worker failed."""
    results, digests = [], []
    for inv in invs:
        try:
            res = _spawn(mode, inv)
        except WorkerFailed as exc:
            tally.attempted += 1
            tally.failed += 1
            tally.problems.append(str(exc))
            return None
        digests.append(tally.check(inv, res))
        results.append(res)
    checks = [c for r in results for c in _scaled_checks(r)]
    return {
        "wall": sum(speed.scaled(r["wall"], *r["probe"]) for r in results),
        "raw_wall": sum(r["wall"] - r["probe"][1] for r in results),  # probing left out
        "setup": sum(speed.scaled(r["setup"], *r["ready_probe"]) for r in results),
        "longest": max(t for _k, _c, t in checks),
        "rss": max(r["rss_mb"] for r in results),
        "checks": checks,
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "results": results,
    }


def _scaled_checks(res: dict) -> list:
    """[key, check, seconds at the reference speed] per check of one invocation.

    A check shorter than the probe period may hold no probe; the speed over
    the whole verification stands in for it.
    """
    chunks, probe_s = res["probe"]
    whole = chunks / probe_s if probe_s > 0 else None
    return [[k, c, speed.scaled(t, n, p, whole)] for k, c, t, n, p in res["checks"]]


def _measure(invs, tally: Tally, seconds: float) -> list[dict]:
    """Whole rounds while the next is expected to end within `seconds`; at least one."""
    rounds: list[dict] = []
    durations: list[float] = []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        r = _round(invs, "verify", tally)
        if r is None:
            return rounds
        rounds.append(r)
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return rounds


def _setup_round(invs, tally: Tally) -> float | None:
    try:
        return sum(speed.scaled(r["setup"], *r["ready_probe"])
                   for r in (_spawn("setup", inv) for inv in invs))
    except WorkerFailed as exc:
        tally.problems.append(str(exc))
        return None


def _ledger_check(key: str, record: dict, tally: Tally) -> None:
    """Same inputs and same source must give the same digest and counts."""
    path = RESULTS / "ledger.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    old = ledger.get(key, {})
    for name, value in record.items():
        if name in old and old[name] != value:
            tally.problems.append(f"{name} differs from an earlier run with the same seed and source")
    ledger[key] = {**old, **record}
    RESULTS.mkdir(exist_ok=True)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")


def _source_key(workload: str, invs) -> str:
    h = hashlib.sha256(workload.encode())
    for inv in invs:
        h.update(json.dumps(inv.argv).encode())
    for path in sorted((SRC / "sasaki_lab").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _layer_metrics(traced: dict, untraced: list[dict], micro: dict) -> dict:
    layers: dict = {}
    for res in traced["results"]:
        for name, value in res["layers"].items():
            layers[name] = layers.get(name, 0) + value
    out = {name: layers.get(name, 0.0) for name in PER_LAYER if name.endswith(".self_s")}
    out.update({name: layers.get(name, 0) for name in _COUNTS})
    on_envs = out["tensor.memo_hits"] + out["tensor.memo_misses"]
    out["tensor.memo_hit_ratio"] = out["tensor.memo_hits"] / on_envs if on_envs else 0.0
    out.update({name: micro[name] for name in _MICRO})
    # raw times: the traced round runs without the speedometer
    untraced_wall = statistics.median(r["raw_wall"] for r in untraced)
    out["trace.wall_s"] = traced["raw_wall"]
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead"] = traced["wall"] / untraced_wall
    # per check and per entry: untraced times, medians over the rounds
    for name in CHECK_NAMES:
        out[f"check.{name}_s"] = statistics.median(
            sum(t for _k, c, t in r["checks"] if c == name) for r in untraced)
    for key in workloads.GALLERY_KEYS:
        out[f"entry.{key}_s"] = statistics.median(
            sum(t for k, _c, t in r["checks"] if k == key) for r in untraced)
    return out


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tally = Tally(workload)
    tally.problems.extend(f"self-test: {p}" for p in selftest.problems())
    invs = workloads.invocations(workload, seed % 2**31)

    units = PER_LAYER if trace else END_TO_END
    setups = [] if trace else [
        s for s in (_setup_round(invs, tally) for _ in range(SETUP_ROUNDS)) if s is not None]
    rounds = _measure(invs, tally, seconds)
    if len({r["digest"] for r in rounds}) > 1:
        tally.problems.append("report JSON differs between rounds with the same seed")
    setups += [r["setup"] for r in rounds]

    record = {"digest": rounds[0]["digest"]} if rounds else {}
    metrics: dict = {}
    if rounds and not trace:
        metrics = {
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "setup_s": statistics.median(setups),
            "longest_check_s": statistics.median(r["longest"] for r in rounds),
            "peak_rss_mb": statistics.median(r["rss"] for r in rounds),
        }
        print(f"raw wall_s median {statistics.median(r['raw_wall'] for r in rounds):.4f} s "
              f"over {len(rounds)} rounds", file=sys.stderr)
    elif rounds:
        traced = _round(invs, "trace", tally)
        micro = None
        try:
            micro = _spawn("micro")
        except WorkerFailed as exc:
            tally.problems.append(str(exc))
        if traced is not None and micro is not None:
            if traced["digest"] != rounds[0]["digest"]:
                tally.problems.append("traced report JSON differs from the untraced one")
            metrics = _layer_metrics(traced, rounds, micro)
            if workload == "dense-first-order" and any(
                    r["check_seeds_order2"] for r in traced["results"]):
                tally.problems.append("a dense-first-order check seeded a second dual level")
            record["counts"] = {name: metrics[name] for name in _COUNTS}
            RESULTS.mkdir(exist_ok=True)
            (RESULTS / f"trace-{workload}.json").write_text(json.dumps({
                "workload": workload, "seed": seed, "machine": _machine(),
                "invocations": [list(inv.argv) for inv in invs],
                "metrics": metrics,
            }, indent=1) + "\n")
    if record:
        _ledger_check(_source_key(workload, invs), record, tally)
    for p in tally.problems:
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not tally.problems and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sasaki_lab" / "cli.py").is_file():
        print("error: run from the root of a sasaki-lab source checkout "
              "(no src/sasaki_lab/cli.py here)", file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
