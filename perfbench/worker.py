"""One benchmark invocation, run in a fresh interpreter by ``run.py``.

    python3 perfbench/worker.py '<spec json>'

The spec names the package source directory, the ``sasaki-lab`` command
line, the gallery entries it builds, and the mode:

* ``setup``: import the package and build the entries, then stop;
* ``verify``: also run the command through ``sasaki_lab.cli.main`` with
  the prebuilt entries, timing each ``CheckJob.run``;
* ``trace``: as ``verify``, under cProfile and the counting wrappers;
* ``micro``: time a few public functions in isolation.

In ``setup`` and ``verify`` a `speed.Speedometer` runs from the start, and
every time comes with the probe reading taken over it, so the parent can
scale it (see ``speed.py``).  The last line of standard output is one JSON
object with the results.  Timestamps are ``time.monotonic()``, which is
one clock for every process of the machine, so the parent can measure
set-up from the moment it started this process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
from pathlib import Path

import speed


def _prebuild(builds):
    from sasaki_lab import corpus

    return {(key, tuple(map(tuple, params))): corpus.build_example(key, **dict(params))
            for key, params in builds}


def _serve_prebuilt(prebuilt: dict) -> list:
    """Make the package's `build_example` return the prebuilt entries.

    Returns a one-element list holding how many entries were served.
    """
    from sasaki_lab import corpus

    from tracing import rebind

    original = corpus.build_example
    served = [0]

    def build_example(key, **params):
        ex = prebuilt.get((key, tuple(sorted(params.items()))))
        if ex is None:
            return original(key, **params)
        served[0] += 1
        return ex

    rebind(original, build_example)
    return served


def _since(meter, before) -> list:
    """[chunks, seconds] probed since the reading `before`."""
    if meter is None:
        return [0, 0.0]
    chunks, seconds = meter.reading()
    return [chunks - before[0], seconds - before[1]]


def _time_checks(prebuilt: dict, meter) -> list:
    """Wrap every entry's CheckJob.run with a timer.

    Returns the record list, one [key, check, seconds, chunks, probe
    seconds] per run.
    """
    record = []
    for (key, _params), ex in prebuilt.items():
        def timed(job, key=key):
            def run(*args, **kwargs):
                before = meter.reading() if meter else None
                t = time.perf_counter()
                try:
                    return job.run(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t
                    record.append([key, job.name, dt, *_since(meter, before)])
            return dataclasses.replace(job, run=run)

        ex.checks = tuple(timed(job) for job in ex.checks)
    return record


def _charts(prebuilt: dict) -> dict:
    """{key: {chart name: [box, ...]}} over every atlas of every entry."""
    out: dict = {}
    for (key, _params), ex in prebuilt.items():
        charts = out.setdefault(key, {})
        for atlas in ex.atlases.values():
            for chart in atlas.charts:
                charts.setdefault(chart.name, []).append([list(b) for b in chart.box])
    return out


def _verify(spec: dict, tracer, meter) -> dict:
    from sasaki_lab import cli

    if tracer is not None:
        tracer.install()
        tracer.profile.enable()
    prebuilt = _prebuild(spec["builds"])
    ready = time.monotonic()
    ready_probe = _since(meter, (0, 0.0))
    seeds_order2_at_ready = tracer.counts["numkernel.seeds_order2"] if tracer else 0
    if spec["mode"] == "setup":
        return {"ready": ready, "ready_probe": ready_probe}
    served = _serve_prebuilt(prebuilt)
    record = _time_checks(prebuilt, meter)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        before = meter.reading() if meter else None
        t = time.perf_counter()
        rc = cli.main(list(spec["argv"]))
        wall = time.perf_counter() - t
        probe = _since(meter, before)
    result = {
        "ready": ready,
        "ready_probe": ready_probe,
        "wall": wall,
        "probe": probe,
        "rc": rc,
        "served": served[0],
        "builds": len(prebuilt),
        "checks": record,
        "report": out.getvalue(),
        "charts": _charts(prebuilt),
    }
    if tracer is not None:
        tracer.profile.disable()
        result["layers"] = tracer.layer_metrics()
        # the builds may seed second levels (product-darboux runs its gate
        # plan); the checks' own share is what the workload rule is about
        result["check_seeds_order2"] = (
            tracer.counts["numkernel.seeds_order2"] - seeds_order2_at_ready)
    return result


def _per_call_us(fn, min_seconds: float = 0.05, repeats: int = 7) -> float:
    """Median over `repeats` timings of fn(), in microseconds per call."""
    n = 1
    while True:
        t = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t >= min_seconds:
            break
        n *= 2
    samples = []
    for _ in range(repeats):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t) / n * 1e6)
    samples.sort()
    return samples[len(samples) // 2]


def _micro() -> dict:
    from sasaki_lab import corpus, exprlang, numkernel as nk
    from sasaki_lab.tensor import field_jet

    point = [0.3, -0.7, 0.45, 0.1, -0.25, 0.8, -0.55]
    _, o1 = nk.seed(point)
    _, o2 = nk.seed(nk.seed(point)[1])

    def pair(xs):  # two duals whose tangents are all non-zero
        a = nk.sum_((0.5 + 0.1 * i) * x for i, x in enumerate(xs))
        b = 2.0 + nk.sum_((0.3 - 0.05 * i) * x for i, x in enumerate(xs))
        return a, b

    a1, b1 = pair(o1)
    a2, b2 = pair(o2)
    _, d5 = nk.seed(point[:5])
    mat = [[(4.0 if i == j else 0.5) + (i + 1) * 0.1 * d5[j] for j in range(5)]
           for i in range(5)]
    rhs = [d5[i] + 1.0 for i in range(5)]

    sphere = corpus.build_example("sphere-5")
    eta = next(f.field for f in sphere.fields if f.name == "eta")
    chart = sphere.atlas.chart("N")
    coords = (0.4, -0.3, 0.2, 0.5, -0.1)

    expr = exprlang.parse("0.5 * sin(0.7 * x) - 0.3 * cos(0.4 * z) + 0.2 * x / (1.5 + z^2)")
    env = {"x": 0.35, "z": -0.6}
    return {
        "micro.dual_mul_o1_d7_us": _per_call_us(lambda: a1 * b1),
        "micro.dual_mul_o2_d7_us": _per_call_us(lambda: a2 * b2),
        "micro.dual_div_o2_d7_us": _per_call_us(lambda: a2 / b2),
        "micro.solve_linear_o1_d5_us": _per_call_us(lambda: nk.solve_linear(mat, rhs)),
        # a fresh env per call, so the per-point memo cannot answer
        "micro.field_jet_sphere5_us": _per_call_us(
            lambda: field_jet(eta, "N", chart.env(coords))),
        "micro.eval_expr_us": _per_call_us(lambda: exprlang.eval_expr(expr, env)),
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    meter = None
    if spec["mode"] in ("setup", "verify"):
        meter = speed.Speedometer()
        meter.start()
    sys.path.insert(0, str(Path(spec["src"]).resolve()))
    if spec["mode"] == "micro":
        result = _micro()
    else:
        tracer = None
        if spec["mode"] == "trace":
            from tracing import Tracer

            tracer = Tracer()
        result = _verify(spec, tracer, meter)
    if meter is not None:
        meter.stop()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
