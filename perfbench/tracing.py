"""Per-layer tracing for one worker process: call counters and self times.

Counters come from wrappers put around public functions of the package.
A function imported by name (``from .manifold import sample_chart``) has
one binding per importing module, so every binding that is the original
object is replaced.  Self times come from cProfile, aggregated by the
module that defines each function.  Built-in calls are not profiled on
their own, so their time stays with the calling function: ``isinstance``
and ``max`` inside ``numkernel`` count as ``numkernel``.  (This also keeps
the profiler's overhead down.)

Import this module only after ``sasaki_lab`` is importable; install the
wrappers before the gallery entries are built, so set-up work is counted.
"""

from __future__ import annotations

import cProfile
import functools
import pstats
import sys
from collections import Counter

LAYERS = (
    "numkernel", "exprlang", "manifold", "tensor", "contact", "sasaki",
    "kahler", "bundle", "product", "report", "corpus", "cli",
)

# DScalar operator entry points (``__radd__``/``__rmul__`` share the code
# of ``__add__``/``__mul__``) and ``powi``: one call is one dual operation.
_DUAL_OPS = {
    "__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
    "__rtruediv__", "__neg__", "powi",
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sasaki_lab" or name.startswith("sasaki_lab."))]


def rebind(old, new) -> int:
    """Replace every module-level binding of `old` in the package by `new`."""
    n = 0
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                n += 1
    if n == 0:
        raise RuntimeError(f"no binding of {old!r} found to wrap")
    return n


class Tracer:
    """Counts calls through wrappers and profiles a stretch of work."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.profile = cProfile.Profile(builtins=False)

    def install(self) -> None:
        from sasaki_lab import exprlang, manifold, numkernel as nk, report, tensor

        c = self.counts

        def counting(fn, key, size=None):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                c[key] += 1 if size is None else size(out)
                return out
            return wrapper

        orig_seed = nk.seed

        @functools.wraps(orig_seed)
        def seed(values):
            nested = any(isinstance(v, nk.DScalar) for v in values)
            c["numkernel.seeds_order2" if nested else "numkernel.seeds_order1"] += 1
            return orig_seed(values)

        rebind(orig_seed, seed)
        rebind(nk.solve_linear_info, counting(nk.solve_linear_info, "numkernel.solves"))
        rebind(exprlang.eval_expr, counting(exprlang.eval_expr, "exprlang.evals"))
        rebind(exprlang.parse, counting(exprlang.parse, "exprlang.parses"))
        rebind(manifold.sample_chart,
               counting(manifold.sample_chart, "manifold.points_sampled", len))
        # transition-piece samples (atlas and cross-chart consistency); the
        # one caller outside manifold imports it inside a function
        rebind(manifold._piece_sample,
               counting(manifold._piece_sample, "manifold.points_sampled", len))
        rebind(report.run_residual_check,
               counting(report.run_residual_check, "report.residual_checks"))
        rebind(tensor.field_jet, counting(tensor.field_jet, "tensor.jets"))
        tensor.SmoothMap.jet = counting(tensor.SmoothMap.jet, "tensor.jets")

        env_init = manifold.PointEnv.__init__

        def point_env_init(self, *args, **kwargs):
            c["manifold.envs"] += 1
            env_init(self, *args, **kwargs)

        manifold.PointEnv.__init__ = point_env_init

        orig_at = tensor.TensorField.at
        point_env = manifold.PointEnv

        @functools.wraps(orig_at)
        def at(self, chart, env):
            c["tensor.at_calls"] += 1
            if not isinstance(env, point_env):
                c["tensor.at_plain_env"] += 1
            elif (self, chart) in env.memo:
                c["tensor.memo_hits"] += 1
            else:
                c["tensor.memo_misses"] += 1
            return orig_at(self, chart, env)

        tensor.TensorField.at = at

    def layer_metrics(self) -> dict:
        """Self seconds per layer, dual operations, and the wrapper counts."""
        stats = pstats.Stats(self.profile).stats
        self_s = dict.fromkeys(LAYERS, 0.0)
        dual_ops = 0
        for (path, _line, func), (_cc, nc, tt, _ct, _callers) in stats.items():
            layer = _layer_of(path)
            if layer:
                self_s[layer] += tt
                if layer == "numkernel" and func in _DUAL_OPS:
                    dual_ops += nc
        out = {f"{layer}.self_s": secs for layer, secs in self_s.items()}
        out["numkernel.dual_ops"] = dual_ops
        out.update(self.counts)
        return out


def _layer_of(path: str) -> str | None:
    parts = path.replace("\\", "/").rsplit("/", 2)
    if len(parts) == 3 and parts[1] == "sasaki_lab" and parts[2].endswith(".py"):
        layer = parts[2][:-3]
        return layer if layer in LAYERS else None
    return None
