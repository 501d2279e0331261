"""The benchmark's workloads: what each invocation verifies, made from a seed.

A workload is a list of invocations.  Each invocation is one fresh
interpreter running one ``sasaki-lab`` command line; ``builds`` names the
gallery entries (key and parameters) that command builds, so the worker
can build them during set-up and time the verification alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The gallery keys of the README's table, in gallery order.
GALLERY_KEYS = (
    "darboux-1", "darboux-2", "mobius-band", "mobius-jet", "mobius-cotangent",
    "sphere-3", "sphere-5", "product-darboux", "main1-family",
)

# Checks that never seed a second dual level (no jet inside a jet): chart
# gluing, single-valuedness, the contact condition, the Reeb equations and
# closed-form references.  Traced runs confirm the rule: their order-2 seed
# count on this workload must be 0.
DENSE_CHECKS = (
    "atlas_consistency", "base_atlas_consistency",
    "single_valued_two_form", "single_valued_metric", "single_valued_complex",
    "single_valued_eta", "contact_form", "reeb_residual", "embedding_frame",
    "contact_form_reference", "sections_global", "sections_independent",
)
DENSE_POINTS = 384
SLOPE_POINTS = 256


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]  # the sasaki-lab command line, without the program
    builds: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]  # (key, params)
    slope_constant: bool = False  # True when the main1-family slope has no free variable


def slope_family(seed: int) -> list[tuple[str, bool]]:
    """Six main1-family slopes (source, is_constant), in a fixed order of shapes.

    Two constants, then four smooth non-constant expressions in x and z
    built from + - * / ^ sin cos exp.  The seed picks the coefficients, the
    signs, which variable plays which role and sin or cos; the shapes stay
    fixed, so every seed costs about the same.  Denominators are bounded
    away from 0 and exponents stay bounded on the chart box [-1, 1]^2, so
    no slope leaves the domain of its functions.
    """
    rng = random.Random(seed)
    u, v = rng.sample(["x", "z"], 2)
    f, g = rng.choice([("sin", "cos"), ("cos", "sin")])

    def c():  # a coefficient
        return f"{rng.uniform(0.2, 0.9):.3f}"

    def o():  # a sign
        return rng.choice("+-")

    return [
        (f"{rng.choice(['-', ''])}{c()}", True),
        (f"{c()}^2 {o()} {c()} / (1 + {c()})", True),
        (f"{c()} {o()} {c()} * {u} {o()} {c()} * {v}^2", False),
        (f"{c()} * {f}({c()} * {u}) {o()} {c()} * {g}({c()} * {v})", False),
        (f"{c()} * {u} / (1 + {c()} + {v}^2)", False),
        (f"{c()} * exp({c()} * {f}({u})) {o()} {c()} * {v}", False),
    ]


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one round of `workload` at `seed`."""
    everything = tuple((k, ()) for k in GALLERY_KEYS)
    if workload == "gallery":
        return [Invocation(("verify", "all", "--seed", str(seed), "--json", "-"), everything)]
    if workload == "dense-first-order":
        argv = ("verify", "all", "--seed", str(seed), "--samples", str(DENSE_POINTS),
                "--checks", ",".join(DENSE_CHECKS), "--json", "-")
        return [Invocation(argv, everything)]
    if workload == "slope-family":
        return [
            Invocation(
                ("verify", "main1-family", "--param", f"a={src}", "--seed", str(seed),
                 "--samples", str(SLOPE_POINTS), "--json", "-"),
                (("main1-family", (("a", src),)),),
                slope_constant=constant,
            )
            for src, constant in slope_family(seed)
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("gallery", "dense-first-order", "slope-family")
