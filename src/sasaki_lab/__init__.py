"""Numerical laboratory for contact, homogeneous-symplectic, and Sasakian
structures on chart-described manifolds.

The package evaluates geometric structures (contact forms, cone metrics,
compatible endomorphisms, Levi data) on sampled chart points with
forward-mode dual numbers, and ships a corpus of worked examples — Darboux
models, a non-trivializable band and its jet/cotangent spaces, odd spheres,
and Sasakian products — each with a declared list of residual checks.

Entry points: the :mod:`sasaki_lab.cli` console script ``sasaki-lab``, and
`sasaki_lab.corpus.build_example` for programmatic access to the examples.
"""

from .report import VERSION as __version__  # noqa: F401
