"""Batch verification runner: list, verify, and show gallery entries.

Exit codes: 0 when every executed check produced its declared verdict
(declared failures count as matches), 1 when any check produced an
unexpected verdict, 2 for unknown keys, checks, or parameters, for a
``main1-family`` slope that does not parse, has a variable other than the
base coordinates or a literal that overflows to inf, for a ``--param``
name given twice, and for bad option values (``--samples`` below 1,
``--seed`` below 0, a ``--tol`` that is negative or not finite, a
``--checks`` list that names no check, a ``--json`` path that cannot be
written); all of these exit before any check runs.  The JSON report array
(``--json``) is byte-identical across runs with equal flags; its schema is
documented in ``docs/report-schema.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .corpus import EXAMPLE_KEYS, UnknownKey, build_example, emit_example
from .manifold import SamplePlan


def _int_from(least: int):
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}")
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n

    return parse


def _tolerance(text: str) -> float:
    try:
        t = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not math.isfinite(t) or t < 0:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text}")
    return t


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sasaki-lab",
        description="verify the built-in gallery of contact/cone structures",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="show available entry keys")
    p_list.set_defaults(fn=_cmd_list)

    p_verify = sub.add_parser("verify", help="run declared checks for a key")
    p_verify.add_argument("key", help="entry key, or 'all'")
    p_verify.add_argument(
        "--checks", default=None,
        help="comma-separated check names; default is every declared check",
    )
    p_verify.add_argument("--samples", type=_int_from(1), default=None,
                          metavar="N", help="points per chart (default 64)")
    p_verify.add_argument("--seed", type=_int_from(0), default=None, metavar="S")
    p_verify.add_argument(
        "--tol", type=_tolerance, default=None, metavar="T",
        help="override every declared tolerance",
    )
    p_verify.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the report array to PATH ('-' or bare flag: stdout)",
    )
    p_verify.add_argument(
        "--param", action="append", default=[], metavar="NAME=VALUE",
        help="entry parameter, e.g. --param a=x (repeatable)",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_show = sub.add_parser("show", help="print an entry's definition file")
    p_show.add_argument("key")
    p_show.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p_show.set_defaults(fn=_cmd_show)
    return top


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for raw in pairs:
        name, eq, value = raw.partition("=")
        if not eq or not name:
            raise UnknownKey(f"bad --param {raw!r}; expected NAME=VALUE")
        if name in out:
            raise UnknownKey(f"--param {name!r} given more than once")
        out[name] = value
    return out


def _cmd_list(args) -> int:
    for key in EXAMPLE_KEYS:
        ex = build_example(key)
        print(f"{key:18s} {len(ex.checks):2d} checks  {ex.summary}")
    return 0


def _cmd_show(args) -> int:
    ex = build_example(args.key, **_parse_params(args.param))
    sys.stdout.write(emit_example(ex))
    return 0


def _cmd_verify(args) -> int:
    keys = list(EXAMPLE_KEYS) if args.key == "all" else [args.key]
    params = _parse_params(args.param)
    plan = SamplePlan(
        seed=42 if args.seed is None else args.seed,
        points_per_chart=64 if args.samples is None else args.samples,
    )
    wanted = None
    if args.checks is not None:
        wanted = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not wanted:
            raise UnknownKey(f"--checks {args.checks!r} names no check")

    # Build everything up front so unknown keys/params, like an unwritable
    # --json path, exit before any check runs; the builds also pin the
    # declared check lists.
    examples = [build_example(k, **params) for k in keys]
    if wanted is not None:
        declared = {job.name for ex in examples for job in ex.checks}
        missing = [c for c in wanted if c not in declared]
        if missing:
            raise UnknownKey(
                f"no declared check named {', '.join(missing)} in {args.key}"
            )
    if args.json not in (None, "-"):
        try:  # append mode creates a missing file and keeps an existing one
            open(args.json, "a").close()
        except OSError as exc:
            print(f"error: cannot write --json {args.json}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2

    results = []
    for ex in examples:
        # the entry's checks share its chart samples and the memo of its
        # declared fields and maps; the set goes with the entry's last check
        shared = ex.sample_set()
        entry_plan = dataclasses.replace(plan, sample_set=shared)
        for job in ex.checks:
            if wanted is None or job.name in wanted:
                results.append((ex.key, job, job.run(entry_plan, args.tol)))
                shared.prune()

    matched = sum(1 for _, job, rep in results if rep.verdict == job.expect)
    table_out = sys.stdout
    if args.json is not None:
        entries = []
        for key, job, rep in results:
            entry = rep.to_dict()
            entry["declared"] = {
                "key": key,
                "check": job.name,
                "expect": job.expect,
                "matched": rep.verdict == job.expect,
            }
            entries.append(entry)
        payload = json.dumps(entries, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
            table_out = sys.stderr
        else:
            with open(args.json, "w") as fh:
                fh.write(payload + "\n")
    for key, job, rep in results:
        note = "" if rep.verdict == job.expect else f"  <- expected {job.expect}"
        print(
            f"{key}/{job.name}: {rep.verdict.upper()}  max residual "
            f"{rep.max_residual:.3e} (tol {rep.tolerance:.1e}, "
            f"{rep.samples} samples){note}",
            file=table_out,
        )
    ok = matched == len(results)
    print(
        f"{matched}/{len(results)} checks matched their declared verdicts",
        file=table_out,
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except UnknownKey as exc:  # str() of a KeyError would quote the message
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
