"""Exercises the command-line runner through ``main(argv)`` directly."""

import json
import tempfile
from pathlib import Path

import pytest

from sasaki_lab.cli import main
from sasaki_lab.corpus import EXAMPLE_KEYS


def test_list_names_every_entry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXAMPLE_KEYS:
        assert key in out


def test_verify_single_entry_matches(capsys):
    rc = main(["verify", "darboux-1", "--samples", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "darboux-1/sasaki: PASS" in out
    assert "checks matched their declared verdicts" in out


def test_verify_declared_failure_counts_as_match(capsys):
    rc = main(
        ["verify", "main1-family", "--param", "a=x", "--samples", "4"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "main1-family/integrability: FAIL" in out
    assert "<- expected" not in out


def test_verify_unexpected_verdict_exits_one(capsys):
    rc = main(
        [
            "verify", "sphere-3", "--checks", "reeb_reference",
            "--samples", "2", "--tol", "1e-30",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "<- expected pass" in out


def test_unknown_key_exits_two(capsys):
    assert main(["verify", "darboux-9"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv,line", [
    (["verify", "nokey"],
     "error: unknown example 'nokey'; known keys: " + ", ".join(EXAMPLE_KEYS)),
    (["verify", "main1-family", "--param", "a=y"],
     "error: main1-family: bad slope a='y': y not among the base coordinates"),
], ids=["unknown-key", "bad-slope"])
def test_error_line_has_no_repr_quotes(argv, line, capsys):
    """An exit-2 message is printed as written, not as a KeyError's repr."""
    assert main(argv) == 2
    assert capsys.readouterr().err == line + "\n"


def test_unknown_check_exits_two(capsys):
    rc = main(["verify", "darboux-1", "--checks", "no_such_check"])
    assert rc == 2
    assert "no_such_check" in capsys.readouterr().err


MALFORMED_PARAMS = [
    ("a", "NAME=VALUE"),
    ("a=x+", "expected a value"),  # a parse error
    ("a=y", "y not among the base coordinates"),  # a free variable
    ("a=s", "s not among the base coordinates"),  # the fibre coordinate
    ("a=1e400", "overflows to inf"),  # a non-finite literal
]


@pytest.mark.parametrize(
    "param,message", MALFORMED_PARAMS, ids=[p for p, _ in MALFORMED_PARAMS]
)
def test_malformed_param_exits_two(param, message, capsys):
    """A malformed parameter or slope is bad input for verify and show alike."""
    for command in ("verify", "show"):
        assert main([command, "main1-family", "--param", param]) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err, command


def test_repeated_param_exits_two(capsys):
    """A name given twice is bad input, not a silent last-one-wins."""
    for command in ("verify", "show"):
        argv = [command, "main1-family", "--param", "a=1", "--param", "a=x"]
        assert main(argv + (["--samples", "2"] if command == "verify" else [])) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --param 'a' given more than once\n"


@pytest.mark.parametrize("checks", [",", " , ,"])
def test_checks_naming_no_check_exits_two(checks, capsys):
    assert main(["verify", "darboux-1", "--checks", checks, "--samples", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --checks {checks!r} names no check\n"


def test_unwritable_json_path_exits_two_before_any_check(tmp_path, capsys, monkeypatch):
    """The --json path is tried before any check runs."""

    def no_checks(*args, **kwargs):
        raise AssertionError("ran checks despite bad input")

    monkeypatch.setattr("sasaki_lab.corpus.Example.sample_set", no_checks)
    for path, reason in ((tmp_path / "missing" / "x.json", "No such file or directory"),
                         (tmp_path, "Is a directory")):
        assert main(["verify", "darboux-1", "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: cannot write --json {path}: {reason}\n"


def test_json_path_probe_keeps_an_existing_file_until_the_report(tmp_path, capsys):
    """Bad input leaves the --json path as it was: no file made, none cut."""
    assert main(["verify", "nokey", "--json", str(tmp_path / "new.json")]) == 2
    assert not (tmp_path / "new.json").exists()
    path = tmp_path / "report.json"
    path.write_text("old\n")
    assert main(["verify", "darboux-1", "--checks", "nope", "--json", str(path)]) == 2
    assert path.read_text() == "old\n"
    assert main(["verify", "darboux-1", "--checks", "contact_form", "--samples", "2",
                 "--json", str(path)]) == 0
    assert json.loads(path.read_text())[0]["declared"]["check"] == "contact_form"


BAD_OPTIONS = [
    ("--samples", "0"), ("--samples", "-3"), ("--samples", "two"),
    ("--seed", "-1"), ("--seed", "1.5"),
    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"), ("--tol", "tight"),
]


@pytest.mark.parametrize(
    "flag,value", BAD_OPTIONS,
    ids=[v if f == "--samples" else f"{f[2:]}={v}" for f, v in BAD_OPTIONS],
)
def test_bad_sample_count_exits_two_before_any_build(
    flag, value, capsys, monkeypatch
):
    """A bad --samples, --seed or --tol exits 2 before any entry is built."""

    def no_build(*args, **kwargs):
        raise AssertionError("built an entry despite bad input")

    monkeypatch.setattr("sasaki_lab.cli.build_example", no_build)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "darboux-1", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_zero_tolerance_is_accepted(capsys):
    """contact_form declares 0.0, so --tol 0 is a valid override."""
    rc = main(["verify", "darboux-1", "--checks", "contact_form",
               "--tol", "0", "--samples", "2"])
    assert rc == 0


def test_checks_filter_limits_json(tmp_path, capsys):
    path = tmp_path / "one.json"
    rc = main(
        [
            "verify", "darboux-1", "--checks", "sasaki",
            "--samples", "4", "--json", str(path),
        ]
    )
    capsys.readouterr()
    assert rc == 0
    entries = json.loads(path.read_text())
    assert len(entries) == 1
    assert entries[0]["declared"] == {
        "key": "darboux-1",
        "check": "sasaki",
        "expect": "pass",
        "matched": True,
    }
    for field in ("check", "seed", "samples", "tolerance", "max_residual",
                  "per_chart", "verdict"):
        assert field in entries[0]


def test_json_bytes_stable_at_fixed_flags(tmp_path, capsys):
    argv = ["verify", "mobius-band", "--samples", "4", "--json"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_json_dash_writes_payload_to_stdout(capsys):
    rc = main(["verify", "mobius-band", "--samples", "2", "--json", "-"])
    captured = capsys.readouterr()
    assert rc == 0
    entries = json.loads(captured.out)
    assert all(e["declared"]["matched"] for e in entries)
    assert "checks matched" in captured.err


def test_tol_reaches_every_check(capsys):
    """--tol replaces each declared tolerance, contact_form's included."""
    rc = main(
        [
            "verify", "darboux-1", "--checks", "contact_form,reeb_residual",
            "--tol", "0.5", "--samples", "4", "--json", "-",
        ]
    )
    entries = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [(e["declared"]["check"], e["tolerance"]) for e in entries] == [
        ("contact_form", 0.5),
        ("reeb_residual", 0.5),
    ]
    assert all(e["example"] == "darboux-1" for e in entries)


def test_samples_counts_the_rows_reduced(capsys):
    """A report's samples is its number of reduced points, whatever the check."""
    argv = ["verify", "sphere-5", "--checks", "sasaki,contact_form",
            "--samples", "4", "--json", "-"]
    assert main(argv) == 0
    entries = json.loads(capsys.readouterr().out)
    # two charts of four points each
    assert {e["declared"]["check"]: e["samples"] for e in entries} == {
        "sasaki": 8, "contact_form": 8,
    }
    argv = ["verify", "mobius-jet", "--checks", "paired_consistency",
            "--samples", "4", "--json", "-"]
    assert main(argv) == 0
    (entry,) = json.loads(capsys.readouterr().out)
    # five fields, two transitions of two pieces each, four points a piece
    assert entry["samples"] == 5 * 2 * 2 * 4


@pytest.mark.parametrize("key", ["darboux-1", "mobius-jet"])
def test_show_emits_definition_header(key, capsys):
    assert main(["show", key]) == 0
    out = capsys.readouterr().out
    assert out.startswith("corpus-example v1\n")
    assert f"key: {key}" in out


def test_show_unknown_key_exits_two(capsys):
    assert main(["show", "nonsense"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["darboux-1", "mobius-jet"])
def test_json_bytes_stable_across_runs(key, tmp_path, capsys):
    outputs = []
    for run in ("a", "b"):
        path = tmp_path / f"{run}.json"
        assert main(["verify", key, "--json", str(path)]) == 0
        outputs.append(path.read_bytes())
    capsys.readouterr()
    assert outputs[0] == outputs[1]


# -- one sample set per entry ------------------------------------------


def _record_chart_envs(monkeypatch):
    """Patch `manifold.sample_domain` to note, for each atlas a sampled
    check draws, weak references to its groups' batch envs and whether
    they are the very envs the entry's first such check got."""
    import weakref

    from sasaki_lab import manifold

    seen, same_as_first = [], []
    draw = manifold.sample_domain

    def recording(domain, plan):
        groups = draw(domain, plan)
        if isinstance(domain, manifold.Atlas):
            envs = [env for _, _, _, env in groups]
            if seen:
                first = [ref() for ref in seen[0]]
                same_as_first.append(
                    len(first) == len(envs) and all(a is b for a, b in zip(first, envs))
                )
            seen.append([weakref.ref(env) for env in envs])
        return groups

    monkeypatch.setattr(manifold, "sample_domain", recording)
    return seen, same_as_first


def test_checks_of_an_entry_share_their_chart_envs(monkeypatch, capsys):
    import gc

    seen, same_as_first = _record_chart_envs(monkeypatch)
    argv = ["verify", "sphere-3", "--checks", "contact_form,reeb_residual,sasaki",
            "--samples", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(seen) == 3 and len(seen[0]) == 2  # two charts
    assert same_as_first == [True, True]
    # the set goes with the entry's last check, and its envs with it
    gc.collect()
    assert all(ref() is None for refs in seen for ref in refs)


def test_shared_memos_keep_only_declared_fields(monkeypatch, capsys):
    from sasaki_lab.tensor import SampleSet

    pruned = []
    prune = SampleSet.prune

    def checked(self):
        prune(self)
        kept = []

        def walk(memo):
            for key, value in memo.items():
                if key[0] == "seeded":
                    walk(value[1].memo)
                else:
                    assert key[0] in self.declared, key[0].name
                    kept.append(key[0])

        for env in self.envs():
            walk(env.memo)
        pruned.append(kept)

    monkeypatch.setattr(SampleSet, "prune", checked)
    argv = ["verify", "sphere-3", "--checks", "contact_form,sasaki", "--samples", "4"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(pruned) == 2  # once after each check
    assert pruned[-1]  # declared fields' entries outlive a check


def test_gates_at_build_time_use_no_sample_set(monkeypatch):
    from sasaki_lab import manifold
    from sasaki_lab.corpus import build_example
    from sasaki_lab.tensor import SampleSet

    drawn, shared = [], []
    draw, points = manifold.sample_chart, SampleSet.points
    monkeypatch.setattr(
        manifold, "sample_chart", lambda *a: drawn.append(1) or draw(*a)
    )
    monkeypatch.setattr(
        SampleSet, "points", lambda *a: shared.append(1) or points(*a)
    )
    build_example("product-darboux")  # gates its factors at build time
    assert drawn and not shared


def _reports(argv, tmp_path, capsys):
    path = tmp_path / "reports.json"
    assert main([*argv, "--json", str(path)]) == 0
    capsys.readouterr()
    return {
        e["declared"]["check"]: json.dumps(e, indent=2, sort_keys=True)
        for e in json.loads(path.read_text())
    }


@pytest.mark.parametrize(
    "key", ["main1-family", "sphere-5", "mobius-jet", "product-darboux"]
)
def test_report_does_not_depend_on_check_selection(key, tmp_path, capsys):
    """A check's report inside its whole entry is the one it gives alone:
    neither the checks run before it nor the samples they share change it."""
    argv = ["verify", key, "--samples", "4"]
    whole = _reports(argv, tmp_path, capsys)
    assert len(whole) > 5
    for name, report in whole.items():
        assert _reports([*argv, "--checks", name], tmp_path, capsys) == {
            name: report
        }


REPORT_SHAPE = Path(__file__).resolve().parents[1] / "golden" / "report-shape.json"


def _shape(entry: dict) -> dict:
    """A report without its floats: names, verdict, sample count, witness chart."""
    witness = entry["witness"]
    return {
        "key": entry["declared"]["key"],
        "declared_check": entry["declared"]["check"],
        "check": entry["check"],
        "verdict": entry["verdict"],
        "samples": entry["samples"],
        "per_chart": sorted(entry["per_chart"]),
        "details": sorted(entry["details"]),
        "witness_chart": witness and witness["chart"],
    }


def report_shapes(path: Path) -> list:
    """The shape of every report of ``verify all --samples 4``, via `path`."""
    assert main(["verify", "all", "--samples", "4", "--json", str(path)]) == 0
    return [_shape(e) for e in json.loads(path.read_text())]


def write_report_shape() -> None:
    """Rewrite the golden report shapes, one report per line."""
    with tempfile.TemporaryDirectory() as tmp:
        shapes = report_shapes(Path(tmp) / "reports.json")
    lines = ",\n".join(json.dumps(s, sort_keys=True) for s in shapes)
    REPORT_SHAPE.write_text(f"[\n{lines}\n]\n")


def test_report_shapes_match_golden(tmp_path, capsys):
    """Every report keeps its names, verdict, sample count and witness chart:
    a record that goes missing or leaks into ``per_chart`` shows here.  No
    floats, so a last-bit difference on another machine cannot break it.
    Regenerate after a deliberate change with

        PYTHONPATH=src python -c 'import sys; sys.path.insert(0, "tests"); import test_cli; test_cli.write_report_shape()'
    """
    got = report_shapes(tmp_path / "reports.json")
    capsys.readouterr()
    assert got == json.loads(REPORT_SHAPE.read_text())


REPORT_BYTES = Path(__file__).resolve().parents[1] / "golden" / "report-bytes.json"
# Two runs whose JSON is pinned byte for byte: the whole gallery, and a slope
# whose integrability fails as declared, with its witness.
REPORT_BYTES_ARGV = (
    ("verify", "all", "--samples", "16"),
    ("verify", "main1-family", "--param", "a=0.7*x", "--samples", "16"),
)


def report_bytes(tmp: Path) -> dict:
    """{command line: its ``--json`` file's text} for `REPORT_BYTES_ARGV`."""
    out = {}
    for argv in REPORT_BYTES_ARGV:
        path = tmp / "reports.json"
        assert main([*argv, "--json", str(path)]) == 0
        out[" ".join(argv)] = path.read_text()
    return out


def write_report_bytes() -> None:
    """Rewrite the pinned report bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        runs = report_bytes(Path(tmp))
    REPORT_BYTES.write_text(json.dumps(runs, indent=1, ensure_ascii=False) + "\n")


def test_report_bytes_match_golden(tmp_path, capsys):
    """Every residual, witness and record of the two pinned runs is the same
    to the last bit: an engine change that keeps the arithmetic keeps these
    bytes.  Regenerate after a deliberate change with

        PYTHONPATH=src python -c 'import sys; sys.path.insert(0, "tests"); import test_cli; test_cli.write_report_bytes()'
    """
    got = report_bytes(tmp_path)
    capsys.readouterr()
    want = json.loads(REPORT_BYTES.read_text())
    assert list(got) == list(want)
    for argv, text in got.items():
        assert text == want[argv], argv
