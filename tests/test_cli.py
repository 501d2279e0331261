"""Exercises the command-line runner through ``main(argv)`` directly."""

import json

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


def test_unknown_check_exits_two(capsys):
    rc = main(["verify", "darboux-1", "--checks", "no_such_check"])
    assert rc == 2
    assert "no_such_check" in capsys.readouterr().err


def test_malformed_param_exits_two(capsys):
    assert main(["verify", "main1-family", "--param", "a"]) == 2
    assert "NAME=VALUE" in capsys.readouterr().err


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
    """A report's samples is its number of reduced rows, whatever the check."""
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
