import json

import numpy as np
import pytest

from chslab.budgets import Budgets
from chslab.cli import main
from chslab.reporting import combined_csv, format_float
from chslab.runner import ExperimentConfig, run, sweep, validate_params


def test_validate_params():
    resolved = validate_params("prsg-td", {"lam": 2, "n": 3})
    assert resolved == {"lam": 2, "n": 3, "ell": 1, "t": 0}
    with pytest.raises(ValueError, match="unknown experiment"):
        validate_params("nope", {})
    with pytest.raises(ValueError, match="unknown parameters"):
        validate_params("prsg-td", {"lam": 2, "n": 3, "bogus": 1})
    with pytest.raises(ValueError, match="requires parameter"):
        validate_params("prsg-td", {"lam": 2})


@pytest.mark.parametrize(
    "params",
    [
        {"lam": 2.7, "n": 3},
        {"lam": 2, "n": 3, "ell": True},
        {"lam": 2, "n": False},
        {"lam": "2.5", "n": 3},
        {"lam": "two", "n": 3},
        {"lam": None, "n": 3},
    ],
)
def test_validate_params_rejects_instead_of_coercing(params):
    with pytest.raises(ValueError, match="must be int"):
        validate_params("prsg-td", params)


def test_validate_params_accepts_integral_values():
    # Integral strings are what ``chs-lab sweep`` passes for fixed parameters.
    resolved = validate_params("prsg-td", {"lam": "2", "n": 3.0, "t": "1"})
    assert resolved == {"lam": 2, "n": 3, "ell": 1, "t": 1}
    assert all(type(value) is int for value in resolved.values())
    with pytest.raises(ValueError, match="must be str"):
        validate_params("commit-binding", {"lam": 1, "n": 2, "adversary": 3})


def test_repeated_runs_are_byte_identical(tmp_path):
    config = ExperimentConfig(
        "prsg-td",
        {"lam": 2, "n": 3, "ell": 1, "t": 1},
        seed=7,
        output_path=str(tmp_path / "a.json"),
    )
    run(config)
    first = (tmp_path / "a.json").read_bytes()
    config_b = ExperimentConfig(
        "prsg-td",
        {"lam": 2, "n": 3, "ell": 1, "t": 1},
        seed=7,
        output_path=str(tmp_path / "b.json"),
    )
    run(config_b)
    assert first == (tmp_path / "b.json").read_bytes()


def test_report_serialization_round_trips_floats():
    report = run(ExperimentConfig("pgm", {"n": 2, "m": 1}, seed=1))
    payload = json.loads(report.to_json())
    for key, rendered in payload["quantities"].items():
        assert float(rendered) == report.quantities[key]
    csv_text = report.to_csv()
    header, row = csv_text.strip().split("\n")
    assert len(header.split(",")) == len(row.split(","))


def test_impossibility_report_contains_rank():
    report = run(ExperimentConfig("impossibility", {"lam": 1, "n": 2, "ell": 1, "t": 1}, seed=1))
    assert report.quantities["rank_rho1_measured"] == 16


def test_commit_binding_honest_p0_is_one():
    report = run(
        ExperimentConfig("commit-binding", {"lam": 1, "n": 2, "p": 2}, seed=9)
    )
    assert report.quantities["p0"] == pytest.approx(1.0, abs=1e-12)


def test_sweep_lambda_monotone(tmp_path):
    base = ExperimentConfig(
        "prsg-td",
        {"n": 4, "ell": 1, "t": 1},
        seed=3,
        output_path=str(tmp_path / "sweep.csv"),
    )
    reports, table = sweep(base, "lam", [1, 2, 3])
    tds = [r.quantities["td_real_ideal"] for r in reports]
    assert tds == sorted(tds, reverse=True)
    lines = table.strip().split("\n")
    assert len(lines) == 4  # header + 3 rows
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_binding_bound_column():
    base = ExperimentConfig("commit-binding", {"lam": 1, "n": 2}, seed=3)
    reports, _ = sweep(base, "p", [1, 2, 3])
    for p, report in zip([1, 2, 3], reports):
        expected = 1 + ((1 + 2**-0.5) / 2) ** p
        assert report.bounds["sum_binding_bound"] == pytest.approx(expected, abs=1e-12)


def test_sweep_empty_values():
    base = ExperimentConfig("pgm", {"n": 1, "m": 1}, seed=1)
    reports, table = sweep(base, "m", [])
    assert reports == [] and table == ""


def test_sweep_marks_failures_and_continues():
    base = ExperimentConfig(
        "prsg-td",
        {"n": 3, "ell": 1, "t": 1},
        seed=1,
        budgets=Budgets(max_type_count=10),
    )
    reports, table = sweep(base, "lam", [2, 3])
    assert all(not r.passed() for r in reports)
    assert all("run failed" in note for r in reports for note in r.notes)
    assert "run_completed" in table


def test_sweep_axis_order_preserved():
    base = ExperimentConfig("pgm", {"m": 1}, seed=1)
    reports, _ = sweep(base, "n", [2, 1])
    assert [r.params["n"] for r in reports] == [2, 1]


def test_format_float_full_precision():
    value = 1 / 3
    assert float(format_float(value)) == value
    assert format_float(None) == ""
    assert format_float(7) == "7"


def test_combined_csv_union_of_columns():
    report_a = run(ExperimentConfig("pgm", {"n": 1, "m": 0}, seed=1))
    report_b = run(ExperimentConfig("pgm", {"n": 1, "m": 1}, seed=1))
    table = combined_csv([report_a, report_b])
    lines = table.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].count(",") == lines[1].count(",") == lines[2].count(",")


def test_cli_run_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "prsg-td",
            "--lam", "2", "--n", "3", "--ell", "1", "--t", "1",
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["all_flags_pass"] is True
    printed = json.loads(capsys.readouterr().out)
    assert printed == payload


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"lam": 1, "n": 2, "ell": 1, "t": 1}))
    code = main(["impossibility", "--config", str(config_file), "--lam", "2", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["lam"] == 2  # flag wins over the file
    assert payload["params"]["n"] == 2


def test_cli_sweep(capsys):
    code = main(
        ["sweep", "pgm", "--axis", "m", "--values", "0,1", "--n", "2", "--seed", "4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3  # header + 2 rows


def test_cli_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["not-an-experiment"])
