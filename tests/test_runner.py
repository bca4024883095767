import json

import numpy as np
import pytest

from chslab import runner
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


@pytest.mark.parametrize("seed", [True, 2.0, "3", None])
def test_config_refuses_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
        ExperimentConfig("pgm", {"n": 1}, seed=seed)


def test_config_stores_a_numpy_integer_seed_as_an_int():
    config = ExperimentConfig("commit-binding", {"lam": 1, "n": 2, "p": 2}, seed=np.int64(3))
    assert type(config.seed) is int and config.seed == 3
    report = run(config)
    assert report.to_json() == run(ExperimentConfig("commit-binding", config.params, seed=3)).to_json()
    assert json.loads(report.to_json())["seed"] == 3


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
    with pytest.raises(ValueError, match="sweep of 'm' needs at least one value"):
        sweep(base, "m", [])


@pytest.mark.parametrize("values", [",", "", "1,,2", "1,2,"])
def test_cli_sweep_refuses_empty_values_in_one_line(values, capsys):
    assert main(["sweep", "prsg-td", "--axis", "lam", "--values", values, "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chs-lab sweep: --values {values!r} has an empty entry\n"


@pytest.mark.parametrize("flag", [["--format", "json"], ["--timing"]])
def test_cli_sweep_has_no_format_or_timing_flag(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "pgm", "--axis", "m", "--values", "0", "--n", "1", *flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    # single-experiment commands keep both flags
    assert main(["pgm", "--n", "1", "--m", "0", *flag]) == 0


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


def test_sweep_validates_every_config_before_running(monkeypatch):
    started = []
    monkeypatch.setattr(runner, "run", lambda config: started.append(config))
    base = ExperimentConfig("prsg-td", {"n": 2}, seed=1)
    with pytest.raises(ValueError, match="'lam' must be int, got 'x'"):
        sweep(base, "lam", [1, "x"])
    assert started == []


def test_cli_sweep_rejects_bad_values_in_one_line(capsys):
    code = main(["sweep", "prsg-td", "--axis", "lam", "--values", "1,x", "--n", "2"])
    assert code != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "'lam' must be int" in captured.err


def test_hybrid_scan_is_prsg_td_under_its_own_name():
    params = {"lam": 2, "n": 3, "ell": 1, "t": 1}
    alias = run(ExperimentConfig("hybrid-scan", params, seed=3))
    report = run(ExperimentConfig("prsg-td", params, seed=3))
    assert alias.experiment == "hybrid-scan"
    assert alias.canonical_bytes().replace(b"hybrid-scan", b"prsg-td") == report.canonical_bytes()


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


def test_cli_prints_the_report_in_the_requested_format(tmp_path, capsys):
    out = tmp_path / "report.csv"
    argv = ["pgm", "--n", "1", "--m", "0", "--seed", "3", "--format", "csv"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(out)]) == 0
    assert printed == capsys.readouterr().out == out.read_text()
    header, values = printed.splitlines()
    assert header.startswith("experiment,seed,param_n,param_m,")
    assert values.startswith("pgm,3,1,0,")


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"lam": 1, "n": 2, "ell": 1, "t": 1}))
    code = main(["impossibility", "--config", str(config_file), "--lam", "2", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["lam"] == 2  # flag wins over the file
    assert payload["params"]["n"] == 2


@pytest.mark.parametrize(
    "command", [["pgm"], ["sweep", "pgm", "--axis", "m", "--values", "0,1"]], ids=["run", "sweep"]
)
@pytest.mark.parametrize(
    "content",
    [None, "{not json", "[1, 2]", '{"n": 1, "seed": 5}', '{"n": 1, "el": 1}', b"\xff\xfe"],
    ids=["missing", "invalid-json", "not-an-object", "seed-key", "misspelt-key", "not-utf8"],
)
def test_cli_rejects_a_bad_config_file_in_one_line(tmp_path, capsys, command, content):
    config_file = tmp_path / "config.json"
    if isinstance(content, bytes):
        config_file.write_bytes(content)
    elif content is not None:
        config_file.write_text(content)
    assert main([*command, "--n", "1", "--config", str(config_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"chs-lab {command[0]}: ")
    assert captured.err.count("\n") == 1 and str(config_file) in captured.err


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


@pytest.mark.parametrize(
    "argv",
    [
        ["prsg-td", "--lam", "3", "--n", "2"],
        ["pgm", "--n", "0"],
        ["prsg-td", "--lam", "2", "--n", "6", "--t", "3", "--max-type-count", "10"],
    ],
)
def test_cli_run_rejects_out_of_range_input_in_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"chs-lab {argv[0]}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("field", ["max_dense_dim", "max_type_count", "max_subset_pairs"])
@pytest.mark.parametrize("limit", [0, -3])
def test_budgets_reject_limits_below_one(field, limit, capsys):
    with pytest.raises(ValueError, match=f"{field} must be >= 1, got {limit}"):
        Budgets(**{field: limit})
    flag = "--" + field.replace("_", "-")
    for argv in (
        ["prsg-td", "--lam", "1", "--n", "2", flag, str(limit)],
        ["sweep", "prsg-td", "--axis", "lam", "--values", "1,2", "--n", "2", flag, str(limit)],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and f"{field} must be >= 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["typestats", "--lam", "0"],
        ["typestats", "--lam", "4", "--ell", "0"],
        ["typestats", "--lam", "4", "--t", "0"],
        ["typestats", "--lam", "4", "--m-suffix", "-5"],
    ],
)
def test_cli_typestats_rejects_out_of_range_input_in_one_line(argv, capsys):
    assert main([*argv, "--trials", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chs-lab typestats: need lam >= 1, ell >= 1, t >= 1, m_suffix >= 0\n"


# The public surface: exported names, experiment names, and the ordered report
# keys (quantities, bounds, flags) of every CLI experiment at one small config.
PUBLIC_NAMES = [
    "BudgetExceeded", "Budgets", "DEFAULT_BUDGETS", "DensityOperator", "ExperimentReport",
    "HaarSampler", "OrderedTuple", "PureState", "TypeVector", "apply_phase", "exact_moment",
    "fidelity", "gram_trace_distance", "inv_sqrt_on_support", "is_l_fold_prefix_cf",
    "key_average", "partial_trace", "sample_haar", "sample_type", "sample_type_conditioned",
    "split_average", "symmetric_projector", "tensor", "trace_distance", "type_state",
]
PRSG_TD_KEYS = (
    [
        "td_real_ideal", "td_h1_h2", "td_h2_h3", "td_h3_h4", "td_h4_h5", "td_h5_h6",
        "td_h6_h7", "td_h7_h8", "sum_consecutive",
    ],
    ["rate_h1_h2", "rate_h3_h4", "rate_h4_h5", "rate_h6_h7", "rate_h7_h8", "rate_total"],
    ["td_le_sum_of_steps", "h2_h3_equivalent", "h5_h6_equivalent"],
)
REPORT_KEYS = [
    ("prsg-td", {"lam": 2, "n": 3, "ell": 1, "t": 1}, PRSG_TD_KEYS),
    ("hybrid-scan", {"lam": 2, "n": 3, "ell": 1, "t": 1}, PRSG_TD_KEYS),
    (
        "multikey-td",
        {"lam": 2, "n": 3, "ell": 1, "t": 1, "p": 2},
        (
            [
                "td_xi0_xi1", "single_key_td_j0", "td_xi1_xi2", "single_key_td_j1",
                "td_real_ideal", "sum_links",
            ],
            ["rate_total"],
            ["links_le_single_key", "td_le_sum_of_links"],
        ),
    ),
    (
        "impossibility",
        {"lam": 1, "n": 2, "ell": 1, "t": 1},
        (
            ["tr_pi_rho0", "tr_pi_rho1", "advantage", "rank_rho0_measured", "rank_rho1_measured"],
            ["rank_rho0_formula", "rank_rho1_formula", "rank_ratio"],
            [
                "tr_pi_rho0_is_one", "tr_pi_rho1_le_rank_ratio", "rank_rho0_le_formula",
                "rank_rho1_matches_formula",
            ],
        ),
    ),
    (
        "commit-binding",
        {"lam": 1, "n": 2, "p": 2, "adversary": "half-angle"},
        (
            ["p0", "p1", "p0_plus_p1", "per_copy_fidelity"],
            ["sum_binding_bound", "per_copy_fidelity_bound"],
            ["p0_plus_p1_le_bound", "per_copy_fidelity_le_bound"],
        ),
    ),
    (
        "commit-hiding",
        {"lam": 1, "n": 2, "p": 1, "t": 1},
        (["td_hiding", "td_multikey_route", "route_difference"], ["rate_total"],
         ["hiding_matches_multikey"]),
    ),
    (
        "pgm",
        {"n": 2, "m": 1},
        (
            [
                "q_mean", "inv_sqrt_norm_measured", "guess_probability",
                "completeness_error", "fitted_constant",
            ],
            [
                "q_bound", "inv_sqrt_norm_formula", "random_guess", "sqrt_q",
                "indistinguishability_rate",
            ],
            [
                "q_le_bound", "inv_sqrt_norm_matches_formula", "guess_ge_random",
                "guess_le_sqrt_q", "povm_complete",
            ],
        ),
    ),
    (
        "typestats",
        {"lam": 4, "ell": 1, "t": 3},
        (
            [
                "cf_probability_estimate", "standard_error", "miss_probability",
                "per_pair_collision_reading_literal", "per_pair_collision_reading_intended",
                "cf_probability_exact",
            ],
            ["miss_rate_t2l_over_2lam", "fitted_constant"],
            ["estimate_within_4_sigma_of_exact"],
        ),
    ),
]


def test_public_surface_is_pinned():
    import chslab

    assert chslab.__all__ == PUBLIC_NAMES
    assert list(runner.SCHEMAS) == [
        "prsg-td", "multikey-td", "impossibility", "commit-binding", "commit-hiding",
        "pgm", "typestats",
    ]
    assert runner.ALIASES == {"hybrid-scan": "prsg-td"}
    assert sorted(experiment for experiment, _, _ in REPORT_KEYS) == sorted(
        [*runner.SCHEMAS, *runner.ALIASES]
    )
    for experiment, params, keys in REPORT_KEYS:
        report = run(ExperimentConfig(experiment, params, seed=1, trials=200))
        assert (list(report.quantities), list(report.bounds), list(report.flags)) == keys, (
            experiment
        )
