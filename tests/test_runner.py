import importlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from chslab import runner
from chslab.budgets import Budgets, format_count
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
        {"lam": np.True_, "n": 3},
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


def test_validate_params_accepts_numpy_integers():
    # the rule ExperimentConfig.seed follows: an int or numpy integer, stored as an int
    resolved = validate_params("prsg-td", {"lam": np.int64(2), "n": np.uint8(3)})
    assert resolved == {"lam": 2, "n": 3, "ell": 1, "t": 0}
    assert all(type(value) is int for value in resolved.values())


def test_trials_accepts_an_integral_string_like_every_int_parameter():
    assert validate_params("typestats", {"lam": 1, "trials": "3"})["trials"] == 3


def test_repeated_runs_are_byte_identical():
    config = ExperimentConfig("prsg-td", {"lam": 2, "n": 3, "ell": 1, "t": 1}, seed=7)
    first = run(config).canonical_bytes()
    config_b = ExperimentConfig("prsg-td", {"lam": 2, "n": 3, "ell": 1, "t": 1}, seed=7)
    assert first == run(config_b).canonical_bytes()


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


@pytest.mark.parametrize("trials", [True, 2.5, 0])
def test_config_refuses_trials_that_are_not_a_positive_integer(trials):
    with pytest.raises(ValueError, match="trials"):
        run(ExperimentConfig("typestats", {"lam": 1, "trials": trials}, seed=1))


def test_config_stores_numpy_integer_trials_as_an_int():
    report = run(ExperimentConfig("typestats", {"lam": 1, "trials": np.int64(5)}, seed=1))
    assert type(report.params["trials"]) is int and report.params["trials"] == 5


def test_config_has_only_what_every_run_reads():
    names = [f.name for f in fields(ExperimentConfig)]
    assert names == ["experiment", "params", "seed", "budgets"]


def test_typestats_report_echoes_trials():
    report = run(ExperimentConfig("typestats", {"lam": 3, "trials": 20}, seed=1))
    assert json.loads(report.to_json())["params"] == {
        "lam": 3, "m_suffix": 0, "ell": 1, "t": 2, "trials": 20
    }
    header, row = report.to_csv().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["param_trials"] == "20"
    assert validate_params("typestats", {"lam": 3})["trials"] == 10_000


def test_config_stores_a_numpy_integer_seed_as_an_int():
    config = ExperimentConfig("commit-binding", {"lam": 1, "n": 2, "p": 2}, seed=np.int64(3))
    assert type(config.seed) is int and config.seed == 3
    report = run(config)
    assert report.to_json() == run(ExperimentConfig("commit-binding", config.params, seed=3)).to_json()
    assert json.loads(report.to_json())["seed"] == 3


def test_sweep_lambda_monotone(tmp_path, capsys):
    base = ExperimentConfig("prsg-td", {"n": 4, "ell": 1, "t": 1}, seed=3)
    reports, table = sweep(base, "lam", [1, 2, 3])
    tds = [r.quantities["td_real_ideal"] for r in reports]
    assert tds == sorted(tds, reverse=True)
    lines = table.strip().split("\n")
    assert len(lines) == 4  # header + 3 rows
    # the CLI prints the same table and writes exactly that to --out
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "prsg-td", "--axis", "lam", "--values", "1,2,3", "--n", "4", "--t", "1"]
    assert main([*argv, "--seed", "3", "--out", str(out)]) == 0
    assert out.exists()
    assert out.read_text() == capsys.readouterr().out == table


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


def test_cli_sweep_refuses_flags_of_other_experiments_in_one_line(capsys):
    argv = ["sweep", "prsg-td", "--axis", "lam", "--values", "1", "--n", "3"]
    assert main([*argv, "--p", "3", "--adversary", "foo"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "chs-lab sweep: not parameters of prsg-td: --adversary, --p\n"
    assert main(["sweep", "pgm", "--axis", "m", "--values", "0", "--n", "1", "--trials", "5"]) == 2


def test_cli_sweep_of_trials_sets_trials(capsys):
    argv = ["sweep", "typestats", "--axis", "trials", "--values", "10,20", "--lam", "3"]
    assert main([*argv, "--seed", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    column = header.split(",").index("param_trials")
    assert [row.split(",")[column] for row in rows] == ["10", "20"]


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


LONG_INT = "1" + "0" * 5000  # more digits than Python converts to an int


def test_cli_refuses_a_parameter_too_long_to_parse_by_its_length(capsys):
    assert main(["prsg-td", "--lam", "1", "--n", LONG_INT]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "parameter 'n' is too long: 5001 digits, starting 1000000000..." in captured.err
    assert len(captured.err) < 120
    with pytest.raises(ValueError, match="'lam' must be int, got '1.5'"):
        validate_params("prsg-td", {"lam": "1.5", "n": 2})


def test_cli_refuses_a_budget_flag_too_long_to_parse_by_its_length(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["prsg-td", "--lam", "1", "--n", "1", "--max-type-count", LONG_INT])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-type-count: the value is too long: 5001 digits" in err
    assert LONG_INT[:100] not in err and len(err.splitlines()[-1]) < 150
    with pytest.raises(SystemExit):
        main(["prsg-td", "--lam", "1", "--n", "1", "--seed", "x"])
    assert "argument --seed: the value must be int, got 'x'" in capsys.readouterr().err


def _modules_loaded_by(code: str) -> set[str]:
    """The ``chslab`` modules a fresh interpreter holds after running ``code``."""
    src = Path(__file__).resolve().parents[1] / "src"
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('chslab')))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(result.stdout.split())


def _modules_loaded_by_runs(*runs: tuple[str, dict]) -> set[str]:
    """The ``chslab`` modules a fresh interpreter holds after ``runner.run`` of each run."""
    return _modules_loaded_by(
        "from chslab import runner\n"
        + "".join(f"runner.run(runner.ExperimentConfig({e!r}, {p!r}))\n" for e, p in runs)
    )


def test_runs_load_only_the_layer_they_dispatch_to():
    # This process has imported every layer already, so a fresh one is asked.
    chain = dict(lam=2, n=3, ell=1, t=1)
    others = {
        "chslab.rank_attack",
        "chslab.ensembles",
        "chslab.typestats",
        "chslab.commitments",
        "chslab.pgm",
        "chslab.acceptance",
    }
    loaded = _modules_loaded_by_runs(("prsg-td", chain), ("hybrid-scan", chain))
    assert {"chslab.prsg", "chslab.hybrids"} <= loaded
    assert loaded.isdisjoint(others)
    # The single-key hybrid chain is not compiled by a run that does not report it.
    loaded = _modules_loaded_by_runs(("multikey-td", {**chain, "p": 2}))
    assert "chslab.prsg" in loaded
    assert loaded.isdisjoint(others | {"chslab.hybrids"})
    loaded = _modules_loaded_by_runs(("impossibility", chain))
    assert {"chslab.prsg", "chslab.rank_attack"} <= loaded
    assert loaded.isdisjoint({"chslab.ensembles", "chslab.hybrids"})
    loaded = _modules_loaded_by_runs(("commit-hiding", dict(lam=1, n=2, p=2, t=1)))
    assert {"chslab.prsg", "chslab.commitments"} <= loaded
    assert "chslab.hybrids" not in loaded
    loaded = _modules_loaded_by("import chslab.cli")
    assert "chslab.runner" in loaded
    assert loaded.isdisjoint({"chslab.prsg", "chslab.sectors", "chslab.typestats"})


def test_import_loads_only_the_states_every_report_builds():
    assert _modules_loaded_by("import chslab") == {
        "chslab",
        "chslab.budgets",
        "chslab.haar",
        "chslab.reporting",
        "chslab.states",
        "chslab.tolerances",
    }
    loaded = _modules_loaded_by(
        "from chslab import runner\n"
        "from chslab.haar import rng_for, sample_haar\n"
        "def run(experiment, **params):\n"
        "    runner.run(runner.ExperimentConfig(experiment, params, seed=1))\n"
        "run('prsg-td', lam=2, n=3, ell=1, t=1)\n"
        "run('multikey-td', lam=2, n=3, ell=1, t=1, p=2)\n"
        "run('impossibility', lam=2, n=3, ell=1, t=1)\n"
        "run('commit-hiding', lam=1, n=2, p=2, t=1)\n"
        "run('pgm', n=2, m=1)\n"
        "from chslab import commitments\n"
        "params = commitments.CommitmentParams(1, 2, 2, sample_haar(2, rng_for(1)))\n"
        "for name in commitments.builtin_adversaries(params, rng_for(1)):\n"
        "    run('commit-binding', lam=1, n=2, p=2, adversary=name)"
    )
    assert {"chslab.prsg", "chslab.rank_attack", "chslab.commitments", "chslab.pgm"} <= loaded
    assert loaded.isdisjoint(
        {"chslab.qla", "chslab.typestates", "chslab.ensembles", "chslab.acceptance"}
    )


# Each public name's home module; ``qla`` and ``typestates`` load on first use.
PUBLIC_HOMES = {
    "budgets": ("BudgetExceeded", "Budgets", "DEFAULT_BUDGETS"),
    "haar": ("HaarSampler", "exact_moment", "sample_haar", "symmetric_projector"),
    "reporting": ("ExperimentReport",),
    "states": ("DensityOperator", "OrderedTuple", "PureState", "TypeVector", "type_state"),
    "qla": (
        "fidelity",
        "gram_trace_distance",
        "inv_sqrt_on_support",
        "partial_trace",
        "tensor",
        "trace_distance",
    ),
    "typestates": (
        "apply_phase",
        "is_l_fold_prefix_cf",
        "key_average",
        "sample_type",
        "sample_type_conditioned",
        "split_average",
    ),
}


def test_public_names_resolve_to_their_home_modules():
    import chslab

    homes = {name: home for home, names in PUBLIC_HOMES.items() for name in names}
    assert sorted(homes) == sorted(chslab.__all__)
    for name, home in homes.items():
        assert getattr(chslab, name) is getattr(importlib.import_module(f"chslab.{home}"), name)
    star: dict = {}
    exec("from chslab import *", star)
    assert all(star[name] is getattr(chslab, name) for name in chslab.__all__)
    assert set(chslab.__all__) <= set(dir(chslab))
    with pytest.raises(AttributeError, match="no_such_name"):
        chslab.no_such_name
    # perfbench's traced paths, from a fresh interpreter where both modules are unloaded.
    loaded = _modules_loaded_by(
        "import chslab, chslab.states\n"
        "from chslab import gram_trace_distance, tensor, is_l_fold_prefix_cf\n"
        "import chslab.typestates\n"
        "assert chslab.typestates.enumerate_types is chslab.states.enumerate_types\n"
        "assert tensor is chslab.qla.tensor"
    )
    assert {"chslab.qla", "chslab.typestates"} <= loaded


def test_prsg_still_resolves_the_names_perfbench_replays():
    # perfbench's traced replays call prsg.hybrid_state(prsg.HybridSpec(...))
    from chslab import ensembles, prsg

    params = prsg.PrsParams(lam=1, n=2, ell=1, t=1)
    assert prsg.HybridSpec is ensembles.HybridSpec
    state = prsg.hybrid_state(prsg.HybridSpec(1, params))
    reference = ensembles.hybrid_state(ensembles.HybridSpec(1, params))
    members = [[(w, s.amplitudes) for w, s in x.ensemble] for x in (state, reference)]
    assert members[0] == members[1]
    assert np.array_equal(state.to_dense(), reference.to_dense())
    assert not hasattr(prsg, "generate") and not hasattr(prsg, "impossibility_attack")


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


@pytest.mark.parametrize(
    "command", [["prsg-td", "--lam", "2"], ["sweep", "prsg-td", "--axis", "lam", "--values", "2"]],
    ids=["run", "sweep"],
)
def test_cli_refuses_an_unwritable_out_path_in_one_line(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.json"
    assert main([*command, "--n", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"chs-lab {command[0]}: cannot write ")
    assert captured.err.count("\n") == 1 and str(out) in captured.err


def test_cli_has_no_trials_flag_outside_typestats(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["pgm", "--n", "2", "--trials", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --trials 5" in capsys.readouterr().err


def test_cli_config_file_sets_typestats_trials(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"lam": 3, "trials": 50}))
    assert main(["typestats", "--config", str(config_file), "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["trials"] == 50


def test_cli_runs_a_two_shape_config_whose_permutations_are_too_many_to_list():
    # 12 registers on a 2-string alphabet: blocks of up to C(12, 6) = 924 orderings,
    # out of 12! permutations
    assert main(["prsg-td", "--lam", "1", "--n", "1", "--ell", "6", "--t", "6"]) == 0


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
        ["prsg-td", "--lam", "x", "--n", "3"],
        # 2^(lam + m_suffix) + t - 1 reaches 2^63, past numpy's int64 sampler
        ["typestats", "--lam", "70"],
        ["typestats", "--lam", "62", "--m-suffix", "2"],
    ],
)
def test_cli_run_rejects_out_of_range_input_in_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"chs-lab {argv[0]}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["prsg-td", "--lam", "1", "--n", "20000"], "exceed enumeration budget 100000"),
        (["impossibility", "--lam", "1", "--n", "20000"], "exceed enumeration budget 100000"),
        (["commit-hiding", "--lam", "1", "--n", "20000"], "exceed enumeration budget 100000"),
        (["typestats", "--lam", "20000"], "N + t - 1 must be below 2**63"),
    ],
)
def test_cli_refuses_counts_too_long_to_print_in_one_line(argv, limit, capsys):
    # 2^20000 letters: the counts have thousands of digits, past Python's int-to-str limit
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"chs-lab {argv[0]}: ") and captured.err.count("\n") == 1
    assert limit in captured.err and "about 10^" in captured.err


def test_counts_print_in_full_up_to_thirty_digits():
    for count in (8192, 100001, 2**64, 10**30 - 1):
        assert format_count(count) == str(count)
    assert format_count(10**30) == "about 10^30.0"
    assert format_count(2**20000) == "about 10^6020.6"


@pytest.mark.parametrize("field", ["max_dense_dim", "max_type_count", "max_subset_pairs"])
@pytest.mark.parametrize("limit", [True, 2.5, 8.0, "8", None])
def test_budgets_refuse_limits_that_are_not_integers(field, limit):
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {limit!r}"):
        Budgets(**{field: limit})


def test_budgets_store_numpy_integer_limits_as_ints():
    budgets = Budgets(max_dense_dim=np.int64(64), max_type_count=np.uint8(9))
    assert type(budgets.max_dense_dim) is int and budgets.max_dense_dim == 64
    assert type(budgets.max_type_count) is int and budgets.max_type_count == 9


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


def test_cli_typestats_samples_the_largest_alphabet_below_int64(capsys):
    assert main(["typestats", "--lam", "62", "--trials", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quantities"]["cf_probability_estimate"] == "1"  # floats print as strings
    assert report["quantities"]["standard_error"] == "0"  # the plug-in value when all draws agree
    assert report["flags"] == {}  # no exact value to compare at this size


@pytest.mark.parametrize("seed", range(8))
def test_typestats_flag_holds_on_a_single_trial(seed):
    # exact value 7/9: one draw is a hit or a miss, 0.78 or 0.22 from it, so
    # the flag needs the binomial sigma sqrt(q (1 - q) / trials), not the
    # plug-in one, which is ~0 whenever every draw agrees
    config = ExperimentConfig("typestats", {"lam": 3, "ell": 1, "t": 2, "trials": 1}, seed=seed)
    report = run(config)
    assert report.quantities["cf_probability_exact"] == pytest.approx(7 / 9, abs=1e-15)
    assert report.flags["estimate_within_4_sigma_of_exact"]


# Past n (N (N + 1) ... (N + size - 1) > 2^1022 for N = 2^n) the mixture
# weights would be subnormal and the class counts beyond the float range; the
# impossibility rank formulas can leave it first (lam = 5, n = 510, size 2).
@pytest.mark.parametrize(
    "argv, n",
    [
        (["prsg-td", "--lam", "2", "--n", "400", "--ell", "1", "--t", "2"], 400),
        (["prsg-td", "--lam", "2", "--n", "341", "--ell", "1", "--t", "2"], 341),
        (["multikey-td", "--lam", "2", "--n", "400", "--ell", "1", "--t", "1", "--p", "2"], 400),
        (["impossibility", "--lam", "2", "--n", "400", "--ell", "1", "--t", "2"], 400),
        (["impossibility", "--lam", "5", "--n", "510", "--ell", "1", "--t", "1"], 510),
    ],
)
def test_cli_refuses_an_n_beyond_the_float_range_in_one_line(argv, n, capsys):
    assert main([*argv, "--max-type-count", str(10**400)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"chs-lab {argv[0]}: n={n} is too large")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "experiment, params, key, value",
    [
        ("prsg-td", {"lam": 2, "n": 340, "ell": 1, "t": 2}, "td_real_ideal", 11 / 48),
        ("impossibility", {"lam": 4, "n": 510, "ell": 1, "t": 1}, "tr_pi_rho1", 31 / 32),
    ],
)
def test_reports_just_inside_the_float_range_stay_exact(experiment, params, key, value):
    config = ExperimentConfig(experiment, params, budgets=Budgets(max_type_count=10**400))
    report = run(config)
    assert all(report.flags.values())
    assert report.quantities[key] == pytest.approx(value, abs=1e-15)


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
        {"lam": 4, "ell": 1, "t": 3, "trials": 200},
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
        report = run(ExperimentConfig(experiment, params, seed=1))
        assert (list(report.quantities), list(report.bounds), list(report.flags)) == keys, (
            experiment
        )
