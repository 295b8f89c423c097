import json
import os
import pathlib
import subprocess
import sys

import pytest

from pca_ergo import refined
from pca_ergo.cli import (DEFAULT_SEED, EXIT_BAD_INPUT, EXIT_DEGENERATE,
                          EXIT_IO, EXIT_OK, build_parser, main)
from pca_ergo.sweep import epsilon_sweep, sweep_rows_from_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exit_code(argv) -> int:
    """main's return value, or the code of argparse's usage-error exit."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


class TestCheck:
    def test_params_json(self, capsys):
        code, out, _ = run(capsys, "check", "--params", "0.8,0.3,0.5,0.6")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["holds"] is True
        assert set(data) == {"gamma0", "gamma1", "lhs", "rhs", "holds",
                             "drift_bound"}

    def test_ca_code(self, capsys):
        code, out, _ = run(capsys, "check", "--ca", "0011", "--eps", "0.1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["lhs"] == pytest.approx(1.2, abs=1e-12)
        assert data["rhs"] == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize("quad", [("--params", "0.4,0.4,0.4,0.4"),
                                      ("--ca", "0110", "--eps", "0.5"),
                                      ("--params", "0.8,0.3,0.5,0.6")])
    def test_gammas_are_those_of_the_gamma_command(self, capsys, quad):
        # r = 0 included: both commands report the favourable-state mass
        _, out, _ = run(capsys, "check", *quad)
        checked = json.loads(out)
        _, out, _ = run(capsys, "gamma", *quad)
        assert {k: checked[k] for k in ("gamma0", "gamma1")} == json.loads(out)

    def test_constant_rule_reports_inf(self, capsys):
        code, out, _ = run(capsys, "check", "--ca", "0000", "--eps", "0.3")
        assert code == EXIT_OK
        assert json.loads(out)["drift_bound"] == "inf"

    def test_rejects_both_param_styles(self, capsys):
        code, _, err = run(capsys, "check", "--params", "0.1,0.2,0.3,0.4",
                           "--ca", "0011", "--eps", "0.1")
        assert code == EXIT_BAD_INPUT
        assert "exactly one" in err

    def test_rejects_neither(self, capsys):
        code, _, err = run(capsys, "check")
        assert code == EXIT_BAD_INPUT

    def test_rejects_bad_probability(self, capsys):
        code, _, err = run(capsys, "check", "--params", "0.1,0.2,0.3,1.4")
        assert code == EXIT_BAD_INPUT

    def test_rejects_wrong_arity(self, capsys):
        code, _, err = run(capsys, "check", "--params", "0.1,0.2,0.3")
        assert code == EXIT_BAD_INPUT

    def test_degenerate_denominator_exit(self, capsys):
        code, _, err = run(capsys, "check", "--params", "0,0,1,1")
        assert code == EXIT_DEGENERATE
        assert "error" in err

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "check.json"
        code, out, _ = run(capsys, "check", "--ca", "0011", "--eps", "0.1",
                           "--out", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(path.read_text())["holds"] is True


class TestDeriveGammaChain:
    def test_derive_payload(self, capsys):
        code, out, _ = run(capsys, "derive", "--params", "0.8,0.3,0.5,0.6")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["p"] == pytest.approx(0.3)
        assert data["q"] == pytest.approx(0.2)
        assert data["r"] == pytest.approx(0.5)
        assert data["R_x"][0] == pytest.approx(0.15)

    def test_gamma_values(self, capsys):
        code, out, _ = run(capsys, "gamma", "--ca", "0001", "--eps", "0.1")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["gamma0"] == pytest.approx(0.5, abs=1e-12)
        assert data["gamma1"] == pytest.approx(0.5, abs=1e-12)

    def test_chain_stationary_sums_to_one(self, capsys):
        code, out, _ = run(capsys, "chain", "--params", "0.8,0.3,0.5,0.6",
                           "--side", "right")
        assert code == EXIT_OK
        data = json.loads(out)
        assert sum(data["stationary"].values()) == pytest.approx(1.0)
        assert data["rows"]["0"] == pytest.approx([0.30, 0.55, 0.15])


class TestDrift:
    def test_bound_only(self, capsys):
        code, out, _ = run(capsys, "drift", "--params", "0.8,0.3,0.5,0.6")
        assert code == EXIT_OK
        data = json.loads(out)
        assert "bound" in data and "mc_mean" not in data

    def test_with_monte_carlo(self, capsys):
        code, out, _ = run(capsys, "drift", "--params", "0.8,0.3,0.5,0.6",
                           "--mc-steps", "20000", "--seed", "3")
        data = json.loads(out)
        assert data["mc_mean"] >= data["bound"] - 4 * data["mc_stderr"]
        assert data["seed"] == 3

    def test_r_zero_rejected(self, capsys):
        code, _, err = run(capsys, "drift", "--params", "0.4,0.4,0.4,0.4")
        assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("argv", [
    ("drift", "--params", "0.8,0.3,0.5,0.6", "--mc-steps", "1000",
     "--burn-in", "-5"),
    ("drift", "--params", "0.8,0.3,0.5,0.6", "--mc-steps", "-1000"),
    ("ca1000", "--eps", "0.2", "--mc-steps", "1000", "--burn-in", "-3"),
    ("ca1000", "--eps", "0.2", "--mc-steps", "-1000"),
], ids=" ".join)
def test_negative_mc_steps_or_burn_in_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BAD_INPUT
    assert out == "" and "must be >= 0" in err


@pytest.mark.parametrize("steps", ["0", "5"])
def test_ca1000_grid_needs_a_hundred_mc_steps(capsys, steps):
    code, out, err = run(capsys, "ca1000", "--grid", "0.1",
                         "--mc-steps", steps)
    assert code == EXIT_BAD_INPUT
    assert out == "" and err == "error: too few samples for batch means\n"


class TestSimulationCommands:
    def test_island_summary(self, capsys):
        code, out, _ = run(capsys, "island", "--params", "0.8,0.3,0.5,0.6",
                           "--gap", "5", "--horizon", "200")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["seed"] == DEFAULT_SEED
        assert data["steps"] <= 200

    def test_island_summary_reads_the_last_state(self, capsys):
        # this island dies on its first step
        code, out, _ = run(capsys, "island", "--params", "0.8,0.3,0.5,0.6",
                           "--gap", "3", "--seed", "5")
        assert code == EXIT_OK
        assert json.loads(out) == {"steps": 1, "gap": 2, "alive": False,
                                   "seed": 5}

    def test_island_negative_horizon_is_bad_input(self, capsys):
        code, out, err = run(capsys, "island", "--params", "0.8,0.3,0.5,0.6",
                             "--horizon", "-1")
        assert code == EXIT_BAD_INPUT
        assert out == "" and "horizon" in err

    def test_island_leaving_int64_is_bad_input(self, capsys):
        # at r ~ 1e-15 the gap passes 2**63 within the default horizon
        code, out, err = run(capsys, "island", "--params", "0,1e-15,0,0")
        assert code == EXIT_BAD_INPUT
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_envelope_negative_max_steps_is_bad_input(self, capsys):
        code, out, err = run(capsys, "envelope", "--params",
                             "0.8,0.3,0.5,0.6", "--max-steps", "-1")
        assert code == EXIT_BAD_INPUT
        assert out == "" and "max_steps" in err

    def test_island_csv(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, _, _ = run(capsys, "island", "--params", "0.8,0.3,0.5,0.6",
                         "--gap", "5", "--horizon", "50", "--out", str(path))
        assert code == EXIT_OK
        assert path.read_text().startswith("t,i,j,x,y,alive\n")

    def test_envelope_with_artifacts(self, capsys, tmp_path):
        csv_path = tmp_path / "density.csv"
        pgm_path = tmp_path / "run.pgm"
        code, out, _ = run(capsys, "envelope", "--params", "0.8,0.3,0.5,0.6",
                           "--cells", "40", "--max-steps", "2000",
                           "--out", str(csv_path), "--pgm", str(pgm_path))
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["hit_time"] is not None
        assert csv_path.read_text().startswith("step,q_density_num")
        assert pgm_path.read_bytes().startswith(b"P5")

    def test_ca1000_closed_forms(self, capsys):
        code, out, _ = run(capsys, "ca1000", "--eps", "0.25")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["drift_bound"] == pytest.approx(1.375, abs=1e-12)

    def test_ca1000_rejects_eps_out_of_range(self, capsys):
        code, _, _ = run(capsys, "ca1000", "--eps", "0.6")
        assert code == EXIT_BAD_INPUT

    def test_ca1000_grid_is_the_refined_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "ca1000", "--grid", "0.1,0.2",
                           "--mc-steps", "2000", "--burn-in", "100",
                           "--seed", "0")
        assert code == EXIT_OK
        assert out == refined.sweep_to_csv([0.1, 0.2], 2000, 100, 0)


class TestSweepVolume:
    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--codes", "0011,1000",
                           "--grid", "0.1,0.2")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("code,eps,")
        assert len(lines) == 5
        # the output parses back exactly
        assert sweep_rows_from_csv(out) == epsilon_sweep(["0011", "1000"],
                                                         [0.1, 0.2])

    @pytest.mark.parametrize("argv", [
        ("sweep", "--codes", "0011,1000", "--grid", "0.1,0.2"),
        ("volume", "--samples", "1000", "--format", "csv"),
        ("volume", "--samples", "1000"),
        ("crossover",),
        ("derive", "--ca", "0011", "--eps", "0.1"),
        ("check", "--params", "0.8,0.3,0.5,0.6"),
        ("gamma", "--ca", "0010", "--eps", "0.2"),
        ("chain", "--params", "0.8,0.3,0.5,0.6", "--side", "left"),
        ("drift", "--params", "0.8,0.3,0.5,0.6", "--mc-steps", "300"),
        ("ca1000", "--eps", "0.2", "--mc-steps", "300"),
        ("ca1000", "--grid", "0.1,0.2", "--mc-steps", "200"),
    ])
    def test_stdout_bytes_equal_out_file(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, *argv)
        path = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(path))[0] == code == EXIT_OK
        assert out.encode() == path.read_bytes()
        assert out.endswith("\n") and not out.endswith("\n\n")

    def test_crossover_is_the_committed_artifact(self, capsys):
        code, out, _ = run(capsys, "crossover")
        assert code == EXIT_OK
        assert out.encode() == (ROOT / "artifacts"
                                / "ca_crossover.json").read_bytes()

    @pytest.mark.parametrize("cfg, argv", [
        (None, ("sweep", "--codes", "", "--grid", "0.1")),
        ({"codes": []}, ("sweep", "--grid", "0.1")),
    ], ids=["empty --codes", "empty codes in config"])
    def test_empty_codes_name_no_rule(self, capsys, tmp_path, cfg, argv):
        # not the default of all 16 rules
        if cfg is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            argv = ("--config", str(path), *argv)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BAD_INPUT
        assert out == "" and err == "error: CA code '' is not a 4-bit word\n"

    def test_sweep_grid_validation(self, capsys):
        code, _, _ = run(capsys, "sweep", "--grid", "0.0,0.1")
        assert code == EXIT_BAD_INPUT

    def test_volume_json_reproducible(self, capsys):
        a = run(capsys, "volume", "--samples", "20000", "--seed", "9")
        b = run(capsys, "volume", "--samples", "20000", "--seed", "9")
        assert a[0] == EXIT_OK
        assert json.loads(a[1]) == json.loads(b[1])


class TestConfigAndErrors:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ca": "0011", "eps": 0.1}))
        code, out, _ = run(capsys, "--config", str(cfg), "check")
        assert code == EXIT_OK
        assert json.loads(out)["lhs"] == pytest.approx(1.2, abs=1e-12)

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ca": "0011", "eps": 0.1}))
        code, out, _ = run(capsys, "--config", str(cfg), "check",
                           "--eps", "0.2")
        assert code == EXIT_OK
        assert json.loads(out)["lhs"] == pytest.approx(1.4, abs=1e-12)

    def test_config_equals_form(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ca": "0011", "eps": 0.1}))
        for argv, lhs in (((f"--config={cfg}", "check"), 1.2),
                          (("check", f"--config={cfg}", "--eps", "0.2"), 1.4)):
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK
            assert json.loads(out)["lhs"] == pytest.approx(lhs, abs=1e-12)

    @pytest.mark.parametrize("argv", [
        ("--conf", "CFG", "check"), ("--c", "CFG", "check"),
        ("--conf=CFG", "check"), ("check", "--conf", "CFG"),
    ], ids=" ".join)
    def test_config_abbreviation_is_a_usage_error(self, capsys, tmp_path,
                                                  argv):
        # argparse would otherwise take the abbreviation as --config and
        # run without the file: here, with eps 0.1 in place of 0.2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eps": 0.2}))
        argv = [a.replace("CFG", str(cfg)) for a in argv]
        try:
            code = main(argv + ["--ca", "0011", "--eps", "0.1"])
        except SystemExit as exc:  # argparse usage error
            code = exc.code
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().out == ""

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "--config", str(tmp_path / "nope.json"),
                         "check", "--ca", "0011", "--eps", "0.1")
        assert code == EXIT_IO

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", "--ca", "0011", "--eps", "0.1",
                         "--out", str(tmp_path / "missing" / "x.json"))
        assert code == EXIT_IO

    @pytest.mark.parametrize("argv", [
        ("check", "--ca", "0011", "--eps", "0.1", "--out"),
        ("island", "--params", "0.8,0.3,0.5,0.6", "--out"),
        ("envelope", "--params", "0.8,0.3,0.5,0.6", "--cells", "20", "--out"),
        ("envelope", "--params", "0.8,0.3,0.5,0.6", "--cells", "20", "--pgm"),
        ("crossover", "--out"),
        ("ca1000", "--grid", "0.1", "--mc-steps", "1000", "--out"),
    ], ids=" ".join)
    def test_every_writer_reports_an_unwritable_path(self, capsys, tmp_path,
                                                    argv):
        path = str(tmp_path / "missing" / "x")
        code, out, err = run(capsys, *argv, path)
        assert code == EXIT_IO
        assert out == "" and err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1
        assert run(capsys, *argv, str(tmp_path / "x"))[0] == EXIT_OK
        assert (tmp_path / "x").is_file()

    @pytest.mark.parametrize("bad", ["--pgm", "--out"])
    def test_failed_envelope_leaves_no_output(self, capsys, tmp_path, bad):
        good = "--out" if bad == "--pgm" else "--pgm"
        path = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "envelope", "--params", "0.8,0.3,0.5,0.6",
                             "--cells", "20", good, str(tmp_path / "ok"),
                             bad, str(path))
        assert code == EXIT_IO
        assert out == "" and f"cannot write {path}: " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("content", ["[1, 2]", "3", '"check"', "null"])
    def test_config_must_be_an_object(self, capsys, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(content)
        code, out, err = run(capsys, "--config", str(cfg), "check",
                             "--ca", "0011", "--eps", "0.1")
        assert code == EXIT_BAD_INPUT
        assert out == "" and "JSON object" in err

    def test_config_seed_is_a_flag_of_the_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 5}))
        code, out, _ = run(capsys, "--config", str(cfg), "drift", "--params",
                           "0.8,0.3,0.5,0.6", "--mc-steps", "300")
        assert code == EXIT_OK
        assert json.loads(out)["seed"] == 5
        assert exit_code(["--config", str(cfg), "check", "--params",
                          "0.8,0.3,0.5,0.6"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cfg, argv, flags", [
        ({"mc_steps": 1e3}, ("ca1000", "--eps", "0.2"),
         ("--mc-steps", "1000")),
        ({"codes": ["0011", "1000"]}, ("sweep", "--grid", "0.1"),
         ("--codes", "0011,1000")),
        ({"eps": 0.1}, ("check", "--ca", "0011"), ("--eps", "0.1")),
    ], ids=["float mc_steps", "list of codes", "eps"])
    def test_config_values_are_spelled_as_flags(self, capsys, tmp_path, cfg,
                                                argv, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        got = run(capsys, "--config", str(path), *argv)
        assert got[0] == EXIT_OK
        assert got == run(capsys, argv[0], *flags, *argv[1:])

    @pytest.mark.parametrize("value", [True, False, None, {"a": 1}],
                             ids=json.dumps)
    def test_config_value_that_is_no_flag_is_bad_input(self, capsys, tmp_path,
                                                       value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mc_steps": value}))
        code, out, err = run(capsys, "--config", str(path), "drift",
                             "--params", "0.8,0.3,0.5,0.6")
        assert code == EXIT_BAD_INPUT
        assert out == "" and err.startswith("error: config key 'mc_steps': ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of one `main` call."""
    return (exit_code(argv), *capsys.readouterr())


# Calls in the order one process makes them, with their exit codes: each
# must come out as it does alone, though they share one parser.
SEQUENCES = [
    ([("check", "--params", "0.8,0.3,0.5,0.6", "--seed", "1"),
      ("check", "--params", "0.8,0.3,0.5,0.6")], [2, 0]),
    ([("ca1000", "--eps", "0.1", "--grid", "0.1"),
      ("ca1000", "--grid", "0.1,0.2", "--mc-steps", "2000", "--burn-in",
       "100"),
      ("ca1000", "--eps", "0.2")], [2, 0, 0]),
    ([("--config", "CFG", "drift", "--params", "0.8,0.3,0.5,0.6"),
      ("drift", "--params", "0.8,0.3,0.5,0.6")], [0, 0]),
    ([("--help",), ("gamma", "--params", "0.8,0.3,0.5,0.6")], [0, 0]),
]


class TestOneParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("calls, codes", SEQUENCES,
                             ids=["check", "ca1000", "config", "help"])
    def test_a_call_comes_out_as_it_does_alone(self, capsys, tmp_path, calls,
                                               codes):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"side": "left", "mc_steps": 300}))
        calls = [[str(cfg) if a == "CFG" else a for a in argv]
                 for argv in calls]
        shared = [outcome(capsys, argv) for argv in calls]
        alone = []
        for argv in calls:
            build_parser.cache_clear()
            alone.append(outcome(capsys, argv))
        assert [c for c, _, _ in shared] == codes
        assert shared == alone

    @pytest.mark.parametrize("calls", [SEQUENCES[1][0], SEQUENCES[3][0]],
                             ids=["ca1000", "gamma"])
    def test_the_last_call_matches_a_fresh_process(self, capsys, calls):
        for argv in calls:
            code, out, _ = outcome(capsys, argv)
        fresh = run_python("-m", "pca_ergo.cli", *calls[-1])
        assert (fresh.returncode, fresh.stdout) == (code, out)


# Malformed or extreme input for every subcommand: each must end in a
# documented exit code, never in a traceback.
MALFORMED = [
    ("island", "--params", "0.8,0.3,0.5,0.6", "--gap", str(10 ** 20),
     "--horizon", "0"),
    ("derive", "--params", "0.1,0.2"),
    ("derive", "--params", "a,b,c,d"),
    ("check", "--params", "nan,0,0,0"),
    ("check", "--ca", "2222", "--eps", "0.1"),
    ("check", "--ca", "0011", "--eps", "nan"),
    ("gamma", "--params", "0,0,1,1"),
    ("gamma", "--params", "0,0,0,0.999999999"),
    ("chain", "--params", "0,0,0,0.999999999"),
    ("chain", "--params", "0,0,0,0.999999999", "--side", "left"),
    ("chain", "--params", "0,1,0,1", "--side", "left"),
    ("chain", "--params", "1e-9,1e-9,1e-9,1e-9", "--side", "up"),
    ("drift", "--params", "0.4,0.4,0.4,0.4"),
    ("drift", "--params", "0,1,0,1", "--mc-steps", "300"),
    ("drift", "--params", "0.8,0.3,0.5,0.6", "--mc-steps", "5"),
    ("drift", "--params", "0.8,0.3,0.5,0.6", "--mc-steps", "-5"),
    ("drift", "--params", "0.5,0.5,0.5,0.5", "--mc-steps", "300",
     "--seed", "x"),
    ("island", "--params", "0.8,0.3,0.5,0.6", "--gap", "2"),
    ("island", "--params", "0,1,0,1"),
    ("island", "--params", "0.8,0.3,0.5,0.6", "--horizon", "-1"),
    ("island", "--params", "0,1e-15,0,0"),
    ("envelope", "--params", "0.8,0.3,0.5,0.6", "--max-steps", "-1"),
    ("envelope", "--params", "0.8,0.3,0.5,0.6", "--cells", "-4"),
    ("envelope", "--params", "0.8,0.3,0.5,0.6", "--cells", "0",
     "--max-steps", "5"),
    ("envelope", "--params", "0.5,0.5,0.5,0.5", "--cells", "8",
     "--max-steps", "0"),
    ("envelope", "--params", "0.8,0.3,0.5,0.6", "--seed", "-1"),
    ("envelope", "--params", "0.8,0.3,0.5,0.6", "--seed", str(2 ** 128)),
    ("envelope", "--params", "0.8,0.3,0.5,0.6", "--seed", "-1",
     "--max-steps", "0"),
    ("ca1000", "--eps", "0.5"),
    ("ca1000", "--eps", "nan"),
    ("ca1000", "--eps", "0.25", "--mc-steps", "5"),
    ("ca1000",),
    ("ca1000", "--eps", "0.1", "--grid", "0.1"),
    ("ca1000", "--grid", "0.1"),
    ("ca1000", "--grid", "", "--mc-steps", "200"),
    ("sweep", "--grid", "abc"),
    ("sweep", "--grid", "nan"),
    ("sweep", "--codes", "2222", "--grid", "0.1"),
    ("sweep", "--codes", "", "--grid", "0.1"),
    ("volume", "--samples", "0"),
    ("volume", "--samples", "10", "--seed", "-1"),
    ("volume", "--samples", "10", "--format", "xml"),
    ("--config",),
    ("nosuch",),
    (),
]


@pytest.mark.parametrize("argv", MALFORMED, ids=" ".join)
def test_malformed_input_exits_cleanly(capsys, argv):
    code = exit_code(argv)
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_BAD_INPUT, EXIT_DEGENERATE, EXIT_IO)
    assert "Traceback" not in err


QUAD = ("--params", "0.8,0.3,0.5,0.6")
UNSEEDED = [("derive", *QUAD), ("check", *QUAD), ("gamma", *QUAD),
            ("chain", *QUAD), ("sweep", "--grid", "0.1"), ("crossover",)]
SEEDED = [("drift", *QUAD, "--mc-steps", "300"),
          ("island", *QUAD, "--horizon", "50"),
          ("envelope", *QUAD, "--cells", "20"),
          ("ca1000", "--eps", "0.2", "--mc-steps", "300"),
          ("volume", "--samples", "1000")]


@pytest.mark.parametrize("argv", UNSEEDED, ids=lambda a: a[0])
def test_seed_is_a_usage_error_where_nothing_reads_it(capsys, argv):
    assert exit_code([*argv, "--seed", "1"]) == EXIT_BAD_INPUT
    assert capsys.readouterr().out == ""
    assert exit_code(argv) == EXIT_OK


@pytest.mark.parametrize("argv", SEEDED, ids=lambda a: a[0])
def test_seed_is_taken_where_it_is_read(capsys, argv):
    assert exit_code([*argv, "--seed", "1"]) == EXIT_OK


@pytest.mark.parametrize("argv", [("--seed", "-1"), ("--seed", str(2 ** 128)),
                                  ("--seed", "-1", "--max-steps", "0")])
def test_envelope_seed_outside_the_stream_domain(capsys, argv):
    code = main(["envelope", "--params", "0.8,0.3,0.5,0.6", *argv])
    assert code == EXIT_BAD_INPUT
    assert "seed" in capsys.readouterr().err


def test_near_absorbing_chain_answers(capsys):
    code, out, _ = run(capsys, "chain", "--params", "0,0,0,0.999999999")
    assert code == EXIT_OK
    assert json.loads(out)["stationary"] == {"0": 1.0, "1": 0.0, "*": 0.0}


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(*argv):
    """Run `python argv` in a fresh process with this checkout's package."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


# Linux keeps a parent's peak RSS in a spawned child's ru_maxrss, so the
# child reads the peak of its own address space, VmHWM, instead.
PEAK_RSS = """\
import re, sys
from pca_ergo.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1], file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from Linux's /proc")
def test_pgm_run_holds_about_one_raster(tmp_path):
    # a failing rule: the ? cells outlive the 10^4 steps, so the raster has
    # 10001 rows of 2000 bytes; --pgm may add at most 1.5 of those on top
    # of the same run without it (the byte rows, written without a join)
    argv = ["envelope", "--ca", "0110", "--eps", "0.001", "--cells", "2000",
            "--max-steps", "10000"]
    pgm = tmp_path / "ring.pgm"
    peaks = []
    for extra in ([], ["--pgm", str(pgm)]):
        res = run_python("-c", PEAK_RSS, *argv, *extra)
        assert res.returncode == EXIT_OK
        assert json.loads(res.stdout)["hit_time"] is None
        peaks.append(int(res.stderr) * 1024)
    raster = 10001 * 2000
    assert pgm.stat().st_size == len(b"P5\n2000 10001\n255\n") + raster
    assert peaks[1] - peaks[0] <= 1.5 * raster, \
        f"--pgm added {(peaks[1] - peaks[0]) / raster:.2f} rasters"
