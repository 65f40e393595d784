import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from sgdphaselab import GenFuncContext, ValidationError, build_torus_problem, cli, load_spectrum_csv, stability_report
from sgdphaselab.cli import main, parse_config
from sgdphaselab.svg import heatmap_chart, loglog_chart


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


class TestParseConfig:
    def test_minimal_flags_fill_defaults(self):
        cfg = parse_config(
            ["simulate", "--nu", "1.5", "--kappa", "3", "--alpha", "0.5", "--beta", "0", "--batch", "10"]
        )
        assert cfg.command == "simulate"
        assert cfg.tau1 == 1.0 and cfg.tau2 == 1.0
        assert cfg.runs == 1000 and cfg.steps == 10_000

    def test_conflicting_sources(self, tmp_path):
        with pytest.raises(ValidationError, match="conflicting"):
            parse_config(["simulate", "--csv", "x.csv", "--nu", "1.5"])

    def test_beta_range_error_cites_interval(self):
        with pytest.raises(ValidationError, match=r"\(-1, 1\)"):
            parse_config(["simulate", "--nu", "1.5", "--kappa", "3", "--beta", "1.5"])

    def test_grid_spec_parsing(self):
        cfg = parse_config(["stability-map", "--nu", "1.5", "--kappa", "3",
                            "--grid-alpha", "0.1:2:5", "--grid-beta", "0:0.9:4"])
        assert cfg.grid_alpha == (0.1, 2.0, 5)
        assert cfg.grid_beta == (0.0, 0.9, 4)
        with pytest.raises(ValidationError):
            parse_config(["stability-map", "--nu", "1", "--kappa", "2", "--grid-alpha", "1:2"])

    @pytest.mark.parametrize("flag", ["--grid-alpha", "--grid-beta"])
    def test_negative_grid_with_or_without_equals(self, flag):
        key = flag[2:].replace("-", "_")
        for argv in ([flag, "-0.5:0.9:4"], [flag + "=-0.5:0.9:4"], [flag, "-.5:0.9:4", "--plot"]):
            cfg = parse_config(["stability-map", "--nu", "1.5", "--kappa", "3"] + argv)
            assert getattr(cfg, key) == (-0.5, 0.9, 4), argv
        assert parse_config(["simulate", "--beta", "-5e-1"]).beta == -0.5

    def test_negative_beta_grid_runs(self, tmp_path):
        out = tmp_path / "neg"
        assert main(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "20", "--steps", "50",
                     "--batch", "10", "--grid-alpha", "0.1:1:3", "--grid-beta", "-0.5:0.5:3",
                     "--out", str(out)]) == 0
        assert read_manifest(out)["config"]["grid_beta"] == [-0.5, 0.5, 3]

    def test_config_file_and_flag_override(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text(
            "# experiment\ncommand = simulate\nnu = 1.5\nkappa = 3.0\nalpha = 0.25\nsteps = 111\nplot = false\n"
        )
        cfg = parse_config(["--config", str(f), "--alpha", "0.5"])
        assert cfg.command == "simulate"
        assert cfg.alpha == 0.5  # flag wins
        assert cfg.steps == 111

    def test_unknown_config_key_named(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("command = simulate\nwibble = 3\n")
        with pytest.raises(ValidationError, match="wibble"):
            parse_config(["--config", str(f)])

    def test_unknown_regime(self):
        with pytest.raises(ValidationError, match="regime"):
            parse_config(["simulate", "--nu", "1.5", "--kappa", "3", "--regime", "banana"])

    def test_missing_command(self):
        with pytest.raises(ValidationError, match="command"):
            parse_config(["--nu", "1.5"])

    def test_numeric_config_string_stays_a_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text("command = fit\nnu = 1.5\nkappa = 3\nmodes = 16\nout = 2024\n")
        assert main(["--config", "exp.cfg"]) == 0
        assert (tmp_path / "2024" / "manifest.json").exists()

    def test_numeric_config_csv_is_a_file_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "exp.cfg").write_text("command = fit\ncsv = 0\n")
        assert main(["--config", "exp.cfg", "--out", "o"]) == 2
        assert "cannot read spectrum file 0" in capsys.readouterr().err

    def test_config_switch_must_be_true_or_false(self, tmp_path, capsys):
        f = tmp_path / "exp.cfg"
        f.write_text('command = stability-map\nnu = 1.5\nkappa = 3\nfull_scale = "no"\n')
        assert main(["--config", str(f), "--out", str(tmp_path / "o")]) == 2
        assert "full_scale" in capsys.readouterr().err

    def test_hash_inside_quotes_is_part_of_the_value(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text('command = simulate  # a comment\nout = "run#1"  # "quoted" comment\nregime = se#mc\n')
        cfg = parse_config(["--config", str(f)])
        assert (cfg.command, cfg.out, cfg.regime) == ("simulate", "run#1", "se")

    @pytest.mark.parametrize("line", ['out = "abc', 'out = "abc  # comment', 'out = "', 'out = "a"b"'])
    def test_unterminated_quoted_value_exits_2(self, tmp_path, capsys, line):
        f = tmp_path / "exp.cfg"
        f.write_text(f"command = fit\nnu = 1.5\nkappa = 3\n{line}\n")
        with pytest.raises(ValidationError, match=f"{re.escape(str(f))}:4"):
            parse_config(["--config", str(f)])
        assert main(["--config", str(f)]) == 2
        assert "unterminated" in capsys.readouterr().err

    def test_config_float_key_given_as_integer(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("command = simulate\nalpha = 1\n")
        alpha = parse_config(["--config", str(f)]).alpha
        assert alpha == 1.0 and type(alpha) is float


# a non-default value for every key, as text; float and str keys get numeric-looking
# text, which a parser that guesses the type from the text gets wrong; None marks a switch
KEY_SAMPLES = {
    "command": "fit", "nu": "2", "kappa": "3", "Lambda": "2", "K": "3", "modes": "64",
    "c0_mode": "pointwise", "csv": "0", "torus": "16", "kernel_scale": "1",
    "random_features": "8,12", "alpha": "1", "beta": "0.5", "gamma": "1", "batch": "4",
    "dataset_size": "100", "tau1": "2", "tau2": "2", "steps": "50", "runs": "10", "seed": "3",
    "regime": "mc,se", "grid_alpha": "0.1:2:5", "grid_beta": "0:0.5:3", "batch_list": "4,8",
    "full_scale": None, "out": "2024", "plot": None, "tail_start": "7",
}


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(cli.ExperimentConfig)])
def test_flag_and_config_file_give_equal_configs(key, tmp_path):
    text = KEY_SAMPLES[key]
    f = tmp_path / "exp.cfg"
    f.write_text(f"{key} = {'true' if text is None else text}\n")
    if key == "command":
        by_flag, by_file = parse_config([text]), parse_config(["--config", str(f)])
    else:
        flag = ["--" + key.replace("_", "-")] + ([] if text is None else [text])
        by_flag = parse_config(["simulate", *flag])
        by_file = parse_config(["simulate", "--config", str(f)])
        default = parse_config(["simulate"])
        assert getattr(by_flag, key) != getattr(default, key)
    assert by_flag == by_file
    assert type(getattr(by_flag, key)) is type(getattr(by_file, key))


SIM_ARGS = ["simulate", "--nu", "1.5", "--kappa", "3", "--alpha", "0.4", "--batch", "10",
            "--modes", "50", "--steps", "100"]


class TestRunCommands:
    def test_simulate_emits_and_checksums(self, tmp_path):
        out = tmp_path / "run1"
        rc = main(SIM_ARGS + ["--out", str(out), "--plot"])
        assert rc == 0
        man = read_manifest(out)
        assert {f["path"] for f in man["files"]} >= {"trajectory_se.csv", "trajectory_se.meta.json"}
        for f in man["files"]:
            p = out / f["path"]
            assert hashlib.sha256(p.read_bytes()).hexdigest() == f["sha256"]
            assert p.stat().st_size == f["bytes"]

    def test_byte_identical_reruns(self, tmp_path):
        # every file a JSON-writing command makes but its manifest (which holds the wall time)
        runs = {
            "simulate": SIM_ARGS + ["--seed", "5", "--plot"],
            "divergence": ["divergence", "--nu", "0.75", "--kappa", "0.375", "--modes", "2000", "--alpha", "0.1",
                           "--gamma", "1", "--steps", "500", "--tail-start", "200", "--plot"],
            "asymptotics": ["asymptotics", "--nu", "1.5", "--kappa", "3", "--modes", "400", "--alpha", "0.2",
                            "--gamma", "1", "--steps", "500", "--plot"],
            "fit": ["fit", "--nu", "1.5", "--kappa", "3", "--modes", "64", "--plot"],
            "se-error": ["se-error", "--torus", "24"],
            "phase-diagram": ["phase-diagram", "--alpha", "0.2", "--gamma", "0.1", "--modes", "32"],
        }
        for command, argv in runs.items():
            out1, out2 = tmp_path / command / "a", tmp_path / command / "b"
            assert main(argv + ["--out", str(out1)]) == 0
            assert main(argv + ["--out", str(out2)]) == 0
            names = sorted(p.name for p in out1.iterdir())
            assert names == sorted(p.name for p in out2.iterdir()) and len(names) > 1
            for name in names:
                if name != "manifest.json":
                    assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (command, name)

    def test_noiseless_has_empty_stderr_column_mc_does_not(self, tmp_path):
        out = tmp_path / "both"
        rc = main(["simulate", "--random-features", "8,8", "--alpha", "0.05", "--batch", "2",
                   "--steps", "20", "--runs", "64", "--regime", "noiseless,mc", "--out", str(out)])
        assert rc == 0
        clean = (out / "trajectory_noiseless.csv").read_text().splitlines()
        assert clean[1].endswith(",")  # stderr column empty
        noisy = (out / "trajectory_mc.csv").read_text().splitlines()
        assert not noisy[1].endswith(",")

    def test_spectrum_csv_source_round_trip(self, tmp_path):
        src = tmp_path / "spec.csv"
        src.write_text("k,lambda,lambda_c\n1,1.0,0.5\n2,0.5,0.25\n3,0.25,0.125\n4,0.125,0.0625\n")
        out = tmp_path / "runcsv"
        rc = main(["simulate", "--csv", str(src), "--alpha", "0.3", "--gamma", "0.2",
                   "--steps", "50", "--out", str(out)])
        assert rc == 0
        spec = load_spectrum_csv(src)
        first = float((out / "trajectory_se.csv").read_text().splitlines()[1].split(",")[1])
        assert first == spec.initial_loss

    def test_stability_map_boundary_column(self, tmp_path):
        out = tmp_path / "map"
        rc = main(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "40",
                   "--batch", "10", "--grid-alpha", "0.2:3:6", "--grid-beta", "0:0.8:5",
                   "--steps", "200", "--out", str(out)])
        assert rc == 0
        rows = (out / "stability_map.csv").read_text().splitlines()[1:]
        spec = None
        from sgdphaselab import PowerLawSpec, build_power_law, gamma_for_batch

        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 40))
        gamma = gamma_for_batch(math.inf, 10)
        rng = np.random.default_rng(0)
        for row in rng.choice(rows, size=10, replace=False):
            alpha, beta, _, _, boundary = row.split(",")
            rep = stability_report(GenFuncContext(spec, float(alpha), float(beta), gamma, 1.0))
            assert float(boundary) == rep.alpha_eff_critical * (1.0 - float(beta))

    def test_stability_map_boundary_at_strongly_negative_beta(self, tmp_path):
        # alpha = 0.5 lies outside beta = -0.9's window 2(1 + beta)/lambda_max = 0.2, its boundary does not
        out = tmp_path / "negmap"
        assert main(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "20", "--batch", "10",
                     "--grid-alpha", "0.5:4:3", "--grid-beta", "-0.9:0.5:3", "--steps", "50",
                     "--out", str(out)]) == 0
        from sgdphaselab import PowerLawSpec, build_power_law, gamma_for_batch

        spec = build_power_law(PowerLawSpec(1.0, 1.5, 1.0, 3.0, 20))
        rows = [r.split(",") for r in (out / "stability_map.csv").read_text().splitlines()[1:]]
        assert {r[1] for r in rows} == {repr(-0.9), repr(-0.9 + 0.7), "0.5"}
        for alpha, beta, _, _, boundary in rows:
            ctx = GenFuncContext(spec, 0.01, float(beta), gamma_for_batch(math.inf, 10), 1.0)
            assert float(boundary) == stability_report(ctx).alpha_eff_critical * (1.0 - float(beta))
        assert 0.19 < float(rows[0][4]) < 0.2

    def test_torus_built_once_per_run(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_torus_problem", lambda *a, **kw: built.append(a) or build_torus_problem(*a, **kw))
        assert main(["simulate", "--torus", "16", "--regime", "se,mc,moments", "--batch", "4", "--steps", "20",
                     "--runs", "10", "--out", str(tmp_path / "torus")]) == 0
        assert len(built) == 1

    def test_divergence_command(self, tmp_path):
        out = tmp_path / "div"
        rc = main(["divergence", "--nu", "0.75", "--kappa", "0.375", "--modes", "2000",
                   "--alpha", "0.1", "--gamma", "1", "--steps", "2000",
                   "--tail-start", "200", "--out", str(out), "--plot"])
        assert rc == 0
        rep = json.loads((out / "divergence_report.json").read_text())
        assert 0 < rep["r_L"] < 1
        assert rep["blowup"]["t_blowup"] > 0

    def test_asymptotics_command_reports_empirical_slope(self, tmp_path):
        out = tmp_path / "asym"
        rc = main(["asymptotics", "--nu", "1.5", "--kappa", "3", "--modes", "400",
                   "--alpha", "0.2", "--gamma", "1", "--steps", "3000", "--out", str(out), "--plot"])
        assert rc == 0
        rep = json.loads((out / "asymptote_report.json").read_text())
        assert rep["phase"] == "noise_dominated"
        assert abs(rep["empirical"]["slope"] - rep["exponent"]) < 0.4
        assert (out / "asymptotics.svg").read_text().startswith("<svg")
        assert "asymptotics.svg" in {f["path"] for f in read_manifest(out)["files"]}

    def test_divergence_where_blowup_does_not_apply(self, tmp_path):
        out = tmp_path / "div"
        assert main(["divergence", "--nu", "1.5", "--kappa", "3", "--modes", "50", "--alpha", "1.5",
                     "--gamma", "1", "--steps", "200", "--out", str(out), "--plot"]) == 0
        rep = json.loads((out / "divergence_report.json").read_text())
        assert "nu" in rep["blowup"]["not_applicable"]
        assert 2 < rep["t_div"] < 2.6
        assert ">t_div<" in (out / "divergence.svg").read_text()

    def test_asymptotics_window_too_short(self, tmp_path):
        out = tmp_path / "asym"
        assert main(["asymptotics", "--nu", "1.5", "--kappa", "3", "--modes", "400", "--alpha", "0.2",
                     "--gamma", "1", "--steps", "5", "--out", str(out)]) == 0
        rep = json.loads((out / "asymptote_report.json").read_text())
        assert rep["empirical"] == {"note": "trajectory diverged or window too short"}

    def test_fit_command(self, tmp_path):
        out = tmp_path / "fit"
        rc = main(["fit", "--nu", "1.5", "--kappa", "3", "--modes", "64", "--out", str(out), "--plot"])
        assert rc == 0
        rep = json.loads((out / "power_law_fit.json").read_text())
        assert rep["nu"] == pytest.approx(1.5, abs=1e-9)

    def test_se_error_command(self, tmp_path):
        out = tmp_path / "se"
        rc = main(["se-error", "--torus", "24", "--out", str(out)])
        assert rc == 0
        rep = json.loads((out / "se_error.json").read_text())
        assert rep["E2"] >= 0

    def test_finite_dataset_gamma(self, tmp_path):
        out = tmp_path / "finite"
        rc = main(["simulate", "--nu", "1.5", "--kappa", "3", "--modes", "30", "--alpha", "0.3",
                   "--batch", "10", "--dataset-size", "100", "--steps", "40", "--out", str(out)])
        assert rc == 0
        meta = json.loads((out / "trajectory_se.meta.json").read_text())
        assert meta["parameters"]["gamma"] == pytest.approx(90 / 990)

    def test_batch_list_sweep(self, tmp_path):
        out = tmp_path / "budget"
        rc = main(["simulate", "--nu", "1.5", "--kappa", "0.375", "--modes", "100",
                   "--alpha", "0.05", "--beta", "0.9", "--batch-list", "8,16",
                   "--steps", "400", "--out", str(out), "--plot"])
        assert rc == 0
        assert (out / "trajectory_se_b8.csv").exists()
        assert (out / "trajectory_se_b16.csv").exists()
        assert (out / "budget_scaling.svg").exists()

    def test_phase_diagram_grid(self, tmp_path):
        out = tmp_path / "phase"
        rc = main(["phase-diagram", "--alpha", "0.2", "--gamma", "0.1", "--modes", "32",
                   "--out", str(out)])
        assert rc == 0
        rows = (out / "phase_diagram.csv").read_text().splitlines()
        assert rows[0] == "nu,zeta,phase,exponent,constant"
        labels = {r.split(",")[2] for r in rows[1:]}
        assert {"signal_dominated", "noise_dominated", "eventual_divergence",
                "immediate_divergence"} <= labels


    def test_phase_diagram_honors_gamma_zero(self, tmp_path):
        def table(*gamma):
            out = tmp_path / f"phase{gamma}"
            assert main(["phase-diagram", "--alpha", "0.2", "--modes", "32", *gamma, "--out", str(out)]) == 0
            return (out / "phase_diagram.csv").read_text()

        assert table("--gamma", "0.1") == table()  # unset gamma defaults to 0.1
        assert table("--gamma", "0") != table("--gamma", "0.1")
        assert table("--batch", "4") == table("--gamma", "0.25")  # 1/b on these infinite spectra


class TestExitCodes:
    def test_validation_errors_exit_2(self, tmp_path, capsys):
        bad_inputs = [
            ["simulate", "--nu", "1.5"],  # missing kappa
            ["simulate", "--nu", "1.5", "--kappa", "3", "--beta", "2"],
            ["simulate", "--csv", str(tmp_path / "missing.csv")],
            ["simulate", "--nu", "1.5", "--kappa", "3", "--regime", "nope"],
            ["fit", "--nu", "1.5", "--kappa", "3", "--modes", "10", "--tail-start", "9"],
            ["phase-diagram", "--alpha", "nan"],
            ["phase-diagram", "--alpha", "inf"],
            # stability-map grids outside the SGD domain: alpha > 0, -1 < beta < 1
            *(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "20", "--batch", "10", "--steps", "20", *grid]
              for grid in (["--grid-beta", "0:1.5:4"], ["--grid-alpha", "nan:1:5"], ["--grid-alpha", "0:1:5"],
                           ["--grid-alpha", "-1:1:3"])),
        ]
        for argv in bad_inputs:
            assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "--grid-alpha/--grid-beta" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("bad", [
        *(["--torus", "16", "--kernel-scale", scale] for scale in ("0", "-0.35", "nan", "inf")),
        # a repeated run would write the same trajectory_*.csv twice and list it twice in manifest.json
        ["--nu", "1.5", "--kappa", "3", "--regime", "se,noiseless,se"],
        ["--nu", "1.5", "--kappa", "3", "--batch-list", "4,8,4"],
        # the seed keys run_mc's Philox streams: an integer in [0, 2^64)
        ["--random-features", "4,6", "--regime", "mc", "--seed", "-1"],
        ["--random-features", "4,6", "--regime", "mc", "--seed", str(2**64)],
        ["--torus", "16", "--seed", "-3"],
        # --batch-list runs the se regime alone, once per batch size
        ["--nu", "1.5", "--kappa", "3", "--batch-list", "4,8", "--regime", "mc"],
        # mc samples batches of --batch from the problem's samples, and moments takes their count
        ["--random-features", "8,12", "--regime", "mc,moments,se", "--gamma", "0.5"],
        ["--random-features", "8,12", "--regime", "mc", "--dataset-size", "12"],
        ["--random-features", "8,12", "--regime", "se,moments", "--dataset-size", "12"],
    ], ids=" ".join)
    def test_bad_simulate_value_named(self, bad, tmp_path, capsys):
        out = tmp_path / "bad"
        assert main(["simulate", *bad, "--batch", "4", "--steps", "20", "--out", str(out)]) == 2
        assert bad[-2] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # spectrum files name the line of a bad row; a first row with a numeric cell is data
        (["fit", "--csv", "a,b,c\n1,1.0,0.5\n"], "line 1: unrecognized header"),
        (["fit", "--csv", "1,1.0,0.5\n2,0.5,0.25,1\n"], "line 2: expected 2 or 3 columns, got 4"),
        (["fit", "--csv", "1,1e999,0.5\n"], "line 1: non-finite value"),
        (["fit", "--csv", "1,1.0,0.5\n2,0.5,-0.25\n"], "line 2: lambda*C must be non-negative"),
        (["fit", "--csv", "# no rows\n\n"], "no spectrum rows"),
        (["fit", "--csv", "1.0,abc\n"], "line 1: non-numeric cell"),
        (["simulate", "--nu", "1.5", "--kappa", "3", "--batch", "4", "--runs", "0"], "runs and modes must be positive"),
        (["simulate", "--nu", "1.5", "--kappa", "3", "--batch", "4", "--modes", "1"], "(modes >= 2)"),
        (["simulate", "--torus", "0", "--batch", "4"], "--torus needs a positive grid size"),
        (["simulate", "--random-features", "0,5", "--batch", "4"], "--random-features dimensions must be positive"),
        (["simulate", "--nu", "1.5", "--kappa", "3", "--batch", "4", "--regime", "mc"],
         "needs an explicit feature problem"),
        (["se-error", "--nu", "1.5", "--kappa", "3"], "needs an explicit feature problem"),
        (["stability-map", "--nu", "1.5", "--kappa", "3", "--batch", "10", "--grid-alpha", "4:0.1:5"],
         "needs hi >= lo"),
        (["--config", None], "cannot read config file"),
        (["--config", "command = fit\nnu\n"], ":2: expected key = value, got 'nu'"),
        (["simulate", "--random-features", "8,12", "--regime", "mc", "--batch", "20"],
         "batch size 20 exceeds dataset size 12"),
    ], ids=["csv-header", "csv-4-columns", "csv-inf", "csv-negative", "csv-no-rows", "csv-first-row-data",
            "runs-0", "modes-1", "torus-0", "random-features-0", "mc-on-power-law", "se-error-on-power-law",
            "grid-hi-below-lo", "config-unreadable", "config-no-equals", "batch-above-samples"])
    def test_bad_input_named(self, argv, message, tmp_path, capsys):
        # the value after --csv or --config is the file's text, None for a file that does not exist
        files = {i: tmp_path / f"in{i}" for i in range(1, len(argv)) if argv[i - 1] in ("--csv", "--config")}
        for i, path in files.items():
            if argv[i] is not None:
                path.write_text(argv[i])
        argv = [str(files[i]) if i in files else a for i, a in enumerate(argv)]
        out = tmp_path / "bad"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", ["nan", "-inf"])
    def test_non_finite_dataset_size_exits_2(self, size, tmp_path, capsys):
        out = tmp_path / "bad"
        assert main(["simulate", "--nu", "1.5", "--kappa", "3", "--batch", "4", f"--dataset-size={size}",
                     "--out", str(out)]) == 2
        assert "dataset_size" in capsys.readouterr().err
        assert not out.exists()

    def test_domain_errors_exit_3(self, tmp_path):
        rc = main(["divergence", "--nu", "1.5", "--kappa", "3", "--modes", "50",
                   "--alpha", "0.01", "--gamma", "0.01", "--out", str(tmp_path / "y")])
        assert rc == 3

    @pytest.mark.parametrize("source", [["--random-features", "1,1"], ["--random-features", "2,1"],
                                        ["--torus", "1"]], ids=lambda s: s[1])
    def test_se_error_without_sampling_noise_exits_3(self, source, tmp_path, capsys):
        # one sample is a full batch: Sigma is zero, exactly on the torus, up to rounding otherwise
        out = tmp_path / "se"
        assert main(["se-error", *source, "--out", str(out)]) == 3
        assert "E2 is undefined" in capsys.readouterr().err
        assert not out.exists()

    def test_se_error_reports_a_small_real_noise(self, tmp_path):
        # d = 1, N = 2: Sigma = C (psi_1^2 - psi_2^2)^2 / 4, about 2.8e-7 in norm at seed 0
        out = tmp_path / "se"
        assert main(["se-error", "--random-features", "1,2", "--out", str(out)]) == 0
        rep = json.loads((out / "se_error.json").read_text())
        assert 0.0 < rep["coefficients"]["ss"] < 1e-12

    @pytest.mark.parametrize("argv", [
        ["stability-map", "--modes", "20", "--gamma", "0.5", "--grid-alpha", "0.1:1:2",
         "--grid-beta", "0:0.5:2", "--steps", "10"],
        ["divergence", "--modes", "50", "--alpha", "1.5", "--gamma", "1"],
        ["asymptotics", "--modes", "50", "--gamma", "0.5", "--steps", "10"],
        ["phase-diagram", "--modes", "20"],
    ], ids=lambda argv: argv[0])
    def test_analysis_refuses_tau1_other_than_one(self, argv, tmp_path, capsys):
        # the analysis reads tau2 alone: a tau1 != 1 run would describe another point
        source = [] if argv[0] == "phase-diagram" else ["--nu", "1.5", "--kappa", "3"]
        out = tmp_path / "t"
        assert main(argv + source + ["--tau1", "0.5", "--out", str(out)]) == 3
        assert "tau1" in capsys.readouterr().err
        assert not out.exists()

    def test_partial_outputs_removed_on_failure(self, tmp_path):
        out = tmp_path / "z"
        rc = main(["divergence", "--nu", "1.5", "--kappa", "3", "--modes", "50",
                   "--alpha", "0.01", "--gamma", "0.01", "--out", str(out)])
        assert rc == 3
        assert not (out / "manifest.json").exists()
        assert list(out.glob("*.csv")) == []

    def test_failed_run_removes_the_out_dir_it_created(self, tmp_path, monkeypatch):
        cfg = tmp_path / "bogus.cfg"  # only PowerLawSpec checks c0_mode, after --out is made
        cfg.write_text("command = simulate\nnu = 1.5\nkappa = 3\nc0_mode = bogus\n")
        out, kept = tmp_path / "new" / "out", tmp_path / "kept"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not (tmp_path / "new").exists()  # the empty parents it made go too
        kept.mkdir()
        assert main(["--config", str(cfg), "--out", str(kept)]) == 2
        assert kept.is_dir()  # a directory the run did not create stays
        assert main(["--config", str(cfg), "--out", str(kept / "a" / "b")]) == 2
        assert kept.is_dir() and not (kept / "a").exists()  # an existing parent stays

        # a failure after the trajectory ran: nothing of the run is on disk yet, since a
        # command's files are written only once it returns, and a file it did not write stays
        def failing_chart(*args, **kwargs):
            assert {p.name for p in kept.iterdir()} == {"notes.txt"}
            raise ValidationError("chart failed")

        monkeypatch.setattr(cli.svg, "loglog_chart", failing_chart)
        (kept / "notes.txt").write_text("mine")
        assert main(["simulate", "--nu", "1.5", "--kappa", "3", "--batch", "4", "--steps", "20",
                     "--plot", "--out", str(kept)]) == 2
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 74.5 GiB for an array with\nshape (1, 10000000001)",
         "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (1, 10000000001)"),
        ("", "error: out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_4(self, message, line, tmp_path, monkeypatch, capsys):
        # a command that runs out of memory exits 4 with one line, no traceback, and writes nothing
        def exhausted(cfg):
            raise MemoryError(message)

        monkeypatch.setitem(cli._DISPATCH, "simulate", exhausted)
        out = tmp_path / "new" / "out"
        assert main(["simulate", "--nu", "1.5", "--kappa", "3", "--batch", "4", "--out", str(out)]) == 4
        assert capsys.readouterr().err == line + "\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("link, below", [(False, ()), (False, ("sub",)), (True, ())],
                             ids=["file", "under-file", "dangling-link"])
    def test_out_blocked_by_a_file_exits_2(self, link, below, tmp_path, capsys):
        blocker = tmp_path / "file"
        if link:
            blocker.symlink_to(tmp_path / "gone")
        else:
            blocker.write_text("mine")
        out = blocker.joinpath(*below)
        assert main(["fit", "--nu", "1.5", "--kappa", "3", "--out", str(out)]) == 2
        assert f"--out {out}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]  # nothing created, nothing written

    def test_fuzzed_config_keys_exit_2(self, tmp_path):
        rng = np.random.default_rng(77)
        alphabet = "abcdefghijklmnopqrstuvwxyz_"
        for trial in range(8):
            key = "".join(rng.choice(list(alphabet), size=rng.integers(3, 12)))
            if key in {"nu", "kappa", "alpha", "beta", "gamma", "batch", "steps",
                       "runs", "seed", "out", "plot", "csv", "torus", "modes",
                       "regime", "command", "tau1", "tau2", "dataset_size",
                       "kernel_scale", "full_scale", "tail_start", "batch_list",
                       "grid_alpha", "grid_beta", "random_features", "c0_mode",
                       "Lambda", "K"}:
                continue
            f = tmp_path / f"fuzz{trial}.cfg"
            f.write_text(f"command = simulate\nnu = 1.5\nkappa = 3.0\n{key} = 1\n")
            assert main(["--config", str(f)]) == 2


class TestThreadCap:
    def test_thread_env_does_not_change_results(self, tmp_path, monkeypatch):
        # 1000 modes, cells diverging at different steps, at 1, 2 and 7 workers
        args = ["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "1000",
                "--batch", "10", "--grid-alpha", "0.5:4:9", "--grid-beta", "0:0.9:4",
                "--steps", "300"]
        maps = []
        for threads in ("1", "2", "7"):
            monkeypatch.setenv("SGDPHASELAB_THREADS", threads)
            assert main(args + ["--out", str(tmp_path / threads)]) == 0
            maps.append((tmp_path / threads / "stability_map.csv").read_bytes())
        assert maps[0] == maps[1] == maps[2]
        rows = [r.split(",") for r in maps[0].decode().splitlines()[1:]]
        assert 0 < sum(r[2] == "inf" for r in rows) < len(rows)

    def test_bad_thread_env_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SGDPHASELAB_THREADS", "lots")
        rc = main(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "20",
                   "--batch", "10", "--grid-alpha", "0.2:1:3", "--grid-beta", "0:0.5:2",
                   "--steps", "50", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_bad_thread_env_ignored_off_the_grid(self, tmp_path, monkeypatch):
        # only stability-map runs a grid, so only it reads the variable
        args = ["divergence", "--nu", "1.5", "--kappa", "3", "--modes", "50", "--alpha", "1.5", "--gamma", "1",
                "--steps", "200", "--out"]
        monkeypatch.delenv("SGDPHASELAB_THREADS", raising=False)
        assert main(args + [str(tmp_path / "unset")]) == 0
        monkeypatch.setenv("SGDPHASELAB_THREADS", "lots")
        assert main(args + [str(tmp_path / "lots")]) == 0
        for name in ("divergence_report.json", "trajectory_se.csv"):
            assert (tmp_path / "lots" / name).read_bytes() == (tmp_path / "unset" / name).read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_env_below_one_rejected(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("SGDPHASELAB_THREADS", threads)
        rc = main(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "20", "--batch", "10",
                   "--grid-alpha", "0.2:1:3", "--grid-beta", "0:0.5:2", "--steps", "50", "--out", str(tmp_path / "x")])
        assert rc == 2 and not (tmp_path / "x").exists()


class TestStepsResolution:
    def _grid_steps(self, monkeypatch, tmp_path, extra):
        seen = []

        def fake_grid(spectrum, alphas, betas, gamma, tau1, tau2, steps):
            seen.append(steps)
            shape = (len(alphas), len(betas))
            return {"final_loss": np.ones(shape), "diverged_at": np.full(shape, -1)}

        monkeypatch.setattr(cli, "run_se_grid", fake_grid)
        out = tmp_path / "map"
        assert main(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "20", "--batch", "10",
                     "--grid-alpha", "0.2:1:3", "--grid-beta", "0:0.5:2", "--out", str(out), *extra]) == 0
        assert seen and len(set(seen)) == 1
        return seen[0], read_manifest(out)["config"]["steps"]

    def test_explicit_default_horizon_is_honored(self, monkeypatch, tmp_path):
        assert self._grid_steps(monkeypatch, tmp_path, ["--steps", "10000"]) == (10_000, 10_000)

    def test_unset_steps_resolved_per_scale(self, monkeypatch, tmp_path):
        # the manifest echoes the horizon the grid ran
        assert self._grid_steps(monkeypatch, tmp_path, []) == (1000, 1000)
        assert self._grid_steps(monkeypatch, tmp_path, ["--full-scale"]) == (10_000, 10_000)
        assert self._grid_steps(monkeypatch, tmp_path, ["--full-scale", "--steps", "500"]) == (500, 500)


class TestSvg:
    def test_deterministic_bytes(self):
        t = np.arange(1, 50, dtype=float)
        series = [("a", t, t**-0.5), ("b", t, 2 * t**-1.0)]
        one = loglog_chart(series, guides=[(-0.5, 1.0, 1.0, "slope -1/2")], title="x")
        two = loglog_chart(series, guides=[(-0.5, 1.0, 1.0, "slope -1/2")], title="x")
        assert one == two
        assert one.startswith("<svg") and one.rstrip().endswith("</svg>")

    def test_power_law_series_parallel_to_guide(self):
        # a pure power law renders parallel to the matching slope guide
        t = np.geomspace(1, 1e4, 100)
        chart = loglog_chart([("s", t, t**-0.25)], guides=[(-0.25, 1.0, 0.5, "slope -0.25")])
        lines = chart.splitlines()
        poly = next(ln for ln in lines if ln.startswith("<polyline"))
        pts = [tuple(map(float, p.split(","))) for p in poly.split('points="')[1].split('"')[0].split()]
        series_slope = (pts[-1][1] - pts[0][1]) / (pts[-1][0] - pts[0][0])
        guide = next(ln for ln in lines if "stroke-dasharray" in ln)
        x1 = float(guide.split('x1="')[1].split('"')[0])
        y1 = float(guide.split('y1="')[1].split('"')[0])
        x2 = float(guide.split('x2="')[1].split('"')[0])
        y2 = float(guide.split('y2="')[1].split('"')[0])
        guide_slope = (y2 - y1) / (x2 - x1)
        assert series_slope == pytest.approx(guide_slope, rel=1e-9)

    def test_empty_series_rejected(self):
        with pytest.raises(ValidationError):
            loglog_chart([])

    def test_non_positive_rejected(self):
        t = np.arange(1, 5, dtype=float)
        with pytest.raises(ValidationError):
            loglog_chart([("s", t, np.array([1.0, 0.0, 2.0, 3.0]))])

    def test_heatmap_shapes(self):
        cells = np.array([[1.0, 2.0], [3.0, math.nan], [0.5, 4.0]])
        out = heatmap_chart([0.1, 0.2, 0.3], [0.0, 0.5], cells, boundary=[(0.15, 0.0), (0.25, 0.5)])
        assert out.count("<rect") >= 7
        with pytest.raises(ValidationError):
            heatmap_chart([0.1], [0.0], np.array([[1.0, 2.0]]))

    def test_map_with_every_cell_diverged_plots_dark(self, tmp_path):
        out = tmp_path / "dead"
        assert main(["stability-map", "--nu", "1.5", "--kappa", "3", "--modes", "50", "--grid-alpha", "50:60:3",
                     "--grid-beta", "0:0.5:2", "--steps", "50", "--batch", "10", "--plot", "--out", str(out)]) == 0
        rows = [r.split(",") for r in (out / "stability_map.csv").read_text().splitlines()[1:]]
        assert len(rows) == 6 and all(r[2] == "inf" for r in rows)
        cells = [line for line in (out / "stability_map.svg").read_text().splitlines()
                 if line.startswith("<rect x=") and 'fill="none"' not in line]
        assert len(cells) == 6 and all('fill="#404040"' in line for line in cells)
        assert "stability_map.svg" in {f["path"] for f in read_manifest(out)["files"]}
