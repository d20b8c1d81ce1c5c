import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from safestab.cli import main
from safestab.config import ConfigError, load_config

ROOT_LEFT = (1.0 - math.sqrt(2.0)) / 2.0


def base_config(**overrides):
    cfg = {
        "system": {"dim": 1, "state_vars": ["x"], "f": ["-x + x^2"], "delta": 0.25},
        "sets": {
            "W": {"kind": "box", "lo": [-1.0], "hi": [-0.9]},
            "U": {"kind": "complement_box", "lo": [-1.0e9], "hi": [0.6]},
            "Omega": {"kind": "box", "lo": [-0.25], "hi": [0.5]},
            "A": {"kind": "box", "lo": [ROOT_LEFT], "hi": [0.5]},
        },
        "grid": {"domain": {"lo": [-1.5], "hi": [1.5]}, "resolution": 0.01},
        "battery": {"n_random": 8, "seed": 2024, "dwell": 0.1},
        "integration": {"dt": 0.005, "horizon": 20.0, "blowup_bound": 1.0e6},
        "tolerances": {"strict_tol": 1.0e-9, "pd_coeff": 1.0e-6, "validation_tol": 0.05},
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def write_config(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run_cli(args):
    return CliRunner().invoke(main, args, catch_exceptions=False)


class TestConfigValidation:
    def test_negative_delta_names_field(self, tmp_path):
        path = write_config(tmp_path, base_config(system={"dim": 1, "f": ["-x"], "delta": -0.1}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == "system.delta"

    def test_blowup_bound_belongs_to_the_system(self, tmp_path):
        cfg = base_config(integration={"dt": 0.01, "horizon": 1.0, "blowup_bound": 50},
                          reach={"initial": "W"})
        path = write_config(tmp_path, cfg)
        assert load_config(path).system.blowup_bound == 50.0
        out = tmp_path / "runs"
        assert run_cli(["reach", "--config", path, "--out", str(out)]).exit_code == 0
        report = json.loads(next(out.glob("reach-*/report.json")).read_text())
        assert report["config"]["integration"]["blowup_bound"] == 50.0

    def test_missing_seed_with_randomness(self, tmp_path):
        cfg = base_config()
        del cfg["battery"]["seed"]
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == "battery.seed"

    def test_unknown_set_kind(self, tmp_path):
        cfg = base_config()
        cfg["sets"]["bad"] = {"kind": "ellipsoid", "lo": [0], "hi": [1]}
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "sets.bad" in str(err.value)

    def test_bad_expression_reports_position(self, tmp_path):
        cfg = base_config()
        cfg["system"]["f"] = ["-x + *2"]
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "position" in str(err.value)

    def test_malformed_config_exits_2(self, tmp_path):
        path = write_config(tmp_path, base_config(system={"dim": 1, "f": ["-x"], "delta": -1}))
        result = run_cli(["verify-ras", "--config", path, "--out", str(tmp_path / "runs")])
        assert result.exit_code == 2
        assert "system.delta" in result.output

    def test_dt_exceeding_horizon_rejected(self, tmp_path):
        cfg = base_config(integration={"dt": 50.0, "horizon": 20.0})
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == "integration.dt"

    def test_non_integral_horizon_exits_2(self, tmp_path):
        # horizon 1.0 with dt 0.3 would stop at 0.9 and report 1.0
        cfg = base_config(integration={"dt": 0.3, "horizon": 1.0}, simulate={"x0": [-1.0]})
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == "integration.horizon"
        result = run_cli(["simulate", "--config", path, "--out", str(tmp_path / "r")])
        assert result.exit_code == 2
        assert "integration.horizon" in result.output

    def test_non_integral_dwell_exits_2(self, tmp_path):
        # dwell 0.1 with dt 0.03 would give a first segment of 0.18, then 0.09
        cfg = base_config(integration={"dt": 0.03, "horizon": 3.0})
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.path == "battery.dwell"
        result = run_cli(["verify-ras", "--config", path, "--out", str(tmp_path / "r")])
        assert result.exit_code == 2
        assert "battery.dwell" in result.output
        # the dwell is unused, and not checked, without random policies
        cfg["battery"] = {"n_random": 0}
        assert load_config(write_config(tmp_path, cfg)).battery_dwell == 0.1

    def test_extremal_sets_need_sublevel(self, tmp_path):
        cfg = base_config()
        cfg["battery"]["extremal_sets"] = ["W"]
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_sublevel_extremal_grows_battery(self, tmp_path):
        cfg = base_config()
        cfg["sets"]["G"] = {"kind": "sublevel", "expr": "x^2 - 1", "level": 0.0}
        cfg["battery"]["extremal_sets"] = ["G"]
        path = write_config(tmp_path, cfg)
        rc = load_config(path)
        assert len(rc.make_battery()) == 3 + 2 + 8


class TestSimulate:
    def test_battery_csv_count_and_index(self, tmp_path):
        cfg = base_config(simulate={"x0": [-1.0]}, integration={"dt": 0.01, "horizon": 5.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["simulate", "--config", path, "--out", str(out)])
        assert result.exit_code == 0
        run_dir = next(out.glob("simulate-*"))
        csvs = sorted(run_dir.glob("trajectory_*.csv"))
        assert len(csvs) == 11  # zero + 2 constants + 8 random
        index = json.loads((run_dir / "index.json").read_text())
        assert len(index) == 11
        assert index[0]["policy"] == "zero"

    def test_delta_zero_policies_collapse(self, tmp_path):
        cfg = base_config(
            system={"dim": 1, "state_vars": ["x"], "f": ["-x"], "delta": 0.0},
            simulate={"x0": [0.5]},
            integration={"dt": 0.01, "horizon": 2.0},
            battery={"n_random": 2, "seed": 3, "dwell": 0.1},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        assert run_cli(["simulate", "--config", path, "--out", str(out)]).exit_code == 0
        run_dir = next(out.glob("simulate-*"))
        tables = [np.loadtxt(p, delimiter=",", skiprows=1) for p in sorted(run_dir.glob("*.csv"))]
        for t in tables[1:]:
            assert np.array_equal(t, tables[0])

    def test_infinite_constant_term_blows_up(self, tmp_path):
        # 0^-1 is inf like any other non-finite right-hand side
        cfg = base_config(
            system={"dim": 1, "state_vars": ["x"], "f": ["-x + x^2 + 0^-1"], "delta": 0.25},
            simulate={"x0": [-1.0]}, integration={"dt": 0.01, "horizon": 1.0},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        assert run_cli(["simulate", "--config", path, "--out", str(out)]).exit_code == 0
        index = json.loads((next(out.glob("simulate-*")) / "index.json").read_text())
        assert len(index) == 11
        assert all(tr["terminated"] == "blow_up" and tr["final_time"] == 0.0 for tr in index)

    def test_overflowing_literal_exits_2(self, tmp_path):
        cfg = base_config(system={"dim": 1, "state_vars": ["x"], "f": ["x + 1e999"]},
                          simulate={"x0": [-1.0]})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["simulate", "--config", path, "--out", str(out)])
        assert result.exit_code == 2
        assert "1e999" in result.output
        assert not out.exists()

    def test_non_finite_start_exits_2(self, tmp_path):
        cfg = base_config(integration={"dt": 0.01, "horizon": 1.0})
        path = write_config(tmp_path, cfg)
        result = run_cli(
            ["simulate", "--config", path, "--out", str(tmp_path / "r"), "--x0", "nan"]
        )
        assert result.exit_code == 2
        assert "finite" in result.output

    def test_same_second_runs_keep_both_reports(self, tmp_path, monkeypatch):
        from datetime import datetime

        import safestab.cli as cli_mod

        class FrozenClock:
            @staticmethod
            def now(tz=None):
                return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)

        monkeypatch.setattr(cli_mod, "datetime", FrozenClock)
        cfg = base_config(simulate={"x0": [-1.0]}, integration={"dt": 0.01, "horizon": 1.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        for _ in range(2):
            assert run_cli(["simulate", "--config", path, "--out", str(out)]).exit_code == 0
        reports = sorted(out.glob("*/report.json"))
        assert len(reports) == 2
        assert reports[0].parent.name + "-1" == reports[1].parent.name

    def test_artifacts_resolve_after_the_run_moves(self, tmp_path):
        cfg = base_config(simulate={"x0": [-1.0]}, integration={"dt": 0.01, "horizon": 1.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        assert run_cli(["simulate", "--config", path, "--out", str(out)]).exit_code == 0
        moved = tmp_path / "moved"
        next(out.glob("simulate-*")).rename(moved)
        report = json.loads((moved / "report.json").read_text())
        assert len(report["artifacts"]) == 12  # 11 trajectories and the index
        for name in report["artifacts"]:
            assert not Path(name).is_absolute()
            assert (moved / name).is_file()

    def test_x0_flag_overrides(self, tmp_path):
        cfg = base_config(integration={"dt": 0.01, "horizon": 1.0})
        path = write_config(tmp_path, cfg)
        result = run_cli(
            ["simulate", "--config", path, "--out", str(tmp_path / "r"), "--x0", "-0.5"]
        )
        assert result.exit_code == 0


class TestVerdictCommands:
    def test_verify_ras_yes(self, tmp_path):
        cfg = base_config(ras={"initial": "W", "unsafe": "U", "target": "Omega"})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["verify-ras", "--config", path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(next(out.glob("verify-ras-*/report.json")).read_text())
        assert report["verdict"]["satisfied"] == "yes_sampled"
        assert report["verdict"]["witness_T"] is not None

    def test_verify_ras_no_with_tight_unsafe(self, tmp_path):
        cfg = base_config(ras={"initial": "W", "unsafe": "U3", "target": "Omega"})
        cfg["sets"]["U3"] = {"kind": "complement_box", "lo": [-1.0e9], "hi": [0.3]}
        path = write_config(tmp_path, cfg)
        result = run_cli(["verify-ras", "--config", path, "--out", str(tmp_path / "r")])
        assert result.exit_code == 1

    def test_reports_reproduce_bit_identically(self, tmp_path):
        cfg = base_config(ras={"initial": "W", "unsafe": "U", "target": "Omega"})
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli(["verify-ras", "--config", path, "--out", str(out1)]).exit_code == 0
        assert run_cli(["verify-ras", "--config", path, "--out", str(out2)]).exit_code == 0
        r1 = json.loads(next(out1.glob("*/report.json")).read_text())
        r2 = json.loads(next(out2.glob("*/report.json")).read_text())
        assert r1["verdict"] == r2["verdict"]
        assert r1["config"] == r2["config"]

    def test_invariant_set_endpoints(self, tmp_path):
        cfg = base_config(
            invariant_set={"target": "Omega", "mode": "core"},
            integration={"dt": 0.005, "horizon": 30.0},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["invariant-set", "--config", path, "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(next(out.glob("invariant-set-*/report.json")).read_text())
        (lo, hi), = report["result"]["endpoints"]
        assert abs(lo - ROOT_LEFT) <= 0.02
        assert abs(hi - 0.5) <= 0.02
        run_dir = next(out.glob("invariant-set-*"))
        mask = np.loadtxt(run_dir / "invariant_mask.csv", delimiter=",", skiprows=1)
        assert mask.shape[1] == 2

    def test_winning_set_writes_mask(self, tmp_path):
        cfg = base_config(winning_set={"stable": "A", "unsafe": "U"})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["winning-set", "--config", path, "--out", str(out)])
        assert result.exit_code == 0
        report = json.loads(next(out.glob("winning-set-*/report.json")).read_text())
        assert report["n_marked"] > 0

    def test_probe_uas_violated_exit_1(self, tmp_path):
        # x' = x is unstable at the origin: fast falsification
        cfg = base_config(
            system={"dim": 1, "state_vars": ["x"], "f": ["x"], "delta": 0.0},
            battery={"n_random": 0, "seed": 1, "dwell": 0.1},
            integration={"dt": 0.01, "horizon": 10.0},
            uas={"stable": "O", "eps_schedule": [0.5]},
        )
        cfg["sets"]["O"] = {"kind": "box", "lo": [0.0], "hi": [0.0]}
        path = write_config(tmp_path, cfg)
        result = run_cli(["probe-uas", "--config", path, "--out", str(tmp_path / "r")])
        assert result.exit_code == 1
        assert "violated" in result.output

    def test_probe_uas_consistent_exit_0(self, tmp_path):
        cfg = base_config(
            system={"dim": 1, "state_vars": ["x"], "f": ["-x"], "delta": 0.0},
            battery={"n_random": 0, "seed": 1, "dwell": 0.1},
            integration={"dt": 0.01, "horizon": 8.0},
            uas={"stable": "O", "eps_schedule": [0.25, 0.5]},
        )
        cfg["sets"]["O"] = {"kind": "box", "lo": [0.0], "hi": [0.0]}
        path = write_config(tmp_path, cfg)
        result = run_cli(["probe-uas", "--config", path, "--out", str(tmp_path / "r")])
        assert result.exit_code == 0

    def test_verify_sws_linear_yes(self, tmp_path):
        cfg = base_config(
            system={"dim": 1, "state_vars": ["x"], "f": ["-x"], "delta": 0.0},
            battery={"n_random": 2, "seed": 5, "dwell": 0.1},
            integration={"dt": 0.01, "horizon": 8.0},
            grid={"domain": {"lo": [-1.5], "hi": [1.5]}, "resolution": 0.05},
            sws={"initial": "WL", "unsafe": "UL", "stable": "O",
                 "eps_schedule": [0.25, 0.5], "probe_horizon": 8.0},
        )
        cfg["sets"]["O"] = {"kind": "box", "lo": [0.0], "hi": [0.0]}
        cfg["sets"]["WL"] = {"kind": "box", "lo": [-1.0], "hi": [1.0]}
        cfg["sets"]["UL"] = {"kind": "box", "lo": [2.0], "hi": [3.0]}
        path = write_config(tmp_path, cfg)
        result = run_cli(["verify-sws", "--config", path, "--out", str(tmp_path / "r")])
        assert result.exit_code == 0, result.output


class TestCertificateCommand:
    def test_pair_pass_and_fail(self, tmp_path):
        base = dict(
            system={"dim": 1, "state_vars": ["x"], "f": ["-x"], "delta": 0.0},
            battery={"n_random": 0, "seed": 1, "dwell": 0.1},
            grid={"domain": {"lo": [-2.505], "hi": [2.505]}, "resolution": 0.01},
            certificate={
                "check": "pair", "V": "x^2", "B": "0.2625 - x^2", "domain": "D",
                "stable": "O", "initial": "Wc", "unsafe": "Uc",
            },
        )
        sets = {
            "O": {"kind": "box", "lo": [0.0], "hi": [0.0]},
            "Wc": {"kind": "box", "lo": [-0.5], "hi": [0.5]},
            "Uc": {"kind": "complement_box", "lo": [-2.0], "hi": [2.0]},
            "D": {"kind": "box", "lo": [-1.5], "hi": [1.5]},
        }
        cfg = base_config(**base)
        cfg["sets"] = sets
        path = write_config(tmp_path, cfg)
        result = run_cli(["check-cert", "--config", path, "--out", str(tmp_path / "a")])
        assert result.exit_code == 0, result.output

        cfg["system"]["delta"] = 0.4
        path2 = write_config(tmp_path, cfg, "run2.yaml")
        result2 = run_cli(["check-cert", "--config", path2, "--out", str(tmp_path / "b")])
        assert result2.exit_code == 1
        report = json.loads(next((tmp_path / "b").glob("*/certificate_report.json")).read_text())
        cond = report["conditions"]["B_nondecreasing"]
        assert cond["status"] == "fail"
        assert abs(cond["worst_point"][0]) < 0.4

    def test_single_check(self, tmp_path):
        cfg = base_config(
            system={"dim": 1, "state_vars": ["x"], "f": ["-x"], "delta": 0.0},
            battery={"n_random": 0, "seed": 1, "dwell": 0.1},
            grid={"domain": {"lo": [-1.0], "hi": [1.0]}, "resolution": 0.01},
            certificate={
                "check": "single", "V": "x^2", "domain": "D",
                "alpha1": {"power": 2, "scale": 0.5},
                "alpha2": {"power": 2, "scale": 2.0},
                "omega": {"stable": "O", "domain": None},
            },
        )
        cfg["sets"] = {
            "O": {"kind": "box", "lo": [0.0], "hi": [0.0]},
            "D": {"kind": "box", "lo": [-2.0], "hi": [2.0]},
        }
        path = write_config(tmp_path, cfg)
        result = run_cli(["check-cert", "--config", path, "--out", str(tmp_path / "r")])
        assert result.exit_code == 0, result.output

    def test_missing_barrier_exits_2(self, tmp_path):
        cfg = base_config(
            certificate={"check": "pair", "V": "x^2", "domain": "Omega",
                         "stable": "A", "initial": "W", "unsafe": "U"},
        )
        path = write_config(tmp_path, cfg)
        assert run_cli(["check-cert", "--config", path, "--out", str(tmp_path / "r")]).exit_code == 2


class TestLyapunovCommand:
    def linear_cfg(self, **extra):
        cfg = base_config(
            system={"dim": 1, "state_vars": ["x"], "f": ["-x"], "delta": 0.0},
            battery={"n_random": 2, "seed": 7, "dwell": 0.1},
            integration={"dt": 0.002, "horizon": 8.0},
            lyapunov={
                "region": "D", "stable": "O", "omega_domain": None,
                "sample_resolution": 0.05, "n_validation": 40,
                "taus": [0.5, 1.0], **extra,
            },
        )
        cfg["sets"] = {
            "O": {"kind": "box", "lo": [0.0], "hi": [0.0]},
            "D": {"kind": "box", "lo": [-1.0], "hi": [1.0]},
        }
        return cfg

    def test_pipeline_pass(self, tmp_path):
        path = write_config(tmp_path, self.linear_cfg())
        out = tmp_path / "runs"
        result = run_cli(["construct-lyapunov", "--config", path, "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(next(out.glob("*/report.json")).read_text())
        assert report["validation"]["passed"] is True
        run_dir = next(out.glob("construct-lyapunov-*"))
        assert (run_dir / "kl_envelope.csv").exists()
        grid_csv = np.loadtxt(run_dir / "lyapunov_grid.csv", delimiter=",", skiprows=1)
        assert grid_csv.shape[1] == 2

    def test_lambda_above_decay_exits_2(self, tmp_path):
        path = write_config(tmp_path, self.linear_cfg(lam=5.0))
        result = run_cli(["construct-lyapunov", "--config", path, "--out", str(tmp_path / "r")])
        assert result.exit_code == 2
        assert "lambda" in result.output


COMMAND_BLOCKS = {
    "simulate": "simulate",
    "reach": "reach",
    "invariant-set": "invariant_set",
    "winning-set": "winning_set",
    "verify-ras": "ras",
    "verify-sws": "sws",
    "probe-uas": "uas",
    "check-cert": "certificate",
    "construct-lyapunov": "lyapunov",
}


def assert_no_run_dir(out):
    assert not out.exists() or not any(out.iterdir())


class TestInputErrors:
    @pytest.mark.parametrize("command", sorted(COMMAND_BLOCKS))
    def test_missing_block_exits_2_and_writes_nothing(self, tmp_path, command):
        path = write_config(tmp_path, base_config())
        out = tmp_path / "runs"
        result = run_cli([command, "--config", path, "--out", str(out)])
        assert result.exit_code == 2
        assert COMMAND_BLOCKS[command] in result.output
        assert_no_run_dir(out)

    @pytest.mark.parametrize(
        "command, blocks, args, message",
        [
            ("reach", {"reach": {"initial": "W", "t_lo": "abc"}}, [], "reach.t_lo"),
            ("winning-set", {"winning_set": {"stable": "A", "unsafe": "U", "conv_radius": "abc"}},
             [], "winning_set.conv_radius"),
            ("check-cert", {"certificate": {
                "check": "single", "V": "x^2", "domain": "Omega",
                "alpha1": {"power": 2}, "alpha2": {"power": 2},
                "omega": {"stable": "A", "domain": "G"}}}, [], "Sublevel"),
            ("probe-uas", {"uas": {"stable": "G"}}, [], "box hull"),
            ("simulate", {}, ["--x0", "inf"], "finite"),
            # 0.015 at dt 0.01 would silently become a 0.02 window
            ("invariant-set", {"invariant_set": {"target": "Omega", "dwell_window": 0.015}},
             [], "invariant_set.dwell_window"),
        ],
    )
    def test_malformed_input_exits_2_and_writes_nothing(self, tmp_path, command, blocks,
                                                         args, message):
        cfg = base_config(integration={"dt": 0.01, "horizon": 1.0}, **blocks)
        cfg["sets"]["G"] = {"kind": "sublevel", "expr": "x^2 - 1", "level": 0.0}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli([command, "--config", path, "--out", str(out), *args])
        assert result.exit_code == 2
        assert message in result.output
        assert_no_run_dir(out)

    @pytest.mark.parametrize(
        "command, fields, message",
        [
            # eps / 2 below delta_floor: no radius is tested, so the level
            # would read "violated" without a counterexample
            ("probe-uas", {"eps_schedule": [0.0005]}, "eps_schedule"),
            ("probe-uas", {"eps_schedule": [0.0]}, "eps_schedule"),
            ("probe-uas", {"eps_schedule": [0.1, math.nan]}, "eps_schedule"),
            # a shell inside A
            ("probe-uas", {"rho": -0.2}, "rho"),
            ("probe-uas", {"rho": math.inf}, "rho"),
            ("probe-uas", {"delta_floor": 0.0}, "delta_floor"),
            ("probe-uas", {"delta_floor": math.nan}, "delta_floor"),
            ("verify-sws", {"eps_schedule": [0.0005]}, "eps_schedule"),
            ("verify-sws", {"eps_schedule": [0.0]}, "eps_schedule"),
            ("verify-sws", {"eps_schedule": [math.nan, 0.5]}, "eps_schedule"),
        ],
    )
    def test_probe_input_that_changes_meaning_exits_2(self, tmp_path, command, fields, message):
        block = {"probe-uas": {"uas": {"stable": "A"}},
                 "verify-sws": {"sws": {"initial": "W", "unsafe": "U", "stable": "A"}}}[command]
        for fields_of in block.values():
            fields_of.update(fields)
        path = write_config(tmp_path, base_config(**block))
        out = tmp_path / "runs"
        result = run_cli([command, "--config", path, "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output
        assert_no_run_dir(out)

    @pytest.mark.parametrize(
        "command, block, kind",
        [
            ("check-cert", {"omega": {"stable": "A", "domain": "G"}}, "Sublevel"),
            ("check-cert", {"omega": {"stable": "A", "domain": "UW"}}, "Union"),
            ("check-cert", {"omega": {"stable": "U", "domain": "Omega"}}, "BoxComplement"),
            ("check-cert", {"omega": {"stable": "G", "domain": "Omega"}}, "Sublevel"),
            ("construct-lyapunov", {"stable": "A", "omega_domain": "UW"}, "Union"),
            # a sublevel A has no closed-form distance ||x||_A either
            ("check-cert", {"omega": {"stable": "G"}}, "Sublevel"),
            ("check-cert", {"omega": {"stable": "AG"}}, "Sublevel"),
            ("check-cert", {"check": "pair", "B": "1 - x^2", "stable": "G",
                            "initial": "W", "unsafe": "U"}, "Sublevel"),
            ("construct-lyapunov", {"stable": "G", "omega_domain": None}, "Sublevel"),
        ],
        ids=["sublevel-D", "union-D", "complement-A", "sublevel-A", "lyapunov-union-D",
             "distance-sublevel-A", "distance-union-with-sublevel-A", "pair-sublevel-A",
             "lyapunov-distance-sublevel-A"],
    )
    def test_indicator_gap_without_closed_form_exits_2(self, tmp_path, command, block, kind):
        cfg = base_config(integration={"dt": 0.01, "horizon": 1.0})
        cfg["sets"]["G"] = {"kind": "sublevel", "expr": "x^2", "level": 0.01}
        cfg["sets"]["UW"] = {"kind": "union", "members": [
            {"kind": "box", "lo": [-1.0], "hi": [1.0]}, {"kind": "box", "lo": [2.0], "hi": [3.0]}]}
        cfg["sets"]["AG"] = {"kind": "union", "members": [
            {"kind": "box", "lo": [0.3], "hi": [0.4]},
            {"kind": "sublevel", "expr": "x^2", "level": 0.01}]}
        if command == "check-cert":
            cfg["certificate"] = {"check": "single", "V": "x^2", "domain": "Omega",
                                  "alpha1": {"power": 2}, "alpha2": {"power": 2}, **block}
        else:
            cfg["lyapunov"] = {"region": "Omega", **block}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli([command, "--config", path, "--out", str(out)])
        assert result.exit_code == 2
        assert kind in result.output
        assert_no_run_dir(out)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("sets", [1, 2], "sets: expected a mapping"),
            ("battery", [1], "battery: expected a mapping"),
            ("integration", 5, "integration: expected a mapping"),
            ("tolerances", "x", "tolerances: expected a mapping"),
            ("grid.domain", 5, "grid.domain: expected a mapping"),
            ("sets.G.expr", ["x"], "sets.G.expr"),
            ("battery.extremal_sets", [["W"]], "battery.extremal_sets[0]"),
            # a string is not a list of one name per character
            ("battery.extremal_sets", "G", "battery.extremal_sets: expected a list"),
        ],
        ids=["sets-list", "battery-list", "integration-number", "tolerances-string",
             "grid-domain-number", "expr-list", "extremal-nested-list", "extremal-string"],
    )
    def test_malformed_section_exits_2_and_names_field(self, tmp_path, field, value, message):
        cfg = base_config(integration={"dt": 0.01, "horizon": 1.0})
        cfg["sets"]["G"] = {"kind": "sublevel", "expr": "x^2 - 1", "level": 0.0}
        _set_field(cfg, field, value)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["simulate", "--config", path, "--out", str(out), "--x0", "0.1"])
        assert result.exit_code == 2
        assert message in result.output
        assert_no_run_dir(out)

    @pytest.mark.parametrize("section, key, value, message", [
        ("sets", 1, {"kind": "box", "lo": [0.0], "hi": [0.1]}, "sets.1"),
        ("reach", 2, "x", "reach.2"),
    ], ids=["set-name", "command-field"])
    def test_non_string_key_exits_2_and_writes_nothing(self, tmp_path, section, key, value,
                                                       message):
        cfg = base_config(reach={"initial": "W"})
        cfg[section][key] = value
        path = tmp_path / "run.yaml"
        # mixed key types cannot be sorted, so the file keeps the order given
        path.write_text(yaml.safe_dump(cfg, sort_keys=False))
        out = tmp_path / "runs"
        result = run_cli(["reach", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert message in result.output and "must be strings" in result.output
        assert_no_run_dir(out)

    @pytest.mark.parametrize(
        "command, field, value",
        [
            ("reach", "integration.horizon", math.inf),
            ("reach", "battery.dwell", math.inf),
            ("reach", "integration.dt", math.nan),
            ("reach", "grid.resolution", math.nan),
            ("verify-ras", "system.delta", math.nan),
            ("verify-ras", "system.delta", 10**400),
            ("verify-ras", "integration.blowup_bound", math.nan),
            ("check-cert", "certificate.alpha1.scale", math.nan),
            # t_lo past the horizon marks no cell; a negative one acted as 0
            ("reach", "reach.t_lo", 100.0),
            ("reach", "reach.t_lo", -0.5),
            # a negative radius read as "no cell settled"
            ("winning-set", "winning_set.conv_radius", -0.1),
        ],
        ids=["horizon-inf", "dwell-inf", "dt-nan", "resolution-nan", "delta-nan",
             "delta-past-float-range", "blowup-nan", "scale-nan", "t_lo-past-horizon",
             "t_lo-negative", "conv_radius-negative"],
    )
    def test_value_out_of_range_exits_2_and_names_field(self, tmp_path, command, field, value):
        cfg = base_config(
            integration={"dt": 0.01, "horizon": 1.0},
            reach={"initial": "W"},
            ras={"initial": "W", "unsafe": "U", "target": "Omega"},
            winning_set={"stable": "A", "unsafe": "U"},
            certificate={"check": "single", "V": "x^2", "domain": "Omega",
                         "alpha1": {"power": 2}, "alpha2": {"power": 2},
                         "omega": {"stable": "A"}},
        )
        _set_field(cfg, field, value)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli([command, "--config", path, "--out", str(out)])
        assert result.exit_code == 2
        assert field in result.output
        assert_no_run_dir(out)

    def test_infinite_bound_and_open_box_side_still_run(self, tmp_path):
        cfg = base_config(integration={"blowup_bound": math.inf},
                          ras={"initial": "W", "unsafe": "U", "target": "Omega"})
        cfg["sets"]["U"]["lo"] = [-math.inf]
        out = tmp_path / "runs"
        result = run_cli(["verify-ras", "--config", write_config(tmp_path, cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads(next(out.glob("verify-ras-*/report.json")).read_text())
        assert report["config"]["integration"]["blowup_bound"] == math.inf
        assert report["verdict"]["satisfied"] == "yes_sampled"

    def test_numeric_set_expression_is_its_source(self, tmp_path):
        cfg = base_config()
        cfg["sets"]["G"] = {"kind": "sublevel", "expr": 5, "level": 6}
        G = load_config(write_config(tmp_path, cfg)).sets["G"]
        assert G.g.source == "5"
        assert G.contains_many(np.array([[0.0]])).tolist() == [True]


def _set_field(cfg, dotted, value):
    *parents, key = dotted.split(".")
    node = cfg
    for p in parents:
        node = node[p]
    node[key] = value


class TestWholeNumberFields:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("lyapunov.n_validation", 40.7),
            ("lyapunov.n_validation", 0),
            ("lyapunov.n_bins", 16.5),
            ("lyapunov.n_bins", True),
            ("system.dim", True),
            ("system.dim", 1.5),
            ("grid.size_cap", True),
            ("grid.size_cap", 1e6 + 0.5),
            ("battery.n_random", True),
            ("battery.n_random", -1),
            ("battery.seed", True),
            ("battery.seed", 7.25),
        ],
    )
    def test_bad_count_exits_2_and_names_field(self, tmp_path, field, value):
        cfg = TestLyapunovCommand().linear_cfg()
        _set_field(cfg, field, value)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["construct-lyapunov", "--config", path, "--out", str(out)])
        assert result.exit_code == 2
        assert field in result.output
        assert_no_run_dir(out)

    def test_whole_float_and_large_int_are_kept(self, tmp_path):
        cfg = base_config(battery={"n_random": 2.0, "seed": 2**62 + 1})
        cfg["grid"]["size_cap"] = 1e6
        loaded = load_config(write_config(tmp_path, cfg))
        assert loaded.battery_n_random == 2 and isinstance(loaded.battery_n_random, int)
        assert loaded.battery_seed == 2**62 + 1
        assert loaded.grid_size_cap == 10**6

    @pytest.mark.parametrize("taus", [[0.003, 0.5], [0.0, 0.5], [-3.0, 0.5]])
    def test_taus_must_be_whole_positive_steps(self, tmp_path, taus):
        # dt is 0.002, so 0.003 would be checked at 0.004
        path = write_config(tmp_path, TestLyapunovCommand().linear_cfg(taus=taus))
        out = tmp_path / "runs"
        result = run_cli(["construct-lyapunov", "--config", path, "--out", str(out)])
        assert result.exit_code == 2
        assert "lyapunov.taus[0]" in result.output
        assert_no_run_dir(out)
