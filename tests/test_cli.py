import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from safestab import parse_scalar_field
from safestab.certify import Certificate, barrier_from_lyapunov, check_lyapunov_barrier_pair
from safestab.cli import main
from safestab.config import ConfigError, load_config
from safestab.geometry import as_report

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

    def test_malformed_yaml_exits_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("system: {dim: 1, f: [-x]\nsets: [\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(str(path))
        out = tmp_path / "runs"
        result = run_cli(["simulate", "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert "config: invalid YAML" in result.output
        assert_no_run_dir(out)

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
        assert load_config(write_config(tmp_path, cfg)).resolved()["battery"]["dwell"] == 0.1

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


BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.yaml"

# Every field with a default left out, null sections and lists, a count
# written as 1e6 and a seed past the float range.
DEFAULTS_CONFIG = """\
system:
  dim: 2
  f: ["-x1+x2^2", "-x2*(1+x1^2)"]
  delta: 0.1
sets: null
grid:
  domain: {lo: [-1, -1], hi: [1, 1]}
  resolution: 0.1
  size_cap: 1e6
battery:
  seed: 4611686018427387905
  extremal_sets: null
tolerances: null
reach: {initial: W, t_lo: 0}
"""


class TestConfigEcho:
    """The config echo of report.json, as JSON text so that key order counts,
    and the digest that names every run directory."""

    @pytest.mark.parametrize("source, echo, digest", [
        ("benchmark",
         '{"system": {"dim": 1, "state_vars": ["x"], "f": ["-x + x^2"], "delta": 0.25}, '
         '"sets": {"W": {"kind": "box", "lo": [-1.0], "hi": [-0.9]}, '
         '"U": {"kind": "complement_box", "lo": ["-1.0e9"], "hi": [0.6]}, '
         '"Omega": {"kind": "box", "lo": [-0.25], "hi": [0.5]}, '
         '"A": {"kind": "box", "lo": [-0.20710678118654757], "hi": [0.5]}}, '
         '"grid": {"domain": {"lo": [-1.5], "hi": [1.5]}, "resolution": 0.001, '
         '"size_cap": 10000000}, '
         '"battery": {"n_random": 8, "seed": 2024, "dwell": 0.1, "extremal_sets": []}, '
         '"integration": {"dt": 0.001, "horizon": 30.0, "blowup_bound": 1000000.0}, '
         '"tolerances": {"strict_tol": 1e-09, "pd_coeff": 1e-06, "validation_tol": 0.05}, '
         '"simulate": {"x0": [-1.0]}, "reach": {"initial": "W"}, '
         '"invariant_set": {"target": "Omega", "mode": "core"}, '
         '"winning_set": {"stable": "A", "unsafe": "U"}, '
         '"ras": {"initial": "W", "unsafe": "U", "target": "Omega"}, '
         '"sws": {"initial": "W", "unsafe": "U", "stable": "A", '
         '"eps_schedule": [0.1, 0.25, 0.5], "probe_horizon": 250.0}, '
         '"uas": {"stable": "A", "eps_schedule": [0.1, 0.25, 0.5], "horizon": 250.0}}',
         "17f1dec6"),
        ("defaults",
         '{"system": {"dim": 2, "state_vars": ["x1", "x2"], '
         '"f": ["-x1 + x2^2", "-x2*(1 + x1^2)"], "delta": 0.1}, "sets": null, '
         '"grid": {"domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "resolution": 0.1, '
         '"size_cap": 1000000}, '
         '"battery": {"n_random": 8, "seed": 4611686018427387905, "dwell": 0.1, '
         '"extremal_sets": null}, '
         '"integration": {"dt": 0.001, "horizon": 30.0, "blowup_bound": 1000000.0}, '
         '"tolerances": {"strict_tol": 1e-09, "pd_coeff": 1e-06, "validation_tol": 0.05}, '
         '"reach": {"initial": "W", "t_lo": 0}}',
         "cca6ad89"),
    ], ids=["benchmark", "defaults"])
    def test_echo_and_digest_are_pinned(self, tmp_path, source, echo, digest):
        if source == "benchmark":
            path = BENCHMARK_CONFIG
        else:
            path = tmp_path / "defaults.yaml"
            path.write_text(DEFAULTS_CONFIG)
        cfg = load_config(str(path))
        assert json.dumps(cfg.resolved()) == echo
        assert cfg.digest() == digest

    def test_seed_override_changes_the_report_only(self, tmp_path):
        path = tmp_path / "defaults.yaml"
        path.write_text(DEFAULTS_CONFIG + "integration: {dt: 0.01, horizon: 0.1}\n")
        cfg = load_config(str(path))
        digest = cfg.digest()
        cfg.resolved()["battery"]["seed"] = 5  # each call returns its own copy
        assert cfg.resolved()["battery"]["seed"] == 4611686018427387905
        assert cfg.digest() == digest
        out = tmp_path / "runs"
        result = run_cli(["simulate", "--config", str(path), "--out", str(out),
                          "--x0", "0.1,0.1", "--seed", "5"])
        assert result.exit_code == 0, result.output
        (run_dir,) = out.iterdir()
        assert run_dir.name.startswith(f"simulate-{digest}-")
        report = json.loads((run_dir / "report.json").read_text())
        assert report["seed"] == 5 and report["config"]["battery"]["seed"] == 5


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

    def test_700_term_sum_compiles_and_runs(self, tmp_path):
        """A field compiles with one Python frame per term of a sum, so 700
        terms fit; adding 698 zeros to the benchmark f changes no bit."""
        csvs = []
        for f in ("-x + x^2", " + ".join(["-x", "x^2"] + ["0*x"] * 698)):
            cfg = base_config(system={"dim": 1, "state_vars": ["x"], "f": [f], "delta": 0.25},
                              simulate={"x0": [-1.0]}, integration={"dt": 0.01, "horizon": 1.0})
            path = write_config(tmp_path, cfg)
            out = tmp_path / f"runs{len(csvs)}"
            assert run_cli(["simulate", "--config", path, "--out", str(out)]).exit_code == 0
            csvs.append([p.read_bytes() for p in sorted(next(out.glob("simulate-*")).glob("*.csv"))])
        assert len(csvs[0]) == 11 and csvs[0] == csvs[1]

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
        assert "--x0[0]: expected a number, got 'nan'" in result.output

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

    def test_start_beyond_the_escape_bound_blows_up_at_t0(self, tmp_path):
        """x' = -x from W = [-1, -0.9] with blowup_bound 0.95: the starts
        beyond the bound have escaped at t = 0, although the first step
        brings each of them back inside it."""
        cfg = base_config(system={"dim": 1, "state_vars": ["x"], "f": ["-x"], "delta": 0.0},
                          battery={"n_random": 0},
                          integration={"dt": 0.1, "horizon": 20.0, "blowup_bound": 0.95},
                          ras={"initial": "W", "unsafe": "U", "target": "Omega"})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["verify-ras", "--config", path, "--out", str(out)])
        assert result.exit_code == 1, result.output
        verdict = json.loads(next(out.glob("verify-ras-*/report.json")).read_text())["verdict"]
        assert verdict["satisfied"] == "no"
        escaped = [c for c in verdict["counterexamples"] if c["x0"][0] < -0.95]
        assert escaped and all(c["kind"] == "blow_up" and c["time"] == 0.0 for c in escaped)
        result = run_cli(["simulate", "--config", path, "--out", str(out), "--x0", "-1.0"])
        assert result.exit_code == 0, result.output
        run = next(out.glob("simulate-*"))
        for entry in json.loads((run / "index.json").read_text()):
            assert entry["terminated"] == "blow_up" and entry["final_time"] == 0.0
            assert entry["final_state"] == [-1.0]
            rows = (run / entry["file"]).read_text().splitlines()[1:]
            assert len(rows) == 1 and float(rows[0].split(",")[1]) == -1.0

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

    def test_invariant_set_of_a_drift_is_empty(self, tmp_path):
        """x' = 1 carries every Omega cell out within a dwell window, so the
        fixpoint is empty: the run is inconclusive, with no endpoints and the
        empty-fixpoint note."""
        cfg = base_config(system={"dim": 1, "state_vars": ["x"], "f": ["1"], "delta": 0.25},
                          invariant_set={"target": "Omega", "mode": "core"},
                          integration={"dt": 0.01, "horizon": 1.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["invariant-set", "--config", path, "--out", str(out)])
        assert result.exit_code == 3, result.output
        report = json.loads(next(out.glob("invariant-set-*/report.json")).read_text())["result"]
        assert report["empty"] is True and report["endpoints"] is None
        assert report["n_cells"] == report["n_kernel_cells"] == 0
        assert report["notes"].startswith("empty fixpoint")

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

    def test_verify_sws_w_miss_report_is_strict_json(self, tmp_path):
        # the W cells in U are not winning; their counterexamples carry no time
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
        cfg["sets"]["UL"] = {"kind": "box", "lo": [0.8], "hi": [3.0]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "r"
        result = run_cli(["verify-sws", "--config", path, "--out", str(out)])
        assert result.exit_code == 1, result.output
        report = json.loads(next(out.glob("verify-sws-*/report.json")).read_text())
        misses = [c for c in report["verdict"]["counterexamples"]
                  if c["kind"] == "unsafe_or_divergent_from_W"]
        assert misses and all(c["time"] is None for c in misses)

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        results = {k: v for k, v in report.items() if k != "config"}
        json.loads(json.dumps(results), parse_constant=reject)


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

    def test_barrier_from_lyapunov_reports_the_library_pair_check(self, tmp_path):
        """A pair check whose B is built from V (``barrier_from``) writes the
        conditions that the library pair check gives on
        barrier_from_lyapunov's B."""
        cfg = base_config(
            system={"dim": 1, "state_vars": ["x"], "f": ["-x"], "delta": 0.0},
            battery={"n_random": 0, "seed": 1, "dwell": 0.1},
            grid={"domain": {"lo": [-2.505], "hi": [2.505]}, "resolution": 0.01},
            certificate={"check": "pair", "V": "x^2", "domain": "D", "stable": "O",
                         "initial": "Wc", "unsafe": "Uc", "barrier_from": {"neighborhood": "K"}},
        )
        cfg["sets"] = {
            "O": {"kind": "box", "lo": [0.0], "hi": [0.0]},
            "Wc": {"kind": "box", "lo": [-0.5], "hi": [0.5]},
            "Uc": {"kind": "complement_box", "lo": [-2.0], "hi": [2.0]},
            "D": {"kind": "box", "lo": [-1.5], "hi": [1.5]},
            "K": {"kind": "box", "lo": [-0.3], "hi": [0.3]},
        }
        path = write_config(tmp_path, cfg)
        result = run_cli(["check-cert", "--config", path, "--out", str(tmp_path / "r")])
        written = json.loads(next((tmp_path / "r").glob("*/certificate_report.json")).read_text())

        rc = load_config(path)
        A, W, U, D, K = (rc.sets[name] for name in ("O", "Wc", "Uc", "D", "K"))
        V, grid = parse_scalar_field("x^2", ["x"]), rc.make_grid()
        cert = Certificate(V=V, D=D, B=barrier_from_lyapunov(V, K, W, grid))
        report = check_lyapunov_barrier_pair(cert, rc.system, A, W, U, grid,
                                             strict_tol=rc.strict_tol, pd_coeff=rc.pd_coeff)
        assert written["conditions"] == json.loads(json.dumps(as_report(report)))["conditions"]
        assert report.passed and result.exit_code == 0, result.output

    def test_missing_barrier_exits_2(self, tmp_path):
        cfg = base_config(
            certificate={"check": "pair", "V": "x^2", "domain": "Omega",
                         "stable": "A", "initial": "W", "unsafe": "U"},
        )
        path = write_config(tmp_path, cfg)
        assert run_cli(["check-cert", "--config", path, "--out", str(tmp_path / "r")]).exit_code == 2


class TestSetReferences:
    def test_union_member_names_an_earlier_set(self, tmp_path):
        """A union member given as the name of a set declared above it is
        that set; with a box across W's path the union is entered."""
        cfg = base_config(ras={"initial": "W", "unsafe": "UX", "target": "Omega"},
                          integration={"dt": 0.01, "horizon": 5.0})
        cfg["sets"]["UX"] = {"kind": "union", "members": [
            "U", {"kind": "box", "lo": [-0.6], "hi": [-0.55]}]}
        path = write_config(tmp_path, cfg)
        sets = load_config(path).sets
        assert sets["UX"].members[0] is sets["U"]
        out = tmp_path / "runs"
        result = run_cli(["verify-ras", "--config", path, "--out", str(out)])
        assert result.exit_code == 1, result.output
        report = json.loads(next(out.glob("verify-ras-*/report.json")).read_text())
        assert report["verdict"]["satisfied"] == "no"

    @pytest.mark.parametrize("name, members, index", [
        ("UX", [{"kind": "box", "lo": [0.0], "hi": [1.0]}, "Nope"], 1),
        # sets are read in the order written (here sorted), so AU precedes U
        ("AU", ["U"], 0),
    ], ids=["undeclared", "declared-below"])
    def test_unknown_member_name_exits_2_and_names_it(self, tmp_path, name, members, index):
        cfg = base_config(ras={"initial": "W", "unsafe": name, "target": "Omega"})
        cfg["sets"][name] = {"kind": "union", "members": members}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["verify-ras", "--config", path, "--out", str(out)])
        assert result.exit_code == 2
        assert f"sets.{name}.members[{index}]" in result.output
        assert "unknown set reference" in result.output
        assert_no_run_dir(out)


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
            ("simulate", {}, ["--x0", "abc"], "--x0[0]: expected a number"),
            ("simulate", {"simulate": {"x0": [0.1, 0.2]}}, [],
             "simulate.x0: expected 1 coordinates"),
            ("construct-lyapunov", {"lyapunov": {"region": "U"}}, [],
             "lyapunov.region: the sampling region must be a box"),
            # a 1200-term sum is deeper than the recursion limit lets a field compile
            ("simulate", {"system": {"dim": 1, "state_vars": ["x"], "delta": 0.25,
                                     "f": [" + ".join(["-x", "x^2"] + ["0*x"] * 1198)]}},
             [], "the input nests too deeply"),
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
            ("grid.domain.lo", [-1.5, 0.0], "grid.domain.lo: expected 1 entries, got 2"),
            ("grid.domain.hi", 1.5, "grid.domain.hi: expected a list of numbers"),
            ("system.f", "-x", "system.f: expected a list"),
            ("sets.W", {"kind": "box", "lo": [-0.9], "hi": [-1.0]},
             "sets.W: box corner lo=-0.9, hi=-1.0 is not lo <= hi"),
            ("sets.W", {"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
             "sets.W.lo: expected 1 entries, got 2"),
            ("grid.domain.hi", [math.inf], "grid.domain: grid domain must be bounded"),
            ("sets.W", 5, "sets.W: expected a set declaration mapping"),
            ("sets.W", {"kind": "union", "members": []},
             "sets.W.members: expected a non-empty list"),
            # a misspelt key would otherwise run on the defaults
            ("integraton", {"dt": 0.01, "horizon": 1.0}, "integraton: unknown field"),
            ("integration.horizn", 2.0, "integration.horizn: unknown field"),
            ("system.Delta", 0.1, "system.Delta: unknown field"),
            ("grid.spacing", 0.1, "grid.spacing: unknown field"),
            ("grid.domain.mid", [0.0], "grid.domain.mid: unknown field"),
            ("battery.seeds", 3, "battery.seeds: unknown field"),
            ("tolerances.strict", 1e-9, "tolerances.strict: unknown field"),
            ("sets.W.hi_", [0.0], "sets.W.hi_: unknown field"),
            ("sets.G.lvl", 1.0, "sets.G.lvl: unknown field"),
            ("sets.UW.lo", [0.0], "sets.UW.lo: unknown field"),
            ("sets.UW.members", [{"kind": "box", "lo": [0.0], "hi": [1.0], "level": 1.0}],
             "sets.UW.members[0].level: unknown field"),
        ],
        ids=["sets-list", "battery-list", "integration-number", "tolerances-string",
             "grid-domain-number", "expr-list", "extremal-nested-list", "extremal-string",
             "list-length", "numbers-not-a-list", "strings-not-a-list", "box-lo-above-hi",
             "set-dimension", "unbounded-grid", "set-not-a-mapping", "empty-union",
             "unknown-top-level", "unknown-integration", "unknown-system", "unknown-grid",
             "unknown-grid-domain", "unknown-battery", "unknown-tolerances", "unknown-box-set",
             "unknown-sublevel-set", "unknown-union-set", "unknown-union-member"],
    )
    def test_malformed_section_exits_2_and_names_field(self, tmp_path, field, value, message):
        cfg = base_config(integration={"dt": 0.01, "horizon": 1.0})
        cfg["sets"]["G"] = {"kind": "sublevel", "expr": "x^2 - 1", "level": 0.0}
        cfg["sets"]["UW"] = {"kind": "union", "members": [
            {"kind": "box", "lo": [-1.0], "hi": [-0.9]}, {"kind": "box", "lo": [0.0], "hi": [0.1]}]}
        _set_field(cfg, field, value)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "runs"
        result = run_cli(["simulate", "--config", path, "--out", str(out), "--x0", "0.1"])
        assert result.exit_code == 2
        assert message in result.output
        assert_no_run_dir(out)

    @pytest.mark.parametrize("text, message", [
        (None, "config: file not found"),
        ("- 1\n- 2\n", "config: top level must be a mapping"),
        ({**base_config(), "system": {"dim": 1, "f": ["-x"]}},
         "system.delta: missing required field"),
    ], ids=["missing-file", "top-level-list", "missing-field"])
    def test_unreadable_or_incomplete_config_exits_2(self, tmp_path, text, message):
        path = tmp_path / "run.yaml"
        if text is not None:
            path.write_text(text if isinstance(text, str) else yaml.safe_dump(text))
        out = tmp_path / "runs"
        result = run_cli(["simulate", "--config", str(path), "--out", str(out), "--x0", "0.1"])
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
            # a null number with a default is not a number
            ("reach", "reach.t_lo", None),
        ],
        ids=["horizon-inf", "dwell-inf", "dt-nan", "resolution-nan", "delta-nan",
             "delta-past-float-range", "blowup-nan", "scale-nan", "t_lo-past-horizon",
             "t_lo-negative", "conv_radius-negative", "t_lo-null"],
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("lyapunov.taus", []),
            ("lyapunov.sample_resolution", 0),
            ("lyapunov.mu", -1),
            ("lyapunov.lam", -1),
        ],
    )
    def test_bad_lyapunov_input_exits_2_and_names_field(self, tmp_path, field, value):
        self.test_bad_count_exits_2_and_names_field(tmp_path, field, value)

    def test_whole_float_and_large_int_are_kept(self, tmp_path):
        cfg = base_config(battery={"n_random": 2.0, "seed": 2**62 + 1})
        cfg["grid"]["size_cap"] = 1e6
        echo = load_config(write_config(tmp_path, cfg)).resolved()
        n_random = echo["battery"]["n_random"]
        assert n_random == 2 and isinstance(n_random, int)
        assert echo["battery"]["seed"] == 2**62 + 1
        assert echo["grid"]["size_cap"] == 10**6 and isinstance(echo["grid"]["size_cap"], int)

    @pytest.mark.parametrize("taus", [[0.003, 0.5], [0.0, 0.5], [-3.0, 0.5]])
    def test_taus_must_be_whole_positive_steps(self, tmp_path, taus):
        # dt is 0.002, so 0.003 would be checked at 0.004
        path = write_config(tmp_path, TestLyapunovCommand().linear_cfg(taus=taus))
        out = tmp_path / "runs"
        result = run_cli(["construct-lyapunov", "--config", path, "--out", str(out)])
        assert result.exit_code == 2
        assert "lyapunov.taus[0]" in result.output
        assert_no_run_dir(out)
