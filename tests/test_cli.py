"""End-to-end CLI tests: flags, report schema, exit codes, determinism."""
from __future__ import annotations

import argparse
import csv
import io
import json
import re
from pathlib import Path

import pytest

from admmlsmr import cli
from admmlsmr.admm import ARITHMETICS, TrainingDivergedError
from admmlsmr.cli import main
from admmlsmr.data import iris_path
from admmlsmr.fixedpoint import RoundingMode
from admmlsmr.lsmr import SQRT_PATHS

IRIS = iris_path()


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def train_args(*extra):
    return (
        "train", "--data", IRIS, "--has-header", "--arch", "4,8,3",
        "--iters", "3", "--seed", "7", "--workers", "1", *extra,
    )


def strip_volatile(payload: dict) -> dict:
    # wall-clock measurements are the only non-deterministic report fields
    payload = json.loads(json.dumps(payload))
    payload.pop("timing", None)
    return payload


class TestTrain:
    def test_smoke_report(self, capsys):
        code, out, err = run_cli(capsys, *train_args())
        assert code == 0, err
        payload = json.loads(out)
        assert 0.0 <= payload["results"]["test_accuracy"] <= 1.0
        assert 0.0 <= payload["results"]["train_accuracy"] <= 1.0
        assert payload["dataset"]["samples"] == 150
        assert payload["config"]["arch"] == [4, 8, 3]
        assert len(payload["timing"]["per_iteration"]) == 3

    def test_fixed32_echoes_format(self, capsys):
        code, out, _ = run_cli(
            capsys, *train_args("--arithmetic", "fixed32", "--rounding", "nearest")
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["fixed_format"] == {
            "word_length": 32,
            "fraction_length": 18,
        }
        assert payload["saturation"]["total_events"] >= 0

    def test_deterministic_reports(self, capsys):
        _, first, _ = run_cli(capsys, *train_args())
        _, second, _ = run_cli(capsys, *train_args())
        a = strip_volatile(json.loads(first))
        b = strip_volatile(json.loads(second))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_worker_count_does_not_change_accuracy(self, capsys):
        _, one, _ = run_cli(capsys, *train_args())
        args4 = list(train_args())
        args4[args4.index("--workers") + 1] = "4"
        _, four, _ = run_cli(capsys, *args4)
        assert json.loads(one)["results"] == json.loads(four)["results"]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, *train_args("--out", str(target)))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["dataset"]["samples"] == 150

    def test_percentages_sum_to_100(self, capsys):
        _, out, _ = run_cli(capsys, *train_args())
        pct = json.loads(out)["timing"]["percentages"]
        assert abs(sum(pct.values()) - 100.0) <= 0.5

    def test_lsmr_iteration_override_echoed(self, capsys):
        code, out, _ = run_cli(capsys, *train_args("--lsmr-iters", "2"))
        assert code == 0
        assert json.loads(out)["config"]["lsmr_iterations"] == 2

    def test_bias_feature_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, *train_args("--bias-feature"), "--arch", "5,8,3"
        )
        # the later --arch wins; feature count grew to 5
        assert code == 0
        assert json.loads(out)["dataset"]["features"] == 5


class TestErrors:
    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(
            capsys, "train", "--data", "/nonexistent.csv", "--arch", "4,8,3"
        )
        assert code == 1
        assert "error" in err

    def test_bad_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", IRIS])  # --arch is required
        assert exc.value.code == 2

    def test_choices_are_the_config_values(self):
        # the parser takes exactly the values NetworkConfig accepts
        parser = cli.build_parser()
        for flag, values in (("--arithmetic", ARITHMETICS), ("--sqrt-path", SQRT_PATHS)):
            for value in values:
                parser.parse_args(["train", "--arch", "4,3", flag, value])
            with pytest.raises(SystemExit):
                parser.parse_args(["train", "--arch", "4,3", flag, "fixed8"])

    def test_readme_flags_follow_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        para = readme.split("Flags shared by the run commands:")[1].split("Defaults:")[0]
        parser = argparse.ArgumentParser(add_help=False)
        cli._add_run_flags(parser)
        flags = {s for action in parser._actions for s in action.option_strings}
        assert set(re.findall(r"--[a-z-]+", para)) == flags
        choices = dict(re.findall(r"`(--[a-z-]+) ([a-z0-9]+(?:\|[a-z0-9]+)+)`", para))
        assert {flag: set(values.split("|")) for flag, values in choices.items()} == {
            "--arithmetic": set(ARITHMETICS),
            "--rounding": {m.value for m in RoundingMode},
            "--sqrt-path": set(SQRT_PATHS),
        }

    def test_unknown_rounding_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", IRIS, "--arch", "4,8,3", "--rounding", "banker"])
        assert exc.value.code == 2

    def test_synthetic_and_data_mutually_exclusive(self, capsys):
        code, _, err = run_cli(
            capsys, "train", "--data", IRIS, "--synthetic", "3,10,2",
            "--arch", "3,4,2",
        )
        assert code == 1 and "exactly one" in err

    @pytest.mark.parametrize("arch", ["4,,2", "4,x,2", ""])
    def test_malformed_arch_exits_2(self, capsys, arch):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--synthetic", "4,30,2", "--arch", arch])
        assert exc.value.code == 2
        assert "--arch: expected comma-separated integers" in capsys.readouterr().err

    @pytest.mark.parametrize("synthetic", ["4,,2", "4,x,2", ""])
    def test_malformed_synthetic_exits_2(self, capsys, synthetic):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--synthetic", synthetic, "--arch", "4,3,2"])
        assert exc.value.code == 2
        assert "--synthetic: expected comma-separated integers" in capsys.readouterr().err

    def test_synthetic_needs_three_counts(self, capsys):
        code, out, err = run_cli(capsys, "train", "--synthetic", "4,30", "--arch", "4,3,2")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: --synthetic wants D,N,K integers"]

    @pytest.mark.parametrize("flags", [("--label-col", "7"), ("--has-header",)])
    def test_csv_flags_rejected_with_synthetic(self, capsys, flags):
        code, out, err = run_cli(
            capsys, "train", "--synthetic", "4,30,2", "--arch", "4,3,2", "--iters", "1",
            *flags,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: --label-col and --has-header apply to --data only")

    def test_negative_synthetic_count_named(self, capsys):
        code, out, err = run_cli(
            capsys, "train", "--synthetic", "4,30,-2", "--arch", "4,3,2",
        )
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: class_count must be a positive integer, got -2"]

    def test_wrong_arity_dataset(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2,a\n1,b\n")
        code, _, err = run_cli(capsys, "train", "--data", str(p), "--arch", "2,4,1")
        assert code == 1

    def test_diverged_training_exits_1(self, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingDivergedError("floating-point overflow in real arithmetic")

        monkeypatch.setattr(cli, "train", diverge)
        code, _, err = run_cli(capsys, *train_args())
        assert code == 1
        assert err.startswith("error: floating-point overflow")

    def test_overflowing_real_run_exits_1(self, capsys):
        # no report, no warning: one error line
        code, out, err = run_cli(
            capsys, "train", "--synthetic", "4,30,2", "--arch", "4,3,2",
            "--iters", "2", "--beta", "1e300", "--gamma", "1e300",
        )
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: floating-point overflow in real arithmetic; "
            "try smaller penalties or fewer iterations"
        ]

    def test_overflowing_fixed_run_exits_1(self, capsys):
        code, out, err = run_cli(
            capsys, "train", "--synthetic", "4,30,2", "--arch", "4,3,2",
            "--iters", "3", "--beta", "1e308", "--arithmetic", "fixed32",
        )
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: floating-point invalid value in fixed32 arithmetic; "
            "try smaller penalties or fewer iterations"
        ]

    def test_zero_lsmr_iterations_exits_1(self, capsys):
        code, _, err = run_cli(capsys, *train_args("--lsmr-iters", "0"))
        assert code == 1 and "lsmr_iterations" in err

    def test_negative_seed_exits_1(self, capsys):
        code, _, err = run_cli(capsys, *train_args("--seed", "-1"))
        assert code == 1
        assert err.startswith("error: seed must be a non-negative integer, got -1")


class TestCompareRounding:
    def test_two_run_sweep(self, capsys):
        code, out, err = run_cli(
            capsys,
            "compare-rounding", "--data", IRIS, "--has-header",
            "--arch", "4,8,3", "--iters", "2", "--runs", "2", "--workers", "1",
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["rounding"] for r in rows] == [
            "nearest", "nearest", "stochastic", "up", "down"
        ]
        assert rows[0]["arithmetic"] == "real"
        assert all(r["arithmetic"] == "fixed32" for r in rows[1:])
        for r in rows:
            assert 0.0 <= float(r["mean_accuracy"]) <= 1.0
            assert r["runs"] == "2"

    def test_requires_two_runs(self, capsys):
        code, _, err = run_cli(
            capsys,
            "compare-rounding", "--data", IRIS, "--has-header",
            "--arch", "4,8,3", "--runs", "1",
        )
        assert code == 1 and "--runs" in err


class TestProfile:
    def test_synthetic_profile(self, capsys):
        code, out, err = run_cli(
            capsys,
            "profile", "--synthetic", "6,300,2", "--arch", "6,8,8,2",
            "--iters", "2", "--workers", "1",
        )
        assert code == 0, err
        payload = json.loads(out)
        pct = payload["percentages"]
        assert set(pct) == {"weight", "activation", "output", "lagrangian"}
        assert abs(sum(pct.values()) - 100.0) <= 0.5
        assert payload["dataset"]["synthetic"]["samples"] == 300


class TestSelftest:
    def test_passes_cleanly(self, capsys):
        code, out, _ = run_cli(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert "12/12" in out
