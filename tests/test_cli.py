"""End-to-end tests of the command-line pipeline and its determinism."""

import base64
import json
import math
import os
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ratekit.cli import SETTINGS, _configure, build_parser, dispatch, render_curve_svg


def run(*argv):
    return dispatch(list(argv))


class TestRenderCurveSvg:
    def test_two_points_hit_plot_corners(self):
        svg = render_curve_svg([("d", [0.0, 1.0], [0.0, 1.0])], "x", "y")
        assert 'points="60.00,435.00 620.00,20.00"' in svg

    def test_deterministic(self):
        series = [("a", [0, 1, 2], [1, 0, 2]), ("b", [0, 1, 2], [2, 2, 0])]
        assert render_curve_svg(series, "x", "y") == render_curve_svg(series, "x", "y")

    def test_well_formed_xml(self):
        svg = render_curve_svg([("acc", [0, 0.5, 1], [0.9, 0.6, 0.5])], "frac", "acc")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            render_curve_svg([("d", [0.0], [0.0])], "x", "y")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            render_curve_svg([("d", [0.0, np.inf], [0.0, 1.0])], "x", "y")


class TestRuntimeDependencies:
    def test_cli_import_loads_no_scipy(self):
        # the runtime needs numpy only; scipy is a test-time dependency
        code = (
            "import sys, ratekit, ratekit.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_module_entry_point_runs_cli(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        subprocess.run(
            [sys.executable, "-m", "ratekit.cli", "simulate", "--n", "50", "--p", "8",
             "--frac-causal", "0.25", "--out", str(tmp_path)],
            env=env, capture_output=True, check=True,
        )
        assert (tmp_path / "dataset.csv").is_file()


class TestBlasThreadCount:
    def test_model_bytes_and_scores_hold_across_thread_counts(self, tmp_path):
        # byte identity holds at a fixed BLAS thread count; across thread
        # counts the summation order of the large products may change, so
        # only model.json is byte-compared and the scores are compared to a
        # tolerance
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

        def cli(*argv, threads=None):
            run_env = env if threads is None else {**env, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-m", "ratekit.cli", *argv],
                env=run_env, capture_output=True, check=True,
            )

        data = tmp_path / "sim" / "dataset.csv"
        cli("simulate", "--n", "400", "--p", "60", "--seed", "2", "--out", str(tmp_path / "sim"))
        models, reports = [], []
        for threads in ("1", "2"):
            model, imp = tmp_path / f"model{threads}", tmp_path / f"imp{threads}"
            cli("train", "--data", str(data), "--hidden", "64,64", "--epochs", "2",
                "--seed", "2", "--out", str(model), threads=threads)
            cli("importance", "--data", str(data), "--model", str(model / "model.json"),
                "--out", str(imp), threads=threads)
            models.append((model / "model.json").read_bytes())
            reports.append(json.loads((imp / "report.json").read_text())["items"])
        assert models[0] == models[1]
        for key in ("kld", "rate", "mi"):
            one, two = (np.array([item[key] for item in items]) for items in reports)
            np.testing.assert_allclose(one, two, rtol=1e-10, atol=0)
            if key == "rate":
                np.testing.assert_array_equal(
                    np.argsort(-one, kind="stable"), np.argsort(-two, kind="stable")
                )


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            code = run(
                "simulate", "--n", "50", "--p", "8", "--frac-causal", "0.25",
                "--seed", "7", "--out", str(tmp_path / sub),
            )
            assert code == 0
        for name in ("dataset.csv", "dataset.mask.json", "effective_config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_train_test_split_outputs(self, tmp_path):
        code = run(
            "simulate", "--n", "40", "--p", "8", "--frac-causal", "0.25",
            "--test-fraction", "0.25", "--seed", "1", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "train.csv").exists()
        assert (tmp_path / "test.csv").exists()

    def test_test_fraction_leaving_a_part_empty_is_data_error(self, tmp_path, capsys):
        # 1.0 would empty train.csv, 0.0001 of 1000 rows would empty test.csv and a
        # negative fraction would write an unsplit dataset.csv
        for fraction in ("1.0", "0.0001", "-0.5"):
            out = tmp_path / fraction
            code = run(
                "simulate", "--n", "1000", "--p", "8", "--frac-causal", "0.25",
                f"--test-fraction={fraction}", "--out", str(out),
            )
            assert code == 3
            assert "error [simulate]: test_fraction" in capsys.readouterr().err
            assert not list(out.glob("*.csv"))

    def test_class_sep_must_be_finite_and_positive(self, tmp_path, capsys):
        for sep in ("nan", "0", "-1"):
            out = tmp_path / sep
            code = run(
                "simulate", "--n", "200", "--p", "10", "--frac-causal", "0.3",
                f"--class-sep={sep}", "--out", str(out),
            )
            assert code == 3
            assert "error [simulate]: class_sep must be finite and > 0" in capsys.readouterr().err
            assert not list(out.glob("*.csv"))

    def test_infeasible_spec_is_data_error(self, tmp_path):
        # frac_causal 0 yields no causal features
        code = run(
            "simulate", "--n", "50", "--p", "8", "--frac-causal", "0",
            "--out", str(tmp_path),
        )
        assert code == 3


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_missing_required_output(self):
        assert run("simulate", "--n", "50", "--p", "8") == 3

    def test_missing_data_file(self, tmp_path):
        code = run(
            "train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)
        )
        assert code == 3


def _other_value(name, default):
    """A value of the setting's own kind that differs from its default."""
    if default is False:
        return True
    if name == "link":
        return "softmax"
    if name == "ranking":
        return "random"
    if default is None:
        return f"{name}.txt"
    if isinstance(default, str):
        return "1,2"
    return default + 1


class TestSettings:
    @pytest.mark.parametrize("argv, flag", [
        (("train",), "--data"),
        (("importance", "--data", "d.csv"), "--model"),
        (("group-importance", "--data", "d.csv", "--model", "m.json"), "--groups"),
        (("evaluate", "--mask", "m.json"), "--report"),
    ])
    def test_missing_required_setting_is_config_error(self, tmp_path, capsys, argv, flag):
        assert run(*argv, "--out", str(tmp_path)) == 3
        assert f"error [config]: {flag} is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_every_setting_is_a_flag_and_a_config_key(self, tmp_path, command):
        values = {name: _other_value(name, d) for name, d in SETTINGS[command].items()}
        flags = []
        for name, value in values.items():
            flag = "--" + name.replace("_", "-")
            flags += [flag] if value is True else [flag, str(value)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        for argv in (["--config", str(cfg)], flags):
            args = build_parser().parse_args([command, "--out", str(tmp_path), *argv])
            _, effective = _configure(args)
            assert effective == values
            echo = json.loads((tmp_path / "effective_config.json").read_text())
            assert echo == {"command": command, "config": values}

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_flag_of_another_subcommand_is_usage_error(self, tmp_path, command):
        # for example importance --n 5
        foreign = set().union(*SETTINGS.values()) - set(SETTINGS[command]) - {"seed"}
        assert foreign
        for name in sorted(foreign):
            assert run(command, "--" + name.replace("_", "-"), "5", "--out", str(tmp_path)) == 2


    @pytest.mark.parametrize("command, values, key, kind", [
        ("simulate", {"n": 100.7, "p": 8, "frac_causal": 0.25}, "n", "an integer"),
        ("simulate", {"n": "100"}, "n", "an integer"),
        ("train", {"epochs": True}, "epochs", "an integer"),
        ("train", {"prior_scale": False}, "prior_scale", "a number in float range"),
        ("train", {"learning_rate": "1e-3"}, "learning_rate", "a number in float range"),
        ("simulate", {"class_sep": 10**400}, "class_sep", "a number in float range"),
        ("train", {"hidden": [8, 4]}, "hidden", "a string"),
        ("train", {"hidden": None}, "hidden", "a string"),
        ("train", {"data": 5}, "data", "a string or null"),
        ("train", {"link": "bogus"}, "link", "one of 'sigmoid', 'identity', 'softmax'"),
        ("evaluate", {"degradation": "false"}, "degradation", "true or false"),
        ("evaluate", {"degradation": 0}, "degradation", "true or false"),
        ("evaluate", {"ranking": "bogus"}, "ranking", "one of 'rate', 'random'"),
        ("evaluate", {"fractions": [0, 0.5]}, "fractions", "a string"),
    ])
    def test_config_value_of_the_wrong_type_is_config_error(
        self, tmp_path, capsys, command, values, key, kind
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run(command, "--config", str(cfg), "--out", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert f"error [config]: config key {key!r} must be {kind}, got " in err
        assert not (tmp_path / "out" / "effective_config.json").exists()

    def test_config_values_take_the_flag_types(self, tmp_path):
        # an integer for a float setting is stored as a float, false turns a
        # switch off and null leaves an optional path unset
        cfg = tmp_path / "cfg.json"
        for command, values, expected in (
            ("train", {"prior_scale": 2, "learning_rate": 1}, {"prior_scale": 2.0, "learning_rate": 1.0}),
            ("evaluate", {"degradation": False, "mask": None}, {"degradation": False, "mask": None}),
            ("simulate", {"n": 40, "class_sep": 1}, {"n": 40, "class_sep": 1.0}),
        ):
            cfg.write_text(json.dumps(values))
            args = build_parser().parse_args([command, "--config", str(cfg), "--out", str(tmp_path)])
            _, effective = _configure(args)
            for name, value in expected.items():
                assert effective[name] == value and type(effective[name]) is type(value)

    @pytest.mark.parametrize("argv", [
        ("train", "--data", "d.csv", "--epoch", "1"),
        ("importance", "--dat", "d.csv", "--model", "m.json"),
    ])
    def test_flags_are_not_abbreviated(self, tmp_path, argv):
        assert run(*argv, "--out", str(tmp_path)) == 2


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> train -> importance, shared across the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    sim, model, imp = root / "sim", root / "model", root / "imp"
    assert run(
        "simulate", "--n", "400", "--p", "16", "--frac-causal", "0.25",
        "--class-sep", "1.5", "--test-fraction", "0.25", "--seed", "11",
        "--out", str(sim),
    ) == 0
    assert run(
        "train", "--data", str(sim / "train.csv"), "--hidden", "32,16",
        "--epochs", "12", "--seed", "11", "--out", str(model),
    ) == 0
    assert run(
        "importance", "--data", str(sim / "test.csv"),
        "--model", str(model / "model.json"), "--seed", "11", "--out", str(imp),
    ) == 0
    return root


class TestPipeline:
    def test_report_normalized(self, pipeline):
        doc = json.loads((pipeline / "imp" / "report.json").read_text())
        rates = [item["rate"] for item in doc["items"]]
        assert abs(sum(rates) - 1.0) <= 1e-12
        assert all(0.0 <= r <= 1.0 for r in rates)
        for item in doc["items"]:
            assert item["significant"] == (item["rate"] > doc["threshold"])

    def test_artifacts_exist(self, pipeline):
        assert (pipeline / "model" / "model.json").exists()
        assert (pipeline / "model" / "history.json").exists()
        assert (pipeline / "imp" / "report.csv").exists()
        assert (pipeline / "imp" / "effect_sizes.csv").exists()

    def test_train_reruns_byte_identical(self, pipeline, tmp_path):
        code = run(
            "train", "--data", str(pipeline / "sim" / "train.csv"),
            "--hidden", "32,16", "--epochs", "12", "--seed", "11",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "model.json").read_bytes() == (
            pipeline / "model" / "model.json"
        ).read_bytes()

    def test_evaluate_roc(self, pipeline, tmp_path):
        code = run(
            "evaluate", "--report", str(pipeline / "imp" / "report.json"),
            "--mask", str(pipeline / "sim" / "train.mask.json"),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "roc.csv").exists()
        ET.parse(tmp_path / "roc.svg")  # well-formed XML

    def test_evaluate_degradation(self, pipeline, tmp_path):
        code = run(
            "evaluate", "--report", str(pipeline / "imp" / "report.json"),
            "--mask", str(pipeline / "sim" / "test.mask.json"),
            "--degradation", "--model", str(pipeline / "model" / "model.json"),
            "--data", str(pipeline / "sim" / "test.csv"),
            "--fractions", "0,0.25,0.5", "--repeats", "4", "--seed", "2",
            "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "degradation.csv").read_text().splitlines()
        assert rows[0] == "fraction,mean_accuracy,std_accuracy"
        assert len(rows) == 4

    def test_degradation_rejects_fraction_outside_unit_interval(self, pipeline, tmp_path):
        code = run(
            "evaluate", "--report", str(pipeline / "imp" / "report.json"),
            "--degradation", "--model", str(pipeline / "model" / "model.json"),
            "--data", str(pipeline / "sim" / "test.csv"),
            "--fractions=-0.1,0.5", "--out", str(tmp_path),
        )
        assert code == 3

    def test_spaced_negative_fractions_reach_the_range_check(self, pipeline, tmp_path, capsys):
        # argparse alone takes "-0.1,0.5", not a plain negative number, for an
        # unknown option and exits 2
        code = run(
            "evaluate", "--report", str(pipeline / "imp" / "report.json"),
            "--degradation", "--model", str(pipeline / "model" / "model.json"),
            "--data", str(pipeline / "sim" / "test.csv"),
            "--fractions", "-0.1,0.5", "--out", str(tmp_path),
        )
        assert code == 3
        assert "fraction -0.1 is not in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("fractions", ["0.5", "", " , "])
    def test_degradation_needs_two_fractions(self, pipeline, tmp_path, capsys, fractions):
        code = run(
            "evaluate", "--report", str(pipeline / "imp" / "report.json"),
            "--degradation", "--model", str(pipeline / "model" / "model.json"),
            "--data", str(pipeline / "sim" / "test.csv"),
            "--fractions", fractions, "--out", str(tmp_path),
        )
        assert code == 3
        assert "--fractions needs at least 2 values" in capsys.readouterr().err
        assert not (tmp_path / "degradation.csv").exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [
            ("evaluate", "--fractions", "0,abc", "--fractions entry 'abc' is not a number"),
            ("evaluate", "--fractions", "0.5, 1e", "--fractions entry '1e' is not a number"),
            ("train", "--hidden", "16,x", "--hidden entry 'x' is not an integer"),
            ("train", "--hidden", "16, 8.5", "--hidden entry '8.5' is not an integer"),
        ],
    )
    def test_malformed_list_entry_names_the_flag(
        self, pipeline, tmp_path, capsys, command, flag, value, message
    ):
        if command == "evaluate":
            args = ("--report", str(pipeline / "imp" / "report.json"), "--degradation",
                    "--model", str(pipeline / "model" / "model.json"),
                    "--data", str(pipeline / "sim" / "test.csv"))
        else:
            args = ("--data", str(pipeline / "sim" / "train.csv"), "--epochs", "1")
        assert run(command, *args, flag, value, "--out", str(tmp_path)) == 3
        assert message in capsys.readouterr().err

    def test_degradation_refuses_labels_the_network_cannot_output(self, pipeline, tmp_path, capsys):
        # the sigmoid model scored on labels {5, 6}
        header, *rows = (pipeline / "sim" / "test.csv").read_text().splitlines()
        shifted = [row.rsplit(",", 1)[0] + f",{int(row.rsplit(',', 1)[1]) + 5}" for row in rows]
        data = tmp_path / "shifted.csv"
        data.write_text("\n".join([header, *shifted]) + "\n")
        code = run(
            "evaluate", "--report", str(pipeline / "imp" / "report.json"),
            "--degradation", "--model", str(pipeline / "model" / "model.json"),
            "--data", str(data), "--out", str(tmp_path / "eval"),
        )
        assert code == 3
        assert "error [degradation]: sigmoid link expects binary 0/1 labels" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "degradation.csv").exists()

    def test_rank_deficient_covariance_warns(self, pipeline, tmp_path, capsys):
        # penultimate width 8 < p = 16 features: Omega = G G^T has rank <= 8,
        # and group g1 has more members than that
        model = tmp_path / "narrow"
        assert run(
            "train", "--data", str(pipeline / "sim" / "train.csv"), "--hidden", "8",
            "--epochs", "1", "--seed", "11", "--out", str(model),
        ) == 0
        groups = tmp_path / "groups.csv"
        groups.write_text("".join(f"g1,f{j}\n" for j in range(1, 11)) + "g2,f11\ng2,f12\n")
        data = ("--data", str(pipeline / "sim" / "test.csv"), "--model", str(model / "model.json"))
        for command, extra in (("importance", ()), ("group-importance", ("--groups", str(groups)))):
            capsys.readouterr()
            assert run(command, *data, *extra, "--out", str(tmp_path / command)) == 0
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            rank, p = map(int, re.search(r"has rank (\d+) < p = (\d+);", lines[0]).groups())
            assert 0 < rank <= 8 and p == 16
            assert "mi is undefined" in lines[0]
        doc = json.loads((tmp_path / "importance" / "report.json").read_text())
        assert all(item["mi"] is None for item in doc["items"])
        doc = json.loads((tmp_path / "group-importance" / "group_report.json").read_text())
        assert abs(sum(item["rate"] for item in doc["items"]) - 1.0) <= 1e-12

    def test_full_rank_covariance_does_not_warn(self, pipeline, tmp_path, capsys):
        # hidden 32,16 at p = 16: k = p and Omega has full rank
        capsys.readouterr()
        assert run(
            "importance", "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(pipeline / "model" / "model.json"), "--out", str(tmp_path),
        ) == 0
        assert capsys.readouterr().err == ""

    def test_group_importance(self, pipeline, tmp_path):
        groups = tmp_path / "groups.csv"
        groups.write_text("g1,f1\ng1,f2\ng1,f3\ng2,f4\ng2,f5\ng2,f6\n")
        out = tmp_path / "out"
        code = run(
            "group-importance", "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(pipeline / "model" / "model.json"),
            "--groups", str(groups), "--out", str(out),
        )
        assert code == 0
        doc = json.loads((out / "group_report.json").read_text())
        assert {item["name"] for item in doc["items"]} == {"g1", "g2"}
        assert abs(sum(item["rate"] for item in doc["items"]) - 1.0) <= 1e-12
        assert all("members" in item for item in doc["items"])

    def test_path_setting_belongs_to_importance_only(self, pipeline, tmp_path, capsys):
        # scoring has one route, so a "path" setting is an error on both commands
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"path": "naive"}))
        groups = tmp_path / "groups.csv"
        groups.write_text("g1,f1\ng1,f2\ng2,f3\n")
        data = (
            "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(pipeline / "model" / "model.json"),
        )
        for command, extra in (("group-importance", ("--groups", str(groups))), ("importance", ())):
            capsys.readouterr()
            assert run(command, *data, *extra, "--config", str(cfg),
                       "--out", str(tmp_path / command)) == 3
            assert "unknown config key(s): 'path'" in capsys.readouterr().err
        assert run("importance", *data, "--path", "naive", "--out", str(tmp_path)) == 2

    def test_unknown_config_key_is_data_error(self, pipeline, tmp_path, capsys):
        # a misspelt key, and the jitter setting this version no longer has
        common = (
            "importance", "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(pipeline / "model" / "model.json"), "--out", str(tmp_path / "out"),
        )
        for key in ("jiter", "jitter"):
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: 1e-8, "class_index": 0}))
            capsys.readouterr()
            assert run(*common, "--config", str(cfg)) == 3
            assert f"unknown config key(s): {key!r}" in capsys.readouterr().err
        assert run(*common, "--jitter", "1e-8") == 2
        # the ELBO draws one logit sample per example; no setting chooses more
        train = (
            "train", "--data", str(pipeline / "sim" / "train.csv"), "--hidden", "8",
            "--epochs", "1", "--out", str(tmp_path / "train"),
        )
        cfg = tmp_path / "mc_samples.json"
        cfg.write_text(json.dumps({"mc_samples": 1}))
        capsys.readouterr()
        assert run(*train, "--config", str(cfg)) == 3
        assert "unknown config key(s): 'mc_samples'" in capsys.readouterr().err
        assert run(*train, "--mc-samples", "2") == 2

    def test_group_with_unknown_feature_is_data_error(self, pipeline, tmp_path):
        groups = tmp_path / "bad_groups.csv"
        groups.write_text("g1,f1\ng2,not_a_feature\n")
        code = run(
            "group-importance", "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(pipeline / "model" / "model.json"),
            "--groups", str(groups), "--out", str(tmp_path / "out2"),
        )
        assert code == 3

    def test_class_index_out_of_range_is_data_error(self, pipeline, tmp_path, capsys):
        # the pipeline network has one (sigmoid) output class
        groups = tmp_path / "groups.csv"
        groups.write_text("g1,f1\ng1,f2\ng2,f3\n")
        common = (
            "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(pipeline / "model" / "model.json"),
        )
        for command, extra in (("importance", ()), ("group-importance", ("--groups", str(groups)))):
            for class_index in ("5", "-1"):
                capsys.readouterr()
                assert run(command, *common, *extra, f"--class-index={class_index}",
                           "--out", str(tmp_path / command)) == 3
                assert "error [precision]" in capsys.readouterr().err

    def test_invalid_training_settings_are_data_errors(self, pipeline, tmp_path, capsys):
        data = ("--data", str(pipeline / "sim" / "train.csv"), "--hidden", "8")
        for setting in ("--learning-rate=-0.01", "--learning-rate=nan", "--patience=-3"):
            capsys.readouterr()
            assert run("train", *data, setting, "--out", str(tmp_path)) == 3
            assert "error [train]" in capsys.readouterr().err

    def test_bad_model_fails_at_load(self, pipeline, tmp_path, capsys):
        # the pipeline network is 16 -> 32 -> 16 -> 1
        def truncate(array):
            shape = [array["shape"][0] - 1, *array["shape"][1:]]
            raw = base64.b64decode(array["data"])
            return {"shape": shape, "data": base64.b64encode(raw[: 8 * math.prod(shape)]).decode()}

        def edit_weight_row(doc):
            doc["hidden"][0]["weights"] = truncate(doc["hidden"][0]["weights"])

        def edit_bias(doc):
            doc["hidden"][1]["bias"] = truncate(doc["hidden"][1]["bias"])

        def edit_m(doc):
            doc["m"] = truncate(doc["m"])

        def edit_input_dim(doc):
            doc["config"]["input_dim"] = 17

        def edit_version(doc):
            doc["version"] = 1

        cases = (
            (edit_weight_row, "hidden[0].weights has shape (15, 32), expected (16, 32)"),
            (edit_bias, "hidden[1].bias has shape (15,), expected (16,)"),
            (edit_m, "m has shape (15, 1), expected (16, 1)"),
            (edit_input_dim, "hidden[0].weights has shape (16, 32), expected (17, 32)"),
            (edit_version, "unsupported network document version: 1 "
                           "(this ratekit reads version 2); retrain the model"),
        )
        data = str(pipeline / "sim" / "test.csv")
        for edit, message in cases:
            doc = json.loads((pipeline / "model" / "model.json").read_text())
            edit(doc)
            model = tmp_path / f"{edit.__name__}.json"
            model.write_text(json.dumps(doc))
            for command, stage, extra in (
                ("importance", "load-data", ()),
                ("evaluate", "degradation",
                 ("--report", str(pipeline / "imp" / "report.json"), "--degradation")),
            ):
                capsys.readouterr()
                assert run(command, "--data", data, "--model", str(model), *extra,
                           "--out", str(tmp_path / command)) == 3
                assert f"error [{stage}]: {message}" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, pipeline, tmp_path):
        with np.errstate(all="ignore"):
            code = run(
                "train", "--data", str(pipeline / "sim" / "train.csv"),
                "--hidden", "8", "--learning-rate", "1e18", "--seed", "0",
                "--out", str(tmp_path),
            )
        assert code == 4

    def test_config_file_with_flag_override(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 30, "p": 8, "frac_causal": 0.25, "seed": 5}))
        out = tmp_path / "out"
        code = run("simulate", "--config", str(cfg), "--n", "40", "--out", str(out))
        assert code == 0
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["config"]["n"] == 40  # flag wins
        assert effective["config"]["p"] == 8  # config file value kept

    def test_importance_ignores_seed(self, pipeline, tmp_path):
        # importance draws no random numbers: --seed is accepted, not echoed
        # and leaves the report bytes as they are
        assert run(
            "importance", "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(pipeline / "model" / "model.json"), "--seed", "3",
            "--out", str(tmp_path),
        ) == 0
        echo = json.loads((tmp_path / "effective_config.json").read_text())
        assert "seed" not in echo["config"]
        assert (tmp_path / "report.json").read_bytes() == (
            pipeline / "imp" / "report.json"
        ).read_bytes()

    def test_non_finite_cell_fails_at_load(self, pipeline, tmp_path, capsys):
        # one nan cell per file, in an early and a late data row: train and
        # importance both refuse it before any split, training or scoring
        lines = (pipeline / "sim" / "train.csv").read_text().splitlines(keepends=True)
        for row in (2, 200):
            cells = lines[row].split(",")
            cells[3] = "nan"
            bad = tmp_path / f"bad{row}.csv"
            bad.write_text("".join(lines[:row] + [",".join(cells)] + lines[row + 1:]))
            for command, extra in (
                ("train", ("--hidden", "8", "--epochs", "1")),
                ("importance", ("--model", str(pipeline / "model" / "model.json"))),
            ):
                capsys.readouterr()
                assert run(command, "--data", str(bad), *extra,
                           "--out", str(tmp_path / command)) == 3
                err = capsys.readouterr().err
                assert f"error [load-data]: {bad}: data row {row}, column 'f4' is not finite" in err

    def test_json_documents_that_are_not_objects_exit_3(self, pipeline, tmp_path, capsys):
        # each used to end in an AttributeError traceback and exit 1
        data, model = pipeline / "sim" / "test.csv", pipeline / "model" / "model.json"
        mask, bad_model = tmp_path / "mask.json", tmp_path / "model.json"
        mask.write_text("[1, 0]")
        bad_model.write_text("[]")
        bad_data, sidecar = tmp_path / "data.csv", tmp_path / "data.mask.json"
        shutil.copyfile(data, bad_data)
        sidecar.write_text("[]")
        report = str(pipeline / "imp" / "report.json")
        for argv, named in (
            (("evaluate", "--report", report, "--mask", str(mask)), mask),
            (("importance", "--data", str(data), "--model", str(bad_model)), bad_model),
            (("importance", "--data", str(bad_data), "--model", str(model)), sidecar),
        ):
            capsys.readouterr()
            assert run(*argv, "--out", str(tmp_path / "out")) == 3
            assert str(named) in capsys.readouterr().err

    def test_mask_that_is_not_a_list_exits_3(self, pipeline, tmp_path, capsys):
        # a 0-d mask used to end in an IndexError traceback and exit 1
        data, model = pipeline / "sim" / "test.csv", pipeline / "model" / "model.json"
        mask = tmp_path / "mask.json"
        mask.write_text('{"causal_mask": 5}')
        bad_data, sidecar = tmp_path / "data.csv", tmp_path / "data.mask.json"
        shutil.copyfile(data, bad_data)
        sidecar.write_text('{"causal_mask": 5}')
        report = str(pipeline / "imp" / "report.json")
        for argv, stage, named in (
            (("evaluate", "--report", report, "--mask", str(mask)), "roc", mask),
            (("importance", "--data", str(bad_data), "--model", str(model)), "load-data", sidecar),
        ):
            capsys.readouterr()
            assert run(*argv, "--out", str(tmp_path / "out")) == 3
            err = capsys.readouterr().err
            assert f"error [{stage}]: {named}: causal_mask must be a list" in err
            assert "got shape ()" in err

    def test_model_missing_a_key_names_the_key_and_the_file(self, pipeline, tmp_path, capsys):
        # these used to print only the key's repr, as in "error [load-data]: 'config'"
        data = str(pipeline / "sim" / "test.csv")
        text = (pipeline / "model" / "model.json").read_text()
        for key in ("format", "version", "seed", "config", "hidden", "m", "rho", "b"):
            doc = json.loads(text)
            del doc[key]
            model = tmp_path / f"no-{key}.json"
            model.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("importance", "--data", data, "--model", str(model),
                       "--out", str(tmp_path / "out")) == 3
            err = capsys.readouterr().err
            assert f"'{key}'" in err and str(model) in err

    def test_report_item_missing_a_key_names_the_key_and_the_file(self, pipeline, tmp_path, capsys):
        # these used to print only the key's repr, as in "error [load-report]: 'rate'"
        text = (pipeline / "imp" / "report.json").read_text()
        for key in ("name", "rate"):
            doc = json.loads(text)
            del doc["items"][3][key]
            report = tmp_path / f"no-{key}.json"
            report.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("evaluate", "--report", str(report),
                       "--mask", str(pipeline / "sim" / "test.mask.json"),
                       "--out", str(tmp_path / "out")) == 3
            err = capsys.readouterr().err
            assert f"error [load-report]: {report}: report item 3 has no '{key}' key" in err

    def test_inputs_not_mutated(self, pipeline, tmp_path):
        data = pipeline / "sim" / "test.csv"
        before = data.read_bytes()
        run(
            "importance", "--data", str(data),
            "--model", str(pipeline / "model" / "model.json"),
            "--out", str(tmp_path),
        )
        assert data.read_bytes() == before


class TestFullScalePipeline:
    def test_auc_recovers_causal_features(self, tmp_path):
        sim, model, imp, ev = (tmp_path / d for d in ("sim", "model", "imp", "ev"))
        assert run(
            "simulate", "--n", "1000", "--p", "100", "--test-fraction", "0.4",
            "--seed", "0", "--out", str(sim),
        ) == 0
        assert run(
            "train", "--data", str(sim / "train.csv"),
            "--hidden", "512,512", "--seed", "0", "--out", str(model),
        ) == 0
        assert run(
            "importance", "--data", str(sim / "test.csv"),
            "--model", str(model / "model.json"), "--out", str(imp),
        ) == 0
        assert run(
            "evaluate", "--report", str(imp / "report.json"),
            "--mask", str(sim / "test.mask.json"), "--out", str(ev),
        ) == 0
        doc = json.loads((imp / "report.json").read_text())
        assert abs(sum(item["rate"] for item in doc["items"]) - 1.0) <= 1e-12
        rows = (ev / "roc.csv").read_text().splitlines()[1:]
        fpr = np.array([float(r.split(",")[1]) for r in rows])
        tpr = np.array([float(r.split(",")[2]) for r in rows])
        assert np.trapezoid(tpr, fpr) >= 0.9


class TestDemoCollinearity:
    def test_summary_shows_stability_gap(self, tmp_path):
        code = run(
            "demo-collinearity", "--rho", "0.999", "--n", "2000", "--reps", "20",
            "--seed", "0", "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "collinearity_summary.csv").read_text().splitlines()
        assert rows[0] == "estimator,coefficient,mean,std"
        stds = {}
        for line in rows[1:]:
            est, coef, _, std = line.split(",")
            stds[(est, coef)] = float(std)
        assert stds[("covariance", "f1")] < stds[("ols", "f1")]
        assert stds[("covariance", "f2")] < stds[("ols", "f2")]

    def test_fewer_than_two_reps_is_data_error(self, tmp_path, capsys):
        for reps in ("1", "0"):
            capsys.readouterr()
            code = run(
                "demo-collinearity", "--n", "100", "--reps", reps, "--out", str(tmp_path / reps),
            )
            assert code == 3
            assert "error [replicates]: reps must be >= 2" in capsys.readouterr().err
            assert not (tmp_path / reps / "collinearity_summary.csv").exists()

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            run(
                "demo-collinearity", "--rho", "0.9", "--n", "500", "--reps", "5",
                "--seed", "3", "--out", str(tmp_path / sub),
            )
        assert (tmp_path / "a" / "collinearity_summary.csv").read_bytes() == (
            tmp_path / "b" / "collinearity_summary.csv"
        ).read_bytes()
