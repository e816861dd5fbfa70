"""End-to-end tests of the command-line pipeline and its determinism."""

import base64
import codecs
import dataclasses
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ratekit import bnn, cli, evaluate, simgen
from ratekit.cli import SETTINGS, _configure, build_parser, dispatch


def run(*argv):
    return dispatch(list(argv))


def run_process(*argv, python_flags=()):
    """``python *python_flags -m ratekit.cli *argv`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "ratekit.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        capture_output=True, text=True,
    )


def run_escalating_warnings(*argv):
    """``python -W error -m ratekit.cli *argv``: every warning is an exception."""
    return run_process(*argv, python_flags=("-W", "error"))


#: Runs the CLI chain the way ``python -m ratekit.cli`` does, in a process
#: where importing scipy, or any scipy submodule, raises, and where opening a
#: text file without naming its encoding raises ``EncodingWarning``.
NUMPY_ONLY_CHAIN = r"""
import os, runpy, sys

class RefuseScipy:
    refused = []  # every scipy import tried, also one whose ImportError is caught

    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            self.refused.append(name)
            raise ModuleNotFoundError(f"blocked: {name}", name=name)
        return None

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy  # the control: the finder must refuse it
except ModuleNotFoundError as exc:
    print(exc)
else:
    sys.exit("the finder let scipy import")
RefuseScipy.refused.clear()
try:
    open(os.devnull).close()  # the control: an open() without an encoding must fail
except EncodingWarning:
    pass
else:
    sys.exit("an open() without an encoding raised no EncodingWarning")
d = sys.argv[1]
for argv in (
    ["simulate", "--config", f"{d}/simulate.json", "--seed", "1", "--out", f"{d}/sim"],
    ["train", "--data", f"{d}/sim/dataset.csv", "--hidden", "16", "--epochs", "1",
     "--seed", "1", "--out", f"{d}/model"],
    ["importance", "--data", f"{d}/sim/dataset.csv", "--model", f"{d}/model/model.json",
     "--out", f"{d}/imp"],
    ["group-importance", "--data", f"{d}/sim/dataset.csv", "--model", f"{d}/model/model.json",
     "--groups", f"{d}/groups.csv", "--out", f"{d}/groups"],
    ["evaluate", "--report", f"{d}/imp/report.json", "--mask", f"{d}/sim/dataset.mask.json",
     "--degradation", "--model", f"{d}/model/model.json", "--data", f"{d}/sim/dataset.csv",
     "--repeats", "2", "--out", f"{d}/eval"],
    ["demo-collinearity", "--n", "200", "--reps", "3", "--out", f"{d}/collinear"],
):
    sys.argv = ["ratekit", *argv]
    try:
        runpy.run_module("ratekit.cli", run_name="__main__")
    except SystemExit as exc:
        if exc.code:
            raise
print(sorted(set(RefuseScipy.refused)))
"""


class TestRuntimeDependencies:
    # the runtime needs numpy only; scipy is a test-time dependency. One
    # subprocess runs the chain; each test checks its own part of the result.
    @pytest.fixture(scope="class")
    def numpy_only_chain(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("numpy_only_chain")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        (out / "groups.csv").write_text("g1,f1\ng1,f2\ng2,f3\n")
        (out / "simulate.json").write_text('{"n": 200, "p": 20}')
        result = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-c", NUMPY_ONLY_CHAIN, str(out)],
            env=env, capture_output=True, text=True,
        )
        return out, result

    def test_cli_import_loads_no_scipy(self, numpy_only_chain):
        # the control line shows the finder refuses scipy; the last line lists
        # every scipy import any stage tried, also one whose ImportError is caught
        _, result = numpy_only_chain
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["blocked: scipy", "[]"]

    def test_every_text_file_is_opened_with_its_encoding(self, numpy_only_chain):
        # an open() without an encoding warns in this process (the control line
        # shows it is fatal outside a subcommand); a subcommand prints each
        # warning as a "ratekit: warning:" line, so none may be that one
        _, result = numpy_only_chain
        assert result.returncode == 0, result.stderr
        assert "'encoding' argument not specified" not in result.stderr, result.stderr

    def test_module_entry_point_runs_cli(self, numpy_only_chain):
        # every stage ran through runpy.run_module("ratekit.cli", run_name="__main__"),
        # what ``python -m ratekit.cli`` runs, and wrote its output
        out, result = numpy_only_chain
        assert result.returncode == 0, result.stderr
        for name in ("sim/dataset.csv", "model/model.json", "imp/report.json",
                     "groups/group_report.json", "eval/roc.csv", "eval/degradation.csv",
                     "collinear/collinearity_summary.csv"):
            assert (out / name).is_file(), name

    def test_every_output_keeps_the_byte_policy(self, numpy_only_chain):
        # criterion 11 compares reruns with each other, so it cannot see a
        # policy change that every run makes alike: this pins the policy itself
        out, result = numpy_only_chain
        assert result.returncode == 0, result.stderr
        written = sorted(p for p in out.glob("*/*") if p.suffix in (".csv", ".json", ".svg"))
        assert len(written) == 22, written  # every CSV, JSON and SVG file of the six stages
        for path in written:
            data = path.read_bytes()
            data.decode("utf-8")  # raises unless the file is UTF-8
            assert not data.startswith(codecs.BOM_UTF8), path
            assert data.endswith(b"\n") and b"\r" not in data, path
            if path.suffix == ".json":
                assert data == (json.dumps(json.loads(data), sort_keys=True) + "\n").encode(), path
            if path.suffix == ".svg":
                assert ET.fromstring(data).tag == "{http://www.w3.org/2000/svg}svg", path


#: Prints the locale's encoding, then runs train, importance and
#: group-importance in the current directory, exiting with the first
#: non-zero code.
LOCALE_CHAIN = r"""
import locale, sys
from ratekit.cli import dispatch
print(locale.getpreferredencoding(False))
for argv in (
    ["train", "--data", "data.csv", "--hidden", "8", "--epochs", "1", "--out", "model"],
    ["importance", "--data", "data.csv", "--model", "model/model.json", "--out", "imp"],
    ["group-importance", "--data", "data.csv", "--model", "model/model.json",
     "--groups", "groups.csv", "--out", "groups"],
):
    code = dispatch(argv)
    if code:
        sys.exit(code)
"""


class TestTextPolicy:
    def test_any_locale_reads_and_writes_the_same_bytes(self, tmp_path):
        # a feature name that is not ASCII, in a dataset ratekit wrote, used to
        # be refused at [load-data] under an ASCII locale
        ds = simgen.synth_classification(simgen.SynthSpec(n=60, p=5, frac_causal=0.4, seed=4))
        ds = dataclasses.replace(ds, feature_names=("größe", "f2", "f3", "f4", "f5"))
        src = str(Path(__file__).resolve().parents[1] / "src")
        written = {}
        for name, locale_env in (
            ("ascii", {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}),
            ("utf8", {"PYTHONUTF8": "1"}),
        ):
            chain = tmp_path / name
            chain.mkdir()
            simgen.save_dataset_csv(ds, chain / "data.csv")
            (chain / "groups.csv").write_bytes("g1,größe\ng1,f2\ng2,f3\n".encode("utf-8"))
            result = subprocess.run(
                [sys.executable, "-c", LOCALE_CHAIN], cwd=chain, capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src, **locale_env},
            )
            assert result.returncode == 0, result.stderr
            encoding = result.stdout.strip().lower().replace("-", "")
            assert (encoding != "utf8") == (name == "ascii"), encoding  # the control
            written[name] = {p.relative_to(chain): p.read_bytes() for p in chain.rglob("*.*")}
        assert len(written["ascii"]) == 14, sorted(written["ascii"])
        assert written["ascii"] == written["utf8"]
        assert "größe".encode("utf-8") in written["ascii"][Path("groups/effect_sizes.csv")]


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
            assert "error [config]: test_fraction" in capsys.readouterr().err
            assert not out.exists()

    def test_class_sep_must_be_finite_and_positive(self, tmp_path, capsys):
        for sep in ("nan", "0", "-1"):
            out = tmp_path / sep
            code = run(
                "simulate", "--n", "200", "--p", "10", "--frac-causal", "0.3",
                f"--class-sep={sep}", "--out", str(out),
            )
            assert code == 3
            assert "error [config]: class_sep must be finite and > 0" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("--p", "20", "--clusters-per-class", "3"),
         "--clusters-per-class 3 needs 6 cluster centers, more than the 4 vertices"),
        (("--p", "1", "--frac-causal", "1"),
         "--clusters-per-class 2 needs 4 cluster centers, more than the 2 vertices"),
    ], ids=["p20-3-clusters", "p1-all-causal"])
    def test_more_clusters_than_causal_cube_vertices_is_config_error(self, tmp_path, capsys,
                                                                      argv, message):
        # these used to exit 3 at [simulate], after --out was made
        out = tmp_path / "bad"
        assert run("simulate", "--n", "200", *argv, "--out", str(out)) == 3
        assert f"ratekit: error [config]: {message}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("argv, message", [
        (("simulate", "--n", "50", "--p", "8", "--frac-causal", "0.25", "--flip-y", "1.5"),
         "flip_y must lie in [0, 1)"),
        (("simulate", "--clusters-per-class", "0"), "--clusters-per-class must be >= 1"),
        (("simulate", "--n", "5"), "n must be >= 10"),
        (("train", "--data", "d.csv", "--classes", "2"), "sigmoid link requires --classes == 1"),
        (("train", "--data", "d.csv", "--link", "softmax"), "softmax link requires --classes >= 2"),
        (("train", "--data", "d.csv", "--hidden", "8,0"), "hidden layer widths must be >= 1"),
        (("train", "--data", "d.csv", "--hidden", "8,x"), "--hidden entry 'x' is not an integer"),
        (("train", "--data", "d.csv", "--prior-scale", "0"), "prior_scale must be positive"),
        (("train", "--data", "d.csv", "--epochs", "0"), "epochs must be >= 1"),
        (("train", "--data", "d.csv", "--val-fraction", "1"), "val_fraction must be in [0, 1)"),
        # inf used to be echoed as the non-standard JSON Infinity, then exit 4 at [train]
        (("train", "--data", "d.csv", "--prior-scale", "inf"),
         "prior_scale must be finite, got inf"),
        # each used to exit 4 at [train]: 1e-160 squares to a subnormal float,
        # over which the KL's m^2 overflowed, and 1e160's square overflowed
        (("train", "--data", "d.csv", "--prior-scale", "1e-160"),
         "prior_scale must square to a normal float (from about 1.5e-154 to 1.3e154), "
         "got 1e-160"),
        (("train", "--data", "d.csv", "--prior-scale", "1e160"),
         "prior_scale must square to a normal float (from about 1.5e-154 to 1.3e154), "
         "got 1e+160"),
    ])
    def test_library_type_refusal_is_config_error_naming_the_flag(self, tmp_path, capsys, argv,
                                                                  message):
        # the settings SynthSpec, NetworkConfig and TrainConfig check are
        # refused before --out exists (train before it reads --data), and a
        # renamed field is named by the flag the user typed
        out = tmp_path / "out"
        assert run(*argv, "--out", str(out)) == 3
        assert capsys.readouterr().err == f"ratekit: error [config]: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("simulate",),
        ("train", "--data", "d.csv"),
        ("evaluate", "--report", "r.json", "--degradation", "--model", "m.json", "--data", "d.csv"),
        ("demo-collinearity",),
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, argv):
        # each used to exit at the stage that first drew a random number,
        # with numpy's "expected non-negative integer", after --out was made
        out = tmp_path / "out"
        assert run(*argv, "--seed", "-1", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == "ratekit: error [config]: --seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_config_file_refusal_names_the_setting_as_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": "d.csv", "classes": 2}))
        assert run("train", "--config", str(cfg), "--out", str(tmp_path / "out")) == 3
        assert "error [config]: sigmoid link requires --classes == 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", sorted(SETTINGS))
    def test_every_setting_is_a_flag_and_a_config_key(self, tmp_path, capsys, command):
        values = {name: _other_value(name, d) for name, d in SETTINGS[command].items()}
        capsys.readouterr()
        assert run(command, "--help") == 0
        usage = capsys.readouterr().out
        for name in values:
            assert "--" + name.replace("_", "-") in usage
        flags = []
        for name, value in values.items():
            flag = "--" + name.replace("_", "-")
            flags += [flag] if value is True else [flag, str(value)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        for argv in (["--config", str(cfg)], flags):
            args = build_parser().parse_args([command, "--out", str(tmp_path), *argv])
            _, effective, _ = _configure(args)
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
        ("train", {"prior_scale": False}, "prior_scale", "a number"),
        ("train", {"learning_rate": "1e-3"}, "learning_rate", "a number"),
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
        assert f"error [config]: {cfg}: {key} must be {kind}, got " in err
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
            _, effective, _ = _configure(args)
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


class TestEscalatedWarnings:
    # a warning that the caller's -W error makes an exception ends the run as
    # an error of the stage that raised it, not with a traceback
    @pytest.fixture(scope="class")
    def chain(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("escalated")
        assert run("simulate", "--n", "200", "--p", "20", "--seed", "3",
                   "--out", str(root / "sim")) == 0
        for hidden in ("16", "32"):  # narrower than p, and full rank
            assert run("train", "--data", str(root / "sim" / "dataset.csv"), "--hidden", hidden,
                       "--epochs", "1", "--seed", "3", "--out", str(root / hidden)) == 0
        (root / "groups.csv").write_text("g1,f1\ng1,f2\ng2,f2\ng2,f3\n")
        return root

    @pytest.mark.parametrize("command, hidden, stage, message", [
        ("importance", "16", "precision", "the effect-size covariance has rank "),
        ("group-importance", "32", "group-importance",
         "groups overlap; scores are normalized as provided"),
    ], ids=["importance", "group-importance"])
    def test_warning_made_an_error_exits_3_at_its_stage(self, chain, tmp_path, command, hidden,
                                                         stage, message):
        groups = ("--groups", str(chain / "groups.csv")) if command == "group-importance" else ()
        result = run_escalating_warnings(
            command, "--data", str(chain / "sim" / "dataset.csv"),
            "--model", str(chain / hidden / "model.json"), *groups, "--out", str(tmp_path),
        )
        assert result.returncode == 3
        [line] = result.stderr.splitlines()
        assert line.startswith(f"ratekit: error [{stage}]: {message}")
        assert "Traceback" not in result.stderr
        assert not any(tmp_path.glob("*report*"))

    @pytest.mark.parametrize("python_flags", [("-W", "error"), ()], ids=["W-error", "default"])
    def test_diverged_training_exits_4_with_one_line(self, chain, tmp_path, python_flags):
        # training raises numpy's floating-point errors, so an overflow is one
        # error whatever the warning filters: it used to print six "ratekit:
        # warning:" lines before exit 4, or end at the first, exit 3, under -W error
        result = run_process(
            "train", "--data", str(chain / "sim" / "dataset.csv"), "--hidden", "8",
            "--learning-rate", "1e300", "--out", str(tmp_path), python_flags=python_flags,
        )
        assert result.returncode == 4
        [line] = result.stderr.splitlines()
        assert line.startswith("ratekit: error [train]: epoch 0: overflow encountered in ")
        assert not (tmp_path / "model.json").exists()


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
        # a rerun with the same flags, and one with the same settings in a
        # config file, write the pipeline's model.json bytes
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"hidden": "32,16", "epochs": 12, "seed": 11}))
        for name, settings in (
            ("flags", ("--hidden", "32,16", "--epochs", "12", "--seed", "11")),
            ("config", ("--config", str(cfg))),
        ):
            code = run(
                "train", "--data", str(pipeline / "sim" / "train.csv"), *settings,
                "--out", str(tmp_path / name),
            )
            assert code == 0
            assert (tmp_path / name / "model.json").read_bytes() == (
                pipeline / "model" / "model.json"
            ).read_bytes(), name

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
            "--mask", str(pipeline / "sim" / "test.mask.json"),
            "--degradation", "--model", str(pipeline / "model" / "model.json"),
            "--data", str(pipeline / "sim" / "test.csv"),
            "--fractions=-0.1,0.5", "--out", str(tmp_path / "out"),
        )
        assert code == 3
        assert not (tmp_path / "out").exists()

    def test_spaced_negative_fractions_reach_the_range_check(self, pipeline, tmp_path, capsys):
        # argparse alone takes "-0.1,0.5", not a plain negative number, for an
        # unknown option and exits 2
        code = run(
            "evaluate", "--report", str(pipeline / "imp" / "report.json"),
            "--mask", str(pipeline / "sim" / "test.mask.json"),
            "--degradation", "--model", str(pipeline / "model" / "model.json"),
            "--data", str(pipeline / "sim" / "test.csv"),
            "--fractions", "-0.1,0.5", "--out", str(tmp_path / "out"),
        )
        assert code == 3
        assert "error [config]: fraction -0.1 is not in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fractions", ["0.5", "", " , "])
    def test_degradation_needs_two_fractions(self, pipeline, tmp_path, capsys, fractions):
        # with --mask too: the ROC files are not written before the refusal
        code = run(
            "evaluate", "--report", str(pipeline / "imp" / "report.json"),
            "--mask", str(pipeline / "sim" / "test.mask.json"),
            "--degradation", "--model", str(pipeline / "model" / "model.json"),
            "--data", str(pipeline / "sim" / "test.csv"),
            "--fractions", fractions, "--out", str(tmp_path / "out"),
        )
        assert code == 3
        assert "error [config]: --fractions needs at least 2 values" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        ((), "nothing to evaluate: pass --mask and/or --degradation"),
        (("--degradation",), "degradation needs --model and --data"),
        (("--mask", "MASK", "--degradation"), "degradation needs --model and --data"),
        (("--mask", "MASK", "--degradation", "--model", "MODEL"), "degradation needs --model and --data"),
        (("--mask", "MASK", "--degradation", "--model", "MODEL", "--data", "DATA",
          "--repeats", "0"), "repeats must be >= 1"),
    ], ids=["neither", "no-model-or-data", "mask-no-model-or-data", "no-data", "repeats-0"])
    def test_evaluate_refuses_its_settings_before_writing(self, pipeline, tmp_path, capsys, argv, message):
        paths = {"MASK": pipeline / "sim" / "test.mask.json", "MODEL": pipeline / "model" / "model.json",
                 "DATA": pipeline / "sim" / "test.csv"}
        argv = [str(paths.get(arg, arg)) for arg in argv]
        code = run("evaluate", "--report", str(pipeline / "imp" / "report.json"), *argv,
                   "--out", str(tmp_path / "out"))
        assert code == 3
        assert f"error [config]: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        members = {item["name"]: len(item["members"]) for item in doc["items"]}
        assert members == {"g1": 10, "g2": 2} and members["g1"] > 8 >= rank
        assert all(math.isfinite(item["kld"]) and item["kld"] > 0 for item in doc["items"])

    def test_caller_error_filter_makes_the_warning_fatal(self, pipeline, tmp_path):
        # under -W error the rank-deficiency warning stops the run before the
        # report is written; it used to print as a warning line and exit 0
        model = tmp_path / "narrow"
        assert run(
            "train", "--data", str(pipeline / "sim" / "train.csv"), "--hidden", "8",
            "--epochs", "1", "--seed", "11", "--out", str(model),
        ) == 0
        result = run_escalating_warnings(
            "importance", "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(model / "model.json"), "--out", str(tmp_path / "imp"),
        )
        assert result.returncode == 3
        assert result.stderr.startswith(
            "ratekit: error [precision]: the effect-size covariance has rank"
        )
        assert not (tmp_path / "imp" / "report.json").exists()

    def test_model_with_a_nan_parameter_is_refused_at_precision(self, pipeline, tmp_path, capsys):
        # a NaN output bias used to be scored as "kld": NaN and a sign of -2**63
        net = bnn.load_network_json(pipeline / "model" / "model.json")
        net.b[:] = np.nan
        bnn.save_network_json(net, tmp_path / "model.json")
        capsys.readouterr()
        assert run(
            "importance", "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(tmp_path / "model.json"), "--out", str(tmp_path / "imp"),
        ) == 3
        assert capsys.readouterr().err == "ratekit: error [precision]: mu must be finite\n"
        assert not (tmp_path / "imp" / "report.json").exists()

    def test_full_rank_covariance_does_not_warn(self, pipeline, tmp_path, capsys):
        # hidden 32,16 at p = 16: k = p and Omega has full rank; neither
        # training such a model nor scoring it prints anything
        capsys.readouterr()
        assert run(
            "train", "--data", str(pipeline / "sim" / "train.csv"), "--hidden", "32,16",
            "--epochs", "1", "--seed", "11", "--out", str(tmp_path / "model"),
        ) == 0
        assert run(
            "importance", "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(pipeline / "model" / "model.json"), "--out", str(tmp_path / "imp"),
        ) == 0
        assert capsys.readouterr() == ("", "")

    def test_library_warning_is_one_ratekit_line(self, pipeline, tmp_path, capsys):
        # the full-rank model of test_full_rank_covariance_does_not_warn: the
        # overlap warning is the one line, on a second run in this process too,
        # and the caller's handler is back afterwards
        groups = tmp_path / "groups.csv"
        groups.write_text("g1,f1\ng1,f2\ng2,f2\ng2,f3\n")
        handler = warnings.showwarning
        for out in ("a", "b"):
            capsys.readouterr()
            assert run(
                "group-importance", "--data", str(pipeline / "sim" / "test.csv"),
                "--model", str(pipeline / "model" / "model.json"),
                "--groups", str(groups), "--out", str(tmp_path / out),
            ) == 0
            assert capsys.readouterr().err == (
                "ratekit: warning: groups overlap; scores are normalized as provided\n"
            )
        assert warnings.showwarning is handler

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

    def test_group_file_header_row_is_skipped(self, pipeline, tmp_path):
        # either literal header scores as the same rows without it
        rows = "g1,f1\ng1,f2\ng2,f3\n"
        reports = []
        for i, header in enumerate(("", "group_name,feature_name\n", "group,feature\n")):
            groups = tmp_path / f"groups{i}.csv"
            groups.write_text(header + rows)
            out = tmp_path / f"out{i}"
            assert run(
                "group-importance", "--data", str(pipeline / "sim" / "test.csv"),
                "--model", str(pipeline / "model" / "model.json"),
                "--groups", str(groups), "--out", str(out),
            ) == 0
            reports.append((out / "group_report.json").read_bytes())
        assert reports[1] == reports[0] and reports[2] == reports[0]
        assert [item["name"] for item in json.loads(reports[0])["items"]] == ["g1", "g2"]

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

    def test_group_with_unknown_feature_is_data_error(self, pipeline, tmp_path, capsys):
        # each message used to name neither --groups nor its file
        groups = tmp_path / "bad_groups.csv"
        for text, message in (
            ("g1,f1\ng2,not_a_feature\n", "group 'g2' names unknown feature 'not_a_feature'"),
            ("g1,f1\ng2\n", "group file row must be group_name,feature_name: ['g2']"),
        ):
            groups.write_text(text)
            capsys.readouterr()
            code = run(
                "group-importance", "--data", str(pipeline / "sim" / "test.csv"),
                "--model", str(pipeline / "model" / "model.json"),
                "--groups", str(groups), "--out", str(tmp_path / "out2"),
            )
            assert code == 3
            assert capsys.readouterr().err == f"ratekit: error [load-groups]: {groups}: {message}\n"

    def test_class_index_out_of_range_is_data_error(self, pipeline, tmp_path, capsys):
        # the pipeline network has one (sigmoid) output class
        groups = tmp_path / "groups.csv"
        groups.write_text("g1,f1\ng1,f2\ng2,f3\n")
        common = (
            "--data", str(pipeline / "sim" / "test.csv"),
            "--model", str(pipeline / "model" / "model.json"),
        )
        for command, extra in (("importance", ()), ("group-importance", ("--groups", str(groups)))):
            for class_index in ("5", "1", "-1"):
                capsys.readouterr()
                out = tmp_path / f"{command}{class_index}"
                assert run(command, *common, *extra, f"--class-index={class_index}",
                           "--out", str(out)) == 3
                assert "error [precision]" in capsys.readouterr().err
                # effect_sizes.csv is not written for a refused class
                assert [p.name for p in out.iterdir()] == ["effective_config.json"]

    def test_validation_split_holding_out_no_row_is_refused_at_train(self, pipeline, tmp_path,
                                                                     capsys):
        # 0.001 of train.csv's 300 rows rounds to 0; this used to stop early
        # on the training rows
        capsys.readouterr()
        assert run("train", "--data", str(pipeline / "sim" / "train.csv"), "--hidden", "8",
                   "--val-fraction", "0.001", "--out", str(tmp_path / "out")) == 3
        assert capsys.readouterr().err == (
            "ratekit: error [train]: val_fraction 0.001 holds out no row of n = 300: "
            "use 0 to stop early on the training data\n"
        )
        assert not (tmp_path / "out" / "model.json").exists()

    def test_one_feature_dataset_is_refused_at_precision(self, tmp_path, capsys):
        # this used to exit 0 with a report of one item, kld 0 and rate 1
        sim, model = tmp_path / "sim", tmp_path / "model"
        assert run("simulate", "--n", "200", "--p", "1", "--frac-causal", "1",
                   "--clusters-per-class", "1", "--out", str(sim)) == 0
        assert run("train", "--data", str(sim / "dataset.csv"), "--hidden", "8", "--epochs", "1",
                   "--out", str(model)) == 0
        capsys.readouterr()
        assert run("importance", "--data", str(sim / "dataset.csv"),
                   "--model", str(model / "model.json"), "--out", str(tmp_path / "imp")) == 3
        assert capsys.readouterr().err == (
            "ratekit: error [precision]: need at least 2 variables, got p = 1: "
            "each variable is scored against the rest\n"
        )
        assert not (tmp_path / "imp" / "report.json").exists()

    def test_invalid_training_settings_are_data_errors(self, pipeline, tmp_path, capsys):
        data = ("--data", str(pipeline / "sim" / "train.csv"), "--hidden", "8")
        for setting in ("--learning-rate=-0.01", "--learning-rate=nan", "--patience=-3"):
            capsys.readouterr()
            assert run("train", *data, setting, "--out", str(tmp_path / "out")) == 3
            assert "error [config]" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

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
                assert f"error [{stage}]: {model}: {message}" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, pipeline, tmp_path):
        code = run(
            "train", "--data", str(pipeline / "sim" / "train.csv"),
            "--hidden", "8", "--learning-rate", "1e300", "--seed", "0",
            "--out", str(tmp_path),
        )
        assert code == 4

    def test_variance_fit_that_does_not_converge_exits_4(self, pipeline, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(bnn, "_FIT_MAX_ITERATIONS", 3)
        code = run("train", "--data", str(pipeline / "sim" / "train.csv"), "--hidden", "8",
                   "--seed", "0", "--out", str(tmp_path))
        assert code == 4
        [line] = capsys.readouterr().err.splitlines()
        assert re.match(r"ratekit: error \[train\]: epoch \d+: the output-variance fit did not "
                        r"converge in 3 iterations \(largest relative change ", line), line
        assert not (tmp_path / "model.json").exists()

    def test_history_records_the_variance_fit(self, pipeline):
        history = json.loads((pipeline / "model" / "history.json").read_text())
        fit = history["variance_fit"]
        assert sorted(fit) == ["iterations", "v_max", "v_median", "v_min"]
        assert 2 <= fit["iterations"] <= bnn._FIT_MAX_ITERATIONS
        assert 0 < fit["v_min"] <= fit["v_median"] <= fit["v_max"] <= 1.0  # the prior's s^2

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
            assert f"{named}: the document must be an object, got a list" in capsys.readouterr().err

    @pytest.mark.parametrize("role, text", [
        ("config", '{"n": 40,'), ("config", "[]"), ("report", '{"items": [}'),
        ("mask", '{"causal_mask": [1, 0}'), ("sidecar", '{"seed": 1'), ("model", "{"),
    ])
    def test_json_input_that_is_refused_names_its_file_first(
        self, pipeline, tmp_path, capsys, role, text
    ):
        # a syntax error in any of these used to exit 3 naming no file; the
        # sidecar is named, not the dataset CSV beside it
        data, model = pipeline / "sim" / "test.csv", pipeline / "model" / "model.json"
        report, mask = pipeline / "imp" / "report.json", pipeline / "sim" / "test.mask.json"
        bad = tmp_path / ("data.mask.json" if role == "sidecar" else f"{role}.json")
        bad.write_text(text)
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            message = str(exc)
        else:
            message = "the document must be an object, got a list"
        if role == "sidecar":
            shutil.copyfile(data, tmp_path / "data.csv")
            data = tmp_path / "data.csv"
        stage, argv = {
            "config": ("config", ("simulate", "--config", bad)),
            "report": ("load-report", ("evaluate", "--report", bad, "--mask", mask)),
            "mask": ("roc", ("evaluate", "--report", report, "--mask", bad)),
            "sidecar": ("load-data", ("importance", "--data", data, "--model", model)),
            "model": ("load-data", ("importance", "--data", data, "--model", bad)),
        }[role]
        out = tmp_path / "out"
        assert run(*map(str, argv), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == f"ratekit: error [{stage}]: {bad}: {message}\n"
        assert out.exists() == (role != "config")

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

    @pytest.mark.parametrize("key, value, message", [
        ("causal_mask", [1] * 15 + ["0"], 'causal_mask entry 15 must be 0, 1, true or false, got "0"'),
        ("column_permutation", [5, 1], "column_permutation must be a permutation"),
        ("seed", "abc", "seed must be null or an integer, got a string"),
        ("integer_labels", "no", "integer_labels must be true or false, got a string"),
    ])
    def test_sidecar_key_of_the_wrong_form_exits_3(
        self, pipeline, tmp_path, capsys, key, value, message
    ):
        # each of these used to load, read as something else
        data, model = pipeline / "sim" / "test.csv", pipeline / "model" / "model.json"
        sidecar = json.loads((pipeline / "sim" / "test.mask.json").read_text())
        mask, bad_data = tmp_path / "data.mask.json", tmp_path / "data.csv"
        mask.write_text(json.dumps({**sidecar, key: value}))
        shutil.copyfile(data, bad_data)
        report = str(pipeline / "imp" / "report.json")
        for argv, stage in (
            (("evaluate", "--report", report, "--mask", str(mask)), "roc"),
            (("importance", "--data", str(bad_data), "--model", str(model)), "load-data"),
        ):
            capsys.readouterr()
            assert run(*argv, "--out", str(tmp_path / "out")) == 3
            err = capsys.readouterr().err
            assert re.search(f"error \\[{stage}\\]: {re.escape(str(mask))}: {message}", err), err

    def test_model_missing_a_key_names_the_key_and_the_file(self, pipeline, tmp_path, capsys):
        # these used to print only the key's repr, as in "error [load-data]: 'config'",
        # or a Python error naming neither the key nor the file, as in
        # "string indices must be integers, not 'str'"
        def delete(*path):
            def edit(doc):
                for key in path[:-1]:
                    doc = doc[key]
                del doc[path[-1]]
            return edit

        def set_to(value, *path):
            def edit(doc):
                for key in path[:-1]:
                    doc = doc[key]
                doc[path[-1]] = value
            return edit

        cases = [(delete(key), f"network document is missing '{key}'")
                 for key in ("version", "seed", "config", "hidden", "m", "rho", "b")]
        cases += [
            (delete("format"), "not a serialized network document: 'format' is not"),
            (delete("config", "link"), "network document is missing 'config.link'"),
            (delete("config", "activation"), "network document is missing 'config.activation'"),
            (delete("m", "data"), "network document is missing 'm.data'"),
            (delete("hidden", 1, "bias"), "network document is missing 'hidden[1].bias'"),
            (set_to("relu", "config"), "config must be an object, got a string"),
            (set_to("w", "hidden", 0), "hidden[0] must be an object, got a string"),
            (set_to(5, "config", "hidden_sizes"), "config.hidden_sizes must be a list, got an integer"),
            (set_to("32", "config", "hidden_sizes", 0), "config.hidden_sizes[0] must be an integer, got a string"),
            (set_to(True, "config", "n_classes"), "config.n_classes must be an integer, got true or false"),
            (set_to("1", "config", "prior_scale"), "config.prior_scale must be a number, got a string"),
            (set_to(5, "m", "shape"), "m.shape must be a list, got an integer"),
            (set_to(None, "rho", "data"), "rho.data must be a string, got null"),
            (set_to(1.5, "seed"), "seed must be an integer, got a number"),
        ]
        data = str(pipeline / "sim" / "test.csv")
        text = (pipeline / "model" / "model.json").read_text()
        for i, (edit, message) in enumerate(cases):
            doc = json.loads(text)
            edit(doc)
            model = tmp_path / f"case{i}.json"
            model.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("importance", "--data", data, "--model", str(model),
                       "--out", str(tmp_path / "out")) == 3
            err = capsys.readouterr().err
            assert f"error [load-data]: {model}: {message}" in err, (message, err)

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
        # a rate that is not a finite number used to reach roc or degradation as a
        # numpy message naming no item, or (true) to be scored as 1.0 with exit 0
        for i, (value, message) in enumerate((
            ("x", "items[3].rate must be a number, got a string"),
            (None, "items[3].rate must be a number, got null"),
            (True, "items[3].rate must be a number, got true or false"),
            ([0.5], "items[3].rate must be a number, got a list"),
            (float("nan"), "report item 3 has a 'rate' that is not a finite number: NaN"),
            (10**400, f"report item 3 has a 'rate' that is not a finite number: {10**400}"),
        )):
            doc = json.loads(text)
            doc["items"][3]["rate"] = value
            report = tmp_path / f"rate{i}.json"
            report.write_text(json.dumps(doc))
            for stage_args in (
                ("--mask", str(pipeline / "sim" / "test.mask.json")),
                ("--degradation", "--model", str(pipeline / "model" / "model.json"),
                 "--data", str(pipeline / "sim" / "test.csv")),
            ):
                capsys.readouterr()
                assert run("evaluate", "--report", str(report), *stage_args,
                           "--out", str(tmp_path / "out")) == 3, value
                err = capsys.readouterr().err
                assert f"error [load-report]: {report}: {message}\n" in err, err

    def test_quoted_crlf_copy_scores_to_the_same_report(self, pipeline, tmp_path):
        # every cell quoted, with CRLF line endings: the same numbers load,
        # so the report bytes are the pipeline's
        header, *rows = (pipeline / "sim" / "test.csv").read_text().splitlines()
        quoted = [",".join(f'"{cell}"' for cell in row.split(",")) for row in rows]
        data = tmp_path / "quoted.csv"
        data.write_bytes(("\r\n".join([header, *quoted]) + "\r\n").encode())
        shutil.copyfile(pipeline / "sim" / "test.mask.json", tmp_path / "quoted.mask.json")
        assert run(
            "importance", "--data", str(data), "--model", str(pipeline / "model" / "model.json"),
            "--out", str(tmp_path / "imp"),
        ) == 0
        assert (tmp_path / "imp" / "report.json").read_bytes() == (
            pipeline / "imp" / "report.json"
        ).read_bytes()

    def test_byte_order_mark_in_the_dataset_keeps_the_report_bytes(self, pipeline, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one; it used to become
        # part of the first feature's name ('\ufefff1')
        data = tmp_path / "bom.csv"
        data.write_bytes(codecs.BOM_UTF8 + (pipeline / "sim" / "test.csv").read_bytes())
        shutil.copyfile(pipeline / "sim" / "test.mask.json", tmp_path / "bom.mask.json")
        assert run("importance", "--data", str(data), "--model",
                   str(pipeline / "model" / "model.json"), "--out", str(tmp_path / "imp")) == 0
        for name in ("report.json", "report.csv", "effect_sizes.csv"):
            assert (tmp_path / "imp" / name).read_bytes() == (
                pipeline / "imp" / name).read_bytes(), name

    @pytest.mark.parametrize("marked", ["groups", "config"])
    def test_byte_order_mark_in_a_group_or_config_file_is_skipped(
        self, pipeline, tmp_path, marked
    ):
        # a group file's header row and a config file used to be refused
        reports = []
        for bom in (b"", codecs.BOM_UTF8):
            out = tmp_path / f"bom{len(bom)}"
            out.mkdir()
            files = {"groups": b"group_name,feature_name\ng1,f1\ng1,f2\ng2,f3\n",
                     "config": b'{"class_index": 0}'}
            for name, content in files.items():
                (out / name).write_bytes(bom + content if name == marked else content)
            assert run("group-importance", "--data", str(pipeline / "sim" / "test.csv"),
                       "--model", str(pipeline / "model" / "model.json"),
                       "--groups", str(out / "groups"), "--config", str(out / "config"),
                       "--out", str(out)) == 0
            reports.append((out / "group_report.json").read_bytes())
        assert reports[1] == reports[0]

    def test_dataset_that_is_not_utf8_names_the_file(self, pipeline, tmp_path, capsys):
        # it used to print only the codec's message, naming neither file
        data = tmp_path / "latin.csv"
        data.write_bytes(b"gr\xf6\xdfe," + (pipeline / "sim" / "test.csv").read_bytes()[3:])
        assert run("importance", "--data", str(data), "--model",
                   str(pipeline / "model" / "model.json"), "--out", str(tmp_path / "out")) == 3
        assert (f"error [load-data]: {data}: 'utf-8' codec can't decode byte 0xf6 in position 2"
                in capsys.readouterr().err)

    def test_degradation_names_the_first_feature_the_report_does_not_share(
        self, pipeline, tmp_path, capsys
    ):
        # it used to print only "report features do not match the dataset"
        text = (pipeline / "imp" / "report.json").read_text()
        data = pipeline / "sim" / "test.csv"
        renamed, missing = json.loads(text), json.loads(text)
        renamed["items"][2]["name"] = "zz"
        del missing["items"][5]
        for doc, message in (
            (renamed, "names feature 3 'zz', dataset {data} names it 'f3'"),
            (missing, "scores 15 features, dataset {data} has 16"),
        ):
            report = tmp_path / "report.json"
            report.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("evaluate", "--report", str(report), "--degradation",
                       "--model", str(pipeline / "model" / "model.json"), "--data", str(data),
                       "--out", str(tmp_path / "out")) == 3
            err = capsys.readouterr().err
            assert f"error [degradation]: report {report} {message.format(data=data)}\n" in err

    def test_inputs_not_mutated(self, pipeline, tmp_path):
        data = pipeline / "sim" / "test.csv"
        before = data.read_bytes()
        run(
            "importance", "--data", str(data),
            "--model", str(pipeline / "model" / "model.json"),
            "--out", str(tmp_path),
        )
        assert data.read_bytes() == before


def echoed_settings(out):
    """The merged settings a subcommand echoed to ``out``, with their JSON types."""
    return json.loads((out / "effective_config.json").read_text())["config"]


def library_settings(obj, **renamed):
    """The defaulted fields of dataclass instance ``obj`` by setting name:
    ``renamed`` maps a field to the setting of another name that fills it."""
    return {
        renamed.get(f.name, f.name): getattr(obj, f.name)
        for f in dataclasses.fields(obj)
        if f.default is not dataclasses.MISSING
    }


def assert_same_json(got, want):
    # a float setting echoed as 2 instead of 2.0 would take integer flags
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


class TestLibraryDefaults:
    # a subcommand given none of its defaulted settings echoes, and builds,
    # the defaults of the library types and functions that take them

    def test_bare_simulate_builds_the_default_spec(self, tmp_path):
        assert run("simulate", "--out", str(tmp_path)) == 0
        cfg = echoed_settings(tmp_path)
        spec = simgen.SynthSpec(n=1000, p=100)
        assert_same_json(cfg, {
            "n": 1000, "p": 100, "test_fraction": 0.0,
            **library_settings(spec, n_clusters_per_class="clusters_per_class"),
        })
        assert sorted(cfg) == sorted([
            "n", "p", "frac_causal", "frac_redundant", "clusters_per_class", "class_sep",
            "flip_y", "test_fraction", "seed",
        ])
        ds = simgen.load_dataset_csv(tmp_path / "dataset.csv")
        ref = simgen.synth_classification(spec)
        np.testing.assert_array_equal(ds.X, ref.X)
        np.testing.assert_array_equal(ds.causal_mask, ref.causal_mask)

    def test_bare_train_builds_the_default_configs(self, pipeline, tmp_path, monkeypatch):
        seen = {}
        real_train = bnn.train

        def spy(net, ds, train_cfg):
            seen.update(net=net.config, train=train_cfg)
            return real_train(net, ds, train_cfg)

        monkeypatch.setattr(bnn, "train", spy)
        data = str(pipeline / "sim" / "train.csv")
        assert run("train", "--data", data, "--out", str(tmp_path)) == 0
        cfg = echoed_settings(tmp_path)
        net_cfg = bnn.NetworkConfig(input_dim=16, hidden_sizes=(128, 128))
        assert_same_json(cfg, {
            "data": data, "hidden": "128,128",
            **library_settings(net_cfg, n_classes="classes"),
            **library_settings(bnn.TrainConfig()),
        })
        assert sorted(cfg) == sorted([
            "data", "hidden", "link", "classes", "prior_scale", "epochs", "learning_rate",
            "patience", "batch_size", "val_fraction", "seed",
        ])
        assert seen == {"net": net_cfg, "train": bnn.TrainConfig()}

    def test_bare_evaluate_echoes_the_degradation_defaults(self, pipeline, tmp_path):
        assert run(
            "evaluate", "--report", str(pipeline / "imp" / "report.json"),
            "--mask", str(pipeline / "sim" / "test.mask.json"), "--out", str(tmp_path),
        ) == 0
        cfg = echoed_settings(tmp_path)
        assert cfg["fractions"] == "0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5"
        assert tuple(map(float, cfg["fractions"].split(","))) == evaluate.DEGRADATION_FRACTIONS
        assert_same_json(cfg["repeats"], evaluate.DEGRADATION_REPEATS)
        defaults = inspect.signature(evaluate.shuffle_degradation).parameters
        assert defaults["fractions"].default is evaluate.DEGRADATION_FRACTIONS
        assert defaults["repeats"].default is evaluate.DEGRADATION_REPEATS

    def test_ranking_choices_are_the_library_rankings(self):
        assert cli._CHOICES["ranking"] is evaluate.RANKINGS

    def test_bare_demo_collinearity_runs_the_default_study(self, tmp_path, monkeypatch):
        seen = []
        real_study = evaluate.collinearity_study

        def spy(study):
            seen.append(study)
            return real_study(study)

        monkeypatch.setattr(evaluate, "collinearity_study", spy)
        assert run("demo-collinearity", "--out", str(tmp_path)) == 0
        assert_same_json(echoed_settings(tmp_path), library_settings(evaluate.CollinearityStudy()))
        assert seen == [evaluate.CollinearityStudy()]

    def test_default_fractions_are_the_rounded_range(self):
        # perfbench's paper check reads the curve at these exact keys
        want = np.round(np.arange(0.0, 0.5001, 0.05), 10)
        assert np.array(evaluate.DEGRADATION_FRACTIONS).tobytes() == want.tobytes()


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
        # refused at config, before --out is created
        for reps in ("1", "0"):
            capsys.readouterr()
            code = run(
                "demo-collinearity", "--n", "100", "--reps", reps, "--out", str(tmp_path / reps),
            )
            assert code == 3
            assert "error [config]: reps must be >= 2" in capsys.readouterr().err
            assert not (tmp_path / reps).exists()

    @pytest.mark.parametrize("argv, message", [
        (("--rho", "1"), "|rho| must be < 1, got 1.0"),
        (("--rho", "-1.5"), "|rho| must be < 1, got -1.5"),
        (("--n", "1"), "n must be >= 3 for least squares to fit 3 coefficients, got 1"),
        (("--n", "2"), "n must be >= 3 for least squares to fit 3 coefficients, got 2"),
    ])
    def test_settings_a_replicate_would_refuse_are_config_errors(
        self, tmp_path, capsys, argv, message
    ):
        # these used to exit 3 at [replicates], after --out was made
        out = tmp_path / "out"
        assert run("demo-collinearity", *argv, "--reps", "5", "--out", str(out)) == 3
        assert capsys.readouterr().err == f"ratekit: error [config]: {message}\n"
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            run(
                "demo-collinearity", "--rho", "0.9", "--n", "500", "--reps", "5",
                "--seed", "3", "--out", str(tmp_path / sub),
            )
        assert (tmp_path / "a" / "collinearity_summary.csv").read_bytes() == (
            tmp_path / "b" / "collinearity_summary.csv"
        ).read_bytes()
