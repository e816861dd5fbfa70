"""Command-line pipeline: simulate -> train -> importance -> evaluate.

Every subcommand is driven by an explicit seed, writes only into its output
directory, and echoes the merged effective configuration there, so reruns
with the same arguments are byte-identical. Exit codes: 2 usage, 3 data or
config problems, 4 numerical failures; error messages name the stage that
failed.

Each subcommand's settings are listed in ``SETTINGS``; the flags, their types
and the accepted config-file keys all come from that table, and ``ratekit
<subcommand> --help`` lists them. A setting the library takes (``SynthSpec``,
``NetworkConfig``, ``TrainConfig``, ``CollinearityStudy``, the degradation
curve) has the default declared there, and the subcommand builds that type
from the settings in its ``config`` stage, before anything is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ratekit import bnn, esa, evaluate, rate, simgen, svg
from ratekit.core import checked, in_file, read_json, write_csv, write_json, write_text

__all__ = ["main", "dispatch"]

EXIT_DATA = 3
EXIT_NUMERIC = 4

_NUMERIC_ERRORS = (bnn.TrainingDivergedError, np.linalg.LinAlgError, ArithmeticError)


class StageError(Exception):
    def __init__(self, stage_name: str, cause: BaseException, exit_code: int):
        self.stage_name = stage_name
        self.cause = cause
        self.exit_code = exit_code
        super().__init__(f"[{stage_name}] {cause}")


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except _NUMERIC_ERRORS as exc:
        raise StageError(name, exc, EXIT_NUMERIC) from exc
    # a Warning is raised only where the caller's filters made it an error
    except (OSError, ValueError, KeyError, TypeError, Warning) as exc:
        raise StageError(name, exc, EXIT_DATA) from exc


# ---------------------------------------------------------------------------
# Config plumbing


#: The library fields whose setting has another name: field -> setting.
_SETTING_NAMES = {"n_clusters_per_class": "clusters_per_class", "n_classes": "classes"}


def _library_fields(kind) -> dict[str, dataclasses.Field]:
    """The fields of dataclass ``kind`` that have a default, by setting name."""
    return {_SETTING_NAMES.get(f.name, f.name): f for f in dataclasses.fields(kind)
            if f.default is not dataclasses.MISSING}


def _library_defaults(*kinds) -> dict:
    return {name: f.default for kind in kinds for name, f in _library_fields(kind).items()}


def _from_settings(kind, cfg: dict, **fields):
    """``kind(**fields)``, each defaulted field set from its setting in ``cfg``;
    a refusal names a renamed field by its flag (``--classes``, not
    ``n_classes``)."""
    try:
        return kind(**fields, **{f.name: cfg[name] for name, f in _library_fields(kind).items()})
    except ValueError as exc:
        message = str(exc)
        for field, name in _SETTING_NAMES.items():
            message = re.sub(rf"\b{field}\b", "--" + name.replace("_", "-"), message)
        raise ValueError(message) from None


#: Each subcommand's settings and their defaults, those of the library type
#: or function that takes a setting where there is one: ``build_parser``
#: turns every name into a ``--name`` flag (``-`` for ``_``) typed by its
#: default (``None`` takes text, ``False`` is a bare switch), and the same
#: names are the config-file keys ``_merge`` accepts, each value checked
#: against its flag's type (``_config_value``).
#: Every subcommand also takes ``--config``, ``--out`` and ``--seed``; a
#: subcommand without a ``seed`` setting ignores ``--seed``.
SETTINGS: dict[str, dict] = {
    "simulate": {"n": 1000, "p": 100, **_library_defaults(simgen.SynthSpec), "test_fraction": 0.0},
    "train": {
        "data": None, "hidden": "128,128", **_library_defaults(bnn.NetworkConfig, bnn.TrainConfig),
    },
    "importance": {"data": None, "model": None, "class_index": 0},
    "group-importance": {"data": None, "model": None, "groups": None, "class_index": 0},
    "evaluate": {
        "report": None, "mask": None, "model": None, "data": None, "degradation": False,
        "ranking": "rate", "fractions": ",".join(f"{v:g}" for v in evaluate.DEGRADATION_FRACTIONS),
        "repeats": evaluate.DEGRADATION_REPEATS, "seed": 0,
    },
    "demo-collinearity": _library_defaults(evaluate.CollinearityStudy),
}

_CHOICES = {"link": bnn.LINKS, "ranking": evaluate.RANKINGS}

_FLAG_HELP = {
    ("train", "hidden"): "comma-separated hidden widths",
    ("importance", "data"): "evaluation dataset CSV",
    ("group-importance", "groups"): "CSV of group_name,feature_name rows",
    ("evaluate", "report"): "importance report JSON",
    ("evaluate", "mask"): "dataset mask sidecar JSON",
}


def _config_value(name: str, value, default):
    """A config-file value checked against what the setting's flag accepts;
    a float setting's JSON integer is stored as a float."""
    if name in _CHOICES and value not in _CHOICES[name]:
        choices = ", ".join(map(repr, _CHOICES[name]))
        raise ValueError(f"{name} must be one of {choices}, got {json.dumps(value)}")
    kinds = (bool,) if default is False else (str, None) if default is None else (type(default),)
    if type(checked(value, name, *kinds)) is int and float in kinds:
        try:
            return float(value)
        except OverflowError:  # an integer beyond the largest float
            raise ValueError(f"{name} must be a number in float range, got {value}") from None
    return value


def _merge(defaults: dict, config: dict, args) -> dict:
    """defaults < config file < explicitly passed flags; a config key the
    command has no default for, or a value its flag would not accept, is an
    error, not silently dropped or converted."""
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(map(repr, unknown))}")
    merged = dict(defaults)
    for key in defaults:
        if key in config:
            merged[key] = _config_value(key, config[key], defaults[key])
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _configure(args, *required: str, check=None) -> tuple[Path, dict, object]:
    """Merge the subcommand's settings, check that the ``required`` ones are
    set, that a ``seed`` setting is not negative and that ``check(cfg)``
    passes, then create ``--out`` and echo the result to
    effective_config.json: a refused setting writes nothing.
    Returns ``--out``, the settings and what ``check`` returned."""
    if not args.out:
        raise ValueError("an output directory is required (--out)")
    config = read_json(args.config) if args.config else {}
    with in_file(args.config):  # only a config-file value is refused here
        cfg = _merge(SETTINGS[args.command], config, args)
    for name in required:
        if not cfg[name]:
            raise ValueError(f"--{name} is required")
    if cfg.get("seed", 0) < 0:  # numpy's generators take no negative seed
        raise ValueError(f"--seed must be a non-negative integer, got {cfg['seed']}")
    checked = check(cfg) if check else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "effective_config.json", {"command": args.command, "config": cfg})
    return out, cfg, checked


def _parse_list(flag: str, text: str, kind: type, noun: str) -> tuple:
    """The non-blank comma-separated entries of a list flag as ``kind``; an
    entry that does not parse names the flag and the entry."""
    values = []
    for part in text.split(","):
        if part.strip():
            try:
                values.append(kind(part))
            except ValueError:
                raise ValueError(f"--{flag} entry {part.strip()!r} is not {noun}") from None
    return tuple(values)


def _parse_hidden(text: str) -> tuple[int, ...]:
    widths = _parse_list("hidden", text, int, "an integer")
    if not widths:
        raise ValueError("hidden layer list is empty")
    return widths


def _parse_fractions(cfg: dict) -> tuple[float, ...]:
    """The ``fractions`` setting, checked with ``repeats`` as degradation
    needs them: at least 2 values, each in [0, 1]."""
    fractions = _parse_list("fractions", cfg["fractions"], float, "a number")
    if len(fractions) < 2:
        raise ValueError(
            f"--fractions needs at least 2 values to draw a curve, got {cfg['fractions']!r}"
        )
    evaluate.check_degradation_settings(fractions, cfg["repeats"])
    return fractions


# ---------------------------------------------------------------------------
# Subcommands


def _simulate_settings(cfg: dict) -> simgen.SynthSpec:
    """The dataset spec the settings ask for, their test fraction checked."""
    spec = _from_settings(simgen.SynthSpec, cfg, n=cfg["n"], p=cfg["p"])
    simgen.held_out_rows(spec.n, cfg["test_fraction"])
    return spec


def _cmd_simulate(args) -> int:
    with _stage("config"):
        out, cfg, spec = _configure(args, check=_simulate_settings)
    with _stage("simulate"):
        ds = simgen.synth_classification(spec)
    with _stage("write-output"):
        if cfg["test_fraction"]:
            train, test = simgen.train_test_split(ds, cfg["test_fraction"], spec.seed)
            simgen.save_dataset_csv(train, out / "train.csv")
            simgen.save_dataset_csv(test, out / "test.csv")
        else:
            simgen.save_dataset_csv(ds, out / "dataset.csv")
    return 0


def _train_settings(cfg: dict) -> tuple[bnn.NetworkConfig, bnn.TrainConfig]:
    """The network and training configs the settings ask for. The input
    width comes from the data, which is not loaded yet: 1 stands in for it."""
    net_cfg = _from_settings(
        bnn.NetworkConfig, cfg, input_dim=1, hidden_sizes=_parse_hidden(cfg["hidden"])
    )
    return net_cfg, _from_settings(bnn.TrainConfig, cfg)


def _cmd_train(args) -> int:
    with _stage("config"):
        out, cfg, (net_cfg, train_cfg) = _configure(args, "data", check=_train_settings)
    with _stage("load-data"):
        ds = simgen.load_dataset_csv(cfg["data"])
    with _stage("train"):
        net_cfg = dataclasses.replace(net_cfg, input_dim=ds.p)
        # the initial network is passed as a temporary so that bnn.train can
        # free it once its parameters are copied
        trained, history = bnn.train(bnn.build_network(net_cfg, seed=cfg["seed"]), ds, train_cfg)
        del ds  # the model file is written without the dataset in memory
    with _stage("write-output"):
        bnn.save_network_json(trained, out / "model.json")
        write_json(out / "history.json", history)
    return 0


def _cmd_importance(args) -> int:
    """``importance`` and ``group-importance``: one scoring path, told apart
    by the subcommand name."""
    with_groups = args.command == "group-importance"
    with _stage("config"):
        required = ("data", "model", "groups") if with_groups else ("data", "model")
        out, cfg, _ = _configure(args, *required)
    with _stage("load-data"):
        ds = simgen.load_dataset_csv(cfg["data"])
        net = bnn.load_network_json(cfg["model"])
    with _stage("effect-sizes"):
        # effect_sizes.csv is written with the report, so a --class-index that
        # precision refuses leaves no scoring output
        lp = bnn.logit_posterior(net, ds.X)
        effect = esa.covariance_esa(ds.X, lp, feature_names=ds.feature_names)
    with _stage("precision"):
        pm = rate.build_precision(effect, class_index=cfg["class_index"])
        if pm.rank < pm.p:
            warnings.warn(f"the effect-size covariance has rank {pm.rank} < p = {pm.p}; "
                          "kld is its jitter-free limit and mi is undefined (null)")
    if with_groups:
        with _stage("load-groups"):
            groups = rate.GroupMap.from_csv(cfg["groups"], ds.feature_names)
        with _stage("group-importance"):
            report = rate.group_rate(pm, groups)
    else:
        with _stage("importance"):
            report = rate.rate_scores(pm)
    with _stage("write-output"):
        stem = "group_report" if with_groups else "report"
        esa.effect_sizes_to_csv(effect, out / "effect_sizes.csv")
        rate.report_to_json(report, out / f"{stem}.json")
        rate.report_to_csv(report, out / f"{stem}.csv")
    return 0


def _evaluate_settings(cfg: dict) -> tuple[float, ...] | None:
    """The degradation fractions, when the settings ask for degradation."""
    if not cfg["mask"] and not cfg["degradation"]:
        raise ValueError("nothing to evaluate: pass --mask and/or --degradation")
    if cfg["degradation"]:
        if not cfg["model"] or not cfg["data"]:
            raise ValueError("degradation needs --model and --data")
        return _parse_fractions(cfg)
    return None


def _cmd_evaluate(args) -> int:
    with _stage("config"):
        out, cfg, fractions = _configure(args, "report", check=_evaluate_settings)
    with _stage("load-report"):
        names, scores = rate.read_report(cfg["report"])

    if cfg["mask"]:
        with _stage("roc"):
            mask = simgen.read_sidecar(cfg["mask"], scores.size)["causal_mask"]
            if mask is None:
                raise ValueError(f"{cfg['mask']}: no causal mask recorded")
            curve = evaluate.roc_auc(scores, mask)
            evaluate.roc_curve_to_csv(curve, out / "roc.csv")
            write_text(out / "roc.svg", svg.curves(
                [(f"AUC={curve.auc:.4f}", curve.fpr, curve.tpr)],
                "false positive rate",
                "true positive rate",
            ))

    if cfg["degradation"]:
        with _stage("degradation"):
            net = bnn.load_network_json(cfg["model"])
            ds = simgen.load_dataset_csv(cfg["data"])
            if len(names) != ds.p:
                raise ValueError(f"report {cfg['report']} scores {len(names)} features, "
                                 f"dataset {cfg['data']} has {ds.p}")
            for j, (name, data_name) in enumerate(zip(names, ds.feature_names), 1):
                if name != data_name:
                    raise ValueError(f"report {cfg['report']} names feature {j} {name!r}, "
                                     f"dataset {cfg['data']} names it {data_name!r}")
            ranking = evaluate.rank_features(cfg["ranking"], scores, cfg["seed"])
            curve = evaluate.shuffle_degradation(net, ds, ranking, fractions=fractions,
                                                 repeats=cfg["repeats"], seed=cfg["seed"])
            evaluate.degradation_curve_to_csv(curve, out / "degradation.csv")
            write_text(out / "degradation.svg", svg.curves(
                [(f"ranking={cfg['ranking']}", curve.fractions, curve.mean_accuracy)],
                "fraction of features shuffled",
                "test accuracy",
            ))
    return 0


def _cmd_demo_collinearity(args) -> int:
    with _stage("config"):
        out, _, study = _configure(
            args, check=lambda cfg: _from_settings(evaluate.CollinearityStudy, cfg)
        )
    with _stage("replicates"):
        estimates = evaluate.collinearity_study(study)
    with _stage("write-output"):
        header = ["replicate", "covariance_f1", "covariance_f2", "ols_f1", "ols_f2"]
        write_csv(out / "estimates.csv", header,
                  ([r, *row] for r, row in enumerate(estimates.tolist())))
        # one summary row per estimate column, named by its estimator and coefficient
        summary = ([*name.split("_"), float(column.mean()), float(column.std(ddof=1))]
                   for name, column in zip(header[1:], estimates.T))
        write_csv(out / "collinearity_summary.csv", ["estimator", "coefficient", "mean", "std"],
                  summary)
    return 0


# ---------------------------------------------------------------------------
# Parser


_COMMANDS = {
    "simulate": (_cmd_simulate, "generate a synthetic classification dataset"),
    "train": (_cmd_train, "train a network on a dataset CSV"),
    "importance": (_cmd_importance, "score per-feature importance"),
    "group-importance": (_cmd_importance, "score named feature groups"),
    "evaluate": (_cmd_evaluate, "ROC against a causal mask and/or shuffle degradation"),
    "demo-collinearity": (
        _cmd_demo_collinearity,
        "compare covariance and least-squares effect sizes on collinear data",
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratekit",
        description="Feature importance for Bayesian neural networks",
        allow_abbrev=False,
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text, allow_abbrev=False)
        sub.set_defaults(func=handler)
        sub.add_argument("--config", help="JSON config file; flags override its fields")
        sub.add_argument("--out", help="output directory")
        # every subcommand takes --seed; a flag left out parses to None, which
        # leaves the config-file or default value in place
        for name, default in {"seed": 0, **SETTINGS[command]}.items():
            kwargs = {"help": _FLAG_HELP.get((command, name))}
            if default is False:
                kwargs.update(action="store_const", const=True)
            elif name in _CHOICES:
                kwargs["choices"] = _CHOICES[name]
            elif default is not None:
                kwargs["type"] = type(default)
            sub.add_argument("--" + name.replace("_", "-"), **kwargs)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """``--name value`` as ``--name=value`` where the value starts with '-'
    and a digit or '.': argparse takes a value such as ``-0.1,0.5``, which is
    not a plain negative number, for an unknown option."""
    joined: list[str] = []
    for arg in argv:
        if joined and re.fullmatch(r"--\w[\w-]*", joined[-1]) and re.match(r"-[\d.]", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"ratekit: warning: {message}", file=sys.stderr)


def dispatch(argv=None) -> int:
    """Run one subcommand; returns the process exit code instead of exiting.
    Each distinct warning it raises is one ``ratekit: warning:`` line, on every
    run, unless the caller's warning filters (which come first) say otherwise:
    one that ``-W error`` makes an exception ends the run as an error of the
    stage that raised it (exit 3). The filters and the caller's handler are
    restored afterwards."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    with warnings.catch_warnings():
        warnings.simplefilter("default", append=True)
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except StageError as err:
            print(f"ratekit: error [{err.stage_name}]: {err.cause}", file=sys.stderr)
            return err.exit_code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
