"""Command-line pipeline: simulate -> train -> importance -> evaluate.

Every subcommand is driven by an explicit seed, writes only into its output
directory, and echoes the merged effective configuration there, so reruns
with the same arguments are byte-identical. Exit codes: 2 usage, 3 data or
config problems, 4 numerical failures; error messages name the stage that
failed.

Each subcommand's settings and their defaults are declared once, in
``SETTINGS``; the flags, their types and the accepted config-file keys all
come from that table, and ``ratekit <subcommand> --help`` lists them.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ratekit import bnn, esa, evaluate, rate, simgen

__all__ = ["main", "dispatch", "render_curve_svg"]

EXIT_USAGE = 2
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
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise StageError(name, exc, EXIT_DATA) from exc


# ---------------------------------------------------------------------------
# SVG rendering


def render_curve_svg(series, x_label: str, y_label: str) -> str:
    """Minimal deterministic line plot: one polyline per (label, xs, ys) series.

    Data ranges map linearly onto a fixed 640x480 viewport; callers get valid
    standalone SVG text.
    """
    if not series:
        raise ValueError("need at least one series")
    parsed = []
    for label, xs, ys in series:
        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError(f"series {label!r}: xs and ys must be 1-d and equal length")
        if xs.size < 2:
            raise ValueError(f"series {label!r}: need at least 2 points")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError(f"series {label!r}: points must be finite")
        parsed.append((str(label), xs, ys))

    width, height = 640, 480
    ml, mr, mt, mb = 60, 20, 20, 45
    x0, x1 = ml, width - mr
    y0, y1 = height - mb, mt  # y axis points up

    all_x = np.concatenate([xs for _, xs, _ in parsed])
    all_y = np.concatenate([ys for _, _, ys in parsed])
    xmin, xmax = float(all_x.min()), float(all_x.max())
    ymin, ymax = float(all_y.min()), float(all_y.max())
    xspan = xmax - xmin or 1.0
    yspan = ymax - ymin or 1.0

    def sx(v: float) -> float:
        return x0 + (v - xmin) / xspan * (x1 - x0)

    def sy(v: float) -> float:
        return y0 + (v - ymin) / yspan * (y1 - y0)

    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) // 2}" y="{height - 8}" text-anchor="middle" '
        f'font-size="14">{_xml_escape(x_label)}</text>',
        f'<text x="14" y="{(y0 + y1) // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 14 {(y0 + y1) // 2})">{_xml_escape(y_label)}</text>',
        f'<text x="{x0}" y="{y0 + 16}" text-anchor="middle" font-size="11">{xmin:.4g}</text>',
        f'<text x="{x1}" y="{y0 + 16}" text-anchor="middle" font-size="11">{xmax:.4g}</text>',
        f'<text x="{x0 - 6}" y="{y0}" text-anchor="end" font-size="11">{ymin:.4g}</text>',
        f'<text x="{x0 - 6}" y="{y1 + 10}" text-anchor="end" font-size="11">{ymax:.4g}</text>',
    ]
    for i, (label, xs, ys) in enumerate(parsed):
        color = palette[i % len(palette)]
        points = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(xs, ys))
        out.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        out.append(
            f'<text x="{x1 - 2}" y="{mt + 16 * (i + 1)}" text-anchor="end" font-size="12" '
            f'fill="{color}">{_xml_escape(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# ---------------------------------------------------------------------------
# Config plumbing


#: Each subcommand's settings and their defaults, the one place they are
#: declared: ``build_parser`` turns every name into a ``--name`` flag (``-``
#: for ``_``) typed by its default (``None`` takes text, ``False`` is a bare
#: switch), and the same names are the config-file keys ``_merge`` accepts,
#: each value checked against its flag's type (``_config_value``).
#: Every subcommand also takes ``--config``, ``--out`` and ``--seed``; a
#: subcommand without a ``seed`` setting ignores ``--seed``.
SETTINGS: dict[str, dict] = {
    "simulate": {
        "n": 1000, "p": 100, "frac_causal": 0.1, "frac_redundant": 0.0,
        "clusters_per_class": 2, "class_sep": 2.0, "flip_y": 0.01, "test_fraction": 0.0,
        "seed": 0,
    },
    "train": {
        "data": None, "hidden": "128,128", "link": "sigmoid", "classes": 1,
        "prior_scale": 1.0, "epochs": 20, "learning_rate": 1e-3, "patience": 2,
        "batch_size": 32, "val_fraction": 0.2, "seed": 0,
    },
    "importance": {"data": None, "model": None, "class_index": 0},
    "group-importance": {"data": None, "model": None, "groups": None, "class_index": 0},
    "evaluate": {
        "report": None, "mask": None, "model": None, "data": None, "degradation": False,
        "ranking": "rate", "fractions": "0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5",
        "repeats": 10, "seed": 0,
    },
    "demo-collinearity": {"rho": 0.999, "n": 5000, "reps": 100, "seed": 0},
}

_CHOICES = {"link": bnn.LINKS, "ranking": ("rate", "random")}

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
    if default is False:
        ok, kind = isinstance(value, bool), "true or false"
    elif name in _CHOICES:
        ok, kind = value in _CHOICES[name], "one of " + ", ".join(map(repr, _CHOICES[name]))
    elif default is None or isinstance(default, str):
        ok = isinstance(value, str) or (value is None and default is None)
        kind = "a string or null" if default is None else "a string"
    elif isinstance(default, int):
        ok, kind = type(value) is int, "an integer"
    else:
        ok, kind = type(value) in (int, float), "a number in float range"
        if ok:
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the largest float
                ok = False
    if not ok:
        raise ValueError(f"config key {name!r} must be {kind}, got {json.dumps(value)}")
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


def _configure(args, *required: str) -> tuple[Path, dict]:
    """Create ``--out``, merge the subcommand's settings, check that the
    ``required`` ones are set and echo the result to effective_config.json."""
    if not args.out:
        raise ValueError("an output directory is required (--out)")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
    cfg = _merge(SETTINGS[args.command], config, args)
    for name in required:
        if not cfg[name]:
            raise ValueError(f"--{name} is required")
    doc = {"command": args.command, "config": cfg}
    (out / "effective_config.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    return out, cfg


def _load_network(path) -> bnn.Network:
    """The network in model file ``path``; a document it refuses is named."""
    try:
        return bnn.network_from_json(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{exc} ({path})") from exc


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


def _parse_fractions(text: str) -> tuple[float, ...]:
    return _parse_list("fractions", text, float, "a number")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    with _stage("config"):
        out, cfg = _configure(args)
    with _stage("simulate"):
        spec = simgen.SynthSpec(
            n=cfg["n"],
            p=cfg["p"],
            frac_causal=cfg["frac_causal"],
            frac_redundant=cfg["frac_redundant"],
            n_clusters_per_class=cfg["clusters_per_class"],
            class_sep=cfg["class_sep"],
            flip_y=cfg["flip_y"],
            seed=cfg["seed"],
        )
        test_fraction = cfg["test_fraction"]
        n_test = int(round(test_fraction * spec.n)) if 0 < test_fraction < 1 else 0
        if test_fraction != 0 and not 0 < n_test < spec.n:
            raise ValueError(
                f"test_fraction {test_fraction} must be 0 (no split) or leave both the "
                f"train and test parts of n = {spec.n} rows non-empty"
            )
        ds = simgen.synth_classification(spec)
    with _stage("write-output"):
        if n_test:
            split_rng = np.random.default_rng(spec.seed)
            order = split_rng.permutation(ds.n)
            test_idx, train_idx = order[:n_test], order[n_test:]
            for name, idx in (("train", train_idx), ("test", test_idx)):
                part = simgen.Dataset(
                    X=ds.X[idx],
                    y=ds.y[idx],
                    causal_mask=ds.causal_mask,
                    feature_names=ds.feature_names,
                    column_permutation=ds.column_permutation,
                    seed=ds.seed,
                )
                simgen.save_dataset_csv(part, out / f"{name}.csv")
        else:
            simgen.save_dataset_csv(ds, out / "dataset.csv")
    return 0


def _cmd_train(args) -> int:
    with _stage("config"):
        out, cfg = _configure(args, "data")
    with _stage("load-data"):
        ds = simgen.load_dataset_csv(cfg["data"])
    with _stage("train"):
        net_cfg = bnn.NetworkConfig(
            input_dim=ds.p,
            hidden_sizes=_parse_hidden(cfg["hidden"]),
            link=cfg["link"],
            n_classes=cfg["classes"],
            prior_scale=cfg["prior_scale"],
        )
        train_cfg = bnn.TrainConfig(
            epochs=cfg["epochs"],
            learning_rate=cfg["learning_rate"],
            patience=cfg["patience"],
            batch_size=cfg["batch_size"],
            val_fraction=cfg["val_fraction"],
            seed=cfg["seed"],
        )
        # the initial network is passed as a temporary so that bnn.train can
        # free it once its parameters are copied
        trained, history = bnn.train(bnn.build_network(net_cfg, seed=cfg["seed"]), ds, train_cfg)
        del ds  # the model file is written without the dataset in memory
    with _stage("write-output"):
        bnn.save_network_json(trained, out / "model.json")
        (out / "history.json").write_text(json.dumps(history, sort_keys=True) + "\n")
    return 0


def _cmd_importance(args) -> int:
    """``importance`` and ``group-importance``: one scoring path, told apart
    by the subcommand name."""
    with_groups = args.command == "group-importance"
    with _stage("config"):
        required = ("data", "model", "groups") if with_groups else ("data", "model")
        out, cfg = _configure(args, *required)
    with _stage("load-data"):
        ds = simgen.load_dataset_csv(cfg["data"])
        net = _load_network(cfg["model"])
    with _stage("effect-sizes"):
        lp = bnn.logit_posterior(net, ds.X)
        effect = esa.covariance_esa(ds.X, lp, feature_names=ds.feature_names)
        esa.effect_sizes_to_csv(effect, out / "effect_sizes.csv")
    with _stage("precision"):
        pm = rate.build_precision(effect, class_index=cfg["class_index"])
    if pm.rank < pm.p:
        print(
            f"ratekit: warning: the effect-size covariance has rank {pm.rank} < p = {pm.p}; "
            "kld is its jitter-free limit and mi is undefined (null)",
            file=sys.stderr,
        )
    if with_groups:
        with _stage("load-groups"):
            groups = _read_group_csv(cfg["groups"], ds.feature_names)
        with _stage("group-importance"):
            report = rate.group_rate(pm, groups)
        with _stage("write-output"):
            (out / "group_report.json").write_text(rate.report_to_json(report) + "\n")
            rate.report_to_csv(report, out / "group_report.csv")
    else:
        with _stage("importance"):
            report = rate.rate_scores(pm)
        with _stage("write-output"):
            (out / "report.json").write_text(rate.report_to_json(report) + "\n")
            rate.report_to_csv(report, out / "report.csv")
    return 0


def _read_group_csv(path, feature_names) -> rate.GroupMap:
    """Rows of group_name,feature_name; a literal header row is skipped."""
    groups: dict[str, list[str]] = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"group file row must be group_name,feature_name: {row!r}")
            name, feat = row[0].strip(), row[1].strip()
            if (name, feat) in (("group_name", "feature_name"), ("group", "feature")):
                continue
            groups.setdefault(name, []).append(feat)
    if not groups:
        raise ValueError(f"{path}: no groups found")
    return rate.GroupMap.from_names(groups, feature_names)


def _read_report(path) -> tuple[list[str], np.ndarray]:
    """The feature names and rates of the importance report ``path``; an
    item without either key is refused, naming the item, the key and the file."""
    doc = json.loads(Path(path).read_text())
    items = doc.get("items") if isinstance(doc, dict) else None
    if not isinstance(items, list):
        raise ValueError(f"{path}: not an importance report (no 'items' list)")
    for i, item in enumerate(items):
        for key in ("name", "rate"):
            if not isinstance(item, dict) or key not in item:
                raise ValueError(f"{path}: report item {i} has no {key!r} key")
    return [item["name"] for item in items], np.array([item["rate"] for item in items])


def _cmd_evaluate(args) -> int:
    with _stage("config"):
        out, cfg = _configure(args, "report")
    with _stage("load-report"):
        names, scores = _read_report(cfg["report"])

    wrote_anything = False
    if cfg["mask"]:
        with _stage("roc"):
            mask_doc = json.loads(Path(cfg["mask"]).read_text())
            if not isinstance(mask_doc, dict):
                raise ValueError(f"{cfg['mask']}: not a JSON object")
            if mask_doc.get("causal_mask") is None:
                raise ValueError(f"{cfg['mask']}: no causal mask recorded")
            mask = np.asarray(mask_doc["causal_mask"], dtype=bool)
            if mask.shape != scores.shape:
                raise ValueError(
                    f"{cfg['mask']}: causal_mask must be a list with one entry per report "
                    f"item ({scores.size}), got shape {mask.shape}"
                )
            curve = evaluate.roc_auc(scores, mask)
            evaluate.roc_curve_to_csv(curve, out / "roc.csv")
            svg = render_curve_svg(
                [(f"AUC={curve.auc:.4f}", curve.fpr, curve.tpr)],
                "false positive rate",
                "true positive rate",
            )
            (out / "roc.svg").write_text(svg)
            wrote_anything = True

    if cfg["degradation"]:
        with _stage("degradation"):
            if not cfg["model"] or not cfg["data"]:
                raise ValueError("degradation needs --model and --data")
            fractions = _parse_fractions(cfg["fractions"])
            if len(fractions) < 2:
                raise ValueError(
                    f"--fractions needs at least 2 values to draw a curve, got {cfg['fractions']!r}"
                )
            net = _load_network(cfg["model"])
            ds = simgen.load_dataset_csv(cfg["data"])
            if list(ds.feature_names) != names:
                raise ValueError("report features do not match the dataset")
            if cfg["ranking"] == "rate":
                ranking = np.argsort(-scores, kind="stable")
            else:
                ranking = np.random.default_rng(cfg["seed"]).permutation(len(scores))
            curve = evaluate.shuffle_degradation(
                net,
                ds,
                ranking,
                fractions=fractions,
                repeats=cfg["repeats"],
                seed=cfg["seed"],
            )
            evaluate.degradation_curve_to_csv(curve, out / "degradation.csv")
            svg = render_curve_svg(
                [(f"ranking={cfg['ranking']}", curve.fractions, curve.mean_accuracy)],
                "fraction of features shuffled",
                "test accuracy",
            )
            (out / "degradation.svg").write_text(svg)
            wrote_anything = True

    if not wrote_anything:
        raise StageError("config", ValueError("nothing to evaluate: pass --mask and/or --degradation"), EXIT_DATA)
    return 0


def _cmd_demo_collinearity(args) -> int:
    with _stage("config"):
        out, cfg = _configure(args)
    with _stage("replicates"):
        rho, n, reps = cfg["rho"], cfg["n"], cfg["reps"]
        if reps < 2:
            raise ValueError(f"reps must be >= 2 to estimate a standard deviation, got {reps}")
        seeds = np.random.SeedSequence(cfg["seed"]).generate_state(reps)
        rows = []
        for r in range(reps):
            ds = simgen.collinear_regression(n, rho, seed=int(seeds[r]))
            cov_est = esa.covariance_effect_sizes(ds.X, ds.y)
            ols_est = esa.ols_effect_size(ds.X, ds.y)
            rows.append((cov_est, ols_est))
        cov_all = np.stack([r[0] for r in rows])
        ols_all = np.stack([r[1] for r in rows])
    with _stage("write-output"):
        with open(out / "estimates.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["replicate", "covariance_f1", "covariance_f2", "ols_f1", "ols_f2"])
            for r in range(reps):
                writer.writerow(
                    [r]
                    + [repr(float(v)) for v in cov_all[r]]
                    + [repr(float(v)) for v in ols_all[r]]
                )
        with open(out / "collinearity_summary.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["estimator", "coefficient", "mean", "std"])
            for label, block in (("covariance", cov_all), ("ols", ols_all)):
                for j in range(block.shape[1]):
                    writer.writerow(
                        [
                            label,
                            f"f{j + 1}",
                            repr(float(block[:, j].mean())),
                            repr(float(block[:, j].std(ddof=1))),
                        ]
                    )
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


def dispatch(argv=None) -> int:
    """Run one subcommand; returns the process exit code instead of exiting."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except StageError as err:
        print(f"ratekit: error [{err.stage_name}]: {err.cause}", file=sys.stderr)
        return err.exit_code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
