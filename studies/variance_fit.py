"""Evidence for fitting the output variances after a deterministic training.

For each seed s of a generator, at paper scale (n = 1000, p = 100, 400 test
rows, hidden 512,512, the default ``TrainConfig``), this trains the network
of seed s from the initial log-variances rho0 = -9, -5 and -1, and a second
network of seed s + 1000 from -5, then scores each with RATE on the test
rows. It writes one JSON of per-seed results and their summary:

- the causal AUC of RATE (rho0 = -5), beside the untrained network's RATE
  (``build_network`` only, the label-free control) and |correlation with y|;
- |dAUC| and the top-10 overlap between the two trainings;
- the Spearman correlation of the rates from rho0 = -9 and -1 with those
  from -5, and each one's |dAUC| against -5;
- best epoch, epochs run and test accuracy.

Two generators: ``synth`` is ``simgen.synth_classification``, whose causal
block X alone reveals; ``matched`` draws every 10-column block with the
causal block's law (its own cube vertices at class_sep 2, its own 4-cluster
draw, N(0, 1) noise), only block 0's clusters set y (cluster mod 2, 1% of
labels flipped), and the columns are shuffled.

It uses only the library's public API, so the same script measures any
commit: put that commit's ``src`` on ``PYTHONPATH``. ``--baseline`` names
such a run's JSON and adds the gate: Spearman >= 0.999, the mean AUC within
the training-seed floor of the baseline's (0.019 on ``synth``, 0.027 on
``matched``), and |dAUC| and the top-10 overlap between trainings no worse
than the baseline's. numpy only; results repeat exactly at a fixed BLAS
thread count. Run it as

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python studies/variance_fit.py \\
        --seeds 500:530 --out studies/results/variance_fit.json
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ratekit import bnn, esa, evaluate, rate, simgen

N, P, TEST_FRACTION, HIDDEN = 1000, 100, 0.4, (512, 512)
RHO0 = (-9.0, -5.0, -1.0)
SECOND = 1000  # the second training's seed offset
TOP = 10
FLOOR = {"synth": 0.019, "matched": 0.027}  # |dAUC| between two trainings, measured before


def matched(seed: int) -> simgen.Dataset:
    """Every 10-column block drawn as ``synth_classification``'s causal
    block is; only block 0 sets y."""
    rng = np.random.default_rng(seed)
    blocks, clusters = [], []
    for _ in range(P // 10):
        vertices: list[tuple] = []
        while len(vertices) < 4:
            vertex = tuple(rng.integers(0, 2, size=10) * 2 - 1)
            if vertex not in vertices:
                vertices.append(vertex)
        centers = 2.0 * np.array(vertices, dtype=float)
        cluster = rng.integers(0, 4, size=N)
        blocks.append(centers[cluster] + rng.standard_normal((N, 10)))
        clusters.append(cluster)
    y = clusters[0] % 2
    flip = rng.choice(N, size=N // 100, replace=False)
    y[flip] = 1 - y[flip]
    perm = rng.permutation(P)
    mask = np.arange(P) < 10
    return simgen.Dataset(X=np.hstack(blocks)[:, perm], y=y, causal_mask=mask[perm])


def dataset(generator: str, seed: int) -> simgen.Dataset:
    if generator == "synth":
        return simgen.synth_classification(simgen.SynthSpec(n=N, p=P, seed=seed))
    return matched(seed)


def rates(net: bnn.Network, test: simgen.Dataset) -> np.ndarray:
    lp = bnn.logit_posterior(net, test.X)
    return rate.rate_scores(rate.build_precision(esa.covariance_esa(test.X, lp))).rates()


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    ra, rb = np.argsort(np.argsort(a)), np.argsort(np.argsort(b))
    return float(np.corrcoef(ra, rb)[0, 1])


def top(scores: np.ndarray) -> set[int]:
    return set(evaluate.rank_features("rate", scores)[:TOP].tolist())


def one_seed(generator: str, seed: int) -> dict:
    ds = dataset(generator, seed)
    train_part, test = simgen.train_test_split(ds, TEST_FRACTION, seed)
    cfg = bnn.NetworkConfig(input_dim=P, hidden_sizes=HIDDEN)
    auc = lambda scores: evaluate.roc_auc(scores, ds.causal_mask).auc  # noqa: E731

    runs = {}
    for label, net_seed, rho0 in [*(("first", seed, r) for r in RHO0),
                                  ("second", seed + SECOND, -5.0)]:
        net = bnn.build_network(cfg, seed=net_seed)
        net.rho[:] = rho0
        trained, history = bnn.train(net, train_part, bnn.TrainConfig(seed=net_seed))
        accuracy = float(np.mean((bnn.predict_proba(trained, test.X)[:, 0] > 0.5) == test.y))
        runs[(label, rho0)] = (rates(trained, test), history, accuracy)

    shipped, history, accuracy = runs[("first", -5.0)]
    second = runs[("second", -5.0)][0]
    corr = np.abs(evaluate.marginal_correlation(test.X, test.y.astype(float)))
    return {
        "seed": seed,
        "auc": auc(shipped),
        "auc_untrained": auc(rates(bnn.build_network(cfg, seed=seed), test)),
        "auc_correlation": auc(corr),
        "abs_dauc_trainings": abs(auc(shipped) - auc(second)),
        "top10_overlap_trainings": len(top(shipped) & top(second)) / TOP,
        "spearman_rho0": {str(r): spearman(runs[("first", r)][0], shipped) for r in RHO0},
        "abs_dauc_rho0": {str(r): abs(auc(runs[("first", r)][0]) - auc(shipped)) for r in RHO0},
        "best_epoch": history["best_epoch"],
        "epochs_run": len(history["train_loss"]),
        "test_accuracy": accuracy,
        "variance_fit": history.get("variance_fit"),
    }


def summary(rows: list[dict]) -> dict:
    mean = lambda key: float(np.mean([r[key] for r in rows]))  # noqa: E731
    others = [str(r) for r in RHO0 if r != -5.0]
    return {
        "seeds": len(rows),
        "auc_mean": mean("auc"),
        "auc_share_below_0.90": float(np.mean([r["auc"] < 0.90 for r in rows])),
        "auc_untrained_mean": mean("auc_untrained"),
        "auc_correlation_mean": mean("auc_correlation"),
        "abs_dauc_trainings_mean": mean("abs_dauc_trainings"),
        "top10_overlap_trainings_mean": mean("top10_overlap_trainings"),
        "spearman_rho0_min": min(r["spearman_rho0"][k] for r in rows for k in others),
        "abs_dauc_rho0_mean": float(np.mean([r["abs_dauc_rho0"][k] for r in rows
                                             for k in others])),
        "best_epoch_zero_share": float(np.mean([r["best_epoch"] == 0 for r in rows])),
        "epochs_run_mean": mean("epochs_run"),
        "test_accuracy_mean": mean("test_accuracy"),
    }


def gate(generator: str, this: dict, baseline: dict) -> dict:
    checks = {
        "spearman_rho0_min >= 0.999": this["spearman_rho0_min"] >= 0.999,
        f"|auc_mean - baseline| <= {FLOOR[generator]}":
            abs(this["auc_mean"] - baseline["auc_mean"]) <= FLOOR[generator],
        "abs_dauc_trainings_mean <= baseline":
            this["abs_dauc_trainings_mean"] <= baseline["abs_dauc_trainings_mean"],
        "top10_overlap_trainings_mean >= baseline":
            this["top10_overlap_trainings_mean"] >= baseline["top10_overlap_trainings_mean"],
    }
    return {"checks": checks, "passed": all(checks.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="500:530", help="start:stop, stop excluded")
    parser.add_argument("--generators", default="synth,matched")
    parser.add_argument("--baseline", help="a JSON this script wrote, to gate against")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    start, stop = (int(s) for s in args.seeds.split(":"))
    result = {"command": " ".join(sys.argv), "generators": {}}
    for generator in args.generators.split(","):
        rows = [one_seed(generator, seed) for seed in range(start, stop)]
        result["generators"][generator] = {"summary": summary(rows), "seeds": rows}
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            baseline = json.load(fh)["generators"]
        result["gate"] = {g: gate(g, r["summary"], baseline[g]["summary"])
                          for g, r in result["generators"].items()}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for generator, r in result["generators"].items():
        print(generator, json.dumps(r["summary"], sort_keys=True))
    if "gate" in result:
        print("gate", json.dumps(result["gate"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
