"""Walk the full pipeline on synthetic data with a known causal mask.

Generates a binary classification problem where 10% of features drive the
labels, trains the network, projects its logit posterior onto the features,
and checks how well the normalized centrality scores recover the truth.
"""

import numpy as np

from ratekit import bnn, esa, evaluate, rate, simgen


def main(seed: int = 0) -> None:
    print("=== data ===")
    spec = simgen.SynthSpec(n=1000, p=100, frac_causal=0.1, seed=seed)
    ds = simgen.synth_classification(spec)
    print(f"n={ds.n}, p={ds.p}, causal features: {np.where(ds.causal_mask)[0].tolist()}")

    # hold out an evaluation split; scores are computed there, not on the
    # training rows
    train, test = simgen.train_test_split(ds, 0.4, seed)

    print("\n=== training ===")
    net = bnn.build_network(
        bnn.NetworkConfig(input_dim=ds.p, hidden_sizes=(512, 512)), seed=seed
    )
    trained, history = bnn.train(net, train, bnn.TrainConfig(seed=seed))
    print(f"epochs run: {len(history['train_loss'])}, best epoch: {history['best_epoch']}")
    probs = bnn.predict_proba(trained, test.X)
    acc = np.mean((probs[:, 0] > 0.5).astype(int) == test.y)
    print(f"held-out accuracy: {acc:.3f}")

    print("\n=== importance ===")
    lp = bnn.logit_posterior(trained, test.X)
    effect = esa.covariance_esa(test.X, lp, feature_names=test.feature_names)
    pm = rate.build_precision(effect)
    report = rate.rate_scores(pm, path="fast")
    print(f"{'feature':>8} {'rate':>9} {'kld':>12} {'mi':>8} sign significant")
    for item in report.ranked()[:12]:
        print(
            f"{item.name:>8} {item.rate:9.4f} {item.kld:12.4f} {item.mi:8.4f}"
            f" {item.sign:+d}    {item.significant}"
        )
    print(f"significance threshold: 1/p = {report.threshold:.4f}")
    n_significant = sum(item.significant for item in report.items)
    hits = sum(
        item.significant and ds.causal_mask[i] for i, item in enumerate(report.items)
    )
    print(f"significant features: {n_significant} ({hits} of them truly causal)")

    print("\n=== recovery ===")
    curve = evaluate.roc_auc(report.rates(), ds.causal_mask)
    corr = np.abs(evaluate.marginal_correlation(test.X, test.y.astype(float)))
    corr_curve = evaluate.roc_auc(corr, ds.causal_mask)
    print(f"RATE AUC: {curve.auc:.3f}   marginal-correlation AUC: {corr_curve.auc:.3f}")


if __name__ == "__main__":
    main()
