"""Behavioral check of a feature ranking: shuffle top-ranked columns and
watch test accuracy fall.

If the ranking really identifies the features the network relies on,
de-correlating those columns from the labels should hurt accuracy much
faster than shuffling random columns. Writes the two curves to CSV and a
small SVG next to this script.
"""

from pathlib import Path

import numpy as np

from ratekit import bnn, esa, evaluate, rate, simgen, svg
from ratekit.core import write_text


def main(seed: int = 0) -> None:
    ds = simgen.synth_classification(simgen.SynthSpec(n=1000, p=50, seed=seed))
    train, test = simgen.train_test_split(ds, 0.3, seed)

    net = bnn.build_network(
        bnn.NetworkConfig(input_dim=ds.p, hidden_sizes=(128, 128)), seed=seed
    )
    trained, _ = bnn.train(net, train, bnn.TrainConfig(seed=seed))

    lp = bnn.logit_posterior(trained, test.X)
    pm = rate.build_precision(esa.covariance_esa(test.X, lp))
    report = rate.rate_scores(pm)
    ranking = evaluate.rank_features("rate", report.rates())
    random_ranking = evaluate.rank_features("random", report.rates(), seed + 1)

    fractions = np.round(np.arange(0.0, 0.51, 0.05), 2)
    by_rate = evaluate.shuffle_degradation(
        trained, test, ranking, fractions=fractions, repeats=10, seed=seed
    )
    by_random = evaluate.shuffle_degradation(
        trained, test, random_ranking, fractions=fractions, repeats=10, seed=seed
    )

    print(f"{'fraction':>9} {'rate-ranked':>12} {'random':>8}")
    for frac, a, b in zip(fractions, by_rate.mean_accuracy, by_random.mean_accuracy):
        print(f"{frac:9.2f} {a:12.3f} {b:8.3f}")

    out_dir = Path(__file__).resolve().parent / "output"
    out_dir.mkdir(exist_ok=True)
    evaluate.degradation_curve_to_csv(by_rate, out_dir / "degradation_rate.csv")
    evaluate.degradation_curve_to_csv(by_random, out_dir / "degradation_random.csv")
    write_text(out_dir / "degradation.svg", svg.curves(
        [
            ("rate-ranked", fractions, by_rate.mean_accuracy),
            ("random", fractions, by_random.mean_accuracy),
        ],
        "fraction of features shuffled",
        "test accuracy",
    ))
    print(f"\nwrote curves to {out_dir}")


if __name__ == "__main__":
    main()
