"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The simulation study
(criterion 6) trains ten networks and is shared across criteria through a
session fixture.
"""

import json
import math
import time

import numpy as np
import pytest

from ratekit import bnn, esa, evaluate, rate, simgen
from ratekit.bnn import NetworkConfig, TrainConfig, build_network, elbo_loss, train
from ratekit.cli import dispatch
from ratekit.rate import GroupMap, precision_from_covariance

from test_rate import conditional_kl_oracle, random_model


def _record(number: int, description: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {description}")


# ---------------------------------------------------------------------------
# shared simulation study (criterion 6, reused by 3 and 8)

STUDY_SEEDS = range(10)
STUDY_N, STUDY_P, STUDY_N_TEST = 1000, 100, 400
STUDY_HIDDEN = (512, 512)


def _run_study_seed(seed: int):
    ds = simgen.synth_classification(simgen.SynthSpec(n=STUDY_N, p=STUDY_P, seed=seed))
    order = np.random.default_rng(seed).permutation(ds.n)
    test_idx, train_idx = order[:STUDY_N_TEST], order[STUDY_N_TEST:]
    net = build_network(
        NetworkConfig(input_dim=STUDY_P, hidden_sizes=STUDY_HIDDEN), seed=seed
    )
    trained, _ = train(net, (ds.X[train_idx], ds.y[train_idx]), TrainConfig(seed=seed))
    test = simgen.Dataset(X=ds.X[test_idx], y=ds.y[test_idx])
    lp = bnn.logit_posterior(trained, test.X)
    pm = rate.build_precision(esa.covariance_esa(test.X, lp))
    report = rate.rate_scores(pm, path="fast")
    rate_auc = evaluate.roc_auc(report.rates(), ds.causal_mask).auc
    corr = np.abs(evaluate.marginal_correlation(test.X, test.y.astype(float)))
    corr_auc = evaluate.roc_auc(corr, ds.causal_mask).auc
    return {
        "rate_auc": rate_auc,
        "corr_auc": corr_auc,
        "report": report,
        "net": trained,
        "test": test,
        "mask": ds.causal_mask,
    }


@pytest.fixture(scope="session")
def study():
    return [_run_study_seed(seed) for seed in STUDY_SEEDS]


# ---------------------------------------------------------------------------


def test_criterion_1_closed_form_two_by_two():
    start = time.perf_counter()
    pm = precision_from_covariance([1.0, 0.3], np.array([[1.0, 0.5], [0.5, 1.0]]))
    kld = rate.kld_variable_naive(pm, 0)
    mi = rate.mutual_info(pm, 0)
    elapsed = time.perf_counter() - start
    assert abs(kld - 0.189493) <= 1e-6
    assert abs(mi - 0.143841) <= 1e-6
    assert elapsed < 1.0
    _record(1, f"kld={kld:.6f}, mi={mi:.6f} in {elapsed:.3f}s")


def test_criterion_2_path_equivalence_and_group_oracle():
    start = time.perf_counter()
    cases = [(5, 20), (30, 20), (100, 10)]  # (p, number of models)
    model_index = 0
    worst_pair = 0.0
    worst_group = 0.0
    for p, count in cases:
        for _ in range(count):
            pm = random_model(p, seed=1000 + model_index)
            model_index += 1
            for j in range(p):
                naive = rate.kld_variable_naive(pm, j)
                fast = rate.kld_variable_fast(pm, j)
                rel = abs(fast - naive) / (1 + naive)
                worst_pair = max(worst_pair, rel)
            rng = np.random.default_rng(model_index)
            group = rng.choice(p, size=3, replace=False)
            oracle = conditional_kl_oracle(pm.mu, pm.omega, group)
            got = rate.kld_group(pm, group)
            worst_group = max(worst_group, abs(got - oracle) / (1 + abs(oracle)))
    elapsed = time.perf_counter() - start
    assert model_index == 50
    assert worst_pair <= 1e-8
    assert worst_group <= 1e-8
    assert elapsed < 30.0
    _record(
        2,
        f"50 models: max path gap {worst_pair:.2e}, max group-oracle gap "
        f"{worst_group:.2e} in {elapsed:.1f}s",
    )


def test_criterion_3_normalization_and_threshold(study):
    reports = [entry["report"] for entry in study]
    pm = random_model(9, seed=77)
    reports.append(rate.rate_scores(pm, path="naive"))
    reports.append(
        rate.group_rate(pm, GroupMap.from_indices({"a": [0, 1, 2], "b": [5, 6]}, p=9))
    )
    degenerate = precision_from_covariance(np.zeros(4), np.eye(4))
    reports.append(rate.rate_scores(degenerate))
    for report in reports:
        rates = report.rates()
        assert abs(rates.sum() - 1.0) <= 1e-12
        assert np.all(rates >= 0.0) and np.all(rates <= 1.0)
        for item in report.items:
            assert item.significant == (item.rate > report.threshold)
        assert report.threshold == 1.0 / len(report.items)
    _record(3, f"{len(reports)} reports normalized with exact 1/#items threshold")


def test_criterion_4_independence_zeroing():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((4, 4))
    omega = np.zeros((9, 9))
    omega[:4, :4] = b @ b.T + np.eye(4)
    omega[4:, 4:] = np.diag(rng.uniform(0.5, 3.0, size=5))
    mu = rng.uniform(-50, 50, size=9)
    pm = precision_from_covariance(mu, omega)
    for j in range(4, 9):
        assert abs(rate.kld_variable_naive(pm, j)) <= 1e-10
        assert abs(rate.kld_variable_fast(pm, j)) <= 1e-10
    for group in ([4, 5], [6, 7, 8], [5]):
        assert abs(rate.kld_group(pm, group)) <= 1e-10
    _record(4, "uncorrelated variables and groups score exactly zero under any mean")


def test_criterion_5_affine_invariance():
    base = random_model(10, seed=5)
    base_kld = np.array([rate.kld_variable_fast(base, j) for j in range(10)])
    base_rates = rate.rate_scores(base).rates()
    base_mi = np.array([rate.mutual_info(base, j) for j in range(10)])
    for a in (0.1, 3.0, -2.0):
        scaled = precision_from_covariance(a * base.mu, a * a * base.omega)
        kld = np.array([rate.kld_variable_fast(scaled, j) for j in range(10)])
        rates = rate.rate_scores(scaled).rates()
        mi = np.array([rate.mutual_info(scaled, j) for j in range(10)])
        assert np.all(np.abs(kld - base_kld) <= 1e-10 * (1 + np.abs(base_kld)))
        assert np.all(np.abs(rates - base_rates) <= 1e-10 * (1 + base_rates))
        assert np.all(np.abs(mi - base_mi) <= 1e-10 * (1 + np.abs(base_mi)))
    _record(5, "scores invariant under (mu, Omega) -> (a mu, a^2 Omega)")


def test_criterion_6_simulation_study(study):
    rate_aucs = np.array([entry["rate_auc"] for entry in study])
    corr_aucs = np.array([entry["corr_auc"] for entry in study])
    wins = int((rate_aucs >= corr_aucs).sum())
    assert rate_aucs.mean() >= 0.90
    assert wins >= 8

    # scaled property in place of the full n=1e5 cells
    rng = np.random.default_rng(6)
    g = rng.standard_normal((1000, 1000)) / math.sqrt(1000)
    pm = precision_from_covariance(rng.standard_normal(1000), g @ g.T + 0.5 * np.eye(1000))
    start = time.perf_counter()
    report = rate.rate_scores(pm, path="fast")
    elapsed = time.perf_counter() - start
    assert len(report.items) == 1000
    assert elapsed < 120.0
    _record(
        6,
        f"mean RATE AUC {rate_aucs.mean():.3f} (>=0.90), beats correlation on "
        f"{wins}/10 seeds, p=1000 scores in {elapsed:.2f}s",
    )


def test_criterion_7_collinearity_demo(tmp_path):
    start = time.perf_counter()
    out_collinear = tmp_path / "rho999"
    assert dispatch(
        [
            "demo-collinearity", "--rho", "0.999", "--n", "5000", "--reps", "100",
            "--seed", "0", "--out", str(out_collinear),
        ]
    ) == 0
    stats = {}
    rows = (out_collinear / "collinearity_summary.csv").read_text().splitlines()[1:]
    for line in rows:
        est, coef, mean, std = line.split(",")
        stats[(est, coef)] = (float(mean), float(std))
    for coef in ("f1", "f2"):
        cov_std = stats[("covariance", coef)][1]
        ols_std = stats[("ols", coef)][1]
        assert cov_std < 0.1
        assert cov_std < ols_std / 10.0

    out_uncorr = tmp_path / "rho0"
    assert dispatch(
        [
            "demo-collinearity", "--rho", "0", "--n", "5000", "--reps", "100",
            "--seed", "0", "--out", str(out_uncorr),
        ]
    ) == 0
    rows = (out_uncorr / "collinearity_summary.csv").read_text().splitlines()[1:]
    means = {}
    for line in rows:
        est, coef, mean, std = line.split(",")
        means[(est, coef)] = float(mean)
    for est in ("covariance", "ols"):
        assert abs(means[(est, "f1")] - 2.0) <= 0.1
        assert abs(means[(est, "f2")] + 2.0) <= 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _record(
        7,
        f"rho=0.999 covariance stds {stats[('covariance','f1')][1]:.4f}/"
        f"{stats[('covariance','f2')][1]:.4f} vs OLS "
        f"{stats[('ols','f1')][1]:.3f}/{stats[('ols','f2')][1]:.3f} in {elapsed:.1f}s",
    )


def test_criterion_8_shuffle_degradation_gap(study):
    entry = study[0]
    rate_ranking = np.argsort(-entry["report"].rates(), kind="stable")
    random_ranking = np.random.default_rng(123).permutation(STUDY_P)
    by_rate = evaluate.shuffle_degradation(
        entry["net"], entry["test"], rate_ranking, fractions=[0.1], repeats=10, seed=8
    )
    by_random = evaluate.shuffle_degradation(
        entry["net"], entry["test"], random_ranking, fractions=[0.1], repeats=10, seed=8
    )
    gap = by_random.mean_accuracy[0] - by_rate.mean_accuracy[0]
    pooled = math.sqrt(0.5 * (by_rate.std_accuracy[0] ** 2 + by_random.std_accuracy[0] ** 2))
    assert by_rate.mean_accuracy[0] < by_random.mean_accuracy[0]
    assert gap > pooled
    _record(
        8,
        f"top-10% shuffle: rate-ranked acc {by_rate.mean_accuracy[0]:.3f} vs random "
        f"{by_random.mean_accuracy[0]:.3f} (gap {gap:.3f} > pooled std {pooled:.4f})",
    )


def test_criterion_9_training_soundness():
    # gradient agreement on a 25-parameter network
    rng = np.random.default_rng(7)
    net = build_network(NetworkConfig(input_dim=3, hidden_sizes=(4,)), seed=11)
    net.rho[:] = rng.uniform(-3.0, -1.0, size=net.rho.shape)
    net.m[:] = rng.standard_normal(net.m.shape) * 0.5
    x = rng.standard_normal((8, 3)) + 0.5
    y = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    n_params = sum(p.size for p in net.parameters())
    assert n_params <= 100
    _, grads = bnn._elbo(net, x, y, 8, seed=321)
    worst = 0.0
    eps = 1e-5
    for p_arr, g_arr in zip(net.parameters(), grads):
        it = np.nditer(p_arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p_arr[idx]
            p_arr[idx] = orig + eps
            up = elbo_loss(net, x, y, 8, seed=321)
            p_arr[idx] = orig - eps
            down = elbo_loss(net, x, y, 8, seed=321)
            p_arr[idx] = orig
            fd = (up - down) / (2 * eps)
            worst = max(worst, abs(fd - g_arr[idx]) / max(abs(fd), abs(g_arr[idx]), 1e-6))
    assert worst < 1e-4

    # separable blobs reach > 0.95 train accuracy with the default protocol
    rng = np.random.default_rng(9)
    half = 250
    x_blobs = np.vstack(
        [rng.standard_normal((half, 2)) + 2.0, rng.standard_normal((half, 2)) - 2.0]
    )
    y_blobs = np.r_[np.zeros(half, dtype=int), np.ones(half, dtype=int)]
    net2 = build_network(NetworkConfig(input_dim=2, hidden_sizes=(16,)), seed=0)
    config = TrainConfig(seed=0)
    assert config.epochs == 20 and config.learning_rate == 1e-3
    trained, _ = train(net2, (x_blobs, y_blobs), config)
    acc = np.mean(
        (bnn.predict_proba(trained, x_blobs)[:, 0] > 0.5).astype(int) == y_blobs
    )
    assert acc > 0.95
    _record(
        9,
        f"worst gradient rel. error {worst:.2e} on {n_params}-parameter net; "
        f"blob train accuracy {acc:.3f}",
    )


def test_criterion_10_pvalue_ordering():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, p = 150, 12
        x = rng.standard_normal((n, p))
        x = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        y = x @ (0.4 * rng.standard_normal(p)) + rng.standard_normal(n)
        lp = bnn.LogitPosterior(
            mean=y[:, None],
            hidden=np.zeros((n, 1)),
            variances=np.zeros((1, 1)),
        )
        effect = esa.covariance_esa(x, lp)
        _, pvals = evaluate.ttest_stats(x, y)
        by_mu = np.argsort(-np.abs(effect.mu[0]), kind="stable")
        by_p = np.argsort(pvals, kind="stable")
        ranks_mu = np.argsort(by_mu)
        ranks_p = np.argsort(by_p)
        spearman = np.corrcoef(ranks_mu, ranks_p)[0, 1]
        assert np.array_equal(by_mu, by_p)
        assert spearman == pytest.approx(1.0, abs=1e-15)
    _record(10, "|effect| ranking equals ascending p-value ranking on 10/10 seeds")


def _run_twice_and_compare(tmp_path, name, argv_builder):
    outs = []
    for tag in ("first", "second"):
        out = tmp_path / name / tag
        assert dispatch(argv_builder(out)) == 0, f"{name} run failed"
        outs.append(out)
    first, second = outs
    files = sorted(p.name for p in first.iterdir())
    assert files, f"{name} produced no artifacts"
    for fname in files:
        assert (first / fname).read_bytes() == (second / fname).read_bytes(), (
            f"{name}: {fname} differs between reruns"
        )
    return first, files


def test_criterion_11_cli_byte_determinism(tmp_path):
    sim_dir, _ = _run_twice_and_compare(
        tmp_path,
        "simulate",
        lambda out: [
            "simulate", "--n", "80", "--p", "8", "--frac-causal", "0.25",
            "--test-fraction", "0.25", "--seed", "3", "--out", str(out),
        ],
    )
    train_dir, _ = _run_twice_and_compare(
        tmp_path,
        "train",
        lambda out: [
            "train", "--data", str(sim_dir / "train.csv"), "--hidden", "8",
            "--epochs", "3", "--seed", "3", "--out", str(out),
        ],
    )
    imp_dir, _ = _run_twice_and_compare(
        tmp_path,
        "importance",
        lambda out: [
            "importance", "--data", str(sim_dir / "test.csv"),
            "--model", str(train_dir / "model.json"), "--out", str(out),
        ],
    )
    groups = tmp_path / "groups.csv"
    groups.write_text("g1,f1\ng1,f2\ng2,f3\ng2,f4\n")
    _run_twice_and_compare(
        tmp_path,
        "group-importance",
        lambda out: [
            "group-importance", "--data", str(sim_dir / "test.csv"),
            "--model", str(train_dir / "model.json"),
            "--groups", str(groups), "--out", str(out),
        ],
    )
    _run_twice_and_compare(
        tmp_path,
        "evaluate",
        lambda out: [
            "evaluate", "--report", str(imp_dir / "report.json"),
            "--mask", str(sim_dir / "test.mask.json"),
            "--degradation", "--model", str(train_dir / "model.json"),
            "--data", str(sim_dir / "test.csv"), "--fractions", "0,0.5",
            "--repeats", "3", "--seed", "4", "--out", str(out),
        ],
    )
    _run_twice_and_compare(
        tmp_path,
        "demo-collinearity",
        lambda out: [
            "demo-collinearity", "--rho", "0.9", "--n", "400", "--reps", "5",
            "--seed", "5", "--out", str(out),
        ],
    )
    _record(11, "all six subcommands byte-identical across reruns")
