"""One workload process: set-up, warm-up, then the timed closed loop.

Started by run.py, which times set-up from process start to the READY line.
With --setup-only the process stops there. Otherwise it runs pipeline
iterations one after another until --seconds have passed. With --trace 1 the
untraced loop gets half the time and the same inputs are then replayed with
spans on; per-layer metrics come from the replay. The last stdout line is a
JSON summary for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import envinfo
from spans import Tracer, self_times, under
from workloads import PIPELINE_SPAN, WORKLOADS, Ops, run_iteration

LAYERS = ("perfbench", "simgen", "bnn", "esa", "rate", "evaluate", "cli")
# Every per-layer metric the traced run reports; a metric whose span or count
# does not occur in a workload reads 0 there.
PER_LAYER = (
    "bnn.train_s", "bnn.train_step_ms", "bnn.train_steps", "bnn.epochs_run",
    "evaluate.shuffle_degradation_s", "evaluate.forward_passes", "evaluate.rows_per_s",
    "rate.build_precision_s", "rate.group_rate_s", "rate.group_ms_per_group",
    "rate.rate_scores_s", "rate.precision_bytes", "rate.rate_scores_naive_s",
    "bnn.logit_posterior_s", "esa.covariance_esa_s",
    "cli.import_s", "cli.simulate_s", "cli.train_s", "cli.importance_s",
    "cli.group_importance_s", "cli.evaluate_s", "cli.bytes_written",
    "simgen.save_dataset_csv_s", "simgen.load_dataset_csv_s",
    "bnn.network_to_json_s", "bnn.network_from_json_s",
    "simgen.csv_bytes", "bnn.model_json_bytes",
    *(f"self.{layer}_s" for layer in LAYERS),
    "trace.pipeline_s", "trace.overhead_ms",
)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict], counts: dict, iterations: list[int],
                  untraced: list[float], traced: list[float]) -> tuple[dict, dict]:
    """Medians over the traced iterations of each layer's times and counts,
    and each layer's share of the traced pipeline time."""
    by_name: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in spans:
        by_name[s["iteration"]][s["name"]] += s["end"] - s["start"]
    own = self_times(spans)
    by_layer: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in under(spans, PIPELINE_SPAN):
        by_layer[s["iteration"]][s["name"].split(".")[0]] += own[s["id"]]

    def per_iteration(fn) -> float:
        return _median([fn(it) for it in iterations])

    def per_unit(it: int, span: str, count: str) -> float:
        """Seconds of ``span`` per unit of ``count`` in iteration ``it``."""
        units = counts.get(it, {}).get(count, 0)
        return by_name[it][span] / units if units else 0.0

    metrics = {name: 0.0 for name in PER_LAYER}
    for name in {n for it in iterations for n in by_name[it]} - {PIPELINE_SPAN}:
        metrics[f"{name}_s"] = per_iteration(lambda it: by_name[it][name])
    for layer in LAYERS:
        metrics[f"self.{layer}_s"] = per_iteration(lambda it: by_layer[it][layer])
    metrics["bnn.train_step_ms"] = per_iteration(
        lambda it: 1000 * per_unit(it, "bnn.train", "bnn.train_steps"))
    metrics["rate.group_ms_per_group"] = per_iteration(
        lambda it: 1000 * per_unit(it, "rate.group_rate", "rate.groups"))
    metrics["evaluate.rows_per_s"] = per_iteration(
        lambda it: 1 / (per_unit(it, "evaluate.shuffle_degradation", "evaluate.rows") or float("inf")))
    first = counts.get(iterations[0], {}) if iterations else {}
    for name in PER_LAYER:
        if isinstance(first.get(name), int):
            metrics[name] = first[name]
    metrics["trace.pipeline_s"] = _median(traced)
    metrics["trace.overhead_ms"] = 1000 * (_median(traced) - _median(untraced))
    total = sum(traced) or 1.0
    shares = {layer: sum(by_layer[it][layer] for it in iterations) / total for layer in LAYERS}
    return metrics, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.work.resolve())
    ops = Ops(Tracer(False))
    wl.warmup(ops)
    print("READY", flush=True)

    result = {"warmup_counts": ops.counts.get(0, {})}
    if not args.setup_only:
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced, keys = [], []
        start = time.perf_counter()
        while not keys or time.perf_counter() - start < budget:
            it = len(keys) + 1
            keys.append(wl.key(it))
            elapsed = run_iteration(wl, ops, it, keys[-1])
            if elapsed is not None:
                untraced.append(elapsed)
        result["pipeline_s"] = untraced

        if args.trace:
            ops.tracer = Tracer(True)
            traced, traced_its = [], []
            for offset, key in enumerate(keys, start=len(keys) + 1):
                elapsed = run_iteration(wl, ops, offset, key)
                if elapsed is not None:
                    traced.append(elapsed)
                    traced_its.append(offset)
            ops.tracer.write(args.spans)
            result["traced_pipeline_s"] = traced
            result["per_layer"], result["self_share"] = layer_metrics(
                ops.tracer.spans, ops.counts, traced_its, untraced, traced)

        result["notes"] = wl.finish(ops)
        who = resource.RUSAGE_CHILDREN if wl.peak_rss_of_children else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
        result["env"] = envinfo.collect()

    result["attempted"] = ops.attempted
    result["failed"] = len(ops.failures)
    result["errors"] = [f"iteration {it} {op}: {msg}"
                        for (it, op), msg in list(ops.failures.items())[:100]]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
