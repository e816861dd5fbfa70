"""Run one ratekit benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; the package is imported from ``src/``,
nothing needs installing. Workloads and metrics are declared in
BENCHMARK.json and described in perfbench/README.md.

Set-up is sampled in several fresh worker processes, each timed from its
start until it has built its inputs and warmed up; the last one also runs the
timed loop. The last stdout line is the JSON result; a fuller record (samples,
environment, failures) goes to perfbench/_out/, and with --trace 1 the spans
go there as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
# Every run must end within 180 s; workers still running after this are killed.
DEADLINE_S = 170


class WorkerFailed(RuntimeError):
    pass


def run_worker(args: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Start a worker; return its set-up time (start to READY) and its summary."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or proc.returncode != 0 or not rest.strip():
        raise WorkerFailed(f"worker {' '.join(args[:2])} exited with code {proc.returncode}")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    if len(samples) < 20:
        return None
    q = math.floor(100 * (1 - 10 / len(samples)))
    return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def cpu_counters() -> list[int] | None:
    """The machine-wide CPU time counters of /proc/stat (user ... steal ...)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: list[int] | None, after: list[int] | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between; a
    high value means other machines' load slowed the run."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def source_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ratekit" / "__init__.py").is_file():
        print(f"perfbench: {ROOT / 'src' / 'ratekit'} not found; run from a ratekit checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    inherited_threads = env.pop("RATEKIT_THREADS", None)  # ratekit's own pools stay at 1
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    tag = f"{args.workload}-seed{args.seed}"
    work = HERE / "_work" / tag
    shutil.rmtree(work, ignore_errors=True)
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{tag}-spans.json"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--work", str(work), "--spans", str(spans_path)]

    deadline = time.monotonic() + DEADLINE_S
    counters = cpu_counters()
    setups, summaries = [], []
    try:
        for k in range(SETUP_SAMPLES):
            last = k == SETUP_SAMPLES - 1
            setup_s, summary = run_worker(common + ([] if last else ["--setup-only"]), env, deadline)
            setups.append(setup_s)
            summaries.append(summary)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = summaries[-1]
    steal = steal_share(counters, cpu_counters())

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    errors = [e for s in summaries for e in s["errors"]]
    reference = measured["warmup_counts"]
    for k, summary in enumerate(summaries[:-1], start=1):
        differ = sorted(n for n in set(reference) | set(summary["warmup_counts"])
                        if reference.get(n) != summary["warmup_counts"].get(n))
        if differ:
            failed += 1
            errors.append(f"set-up process {k}: warm-up counts differ from the timed process: "
                          f"{', '.join(differ[:5])}")
    failed = min(failed, attempted)

    samples = measured["pipeline_s"]
    if not samples:
        print("perfbench: no pipeline iteration completed", *errors[:10], sep="\n  ", file=sys.stderr)
        return 1
    end_to_end = {
        "pipeline_s": statistics.median(samples),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        "failed_frac": failed / attempted,
    }
    per_layer = measured.get("per_layer", {})
    declared, values = (spec["per_layer"], per_layer) if args.trace else (spec["end_to_end"], end_to_end)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: declared metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    tail = tail_percentile(samples)
    env_record = {**measured["env"], "RATEKIT_THREADS_inherited": inherited_threads,
                  "cpu_steal_share": steal, "seed": args.seed, **source_record()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_record,
        "setup_s_samples": setups, "pipeline_s_samples": samples,
        "pipeline_tail": None if tail is None else {"percentile": tail[0], "value_s": tail[1]},
        "traced_pipeline_s_samples": measured.get("traced_pipeline_s"),
        "self_share": measured.get("self_share"),
        "notes": measured["notes"],
        "end_to_end": end_to_end, "per_layer": per_layer,
        "attempted": attempted, "failed": failed, "errors": errors,
    }
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(samples)} timed iterations, {SETUP_SAMPLES} set-ups")
    e = env_record
    print(f"  env: python {e['python']}, numpy {e['numpy']}, scipy {e['scipy']}, "
          f"{e['blas_vendor']} with {e['blas_threads']} threads, nproc {e['nproc']}, "
          f"RATEKIT_THREADS {e['RATEKIT_THREADS'] or 'unset'}, commit {e['git_commit']}, "
          f"CPU steal {'n/a' if steal is None else f'{100 * steal:.1f}%'}")
    print(f"  pipeline_s {end_to_end['pipeline_s']:.4f} s (median of {len(samples)}), "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else "no tail percentile below 20 samples"))
    print(f"  failed_frac {end_to_end['failed_frac']:.4g} ({failed} of {attempted} operations)")
    for name, value in measured["notes"].items():
        print(f"  {name} {value:.6g}")
    for line in errors[:10]:
        print(f"  failure: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        shares = ", ".join(f"{layer} {100 * share:.1f}%"
                           for layer, share in measured["self_share"].items())
        print(f"  self time share of traced pipeline_s: {shares}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
