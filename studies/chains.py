"""The byte-identity chains: run the CLI's three chains and write a sorted
SHA-256 manifest of every file they write.

Each subcommand runs in a fresh interpreter with ``OPENBLAS_NUM_THREADS=1``,
from one working directory and with relative paths, so that the files (the
``effective_config.json`` that echoes the paths among them) depend only on
the code. The chains:

- ``sigmoid``: the paper-scale chain, ``simulate --n 1000 --p 100
  --test-fraction 0.4`` -> ``train --hidden 512,512`` -> ``importance`` ->
  ``group-importance`` (ten groups of ten) -> ``evaluate --mask
  --degradation``;
- ``softmax``: a 2-class softmax ``train --hidden 64,32`` on the same
  training rows -> ``importance --class-index 1`` -> ``evaluate --mask
  --degradation``;
- ``identity``: an identity-link ``train --hidden 32`` on the same rows.

Two commits whose manifests are equal wrote the same bytes. Bytes differ
across BLAS builds and thread counts, so a manifest is compared only with
one made on the same machine. Run it from the repository root as

    python studies/chains.py --out studies/results/chains.json

``--src`` names the ``src`` directory of the code to run (by default this
checkout's), so one command per side compares two commits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "7"
TRAIN = ("--data", "sim/train.csv")
TEST = ("--data", "sim/test.csv")
MASK = ("--mask", "sim/test.mask.json")

#: Each chain's subcommands, in order, as (output directory, arguments).
CHAINS = {
    "sigmoid": [
        ("sim", ["simulate", "--n", "1000", "--p", "100", "--test-fraction", "0.4",
                 "--seed", SEED]),
        ("model", ["train", *TRAIN, "--hidden", "512,512", "--seed", SEED]),
        ("imp", ["importance", *TEST, "--model", "model/model.json"]),
        ("groups", ["group-importance", *TEST, "--model", "model/model.json",
                    "--groups", "groups.csv"]),
        ("eval", ["evaluate", "--report", "imp/report.json", *MASK, "--degradation",
                  "--model", "model/model.json", *TEST]),
    ],
    "softmax": [
        ("softmax/model", ["train", *TRAIN, "--link", "softmax", "--classes", "2",
                           "--hidden", "64,32", "--seed", "3"]),
        ("softmax/imp", ["importance", *TEST, "--model", "softmax/model/model.json",
                         "--class-index", "1"]),
        ("softmax/eval", ["evaluate", "--report", "softmax/imp/report.json", *MASK,
                          "--degradation", "--model", "softmax/model/model.json", *TEST]),
    ],
    "identity": [
        ("identity/model", ["train", *TRAIN, "--link", "identity", "--hidden", "32",
                            "--seed", "5"]),
    ],
}


def run_chains(work: Path, src: Path) -> dict[str, str]:
    """Run every chain in ``work`` with the ratekit in ``src``; returns the
    SHA-256 of each file under ``work``, by its relative path, sorted."""
    (work / "groups.csv").write_text("".join(f"g{j // 10 + 1},f{j + 1}\n" for j in range(100)),
                                     encoding="utf-8")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(src)}
    for chain in CHAINS.values():
        for out, args in chain:
            done = subprocess.run([sys.executable, "-m", "ratekit.cli", *args, "--out", out],
                                  cwd=work, env=env, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return {p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the manifest's JSON path")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="the src directory of the ratekit to run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        manifest = run_chains(Path(tmp), Path(args.src).resolve())
    doc = {
        "chains": {name: [[*args, "--out", out] for out, args in chain]
                   for name, chain in CHAINS.items()},
        "environment": {"OPENBLAS_NUM_THREADS": "1"},
        "sha256": manifest,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(manifest)} files; manifest written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
