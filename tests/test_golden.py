"""Golden artifacts: a small end-to-end chain through `cli.main`, with the
sha256 of every file it writes pinned in tests/data/golden-sha256.json.

Floating-point bytes depend on numpy and on the BLAS build and thread count, so
the pin file records the environment it was made in, and a failure names the
files that moved next to that environment and this one. A change that moves
summation order on purpose rewrites the pins and says so in CHANGES.md:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from bprlab import cli

PINS = Path(__file__).parent / "data" / "golden-sha256.json"

_NET = ["--hidden", "8", "8", "--batch-size", "16", "--gradient-steps", "20"]
_POINTMASS = ["train", "--task", "pointmass", "--dataset", "pm.jsonl", *_NET,
              "--eval-every", "10", "--probe-ed", "10", "--threshold", "-180"]
_GRIDWORLD = ["train", "--task", "gridworld", "--dataset", "grid.jsonl",
              "--gradient-steps", "150", "--batch-size", "32", "--eval-every", "50",
              "--probe-bounds"]
_TRAIN_LABELS = ("td3bc-raw", "td3bc-frozen", "td3bc-cotrain", "cql-raw", "cql-frozen", "bc")

CHAIN = [
    ["gen-data", "--task", "pointmass", "--behavior", "mixture:expert:0.5,medium:0.5",
     "--n", "200", "--name", "pm.jsonl"],
    ["gen-data", "--task", "gridworld", "--behavior", "eps_greedy:0.3", "--n", "300",
     "--name", "grid.jsonl"],
    ["pretrain", "--dataset", "pm.jsonl", "--steps", "20", "--batch-size", "32",
     "--hidden", "16", "--repr-dim", "4", "--name", "enc"],
    [*_POINTMASS, "--algo", "td3bc", "--label", "td3bc-raw"],
    [*_POINTMASS, "--algo", "td3bc", "--encoder", "enc.ckpt", "--label", "td3bc-frozen"],
    [*_POINTMASS, "--algo", "td3bc", "--encoder", "enc.ckpt", "--co-train",
     "--label", "td3bc-cotrain"],
    [*_POINTMASS, "--algo", "cql", "--label", "cql-raw"],
    [*_POINTMASS, "--algo", "cql", "--encoder", "enc.ckpt", "--label", "cql-frozen"],
    ["train", "--task", "pointmass", "--dataset", "pm.jsonl", "--algo", "bc", *_NET,
     "--eval-every", "10", "--threshold", "-180", "--label", "bc"],
    [*_GRIDWORLD, "--algo", "spibb", "--label", "spibb"],
    [*_GRIDWORLD, "--algo", "cql", "--label", "grid-cql"],
    ["audit", "--json"],
    ["report", *(f"{label}-summary.json" for label in _TRAIN_LABELS)],
]


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def run_chain(out: Path) -> dict:
    """Run CHAIN in out; return {file name: sha256} of everything it wrote."""
    cwd = os.getcwd()
    os.chdir(out)
    try:
        for argv in CHAIN:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*argv, "--out", "."])
            assert code == cli.EXIT_OK, (argv, code)
    finally:
        os.chdir(cwd)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def test_chain_artifacts_match_the_pinned_sha256(tmp_path):
    pinned = json.loads(PINS.read_text())
    got = run_chain(tmp_path)
    want = pinned["files"]
    moved = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (moved or missing or extra), (
        f"moved: {moved}; missing: {missing}; new: {extra}; pins made on "
        f"{pinned['environment']}, this run on {environment()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = run_chain(Path(tmp))
    PINS.write_text(json.dumps({"environment": environment(), "files": files},
                               indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(files)} pins to {PINS}", file=sys.stderr)
