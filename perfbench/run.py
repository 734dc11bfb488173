"""Benchmark of multigram's training, evaluation and explanation throughput.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ref-leftforest --seed 1 --seconds 20 --trace 0

Writes the workload's inputs from the seed, starts ``measure.py`` on them in
a fresh process, waits for it and passes on its exit code.  The last line of
standard output is the run's JSON result.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from inputs import write_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; the measured process gets what is left after
# writing the inputs.
TIMEOUT_S = 170
# One BLAS thread.  On a 2-vCPU machine with noisy neighbours, a fixed numpy
# loop drifted by up to 15-20 % between 5 s windows with two BLAS threads and
# by about 5 % with one, so two threads made run-to-run spreads exceed any
# useful bound.  The program's own loops are single-threaded Python.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "multigram" / "__init__.py").is_file():
        print(f"no multigram sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-seed{args.seed}"
    inputs_dir = out / "inputs"
    try:
        inputs = write_inputs(WORKLOADS[args.workload].lengths, args.seed, inputs_dir)
        (inputs_dir / "plants.json").write_text(json.dumps(inputs.plants))
        command = [
            sys.executable, str(HERE / "measure.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--inputs", str(inputs_dir), "--spawned-at", repr(time.monotonic()),
        ]
        timeout = TIMEOUT_S - (time.monotonic() - started)
        return subprocess.run(command, timeout=timeout, env={**os.environ, **BLAS_ENV}).returncode
    except subprocess.TimeoutExpired:
        print("the measured process did not finish in time", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
