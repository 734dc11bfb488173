"""The benchmark's traced run (``perfbench/measure.py --trace 1``) wraps the
program's layer functions and methods by name and stops on any it cannot
find.  Installing its tracer here turns a renamed or deleted traced name
into a failing test."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import measure  # noqa: E402


def test_benchmark_tracer_finds_every_traced_name():
    tracer = measure.install_tracer(measure.Modules())
    tracer.uninstall()
