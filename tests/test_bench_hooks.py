"""The benchmark's tracer patches qwell functions by name; every name it
lists must still resolve, and its hooks must still read the arguments and
results they count, so a refactor that breaks either fails here rather than
in a traced benchmark run."""
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from qwell.plateau import detect_plateaux
from qwell.wavefield import WellParams

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    """Import bench/tracer.py without writing its bytecode next to it."""
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_name_resolves():
    layers = load_tracer().LAYERS
    assert layers
    for layer, targets in layers:
        for target, attr in targets:
            module, _, cls = target.partition(":")
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            assert callable(getattr(owner, attr, None)), f"{layer}: {target}.{attr} is gone"


def test_tracer_counts_the_window_sums_of_a_detector_run():
    # lam = 5/2, N = 1, tau = 1/3 has a vanishing cell, so window_sums runs
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        report = detect_plateaux(WellParams(Fraction(5, 2), 1, Fraction(1, 3)))
    finally:
        tracer.uninstall()
    assert report.intervals
    summary = tracer.summary()
    assert summary["plateau.window_sums.calls"] >= 1
    assert summary["plateau.terms"] > 0
