"""The benchmark's tracer patches qwell functions by name; every name it
lists must still resolve, so a refactor that removes one fails here rather
than in a traced benchmark run."""
import importlib
import importlib.util
import sys
from pathlib import Path

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
