"""Span tracer that times qwell's layers from outside the package.

Each traced function is replaced, at every name its callers look up, by a
wrapper that records one span (layer name, start, end, parent span, config
id) in flat arrays, so a traced scan with several hundred thousand spans
stays a few megabytes.  Counts (cells, window terms, coefficient slots, ...)
are taken from the arguments and results at the same boundaries.  Nothing
inside `src/` is changed; `uninstall` puts every original back.
"""
from __future__ import annotations

import itertools
import pickle
import statistics
import time
from array import array
from collections import Counter

import numpy as np

# layer -> the (module[:class], attribute) names its callers look up; one
# wrapper per layer is installed at every listed name.
LAYERS = [
    ("cli.main", [("qwell.cli", "main")]),
    ("predictors.conjecture_scan", [("qwell.cli", "conjecture_scan")]),
    ("plateau.detect_plateaux", [("qwell.cli", "detect_plateaux"),
                                 ("qwell.predictors", "detect_plateaux"),
                                 ("qwell.figures", "detect_plateaux")]),
    ("plateau.build_cells", [("qwell.plateau", "build_cells")]),
    ("plateau.window_sums", [("qwell.plateau", "window_sums")]),
    ("cyclotomic.is_zero", [("qwell.cyclotomic:CycInt", "is_zero")]),
    ("cyclotomic.to_complex", [("qwell.cyclotomic:CycInt", "to_complex")]),
    ("cyclotomic.reduced", [("qwell.cyclotomic:CycInt", "reduced")]),
    ("cyclotomic.cyclotomic_poly", [("qwell.cyclotomic", "cyclotomic_poly")]),
    ("figures.density_samples", [("qwell.figures", "density_samples")]),
    ("figures.render_csv", [("qwell.figures", "render_csv")]),
    ("figures.render_svg", [("qwell.figures", "render_svg")]),
    ("wavefield.density_p", [("qwell.figures", "density_p")]),
    ("wavefield.interval_I", [("qwell.wavefield", "interval_I")]),
    ("gauss.coefficient_c", [("qwell.wavefield", "coefficient_c")]),
]


def _resolve(target: str):
    import importlib

    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self, config_per_detect: bool = False):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.config = array("l")
        self.stack: list[int] = []
        self.config_id = -1
        self.config_per_detect = config_per_detect
        self.counts: Counter = Counter()
        self.orders: list[int] = []
        self.scan_records: list = []
        self._patches: list[tuple[object, str, object]] = []
        self._poly = None  # the lru_cache object behind cyclotomic_poly
        self._poly_misses = 0  # banked before each cache clear
        self.poly_cache_infos: list[dict[str, int]] = []  # one per configuration

    def _wrap(self, layer: str, fn, after=None):
        nid = len(self.names)
        self.names.append(layer)
        new_config = self.config_per_detect and layer == "plateau.detect_plateaux"
        stack, start, end = self.stack, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if new_config:
                self.config_id += 1
            idx = len(start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.config.append(self.config_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after_window_sums(self, args, result):
        self.counts["plateau.terms"] += len(args[0].members)
        self.counts["cyclotomic.coeff_slots"] += result[0].order + result[1].order
        self.orders.append(result[0].order)

    def _after_build_cells(self, args, result):
        self.counts["plateau.cells"] += len(result)

    def _after_is_zero(self, args, result):
        self.counts["cyclotomic.is_zero.zeros"] += bool(result)

    def _after_scan(self, args, result):
        self.scan_records.extend(result)

    def result_bytes(self) -> int:
        """Pickled size of the scan records as the pool ships them back: one
        list per (lam, q) task."""
        tasks = itertools.groupby(self.scan_records, key=lambda r: (r.params.lam, r.params.q))
        return sum(len(pickle.dumps(list(chunk))) for _, chunk in tasks)

    def install(self) -> None:
        import qwell.cyclotomic

        self._poly = qwell.cyclotomic.cyclotomic_poly
        self._poly_misses = -self._poly.cache_info().misses
        hooks = {
            "plateau.window_sums": self._after_window_sums,
            "plateau.build_cells": self._after_build_cells,
            "cyclotomic.is_zero": self._after_is_zero,
            "predictors.conjecture_scan": self._after_scan,
        }
        for layer, targets in LAYERS:
            owners = [(_resolve(t), attr) for t, attr in targets]
            original = getattr(*owners[0])
            wrapper = self._wrap(layer, original, hooks.get(layer))
            for owner, attr in owners:
                self._patches.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def bank_poly_misses(self) -> None:
        """Keep cyclotomic_poly's cache statistics across a cache_clear, which
        resets them."""
        self.poly_cache_infos.append(self._poly_info())
        self._poly_misses += self.poly_cache_infos[-1]["misses"]

    def _poly_info(self) -> dict[str, int]:
        info = self._poly.cache_info()
        return {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "config": np.frombuffer(self.config, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per-layer calls and self time plus the boundary counts."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child_time = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        calls = np.bincount(a["name"], minlength=n_names)
        self_by_layer = np.bincount(a["name"], weights=self_time, minlength=n_names)
        out: dict[str, float] = {}
        for nid, layer in enumerate(self.names):
            out[f"{layer}.calls"] = int(calls[nid])
            out[f"{layer}.self_s"] = float(self_by_layer[nid])
        out.update(self.counts)
        zero_tests = out["cyclotomic.is_zero.calls"]
        out["cyclotomic.is_zero.zero_frac"] = (
            self.counts["cyclotomic.is_zero.zeros"] / zero_tests if zero_tests else 0.0
        )
        out["cyclotomic.order_p50"] = statistics.median(self.orders) if self.orders else 0
        out["cyclotomic.cyclotomic_poly.misses"] = self._poly_misses + self._poly.cache_info().misses
        out["predictors.result_bytes"] = self.result_bytes()
        return out

    def poly_cache_info(self) -> list[dict[str, int]]:
        """cyclotomic_poly.cache_info() at the end of every configuration."""
        return self.poly_cache_infos + [self._poly_info()]
