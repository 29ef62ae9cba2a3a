"""Every lru cache in qwell, with the size its traffic was measured to need.

A run only works on one cell layout (one (lam, q)) and one float root table
(one q) at a time, so those caches keep one entry; a new cache, or a new
size, is a decision to review against measured hits and misses.
"""
import importlib
import pkgutil
from fractions import Fraction

import qwell
from qwell.cyclotomic import unit_roots
from qwell.gauss import gauss_sum_direct
from qwell.plateau import build_cells, detect_plateaux
from qwell.wavefield import WellParams

CACHE_SIZES = {
    "qwell.plateau.build_cells": 1,
    "qwell.cyclotomic.unit_roots": 1,
    "qwell.cyclotomic.image_root": 1024,
    "qwell.cyclotomic._split": 1024,
    "qwell.cyclotomic.cyclotomic_poly": None,
}


def test_every_lru_cache_in_qwell_has_its_reviewed_size():
    found = {}
    for info in pkgutil.iter_modules(qwell.__path__, "qwell."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)) and value.__module__ == info.name:
                found[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert found == CACHE_SIZES


def test_a_sweep_of_configurations_keeps_one_cell_layout():
    for lam, tau in [(Fraction(5, 2), Fraction(1, 3)), (Fraction(3, 2), Fraction(1, 6)),
                     (Fraction(9, 4), Fraction(3, 20)), (Fraction(5, 4), Fraction(11, 6))]:
        detect_plateaux(WellParams(lam, 1, tau))
    assert build_cells.cache_info().currsize == 1


def test_a_sweep_of_gauss_sums_keeps_one_root_table():
    for q in (7, 12, 101):
        gauss_sum_direct(1, 2, q)
    assert unit_roots.cache_info().currsize == 1
