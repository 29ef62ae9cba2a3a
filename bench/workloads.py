"""The three benchmark workloads and the inputs each makes from a seed.

scan      the CLI `scan` path over the default grid restricted to lam <= 5/4:
          1890 configurations, still every v <= 8, q <= 20 and N <= 3, so the
          cyclotomic orders reach the default grid's maximum, 1064 (median
          160).  Many small dense sums, heavy reuse of the cell cache, and the
          only workload with a process pool.  The grid is exhaustive by
          design: the seed is recorded but does not change it.
large-q   single configurations through `qwell plateaux`, q from 150 to 960
          (order M from 600 to 4200), both parities of q and a mix of odd and
          non-odd 2 N lam.  Few terms per sum over a huge order, a cold cell
          cache and no pool: the second scaling axis.
density   configurations rendered as `qwell figures` renders a panel: 4000
          density samples, the detector for the overlay, CSV and SVG.  Includes
          the fragmentation regime and q up to 40.  Density sampling, Gauss
          coefficients and rendering do almost all of the work here.

Each large-q and density slot fixes (lam, N, q), so the cost of a pass is the
same for every seed; the seed picks the numerator a of tau = a/q and the order
in which each pass runs the slots.  A pass runs in one fresh interpreter whose
caches are cleared between configurations, so each one starts cold.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

SCAN_GRID = {"lambda_den": 8, "lambda_max": "5/4", "q_max": 20, "n_max": 3}
TINY_SCAN_GRID = {"lambda_den": 4, "lambda_max": "3/2", "q_max": 8, "n_max": 2}

# (lam, N, q), every q distinct so that no two slots share a cyclotomic
# order; roughly sorted by cost, from 0.04 s to 0.8 s per detector run
LARGE_Q_SLOTS = [
    ("3/2", 1, 152), ("5/2", 2, 164), ("5/2", 1, 150), ("5/2", 1, 151),
    ("3/2", 3, 184), ("7/6", 3, 158), ("7/2", 1, 156), ("3/2", 1, 180),
    ("5/2", 2, 248), ("4/3", 3, 162), ("4/3", 3, 296), ("3/2", 3, 224),
    ("4/3", 3, 196), ("5/2", 1, 216), ("9/4", 1, 200), ("3/2", 3, 154),
    ("9/4", 1, 252), ("7/6", 3, 232), ("7/2", 1, 288), ("11/4", 1, 168),
    ("5/2", 2, 304), ("9/4", 1, 211), ("5/2", 2, 263), ("5/4", 2, 155),
    ("3/2", 1, 220), ("9/4", 1, 257), ("5/4", 2, 225), ("7/2", 1, 230),
    ("9/8", 1, 208), ("5/2", 1, 270), ("5/4", 2, 185), ("5/2", 1, 336),
    ("7/6", 3, 368), ("11/4", 1, 331), ("7/3", 1, 175), ("5/2", 2, 198),
    ("11/4", 1, 204), ("3/2", 1, 272), ("5/2", 2, 960), ("7/2", 1, 190),
]
TINY_LARGE_Q_SLOTS = [("5/2", 1, 61), ("4/3", 3, 64), ("7/3", 1, 50), ("5/4", 2, 73)]

# (lam, N, q): fragmentation (lam above q, or q/2 for even q), then odd
# 2 N lam (a unique plateau), then the rest (no plateau)
DENSITY_SLOTS = [
    ("107/10", 1, 7), ("107/10", 2, 12), ("107/10", 1, 10), ("21/2", 1, 9),
    ("23/2", 2, 20), ("17/3", 1, 5), ("9/2", 1, 8), ("107/10", 3, 16),
    ("25/2", 1, 11), ("31/2", 2, 28),
    ("5/2", 1, 3), ("5/2", 3, 18), ("5/4", 2, 6), ("3/2", 1, 3),
    ("3/2", 3, 6), ("3/2", 3, 14), ("5/2", 1, 21), ("7/2", 1, 40),
    ("9/2", 1, 37), ("7/2", 1, 30), ("13/2", 1, 11), ("7/2", 3, 23),
    ("9/2", 1, 26), ("15/2", 1, 35), ("7/2", 3, 19),
    ("9/4", 1, 33), ("7/3", 2, 25), ("11/3", 1, 40), ("16/5", 1, 31),
    ("11/3", 2, 29), ("10/3", 3, 38), ("5/2", 2, 14), ("7/3", 1, 17),
    ("11/4", 1, 22), ("8/3", 1, 19), ("13/4", 1, 27), ("9/5", 1, 24),
    ("17/4", 1, 36), ("10/3", 3, 32), ("3", 1, 39),
]
TINY_DENSITY_SLOTS = [("107/10", 1, 7), ("5/2", 1, 3), ("9/4", 1, 13)]

DENSITY_SAMPLES = 4000
TINY_DENSITY_SAMPLES = 400


def _numerator(rng: random.Random, q: int) -> int:
    while True:
        a = rng.randrange(1, q)
        if math.gcd(a, q) == 1:
            return a


def configs(workload: str, seed: int, tiny: bool) -> list[dict]:
    """The configurations of a run, in slot order; the same arguments give
    the same list."""
    if workload == "large-q":
        slots = TINY_LARGE_Q_SLOTS if tiny else LARGE_Q_SLOTS
    else:
        slots = TINY_DENSITY_SLOTS if tiny else DENSITY_SLOTS
    rng = random.Random(f"{workload}:{seed}")
    return [
        {"slot": i, "lambda": lam, "n_state": n_state,
         "tau": str(Fraction(_numerator(rng, q), q))}
        for i, (lam, n_state, q) in enumerate(slots)
    ]


def pass_order(configs: list, seed: int, pass_index: int) -> list:
    """The order in which one pass runs the configurations."""
    return random.Random(f"order:{seed}:{pass_index}").sample(configs, len(configs))


def trace_configs(workload: str, seed: int, tiny: bool) -> list[dict]:
    """A fixed quarter of the slots, so a traced run costs the same for every
    seed and its counts repeat exactly for a given seed."""
    if workload == "scan":
        return []
    return configs(workload, seed, tiny)[::1 if tiny else 4]
