"""Correctness checks on the files the program wrote.

Each check returns None when the output is right and a one-line reason when
it is not.  The oracles are independent of the code path under test:

- the existence rule "a plateau iff 2 N lam is odd" is recomputed here;
- intervals come from the closed forms `nonfrag_prediction` and
  `fragmentation_layout`, never from the detector;
- levels and densities are compared with 2 lam |psi_fractional|^2, the
  q-translate formula through direct Gauss sums, both at sampled points with
  qwell's own `psi_fractional` and at every CSV row with the numpy
  re-implementation below;
- byte digests pin the scan JSON of the fixed grids and the CSV/SVG of the
  default seed.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np

from qwell.predictors import fragmentation_layout, has_fragmentation, nonfrag_prediction
from qwell.wavefield import WellParams, psi_fractional

REL_TOL = 1e-10  # CSV values carry 12 significant digits; the oracles agree to ~1e-12
ORACLE_SAMPLES = 8


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def doubled_drift_odd(lam: Fraction, n_state: int) -> bool:
    x = 2 * n_state * lam
    return x.denominator == 1 and x.numerator % 2 == 1


def _params(config: dict) -> WellParams:
    return WellParams(Fraction(config["lambda"]), config["n_state"], Fraction(config["tau"]))


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref))


def _oracle_density(x: float, params: WellParams) -> float:
    return 2.0 * float(params.lam) * abs(psi_fractional(x, params)) ** 2


def expected_intervals(params: WellParams) -> list[tuple[Fraction, Fraction]]:
    if has_fragmentation(params):
        return list(fragmentation_layout(params).intervals)
    if doubled_drift_odd(params.lam, params.n_state):
        pred = nonfrag_prediction(params)
        return [(pred.lo, pred.hi)]
    return []


def check_scan(data: bytes, expected: dict) -> tuple[int, str | None]:
    """(failed records, reason); a digest mismatch fails every record."""
    try:
        payload = json.loads(data)
        records = payload["records"]
    except (ValueError, KeyError) as exc:
        return expected["total"], f"scan JSON unreadable: {exc}"
    failed = 0
    first = None
    for rec in records:
        odd = doubled_drift_odd(Fraction(rec["lambda"]), rec["n_state"])
        ok = (rec["consistent"] is True and rec["predicted_exists"] == odd
              and len(rec["intervals"]) == (1 if odd else 0))
        if not ok:
            failed += 1
            if first is None:
                first = f"record {rec['lambda']} {rec['n_state']} {rec['tau']}"
    if len(records) != expected["total"] or payload["inconsistent"] != 0:
        return expected["total"], f"scan has {len(records)} records, {payload['inconsistent']} inconsistent"
    if sha256(data) != expected["sha256"]:
        return expected["total"], "scan JSON digest differs from the recorded one"
    return failed, first and f"{failed} bad records, first {first}"


def check_plateaux(data: bytes, config: dict) -> str | None:
    params = _params(config)
    try:
        report = json.loads(data)
    except ValueError as exc:
        return f"report unreadable: {exc}"
    if (report["lambda"], report["n_state"], report["tau"]) != (
        _fmt(params.lam), params.n_state, _fmt(params.tau)
    ):
        return "report echoes other parameters"
    if report["fragmentation"]:
        return "fragmentation reported below the threshold"
    found = [(Fraction(iv["interval"][0]), Fraction(iv["interval"][1])) for iv in report["intervals"]]
    if found != expected_intervals(params):
        return f"intervals {found} != predicted {expected_intervals(params)}"
    for iv, (lo, hi) in zip(report["intervals"], found):
        zero = nonfrag_prediction(params).zero_level
        if (iv["kind"] == "zero") != zero:
            return f"kind {iv['kind']} contradicts zero-level prediction {zero}"
        for x in (lo + (hi - lo) / 3, lo + 2 * (hi - lo) / 3):
            ref = _oracle_density(float(x), params)
            if not _close(iv["level"], ref):
                return f"level {iv['level']} != 2 lam |psi|^2 = {ref} at x = {x}"
    return None


def gauss_density_grid(xs: np.ndarray, params: WellParams) -> np.ndarray:
    """2 lam |psi(x)|^2 at every x with psi = (sqrt 2 / q) sum_k conj(G(a, k, q))
    g(x + k/q), evaluated with numpy independently of qwell.wavefield."""
    a, q, n_state = params.a, params.q, params.n_state
    lam = float(params.lam)
    ell = np.arange(q)
    k = np.arange(q)
    phase = (a * ell[None, :] ** 2 + k[:, None] * ell[None, :]) % q
    gauss = np.exp(2j * np.pi * phase / q).sum(axis=1)
    y = xs[:, None] + k[None, :] / q
    dy = y - np.floor(y + 0.5)
    g = np.where(np.abs(dy) <= 1.0 / (2.0 * lam), np.sin(2 * np.pi * n_state * lam * dy), 0.0)
    psi = (g * np.conj(gauss)[None, :]).sum(axis=1) * math.sqrt(2.0) / q
    return 2.0 * lam * np.abs(psi) ** 2


def check_density(csv_data: bytes, svg_data: bytes, config: dict, samples: int,
                  digest: str | None) -> str | None:
    params = _params(config)
    lines = csv_data.decode("utf-8", errors="replace").split("\n")
    if lines[0] != "x,p" or len(lines) != samples + 2 or lines[-1] != "":
        return "CSV layout is not a header plus one row per sample"
    step = 0.5 / samples
    xs = np.array([(i + 0.5) * step for i in range(samples)])
    ps = np.empty(samples)
    for i, line in enumerate(lines[1:-1]):
        x_text, _, p_text = line.partition(",")
        if x_text != f"{xs[i]:.12g}":
            return f"CSV row {i} has x = {x_text!r}"
        try:
            ps[i] = float(p_text)
        except ValueError:
            return f"CSV row {i} has p = {p_text!r}"
    ref = gauss_density_grid(xs, params)
    bad = np.abs(ps - ref) > REL_TOL * np.maximum(1.0, np.abs(ref))
    if bad.any():
        i = int(np.argmax(bad))
        return f"CSV row {i}: p = {ps[i]} != oracle {ref[i]}"
    rng = random.Random(f"{config['lambda']}|{config['n_state']}|{config['tau']}")
    for i in rng.sample(range(samples), min(ORACLE_SAMPLES, samples)):
        if not _close(ps[i], _oracle_density(xs[i], params)):
            return f"CSV row {i}: p = {ps[i]} != 2 lam |psi_fractional|^2"

    try:
        svg = ET.fromstring(svg_data)
    except ET.ParseError as exc:
        return f"SVG unreadable: {exc}"
    ns = "{http://www.w3.org/2000/svg}"
    polyline = svg.find(f"{ns}polyline")
    if polyline is None or len(polyline.get("points", "").split()) != samples:
        return "SVG polyline does not hold one point per sample"
    titles = sorted(t.text for t in svg.iter(f"{ns}title"))
    want = []
    for lo, hi in expected_intervals(params):
        want.append(f"center {_fmt((lo + hi) / 2)}")
        want.extend(f"boundary {_fmt(e)}" for e in (lo, hi) if 0 < e < Fraction(1, 2))
    if titles != sorted(want):
        return f"SVG overlay {titles} != predicted {sorted(want)}"
    if digest is not None and sha256(csv_data + svg_data) != digest:
        return "CSV/SVG digest differs from the recorded one"
    return None
