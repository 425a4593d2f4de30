"""Correctness checks on the files one CLI command wrote.

Each check returns a list of problems; an empty list means the command's
outputs are correct. Monte Carlo results are compared with the package's
own analytic models within ``Z_MAX`` standard errors. The standard error is
taken at the analytic value and at the observed value, whichever is larger:
with only a handful of events (the dlcz g2 field expects about 0.1
coincidences per million trials) the error at the analytic value alone
under-covers, and the error at the observed value alone is zero whenever no
event was seen.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from rydlink import dephasing, measurement, repeater
from rydlink.cli import FIELD_DEFAULTS
from rydlink.config import load_config

Z_MAX = 5.0
TOL = 1e-9  # slack for values written with 12 significant digits


def _reject_constant(token):
    raise ValueError(f"bare {token} token is not valid JSON")


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _read_csv(path: Path) -> dict:
    header, *rows = path.read_text().splitlines()
    cols = np.array([[float(x) for x in row.split(",")] for row in rows]).T
    return dict(zip(header.split(","), cols))


def _within(label: str, observed: float, expected: float, se: float) -> list:
    if not math.isfinite(observed):
        return [f"{label}: Monte Carlo value {observed} is not finite"]
    if abs(observed - expected) > Z_MAX * se + 1e-12:
        z = abs(observed - expected) / se if se > 0 else math.inf
        return [f"{label}: Monte Carlo {observed:.6g} vs analytic {expected:.6g} ({z:.1f} standard errors)"]
    return []


def check_manifest(cmd, outdir: Path) -> list:
    """The manifest names exactly the files written, with their sha256."""
    try:
        manifest = _load_json(outdir / "manifest.json")
    except (OSError, ValueError) as exc:
        return [f"manifest: {exc}"]
    problems = []
    if manifest.get("command") != cmd[0]:
        problems.append(f"manifest: command {manifest.get('command')!r}, expected {cmd[0]!r}")
    outputs = manifest.get("outputs", {})
    written = {p.name for p in outdir.iterdir() if p.name != "manifest.json"}
    if written != set(outputs):
        problems.append(f"manifest: lists {sorted(outputs)}, directory holds {sorted(written)}")
    for name, digest in sorted(outputs.items()):
        path = outdir / name
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            problems.append(f"manifest: sha256 of {name} does not match")
    return problems


class Checker:
    """Checks for one workload config; analytic references are cached per input."""

    def __init__(self, config_path: Path):
        self.cfg = load_config(config_path)
        self._analytic = {}

    def check(self, cmd, outdir: Path) -> list:
        problems = check_manifest(cmd, outdir)
        if problems:
            return problems
        try:
            return getattr(self, f"_check_{cmd[0]}")(cmd, outdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"{cmd[0]}: unreadable output ({type(exc).__name__}: {exc})"]

    def _check_rabi(self, cmd, outdir):
        if cmd[1] != "--pair":
            return []
        t = _read_csv(outdir / "rabi_pair.csv")
        err = np.max(np.abs(t["c_par"] + t["c_perp"] - 1.0))
        return [f"rabi --pair: c_par + c_perp deviates from 1 by {err:.3g}"] if not err <= TOL else []

    def _check_dephasing(self, cmd, outdir):
        tag = cmd[2].replace(",", "-")
        t = _read_csv(outdir / f"dephasing_{tag}.csv")
        meta = _load_json(outdir / f"dephasing_{tag}.json")
        pop, proj = t["population_r"], t["projection"]
        problems = []
        if not (np.all(pop >= -TOL) and np.all(pop <= 1.0 + TOL)):
            problems.append(f"dephasing {tag}: population outside [0, 1]")
        if not np.all(proj <= pop + TOL):
            problems.append(f"dephasing {tag}: projection exceeds population")
        if proj[0] != 1.0:
            problems.append(f"dephasing {tag}: projection[0] = {proj[0]!r}, expected 1")
        if not math.isfinite(meta["tau_osc_us"]):
            problems.append(f"dephasing {tag}: tau_osc_us is {meta['tau_osc_us']}")
        ens = self.cfg.ensemble
        tau_free = dephasing.motional_coherence_time_us(
            meta["metadata"]["spinwave_k_rad_um"], ens.temperature_uK, ens.atomic_mass_amu
        )
        if not math.isclose(meta["tau_free_us"], tau_free, rel_tol=1e-12):
            problems.append(f"dephasing {tag}: tau_free_us {meta['tau_free_us']} != {tau_free}")
        return problems

    def _check_entangle(self, cmd, outdir):
        if cmd[1] != "--fidelity":
            return []
        f = _load_json(outdir / "entangle_fidelity.json")["F"]
        return [] if 0.25 <= f <= 1.0 else [f"entangle: F = {f} outside [0.25, 1]"]

    def _check_g2(self, cmd, outdir):
        tag = f"{cmd[2]}_calibrated" if "--calibrated" in cmd else cmd[2]
        out = _load_json(outdir / f"g2_{tag}.json")
        eta, b, trials = out["detector_efficiency"], out["background_prob"], out["trials"]
        kind = FIELD_DEFAULTS[out["field"]][0]
        field = measurement.PhotonFieldModel(kind, out["parameter"], measurement.DetectorModel(eta, b))
        p1, _, p12 = measurement._hbt_click_probs(field.occupation_distribution(), field.detector)
        g2 = p12 / p1**2
        se = max(_g2_se(g2, p1, trials), _g2_se(out["g2_mc"], p1, trials))
        return _within(f"g2 {tag}", out["g2_mc"], g2, se)

    def _check_repeater(self, cmd, outdir):
        rep = self.cfg.parsed["repeater"]
        source, trials = cmd[2], rep["trials"]
        if "--sweep" not in cmd:
            mc = _load_json(outdir / f"repeater_{source}.json")["monte_carlo"]
            p = rep["dlcz_excitation"] if source == "dlcz" else None
            return self._link_agrees(
                source, rep["channel_transmission"], p, mc["herald_rate"], mc["conditional_fidelity"], trials
            )
        axis = cmd[4]
        t = _read_csv(outdir / f"repeater_{source}_sweep_{axis}.csv")
        problems = []
        for x, rate, fid in zip(t["sweep_value"], t["herald_rate"], t["conditional_fidelity"]):
            eta, p = (x, rep["dlcz_excitation"]) if axis == "eta" else (rep["channel_transmission"], x)
            problems += self._link_agrees(source, eta, p if source == "dlcz" else None, rate, fid, trials)
        return problems

    def _link_agrees(self, source, eta, p, rate, fidelity, trials):
        key = (source, eta, p)
        if key not in self._analytic:
            if source == "semi":
                model = repeater.SourceModel(
                    "semi_deterministic",
                    retrieval_efficiency=self.cfg.parsed["repeater"]["retrieval_efficiency"],
                )
            else:
                model = repeater.SourceModel("dlcz", emission_prob=p)
            self._analytic[key] = repeater.analytic_link(
                model, model, repeater.LinkConfig(channel_transmission=eta)
            )
        exact = self._analytic[key]
        label = f"repeater {source} eta={eta:g}" + (f" p={p:g}" if p is not None else "")
        r0 = exact.herald_rate
        rate_se = max(math.sqrt(r * (1.0 - r) / trials) for r in (r0, rate))
        problems = _within(f"{label} herald_rate", rate, r0, rate_se)
        f0 = exact.conditional_fidelity
        fid_se = max(_binomial_se(f0, r0 * trials), _binomial_se(fidelity, rate * trials))
        return problems + _within(f"{label} conditional_fidelity", fidelity, f0, fid_se)


def _binomial_se(p: float, n: float) -> float:
    return math.sqrt(p * (1.0 - p) / n) if n > 0 and math.isfinite(p) else 0.0


def _g2_se(g2: float, p1: float, trials: int) -> float:
    """Delta-method standard error of n12 T / (n1 n2), balanced splitter.

    Per trial the click indicators (c1 & c2, c1, c2) have means
    (p12, p1, p1) with p12 = g2 p1^2.
    """
    p12 = g2 * p1**2
    grad = np.array([1.0 / p1**2, -g2 / p1, -g2 / p1])
    c12 = p12 * (1.0 - p1)
    cov = np.array(
        [
            [p12 * (1.0 - p12), c12, c12],
            [c12, p1 * (1.0 - p1), p12 - p1**2],
            [c12, p12 - p1**2, p1 * (1.0 - p1)],
        ]
    )
    return math.sqrt(max(float(grad @ cov @ grad), 0.0) / trials)
