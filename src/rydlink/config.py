"""YAML run configuration with unit-suffixed quantities and strict schema.

Dimensioned values are strings like ``"3 MHz"`` or ``"7 um"``; frequencies
are understood as cycles and converted to angular units (a "3 MHz" Rabi
frequency becomes 2 pi x 3e6 rad/s). Unknown keys anywhere in the tree are
rejected with the offending dotted path, so typos fail loudly instead of
silently falling back to defaults.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.resources
import json
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .collective import EnsembleConfig
from .dephasing import AMU, RamanLevelScheme, scheme_from_geometry
from .geometry import BEAM_IDS, Beam, BeamGeometry, modes_distinguishable

DEFAULT_CONFIG_RESOURCE = "default.yaml"

TWO_PI = 2.0 * np.pi

# unit name -> (dimension, factor to canonical unit)
# canonical units: frequency rad/s, time s, length um, temperature K,
# mass kg, angle rad
_UNITS = {
    "Hz": ("frequency", TWO_PI),
    "kHz": ("frequency", TWO_PI * 1e3),
    "MHz": ("frequency", TWO_PI * 1e6),
    "GHz": ("frequency", TWO_PI * 1e9),
    "rad/s": ("frequency", 1.0),
    "s": ("time", 1.0),
    "ms": ("time", 1e-3),
    "us": ("time", 1e-6),
    "ns": ("time", 1e-9),
    "nm": ("length", 1e-3),
    "um": ("length", 1.0),
    "mm": ("length", 1e3),
    "K": ("temperature", 1.0),
    "mK": ("temperature", 1e-3),
    "uK": ("temperature", 1e-6),
    "amu": ("mass", AMU),
    "kg": ("mass", 1.0),
    "deg": ("angle", np.pi / 180.0),
    "rad": ("angle", 1.0),
}


class ConfigError(ValueError):
    """Any structural or unit problem in a run configuration."""


def _finite_number(value) -> bool:
    """A plain finite int or float (YAML booleans are not numbers)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def parse_quantity(value, dimension: str, path: str = "value") -> float:
    """Parse '3 MHz' -> 2 pi x 3e6 etc.; checks the dimension matches."""
    if dimension == "dimensionless":
        if not _finite_number(value):
            raise ConfigError(f"{path}: expected a finite plain number, got {value!r}")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a unit-suffixed string, got {value!r}")
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(f"{path}: expected '<number> <unit>', got {value!r}")
    try:
        mag = float(parts[0])
    except ValueError:
        raise ConfigError(f"{path}: bad number in {value!r}") from None
    if not math.isfinite(mag):
        raise ConfigError(f"{path}: magnitude must be finite, got {value!r}")
    unit = parts[1]
    if unit not in _UNITS:
        raise ConfigError(f"{path}: unknown unit {unit!r}")
    dim, factor = _UNITS[unit]
    if dim != dimension:
        raise ConfigError(f"{path}: expected a {dimension}, got {unit!r} ({dim})")
    converted = mag * factor
    if not math.isfinite(converted):
        raise ConfigError(f"{path}: {value!r} overflows in canonical units")
    return converted


# schema leaves: quantity dimensions, or python types for plain values
_BEAM_SCHEMA = {
    "wavelength": "length",
    "direction": list,
    "waist": "length",
    "rabi": "frequency",
}

_SCHEMA = {
    "geometry": {
        "beams": {b: _BEAM_SCHEMA for b in BEAM_IDS},
        "detuning_1": "frequency",
        "detuning_2": "frequency",
        "theta_1": "angle",
        "theta_2": "angle",
    },
    "raman": {
        "intermediate_linewidth": "frequency",
        "single_excitation_period": "time",
    },
    "ensemble": {
        "effective_atom_number": int,
        "temperature": "temperature",
        "cloud_sigma": list,
        "free_rydberg_lifetime": "time",
        "ground_spinwave_lifetime": "time",
        "atomic_mass": "mass",
    },
    "detector": {
        "entanglement_chain_efficiency": float,
        "calibration_chain_efficiency": float,
        "g2_calibration_target": float,
    },
    "readout": {
        "second_read_delay": "time",
        "phase_shift": "angle",
    },
    "simulation": {
        "seed": int,
        "dephasing_samples": int,
        "dephasing_t_max": "time",
        "dephasing_points": int,
        "coincidence_trials": int,
        "g2_trials": int,
    },
    "repeater": {
        "channel_transmission": float,
        "retrieval_efficiency": float,
        "dlcz_excitation": float,
        "trials": int,
    },
    "output": {
        "directory": str,
    },
}


# dotted key -> (test of the parsed value, requirement as printed)
_RANGES = {
    "raman.intermediate_linewidth": (lambda v: v > 0.0, "be positive"),
    "raman.single_excitation_period": (lambda v: v > 0.0, "be positive"),
    "ensemble.effective_atom_number": (lambda v: v >= 1, "be >= 1"),
    "ensemble.temperature": (lambda v: v > 0.0, "be positive"),
    "ensemble.free_rydberg_lifetime": (lambda v: v > 0.0, "be positive"),
    "ensemble.ground_spinwave_lifetime": (lambda v: v > 0.0, "be positive"),
    "ensemble.atomic_mass": (lambda v: v > 0.0, "be positive"),
    "detector.entanglement_chain_efficiency": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "detector.calibration_chain_efficiency": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "detector.g2_calibration_target": (lambda v: 0.0 < v < 1.0, "lie in (0, 1)"),
    "readout.second_read_delay": (lambda v: v >= 0.0, "be >= 0"),
    "simulation.seed": (lambda v: v >= 0, "be >= 0"),
    "simulation.dephasing_t_max": (lambda v: v > 0.0, "be positive"),
    # the envelope fit has 5 parameters
    "simulation.dephasing_points": (lambda v: v >= 5, "be >= 5"),
    "simulation.coincidence_trials": (lambda v: v >= 1, "be >= 1"),
    "simulation.g2_trials": (lambda v: v >= 1, "be >= 1"),
    "repeater.channel_transmission": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "repeater.retrieval_efficiency": (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    # the range of measurement.dlcz_occupation
    "repeater.dlcz_excitation": (lambda v: 0.0 < v <= 0.2, "lie in (0, 0.2]"),
    "repeater.trials": (lambda v: v >= 1, "be >= 1"),
}
# beam quantities enter squared (Gaussian profiles, light shifts, mode
# overlaps), so each square must stay finite and nonzero too
_RANGES.update(
    {
        f"geometry.beams.{b}.{name}": (
            lambda v: v > 0.0 and 0.0 < v * v < math.inf,
            "be positive, with a finite nonzero square",
        )
        for b in BEAM_IDS
        for name in ("wavelength", "waist", "rabi")
    }
)


def _validate(node, schema, path: str):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = sorted(set(node) - set(schema))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key")
    missing = sorted(set(schema) - set(node))
    if missing:
        raise ConfigError(f"{path}.{missing[0]}: missing key")
    out = {}
    for key, spec in schema.items():
        sub = f"{path}.{key}"
        val = node[key]
        if isinstance(spec, dict):
            out[key] = _validate(val, spec, sub)
        elif isinstance(spec, str):
            out[key] = parse_quantity(val, spec, sub)
        elif spec is list:
            if not isinstance(val, list):
                raise ConfigError(f"{sub}: expected a list")
            out[key] = val
        elif spec is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{sub}: expected an integer")
            out[key] = val
        elif spec is float:
            if not _finite_number(val):
                raise ConfigError(f"{sub}: expected a finite number")
            out[key] = float(val)
        elif spec is str:
            if not isinstance(val, str):
                raise ConfigError(f"{sub}: expected a string")
            out[key] = val
        else:  # pragma: no cover - schema author error
            raise AssertionError(spec)
    return out


@dataclass(frozen=True)
class RunConfig:
    raw: dict  # raw YAML tree, for hashing / provenance
    parsed: dict  # same tree with quantities in canonical units
    geometry: BeamGeometry
    ensemble: EnsembleConfig
    scheme: RamanLevelScheme

    @property
    def seed(self) -> int:
        return self.parsed["simulation"]["seed"]

    @property
    def protocol_rabi(self) -> float:
        """Effective Raman Rabi frequency from the calibrated period, rad/s."""
        return TWO_PI / self.parsed["raman"]["single_excitation_period"]

    def config_hash(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _build_geometry(parsed: dict) -> BeamGeometry:
    g = parsed["geometry"]
    beams = {}
    for bid in BEAM_IDS:
        spec = g["beams"][bid]
        direction = spec["direction"]
        if len(direction) != 3 or not all(_finite_number(c) for c in direction):
            raise ConfigError(
                f"geometry.beams.{bid}.direction: expected 3 finite numbers, got {direction!r}"
            )
        try:
            beams[bid] = Beam(
                wavelength_nm=spec["wavelength"] * 1e3,  # canonical um -> nm
                direction=np.array(direction, dtype=float),
                waist_um=spec["waist"],
                rabi=spec["rabi"],
            )
        except ValueError as exc:
            raise ConfigError(f"geometry.beams.{bid}: {exc}") from None
    geo = BeamGeometry(
        beams=beams,
        detuning_1=g["detuning_1"],
        detuning_2=g["detuning_2"],
        theta_1_deg=np.degrees(g["theta_1"]),
        theta_2_deg=np.degrees(g["theta_2"]),
    )
    _check_angles(geo)
    if not modes_distinguishable(geo):
        raise ConfigError(
            "geometry.beams.C/E: the Raman kick k_C + k_E leaves the kicked spin-wave "
            "modes overlapping the unkicked ones (k3 ~ k2 or k4 ~ k1) across the "
            "waist of beam A; tilt C or E away from the optical axis"
        )
    return geo


def _check_angles(geo: BeamGeometry):
    """The declared crossing angles must match the beam directions."""
    pairs = (("A", "C", geo.theta_1_deg, "theta_1"), ("D", "E", geo.theta_2_deg, "theta_2"))
    for b1, b2, theta, name in pairs:
        cosang = float(np.dot(geo.beams[b1].direction, geo.beams[b2].direction))
        ang = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
        if abs(ang - theta) > 0.1:
            raise ConfigError(
                f"geometry.{name}: declared {theta:.3f} deg but beams "
                f"{b1}/{b2} cross at {ang:.3f} deg"
            )


def _build_ensemble(parsed: dict) -> EnsembleConfig:
    e = parsed["ensemble"]
    sigma = tuple(
        parse_quantity(s, "length", f"ensemble.cloud_sigma[{i}]")
        for i, s in enumerate(e["cloud_sigma"])
    )
    if len(sigma) != 3:
        raise ConfigError("ensemble.cloud_sigma: expected 3 components")
    for i, s in enumerate(sigma):
        if s <= 0.0:
            raise ConfigError(f"ensemble.cloud_sigma[{i}]: must be positive")
    return EnsembleConfig(
        effective_atom_number=float(e["effective_atom_number"]),
        temperature_uK=e["temperature"] * 1e6,
        cloud_sigma_um=sigma,
        free_rydberg_lifetime_us=e["free_rydberg_lifetime"] * 1e6,
        ground_spinwave_lifetime_us=e["ground_spinwave_lifetime"] * 1e6,
        atomic_mass_amu=e["atomic_mass"] / AMU,
    )


def load_config(path=None) -> RunConfig:
    """Load and validate a YAML run configuration (default: packaged)."""
    if path is None:
        resource = importlib.resources.files("rydlink.data") / DEFAULT_CONFIG_RESOURCE
        text = resource.read_text()
    else:
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"{path}: {exc.strerror}") from None
    try:
        # libyaml when PyYAML was built with it: the same tree, about 6x faster
        raw = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path or DEFAULT_CONFIG_RESOURCE}: bad YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a mapping")
    parsed = _validate(raw, _SCHEMA, "config")
    for key, (allowed, requirement) in _RANGES.items():
        if not allowed(functools.reduce(dict.__getitem__, key.split("."), parsed)):
            raise ConfigError(f"{key}: must {requirement}")
    # the test of dephasing.shift_cancelling_branch_weights
    if parsed["geometry"]["detuning_1"] * parsed["geometry"]["detuning_2"] >= 0.0:
        raise ConfigError(
            "geometry.detuning_1, geometry.detuning_2: light-shift cancellation needs "
            "nonzero detunings of opposite sign"
        )
    geometry = _build_geometry(parsed)
    ensemble = _build_ensemble(parsed)
    scheme = scheme_from_geometry(geometry, gamma_e=parsed["raman"]["intermediate_linewidth"])
    return RunConfig(raw=raw, parsed=parsed, geometry=geometry, ensemble=ensemble, scheme=scheme)
