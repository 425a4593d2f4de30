"""YAML run configuration with unit-suffixed quantities and strict schema.

Dimensioned values are strings like ``"3 MHz"`` or ``"7 um"``; frequencies
are understood as cycles and converted to angular units (a "3 MHz" Rabi
frequency becomes 2 pi x 3e6 rad/s). Unknown keys anywhere in the tree are
rejected with the offending dotted path, so typos fail loudly instead of
silently falling back to defaults. Each leaf of ``_SCHEMA`` also holds its
key's range, so an out-of-range value fails at load naming its key.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import math
from dataclasses import dataclass

import yaml

from .collective import EnsembleConfig
from .dephasing import AMU, MIN_SAMPLES, shift_cancelling_branch_weights, thermal_velocity_sigma
from .geometry import BEAM_IDS, Beam, BeamGeometry, modes_distinguishable

DEFAULT_CONFIG_RESOURCE = "default.yaml"

TWO_PI = math.tau

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
    "deg": ("angle", math.pi / 180.0),
    "rad": ("angle", 1.0),
}


class ConfigError(ValueError):
    """Any structural or unit problem in a run configuration."""


def parse_quantity(value, dimension: str, path: str = "value") -> float:
    """Parse '3 MHz' -> 2 pi x 3e6 etc.; checks the dimension matches.

    A "dimensionless" value is a plain finite int or float (YAML booleans are
    not numbers).
    """
    if dimension == "dimensionless":
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
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


# (test of the parsed value, requirement as printed)
_POSITIVE = (lambda v: v > 0.0, "be positive")
_FRACTION = (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")


def _at_least(bound):
    return (lambda v: v >= bound, f"be >= {bound}")


# beam quantities enter squared (Gaussian profiles, light shifts, mode
# overlaps), so each square must stay finite and nonzero too
_SQUARABLE = (lambda v: v > 0.0 and 0.0 < v * v < math.inf, "be positive, with a finite nonzero square")

# Schema leaves are (kind, check). A kind is a quantity dimension,
# "dimensionless" (a plain number), int, or (element kind, length) for
# a list, whose elements are checked one by one as key[i]. A check is a
# (test, requirement) pair or None. The records built from the parsed tree
# do not check again; the rules across keys are in load_config.
_BEAM_SCHEMA = {
    "wavelength": ("length", _SQUARABLE),
    "direction": (("dimensionless", 3), None),  # Beam requires a unit vector
    "waist": ("length", _SQUARABLE),
    "rabi": ("frequency", _SQUARABLE),
}

_SCHEMA = {
    "geometry": {
        "beams": {b: _BEAM_SCHEMA for b in BEAM_IDS},
        "detuning_1": ("frequency", None),
        "detuning_2": ("frequency", None),
    },
    "raman": {
        # a rate of the Lindblad batch; like the beam quantities, its square must stay finite
        "intermediate_linewidth": ("frequency", _SQUARABLE),
        # the protocol's Rabi frequency is 2 pi / period
        "single_excitation_period": (
            "time",
            (lambda v: v > 0.0 and math.tau / v < math.inf, "be positive, with a finite 2 pi / period"),
        ),
    },
    "ensemble": {
        "effective_atom_number": (int, _at_least(1)),
        "temperature": ("temperature", _POSITIVE),
        "cloud_sigma": (("length", 3), _POSITIVE),
        "ground_spinwave_lifetime": ("time", _POSITIVE),
        "atomic_mass": ("mass", _POSITIVE),
    },
    "detector": {
        "entanglement_chain_efficiency": ("dimensionless", _FRACTION),
        "calibration_chain_efficiency": ("dimensionless", _FRACTION),
        "g2_calibration_target": ("dimensionless", (lambda v: 0.0 < v < 1.0, "lie in (0, 1)")),
    },
    "readout": {
        "second_read_delay": ("time", _at_least(0)),
        "phase_shift": ("angle", None),
    },
    "simulation": {
        "seed": (int, _at_least(0)),
        "dephasing_samples": (int, _at_least(MIN_SAMPLES)),
        "dephasing_t_max": ("time", _POSITIVE),
        # the envelope fit has 5 parameters
        "dephasing_points": (int, _at_least(5)),
        "coincidence_trials": (int, _at_least(1)),
        "g2_trials": (int, _at_least(1)),
    },
    "repeater": {
        "channel_transmission": ("dimensionless", _FRACTION),
        "retrieval_efficiency": ("dimensionless", _FRACTION),
        # the range of measurement.dlcz_occupation
        "dlcz_excitation": ("dimensionless", (lambda v: 0.0 < v <= 0.2, "lie in (0, 0.2]")),
        "trials": (int, _at_least(1)),
    },
}


def _parse_leaf(value, kind, check, path: str):
    if isinstance(kind, tuple):
        element, length = kind
        if not isinstance(value, list) or len(value) != length:
            raise ConfigError(f"{path}: expected a list of {length} values, got {value!r}")
        return tuple(_parse_leaf(v, element, check, f"{path}[{i}]") for i, v in enumerate(value))
    if isinstance(kind, str):
        value = parse_quantity(value, kind, path)
    elif not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer")
    if check is not None and not check[0](value):
        raise ConfigError(f"{path}: must {check[1]}")
    return value


def _validate(node, schema, path: str):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping")
    unknown = sorted(set(node) - set(schema))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown key")
    missing = sorted(set(schema) - set(node))
    if missing:
        raise ConfigError(f"{path}.{missing[0]}: missing key")
    return {
        key: _validate(node[key], spec, f"{path}.{key}")
        if isinstance(spec, dict)
        else _parse_leaf(node[key], *spec, f"{path}.{key}")
        for key, spec in schema.items()
    }


@dataclass(frozen=True)
class RunConfig:
    raw: dict  # raw YAML tree, for hashing / provenance
    parsed: dict  # same tree with quantities in canonical units
    geometry: BeamGeometry
    ensemble: EnsembleConfig

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
    for bid, spec in g["beams"].items():
        try:
            beams[bid] = Beam(
                wavelength_nm=spec["wavelength"] * 1e3,  # canonical um -> nm
                direction=spec["direction"],
                waist_um=spec["waist"],
                rabi=spec["rabi"],
            )
        except ValueError as exc:
            raise ConfigError(f"geometry.beams.{bid}.direction: {exc}") from None
    geo = BeamGeometry(beams=beams, detuning_1=g["detuning_1"], detuning_2=g["detuning_2"])
    if not modes_distinguishable(geo):
        raise ConfigError(
            "geometry.beams.C/E: the Raman kick k_C + k_E leaves the kicked spin-wave "
            "modes overlapping the unkicked ones (k3 ~ k2 or k4 ~ k1) across the "
            "waist of beam A; tilt C or E away from the optical axis"
        )
    return geo


def _build_ensemble(parsed: dict) -> EnsembleConfig:
    e = parsed["ensemble"]
    ens = EnsembleConfig(
        effective_atom_number=float(e["effective_atom_number"]),
        temperature_uK=e["temperature"] * 1e6,
        cloud_sigma_um=e["cloud_sigma"],
        ground_spinwave_lifetime_us=e["ground_spinwave_lifetime"] * 1e6,
        atomic_mass_amu=e["atomic_mass"] / AMU,
    )
    if not 0.0 < thermal_velocity_sigma(ens.temperature_uK, ens.atomic_mass_amu) < math.inf:
        raise ConfigError(
            "ensemble.temperature, ensemble.atomic_mass: the thermal velocity sqrt(kB T / m) "
            "must be finite and nonzero"
        )
    return ens


def load_config(path=None) -> RunConfig:
    """Load and validate a YAML run configuration (default: packaged)."""
    source = DEFAULT_CONFIG_RESOURCE if path is None else path
    # libyaml when PyYAML was built with it: the same tree, about 6x faster
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        if path is None:
            resource = importlib.resources.files("rydlink.data") / DEFAULT_CONFIG_RESOURCE
            raw = yaml.load(resource.read_bytes(), Loader=loader)
        else:
            # the parser decodes the bytes itself, so its marks name the file and
            # a file that is not UTF-8 is a YAML error
            with open(path, "rb") as fh:
                raw = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ConfigError(f"{source}: {exc.strerror}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: bad YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a mapping")
    parsed = _validate(raw, _SCHEMA, "config")
    geometry = _build_geometry(parsed)
    ensemble = _build_ensemble(parsed)
    try:  # the Raman coupling of beams C and E needs these weights; checked once, here
        shift_cancelling_branch_weights(geometry.detuning_1, geometry.detuning_2)
    except ValueError as exc:
        raise ConfigError(f"geometry.detuning_1, geometry.detuning_2: {exc}") from None
    return RunConfig(raw=raw, parsed=parsed, geometry=geometry, ensemble=ensemble)
