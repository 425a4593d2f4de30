"""YAML run configuration with unit-suffixed quantities and strict schema.

Dimensioned values are strings like ``"3 MHz"`` or ``"7 um"``; frequencies
are understood as cycles and converted to angular units (a "3 MHz" Rabi
frequency becomes 2 pi x 3e6 rad/s). One walk over ``_SCHEMA`` parses the tree
and names, in one refusal, every unknown or missing key, section that is not a
mapping, and value of the wrong kind, unit or range (each leaf holds its key's
range), so typos fail loudly instead of silently falling back to defaults. The
YAML loader refuses a key repeated in one mapping, and an integer int() cannot
read (one of more digits than the interpreter converts), naming its line. A refusal echoes a value through
``reprlib``, so a long one is shown cut short.

``load_config`` reads the file on every call, but parses, checks, builds and
hashes it only when the content differs from the last one loaded: every call
with the same bytes shares one ``RunConfig``, so its mappings are read-only. A
load that fails is not kept, so a bad config is checked, and refused, on every
call. A test that monkeypatches a limit ``load_config`` reads must call
``_run_config.cache_clear()``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.resources
import io
import json
import math
import reprlib
import sys
import types
from dataclasses import dataclass

import yaml

from .collective import EnsembleConfig
from .dephasing import AMU, MAX_DEPHASING_POINTS, MIN_SAMPLES
from .geometry import BEAM_IDS, Beam, BeamGeometry, modes_distinguishable
from .measurement import DLCZ_MAX_EXCITATION

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

    A "dimensionless" value is a plain int or float that a float holds finite
    (YAML booleans are not numbers).
    """
    if dimension == "dimensionless":
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{path}: expected a finite plain number, got {reprlib.repr(value)}")
        return float(value)
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a unit-suffixed string, got {reprlib.repr(value)}")
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(f"{path}: expected '<number> <unit>', got {reprlib.repr(value)}")
    try:
        mag = float(parts[0])
    except ValueError:
        raise ConfigError(f"{path}: bad number in {reprlib.repr(value)}") from None
    if not math.isfinite(mag):
        raise ConfigError(f"{path}: magnitude must be finite, got {reprlib.repr(value)}")
    unit = parts[1]
    if unit not in _UNITS:
        raise ConfigError(f"{path}: unknown unit {reprlib.repr(unit)}")
    dim, factor = _UNITS[unit]
    if dim != dimension:
        raise ConfigError(f"{path}: expected a {dimension}, got {unit!r} ({dim})")
    converted = mag * factor
    if not math.isfinite(converted):
        raise ConfigError(f"{path}: {reprlib.repr(value)} overflows in canonical units")
    return converted


# (test of the parsed value, requirement as printed)
_POSITIVE = (lambda v: v > 0.0, "be positive")
_FRACTION = (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")


def _at_least(bound):
    return (lambda v: v >= bound, f"be >= {bound}")


# an integer that the JSON records carry, which readers holding numbers as doubles read back exactly
def _json_int(bound):
    return (lambda v: bound <= v < 2**53, f"be >= {bound} and < 2**53")


# a count that numpy's multinomial takes as a C long
_DRAW_COUNT = (lambda v: 1 <= v < 2**63, "lie in [1, 2**63)")
# a count that converts to a finite float
_FLOAT_COUNT = (lambda v: 1 <= v <= sys.float_info.max, f"lie in [1, {sys.float_info.max:g}]")


# beam quantities enter squared (Gaussian profiles, light shifts, mode
# overlaps), so each square must stay finite and nonzero too
_SQUARABLE = (lambda v: v > 0.0 and 0.0 < v * v < math.inf, "be positive, with a finite nonzero square")

# Schema leaves are (kind, check). A kind is a quantity dimension,
# "dimensionless" (a plain number), int, or (element leaf, length) for a
# list, whose elements are checked one by one as key[i] before the list's
# own check. A check is a (test, requirement) pair or None. The records
# built from the parsed tree do not check again. _run_config adds the mode
# gate and the two Rabi frequencies RunConfig derives; the limits of a
# dephasing run are in its own gate, dephasing.simulate_single_excitation.
_BEAM_SCHEMA = {
    "wavelength": ("length", _SQUARABLE),
    # Beam divides by the norm, so a direction written to a few digits keeps its bytes
    "direction": ((("dimensionless", None), 3), (lambda v: abs(math.hypot(*v) - 1.0) <= 1e-6, "have norm 1 to 1e-6")),
    "waist": ("length", _SQUARABLE),
    "rabi": ("frequency", _SQUARABLE),
}

# the keys of each beam that some command reads: A's waist sets the mode gate, C's and E's the
# Raman profile, A's and B's Rabi frequencies the excitation pair and C's and E's the Raman coupling
_BEAM_KEYS = dict.fromkeys(BEAM_IDS, tuple(_BEAM_SCHEMA)) | {
    "B": ("wavelength", "direction", "rabi"), "D": ("wavelength", "direction")
}

_SCHEMA = {
    "geometry": {
        "beams": {b: {key: _BEAM_SCHEMA[key] for key in keys} for b, keys in _BEAM_KEYS.items()},
        # RunConfig.excitation_rabi divides by it
        "detuning_1": ("frequency", (lambda v: v != 0.0, "be nonzero")),
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
        "effective_atom_number": (int, _FLOAT_COUNT),
        "temperature": ("temperature", _POSITIVE),
        "cloud_sigma": ((("length", _POSITIVE), 3), None),
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
        "seed": (int, _json_int(0)),
        "dephasing_samples": (int, _json_int(MIN_SAMPLES)),
        "dephasing_t_max": ("time", _POSITIVE),
        # the envelope fit has 5 parameters
        "dephasing_points": (int, (lambda v: 5 <= v <= MAX_DEPHASING_POINTS, f"lie in [5, {MAX_DEPHASING_POINTS}]")),
        "coincidence_trials": (int, _DRAW_COUNT),
        "g2_trials": (int, _DRAW_COUNT),
    },
    "repeater": {
        "channel_transmission": ("dimensionless", _FRACTION),
        "retrieval_efficiency": ("dimensionless", _FRACTION),
        "dlcz_excitation": (
            "dimensionless", (lambda v: 0.0 < v <= DLCZ_MAX_EXCITATION, f"lie in (0, {DLCZ_MAX_EXCITATION}]")
        ),
        "trials": (int, _DRAW_COUNT),
    },
}


def _parse_leaf(value, kind, check, path: str):
    if isinstance(kind, tuple):
        element, length = kind
        if not isinstance(value, list) or len(value) != length:
            raise ConfigError(f"{path}: expected a list of {length} values, got {reprlib.repr(value)}")
        value = tuple(_parse_leaf(v, *element, f"{path}[{i}]") for i, v in enumerate(value))
    elif isinstance(kind, str):
        value = parse_quantity(value, kind, path)
    elif not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer")
    if check is not None and not check[0](value):
        raise ConfigError(f"{path}: must {check[1]}")
    return value


def _walk(node, spec, path: str, keys: dict, bad: list):
    """``node`` parsed by ``spec``, a ``_SCHEMA`` section or leaf, read-only at every level. Adds, level by
    level, the dotted path of each key the schema lacks to ``keys["unknown"]`` and of each key the tree
    lacks to ``keys["missing"]``, and the refusal of every other fault to ``bad``, in schema order."""
    if not isinstance(spec, dict):
        try:
            return _parse_leaf(node, *spec, path)
        except ConfigError as exc:
            bad.append(str(exc))
            return None
    if not isinstance(node, dict):
        bad.append(f"{path}: expected a mapping")
        return None
    keys["unknown"] += [f"{path}.{key}" for key in sorted(set(node) - set(spec), key=str)]
    keys["missing"] += [f"{path}.{key}" for key in sorted(set(spec) - set(node))]
    return types.MappingProxyType(
        {key: _walk(node[key], sub, f"{path}.{key}", keys, bad) for key, sub in spec.items() if key in node}
    )


@dataclass(frozen=True)
class RunConfig:
    config_hash: str  # sha256 of the YAML tree, for provenance
    parsed: types.MappingProxyType  # same tree with quantities in canonical units, read-only at every level
    geometry: BeamGeometry
    ensemble: EnsembleConfig

    @property
    def seed(self) -> int:
        return self.parsed["simulation"]["seed"]

    @property
    def protocol_rabi(self) -> float:
        """Effective Raman Rabi frequency from the calibrated period, rad/s."""
        return TWO_PI / self.parsed["raman"]["single_excitation_period"]

    @property
    def excitation_rabi(self) -> float:
        """Single-atom two-photon Rabi frequency of the excitation pair (A, B), rad/s."""
        geo = self.geometry
        return geo.beams["A"].rabi * geo.beams["B"].rabi / (2.0 * abs(geo.detuning_1))


def _build_geometry(parsed: types.MappingProxyType) -> BeamGeometry:
    g = parsed["geometry"]
    beams = {  # the wavelength from canonical um to nm
        bid: Beam(spec["wavelength"] * 1e3, spec["direction"], waist_um=spec.get("waist"), rabi=spec.get("rabi"))
        for bid, spec in g["beams"].items()
    }
    geo = BeamGeometry(beams=beams, detuning_1=g["detuning_1"], detuning_2=g["detuning_2"])
    if not modes_distinguishable(geo):
        raise ConfigError(
            "geometry.beams.D.wavelength, geometry.beams.D.direction, geometry.beams.E.wavelength, "
            "geometry.beams.E.direction, geometry.beams.A.waist: the kicked spin-wave modes overlap "
            "the unkicked ones (k2 - k3 = k4 - k1 = k_D - k_E) across the waist of beam A; "
            "tilt D and E further apart or widen beam A"
        )
    return geo


def _build_ensemble(parsed: types.MappingProxyType) -> EnsembleConfig:
    e = parsed["ensemble"]
    return EnsembleConfig(
        effective_atom_number=float(e["effective_atom_number"]),
        temperature_uK=e["temperature"] * 1e6,
        cloud_sigma_um=e["cloud_sigma"],
        atomic_mass_amu=e["atomic_mass"] / AMU,
    )


@functools.cache
def _loader(base):
    """``base`` refusing a key repeated in one mapping, which YAML would give its last value, and an
    integer int() cannot read (no digits after a base prefix, or more than it converts), whose
    ValueError is no YAML error."""

    class Loader(base):
        def construct_yaml_int(self, node):
            try:
                return super().construct_yaml_int(node)
            except ValueError:
                problem = f"an integer int() cannot read: it has no digits or more than {sys.get_int_max_str_digits()}"
                raise yaml.MarkedYAMLError(None, None, problem, node.start_mark) from None

        def construct_mapping(self, node, deep=False):
            keys = []
            for key_node, _ in node.value:
                if key_node.tag != "tag:yaml.org,2002:merge":  # merged pairs are there to be overridden
                    key = self.construct_object(key_node, deep)
                    if key in keys:
                        raise yaml.MarkedYAMLError(None, None, f"repeated key {key!r}", key_node.start_mark)
                    keys.append(key)
            return super().construct_mapping(node, deep)

    Loader.add_constructor("tag:yaml.org,2002:int", Loader.construct_yaml_int)
    return Loader


@functools.lru_cache(maxsize=1)  # the CLI, the dataset script and a benchmark pass each load one content
def _run_config(data: bytes, name: str, loader) -> RunConfig:
    """The checked RunConfig of a file's bytes, shared by every call with the same arguments, so
    it is read-only; a load that raises is not kept."""
    # a named stream: the parser decodes the bytes itself, so its marks name the file and a
    # file that is not UTF-8 is a YAML error
    stream = io.BytesIO(data)
    stream.name = name
    raw = yaml.load(stream, Loader=loader)
    keys, bad = {"unknown": [], "missing": []}, []
    parsed = _walk(raw, _SCHEMA, "config", keys, bad)
    # every fault in one refusal: the unknown keys, the missing keys, then the rest in schema order
    faults = [f"{', '.join(paths)}: {what} key{'s' * (len(paths) > 1)}" for what, paths in keys.items() if paths] + bad
    if faults:
        raise ConfigError("; ".join(faults))
    geometry = _build_geometry(parsed)
    ensemble = _build_ensemble(parsed)
    config_hash = hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()
    cfg = RunConfig(config_hash=config_hash, parsed=parsed, geometry=geometry, ensemble=ensemble)
    # each rabi file spans at most three periods of one of these frequencies and writes its times in ns
    pair_keys = "geometry.beams.A.rabi, geometry.beams.B.rabi, geometry.detuning_1, ensemble.effective_atom_number"
    excitation = math.sqrt(ensemble.effective_atom_number) * cfg.excitation_rabi
    for keys, omega in (("raman.single_excitation_period", cfg.protocol_rabi), (pair_keys, excitation)):
        if not (0.0 < omega < math.inf and math.isfinite(3.0 * (TWO_PI / omega) * 1e9)):
            raise ConfigError(f"{keys}: Rabi frequency {omega:.6g} rad/s and its three periods in ns must be finite")
    return cfg


def load_config(path=None) -> RunConfig:
    """Load and validate a YAML run configuration (default: packaged)."""
    source = DEFAULT_CONFIG_RESOURCE if path is None else path
    # libyaml when PyYAML was built with it: the same tree, about 6x faster
    loader = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        if path is None:
            data, name = (importlib.resources.files("rydlink.data") / DEFAULT_CONFIG_RESOURCE).read_bytes(), source
        else:
            with open(path, "rb") as fh:
                data, name = fh.read(), fh.name
    except OSError as exc:
        raise ConfigError(f"{source}: {exc.strerror}") from None
    try:
        return _run_config(data, name, loader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{source}: bad YAML: {exc}") from None
