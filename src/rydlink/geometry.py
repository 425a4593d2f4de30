"""Beam wave vectors and spin-wave/photon momentum bookkeeping.

Wave vectors are read-only ``(3,)`` float arrays in rad/um; wavelengths
are in nm, waists in um, and z is the optical axis. Momentum modes carry
both an exact integer coefficient vector over the beam identifiers and
the assembled numeric wave vector, so algebraic identities (mode
composition, retrieval direction) can be checked without float slop.
``modes_distinguishable`` is the scheme's validity condition on the beam
geometry; the configuration loader applies it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BEAM_IDS = ("A", "B", "C", "D", "E", "read")

OVERLAP_THRESHOLD = 0.01


class UnknownBeamError(KeyError):
    pass


def _frozen(v: np.ndarray) -> np.ndarray:
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class Beam:
    wavelength_nm: float
    direction: np.ndarray  # unit vector
    waist_um: float
    rabi: float  # peak single-photon Rabi frequency, rad/s

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if not np.all(np.isfinite(d)):
            raise ValueError("beam direction must be finite")
        n = np.linalg.norm(d)
        if n == 0.0:
            raise ValueError("beam direction must be nonzero")
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"beam direction norm {n} is not 1")
        object.__setattr__(self, "direction", _frozen(d / n))
        if self.waist_um <= 0:
            raise ValueError("waist must be positive")
        if self.wavelength_nm <= 0:
            raise ValueError("wavelength must be positive")


@dataclass(frozen=True)
class BeamGeometry:
    """All beams plus the shared detunings and nominal crossing angles."""

    beams: dict  # BEAM_IDS -> Beam
    detuning_1: float  # rad/s, signed, path via |e1>
    detuning_2: float  # rad/s, signed, path via |e2>
    theta_1_deg: float
    theta_2_deg: float

    def __post_init__(self):
        missing = [b for b in BEAM_IDS if b not in self.beams]
        if missing:
            raise ValueError(f"missing beams: {missing}")

    def beam(self, beam_id: str) -> Beam:
        try:
            return self.beams[beam_id]
        except KeyError:
            raise UnknownBeamError(beam_id) from None


@dataclass(frozen=True)
class ModeLabel:
    """Signed integer combination of beam wave vectors, plus its numeric value."""

    coeffs: tuple  # ((beam_id, int), ...) sorted by beam id
    numeric: np.ndarray  # rad/um

    @property
    def coeff_dict(self) -> dict:
        return dict(self.coeffs)

    def negate(self) -> "ModeLabel":
        return ModeLabel(tuple((b, -c) for b, c in self.coeffs), _frozen(-self.numeric))


def beam_wavevector(beam_id: str, geo: BeamGeometry) -> np.ndarray:
    """k = (2 pi / lambda) * direction, in rad/um."""
    beam = geo.beam(beam_id)
    k = 2.0 * np.pi / (beam.wavelength_nm * 1e-3)  # nm -> um
    return _frozen(k * beam.direction)


def compose_mode(terms, geo: BeamGeometry) -> ModeLabel:
    """Sum of signed beam wave vectors, e.g. [("A", +1), ("B", +1)]."""
    if not terms:
        raise ValueError("compose_mode needs at least one term")
    coeffs: dict = {}
    for beam_id, sign in terms:
        geo.beam(beam_id)  # raises UnknownBeamError
        coeffs[beam_id] = coeffs.get(beam_id, 0) + int(sign)
    numeric = np.zeros(3)
    for beam_id, c in coeffs.items():
        numeric += c * beam_wavevector(beam_id, geo)
    ordered = tuple(sorted((b, c) for b, c in coeffs.items() if c != 0))
    return ModeLabel(ordered, _frozen(numeric))


def retrieval_direction(spinwave: ModeLabel, read_beam: str, geo: BeamGeometry) -> np.ndarray:
    """Photon momentum from phase-matched read-out: k_sw - k_read."""
    return _frozen(spinwave.numeric - beam_wavevector(read_beam, geo))


def mode_overlap(m1: ModeLabel, m2: ModeLabel, waist_um: float) -> float:
    """Gaussian transverse-mode overlap, exp(-|dk_perp|^2 w^2 / 4).

    Only the momentum mismatch transverse to the optical axis (z) matters;
    purely longitudinal mismatch gives overlap 1.
    """
    if waist_um <= 0:
        raise ValueError("waist must be positive")
    dk_perp = np.linalg.norm((m1.numeric - m2.numeric)[:2])
    return float(np.exp(-(dk_perp**2) * waist_um**2 / 4.0))


@dataclass(frozen=True)
class ProtocolModes:
    """The four spin-wave momentum modes of the entanglement sequence."""

    k1: ModeLabel  # ground excitation after the pi-pulse sequence
    k2: ModeLabel  # Rydberg excitation
    k3: ModeLabel  # Rydberg excitation after the Raman kick
    k4: ModeLabel  # ground excitation after the Raman kick
    dk: ModeLabel  # Raman momentum kick
    k_up: np.ndarray  # read-out photon from k2
    k_down: np.ndarray  # read-out photon from k3


def protocol_modes(geo: BeamGeometry) -> ProtocolModes:
    k1 = compose_mode([("A", +1), ("B", +1), ("C", -1), ("D", -1)], geo)
    k2 = compose_mode([("A", +1), ("B", +1)], geo)
    dk = compose_mode([("C", +1), ("E", +1)], geo)
    k3 = compose_mode(k1.coeffs + dk.coeffs, geo)
    k4 = compose_mode(k2.coeffs + dk.negate().coeffs, geo)
    return ProtocolModes(
        k1=k1,
        k2=k2,
        k3=k3,
        k4=k4,
        dk=dk,
        k_up=retrieval_direction(k2, "read", geo),
        k_down=retrieval_direction(k3, "read", geo),
    )


def modes_distinguishable(geo: BeamGeometry) -> bool:
    """Validity gate: k2 != k3 and k1 != k4 at the transverse-overlap level.

    The overlaps are taken over the waist of the excitation beam A and must
    both stay below ``OVERLAP_THRESHOLD``.
    """
    modes = protocol_modes(geo)
    w = geo.beam("A").waist_um
    return (
        mode_overlap(modes.k2, modes.k3, w) < OVERLAP_THRESHOLD
        and mode_overlap(modes.k1, modes.k4, w) < OVERLAP_THRESHOLD
    )
