"""Beam wave vectors and the spin-wave momentum modes of the protocol.

Wave vectors are read-only ``(3,)`` float arrays in rad/um; wavelengths
are in nm, waists in um, and z is the optical axis. The protocol modes
are plain sums and differences of beam wave vectors.
``modes_distinguishable`` is the scheme's validity condition on the beam
geometry; the configuration loader applies it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BEAM_IDS = ("A", "B", "C", "D", "E", "read")

OVERLAP_THRESHOLD = 0.01


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
        n = np.linalg.norm(d)
        if not abs(n - 1.0) <= 1e-6:  # also true for a NaN or infinite norm
            raise ValueError(f"beam direction must be a finite unit vector, got norm {n}")
        object.__setattr__(self, "direction", _frozen(d / n))


@dataclass(frozen=True)
class BeamGeometry:
    """All beams plus the shared detunings and nominal crossing angles."""

    beams: dict  # BEAM_IDS -> Beam
    detuning_1: float  # rad/s, signed, path via |e1>
    detuning_2: float  # rad/s, signed, path via |e2>
    theta_1_deg: float
    theta_2_deg: float


def beam_wavevector(beam_id: str, geo: BeamGeometry) -> np.ndarray:
    """k = (2 pi / lambda) * direction, in rad/um."""
    beam = geo.beams[beam_id]
    k = 2.0 * np.pi / (beam.wavelength_nm * 1e-3)  # nm -> um
    return _frozen(k * beam.direction)


def mode_overlap(k_a: np.ndarray, k_b: np.ndarray, waist_um: float) -> float:
    """Gaussian transverse-mode overlap, exp(-|dk_perp|^2 w^2 / 4).

    Only the momentum mismatch transverse to the optical axis (z) matters;
    purely longitudinal mismatch gives overlap 1.
    """
    if waist_um <= 0:
        raise ValueError("waist must be positive")
    dk_perp = np.linalg.norm((k_a - k_b)[:2])
    return float(np.exp(-(dk_perp**2) * waist_um**2 / 4.0))


@dataclass(frozen=True)
class ProtocolModes:
    """The four spin-wave momentum modes of the entanglement sequence, rad/um."""

    k1: np.ndarray  # ground excitation after the pi-pulse sequence
    k2: np.ndarray  # Rydberg excitation
    k3: np.ndarray  # Rydberg excitation after the Raman kick
    k4: np.ndarray  # ground excitation after the Raman kick
    dk: np.ndarray  # Raman momentum kick


def protocol_modes(geo: BeamGeometry) -> ProtocolModes:
    k = {b: beam_wavevector(b, geo) for b in ("A", "B", "C", "D", "E")}
    k2 = k["A"] + k["B"]
    k1 = k2 - k["C"] - k["D"]
    dk = k["C"] + k["E"]
    return ProtocolModes(
        k1=_frozen(k1), k2=_frozen(k2), k3=_frozen(k1 + dk), k4=_frozen(k2 - dk), dk=_frozen(dk)
    )


def modes_distinguishable(geo: BeamGeometry) -> bool:
    """Validity gate: k2 != k3 and k1 != k4 at the transverse-overlap level.

    The overlaps are taken over the waist of the excitation beam A and must
    both stay below ``OVERLAP_THRESHOLD``.
    """
    modes = protocol_modes(geo)
    w = geo.beams["A"].waist_um
    return (
        mode_overlap(modes.k2, modes.k3, w) < OVERLAP_THRESHOLD
        and mode_overlap(modes.k1, modes.k4, w) < OVERLAP_THRESHOLD
    )
