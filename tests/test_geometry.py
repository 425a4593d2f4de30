import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydlink.config import load_config
from rydlink.geometry import (
    Beam,
    beam_wavevector,
    mode_overlap,
    modes_distinguishable,
    protocol_modes,
)


@pytest.fixture(scope="module")
def geo():
    return load_config().geometry


class TestWavevectorArrays:
    def test_magnitude_from_wavelength(self, geo):
        # |k| = 2 pi / lambda; 795 nm -> 7.903 rad/um
        k = beam_wavevector("A", geo)
        assert np.linalg.norm(k) == pytest.approx(2.0 * np.pi / 0.795, rel=1e-12)

    def test_wave_vectors_are_read_only(self, geo):
        m = protocol_modes(geo)
        for k in (beam_wavevector("A", geo), m.k1, m.k2, m.k3, m.k4, m.dk):
            assert k.shape == (3,)
            with pytest.raises(ValueError):
                k[0] = 0.0

    # mode_overlap sees only the mismatch transverse to the optical axis z
    def test_transverse_norm_of_axial_vector_is_zero(self):
        assert mode_overlap(np.array([0.0, 0.0, 5.0]), np.zeros(3), 7.0) == 1.0

    def test_transverse_norm_general(self):
        # |dk_perp| = 5
        assert mode_overlap(np.array([3.0, 4.0, 12.0]), np.zeros(3), 0.5) == pytest.approx(np.exp(-25.0 * 0.25 / 4.0), rel=1e-12)


class TestBeamValidation:
    def test_rejects_unnormalized_direction(self):
        with pytest.raises(ValueError):
            Beam(795.0, np.array([1.0, 1.0, 0.0]), 7.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_direction(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Beam(795.0, np.array([bad, 0.0, 1.0]), 7.0, 1.0)

    def test_unknown_beam(self, geo):
        with pytest.raises(KeyError):
            beam_wavevector("Z", geo)


class TestModeComposition:
    def test_numeric_matches_integer_coefficients(self, geo):
        # each mode is the signed sum of beam wave vectors the scheme prescribes
        m = protocol_modes(geo)
        coeffs = {
            "k1": {"A": 1, "B": 1, "C": -1, "D": -1},
            "k2": {"A": 1, "B": 1},
            "k3": {"A": 1, "B": 1, "D": -1, "E": 1},
            "k4": {"A": 1, "B": 1, "C": -1, "E": -1},
            "dk": {"C": 1, "E": 1},
        }
        for mode, terms in coeffs.items():
            total = sum(c * beam_wavevector(b, geo) for b, c in terms.items())
            assert np.allclose(getattr(m, mode), total, atol=1e-12), mode


class TestProtocolModes:
    def test_mode_algebra_identities(self, geo):
        m = protocol_modes(geo)
        assert np.allclose(m.k3, m.k1 + m.dk)
        assert np.allclose(m.k4, m.k2 - m.dk)

    def test_first_photon_direction_equals_beam_A(self, geo):
        # read beam retro to B, so the photon read out of k2 leaves along k_A
        m = protocol_modes(geo)
        k_a = beam_wavevector("A", geo)
        assert np.allclose(m.k2 - beam_wavevector("read", geo), k_a, atol=1e-9)

    def test_free_spinwave_momentum_magnitude(self, geo):
        # counter-propagating 795/474 pair: |k_A + k_B| = 2pi(1/0.474 - 1/0.795)
        m = protocol_modes(geo)
        expect = 2.0 * np.pi * (1.0 / 0.474 - 1.0 / 0.795)
        assert np.linalg.norm(m.k2) == pytest.approx(expect, rel=1e-9)


class TestModeOverlap:
    def test_identical_modes_overlap_one(self, geo):
        m = protocol_modes(geo)
        assert mode_overlap(m.k2, m.k2, 7.0) == pytest.approx(1.0)

    def test_longitudinal_mismatch_is_invisible(self, geo):
        # k_A and k_A - k_read differ along z only: the read beam is axial
        a = beam_wavevector("A", geo)
        b = a - beam_wavevector("read", geo)
        assert mode_overlap(a, b, 520.0) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_bounds_and_monotonicity_in_waist(self, w, dx, dy):
        g = load_config().geometry
        m1 = protocol_modes(g).k2
        m2 = protocol_modes(g).k3
        v = mode_overlap(m1, m2, w)
        assert 0.0 <= v <= 1.0
        assert mode_overlap(m1, m2, 2.0 * w) <= v + 1e-15

    def test_default_geometry_passes_gate(self, geo):
        assert modes_distinguishable(geo)
        m = protocol_modes(geo)
        assert mode_overlap(m.k2, m.k3, 7.0) < 0.01
        assert mode_overlap(m.k1, m.k4, 7.0) < 0.01

    def test_degenerate_geometry_fails_gate(self, geo):
        # fold C and E onto the optical axis: the kick becomes purely axial
        beams = dict(geo.beams)
        beams["C"] = Beam(795.0, np.array([0.0, 0.0, 1.0]), 13.0, beams["C"].rabi)
        beams["E"] = Beam(474.0, np.array([0.0, 0.0, 1.0]), 520.0, beams["E"].rabi)
        degenerate = type(geo)(
            beams=beams,
            detuning_1=geo.detuning_1,
            detuning_2=geo.detuning_2,
            theta_1_deg=0.0,
            theta_2_deg=0.0,
        )
        assert not modes_distinguishable(degenerate)
