import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydlink import measurement as ms
from rydlink.collective import AtomPhotonState
from rydlink.measurement import (
    CoincidenceRecord,
    DetectorModel,
    PhotonFieldModel,
    TwoPhotonState,
    ZeroCoincidenceError,
)

IDEAL = DetectorModel()
SQ2 = 1.0 / np.sqrt(2.0)


def bell_state(phase):
    aps = AtomPhotonState(np.array([SQ2, -SQ2]))
    return ms.momentum_to_polarization(aps, phase)


def coincidence_reference(state, basis, det):
    """Explicit sum over signal outcomes (o1, o2) and click channels (x, y)."""
    p_sig = ms.born_probabilities(state, basis)
    p_joint = [[p_sig[0], p_sig[2]], [p_sig[3], p_sig[1]]]  # [o1][o2]

    def click(hit):
        return 1.0 - (1.0 - det.efficiency * hit) * (1.0 - det.background_prob / 2.0)

    q = np.zeros((2, 2))
    for o1 in range(2):
        for o2 in range(2):
            for x in range(2):
                for y in range(2):
                    q[x, y] += p_joint[o1][o2] * click(float(o1 == x)) * click(float(o2 == y))
    if q.sum() == 0.0:  # efficiency^2 can underflow
        return None
    q = q / q.sum()
    return np.array([q[0, 0], q[1, 1], q[0, 1], q[1, 0]])


class TestPolarizationMapping:
    def test_pure_mapping_and_phase(self):
        state = bell_state(0.0)
        # (|HV> - |VH>)/sqrt(2): HV and VH populations 1/2, coherence -1/2
        assert state.dm[ms.HV, ms.HV].real == pytest.approx(0.5)
        assert state.dm[ms.VH, ms.VH].real == pytest.approx(0.5)
        assert state.dm[ms.HV, ms.VH].real == pytest.approx(-0.5)

    def test_phase_rotates_coherence_only(self):
        state = bell_state(np.pi / 3.0)
        coh = state.dm[ms.HV, ms.VH]
        assert abs(coh) == pytest.approx(0.5)
        assert np.angle(coh) == pytest.approx(-np.pi / 3.0 + np.pi)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            ms.momentum_to_polarization(AtomPhotonState(np.array([1.0, 1.0])), 0.0)


class TestMemoryDecoherence:
    def test_damps_coherence_by_exponential(self):
        state = bell_state(0.0)
        out = ms.apply_memory_decoherence(state, 300e-9, 30e-6)
        f = np.exp(-300e-9 / 30e-6)
        assert out.dm[ms.HV, ms.VH].real == pytest.approx(-0.5 * f)
        assert out.dm[ms.HV, ms.HV].real == pytest.approx(0.5)

    def test_zero_delay_is_identity(self):
        state = bell_state(1.0)
        out = ms.apply_memory_decoherence(state, 0.0, 30e-6)
        assert np.allclose(out.dm, state.dm)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ms.apply_memory_decoherence(bell_state(0.0), -1.0, 30e-6)
        with pytest.raises(ValueError):
            ms.apply_memory_decoherence(bell_state(0.0), 1.0, 0.0)


class TestBornProbabilities:
    def test_phi_dependence_in_pm_basis(self):
        # C_par = (1 - cos phi)/2, C_perp = (1 + cos phi)/2
        for phi in np.linspace(0.0, 2.0 * np.pi, 13):
            p = ms.born_probabilities(bell_state(phi), "pm")
            assert p[0] + p[1] == pytest.approx((1.0 - np.cos(phi)) / 2.0, abs=1e-12)
            assert p[2] + p[3] == pytest.approx((1.0 + np.cos(phi)) / 2.0, abs=1e-12)

    def test_hv_parallel_always_zero(self):
        for phi in np.linspace(0.0, 2.0 * np.pi, 13):
            p = ms.born_probabilities(bell_state(phi), "hv")
            assert p[0] == pytest.approx(0.0, abs=1e-12)
            assert p[1] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 2.0 * np.pi), st.sampled_from(ms.BASES))
    def test_probabilities_sum_to_one(self, phi, basis):
        p = ms.born_probabilities(bell_state(phi), basis)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            ms.born_probabilities(bell_state(0.0), "diag")


class TestCoincidenceModel:
    def test_ideal_detectors_reproduce_born(self):
        p = ms.born_probabilities(bell_state(0.7), "pm")
        q = ms.coincidence_probabilities(bell_state(0.7), "pm", IDEAL)
        assert np.allclose(q, p, atol=1e-12)

    def test_background_washes_out_correlations(self):
        noisy = DetectorModel(efficiency=1e-6, background_prob=0.5)
        q = ms.coincidence_probabilities(bell_state(np.pi), "pm", noisy)
        assert np.allclose(q, 0.25, atol=1e-3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, 0.9),
        st.floats(0.0, 2.0 * np.pi),
        st.sampled_from(ms.BASES),
    )
    def test_matrix_form_matches_enumeration(self, efficiency, background, phase, basis):
        state = bell_state(phase)
        det = DetectorModel(efficiency, background)
        reference = coincidence_reference(state, basis, det)
        if reference is None:
            with pytest.raises(ZeroCoincidenceError):
                ms.coincidence_probabilities(state, basis, det)
            return
        q = ms.coincidence_probabilities(state, basis, det)
        assert np.max(np.abs(q - reference)) <= 1e-15

    def test_zero_everything_raises(self):
        dead = DetectorModel(efficiency=0.0, background_prob=0.0)
        with pytest.raises(ZeroCoincidenceError):
            ms.coincidence_probabilities(bell_state(0.0), "pm", dead)


class TestVisibilityAndFidelity:
    def test_visibility_definition(self):
        rec = CoincidenceRecord((10, 10, 60, 60), 200)
        assert ms.visibility(rec) == pytest.approx(100.0 / 140.0)

    def test_visibility_is_symmetric_in_sign(self):
        a = ms.visibility(CoincidenceRecord((60, 60, 10, 10), 200))
        b = ms.visibility(CoincidenceRecord((10, 10, 60, 60), 200))
        assert a == pytest.approx(b)

    def test_no_counts_raises(self):
        with pytest.raises(ZeroCoincidenceError):
            ms.visibility(CoincidenceRecord((0, 0, 0, 0), 10))

    def test_fidelity_bound_reference_values(self):
        # (1/4)(1 + 0.897 + 0.828 + 0.879) = 0.901
        assert ms.fidelity_bound(0.897, 0.828, 0.879) == pytest.approx(0.901, abs=5e-4)

    def test_fidelity_bound_extremes(self):
        assert ms.fidelity_bound(1.0, 1.0, 1.0) == pytest.approx(1.0)
        assert ms.fidelity_bound(0.0, 0.0, 0.0) == pytest.approx(0.25)

    def test_fidelity_bound_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ms.fidelity_bound(1.2, 0.5, 0.5)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_fidelity_bound_linear_and_bounded(self, a, b, c):
        f = ms.fidelity_bound(a, b, c)
        assert 0.25 <= f <= 1.0
        assert f == pytest.approx(0.25 * (1.0 + a + b + c), rel=1e-12)

    def test_ideal_three_basis_measurement(self):
        state = bell_state(np.pi)
        res = ms.measure_three_bases(state, IDEAL, 50000, 1)
        assert res.v_hv == pytest.approx(1.0)
        assert res.v_pm == pytest.approx(1.0)
        assert res.v_circ == pytest.approx(1.0)
        assert res.fidelity == pytest.approx(1.0)
        # invariant: F is exactly the visibility average formula
        assert res.fidelity == 0.25 * (1.0 + res.v_hv + res.v_pm + res.v_circ)


class TestSampling:
    def test_deterministic_given_seed(self):
        probs = np.array([0.1, 0.2, 0.3, 0.4])
        a = ms.sample_counts(probs, 1000, 7)
        b = ms.sample_counts(probs, 1000, 7)
        assert a == b

    def test_counts_sum_to_trials(self):
        rec = ms.sample_counts(np.array([0.25] * 4), 1234, 0)
        assert sum(rec.counts) == 1234

    def test_record_validation(self):
        with pytest.raises(ValueError):
            CoincidenceRecord((5, 5, 5, 5), 10)  # counts exceed trials
        with pytest.raises(ValueError):
            CoincidenceRecord((1, 2, 3), 10)


class TestPhotonStatistics:
    def test_single_photon_distribution(self):
        d = PhotonFieldModel("single_photon", 0.7, IDEAL).occupation_distribution()
        assert np.allclose(d, [0.3, 0.7])

    def test_coherent_mean(self):
        d = PhotonFieldModel("coherent", 1.3, IDEAL).occupation_distribution()
        n = np.arange(len(d))
        assert np.sum(n * d) == pytest.approx(1.3, rel=1e-9)

    def test_thermal_mean(self):
        d = PhotonFieldModel("thermal", 0.4, IDEAL).occupation_distribution()
        n = np.arange(len(d))
        assert np.sum(n * d) == pytest.approx(0.4, rel=1e-6)

    def test_dlcz_truncated_geometric(self):
        d = PhotonFieldModel("dlcz_pair", 0.1, IDEAL).occupation_distribution()
        assert len(d) == 5
        assert d[1] / d[0] == pytest.approx(0.1, rel=1e-12)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PhotonFieldModel("squeezed", 0.1, IDEAL)


class TestG2:
    def test_single_photon_is_antibunched(self):
        f = PhotonFieldModel("single_photon", 1.0, IDEAL)
        assert ms.g2_hbt(f) < 1e-12

    def test_coherent_is_exactly_one(self):
        # independent thinning of Poisson light: g2 = 1 at any efficiency
        for eta in (1.0, 0.3):
            f = PhotonFieldModel("coherent", 0.8, DetectorModel(eta))
            assert ms.g2_hbt(f) == pytest.approx(1.0, abs=1e-9)

    def test_thermal_click_estimator_value(self):
        # frozen oracle: click-level estimator for geometric statistics is
        # (2 + u)/(1 + u) with u = nbar * eta; u = 0.5 gives 5/3
        f = PhotonFieldModel("thermal", 0.5, DetectorModel(1.0))
        assert ms.g2_hbt(f) == pytest.approx(5.0 / 3.0, rel=1e-9)

    def test_thermal_low_flux_limit_is_two(self):
        f = PhotonFieldModel("thermal", 1e-4, DetectorModel(1.0))
        assert ms.g2_hbt(f) == pytest.approx(2.0, abs=1e-3)

    def test_dlcz_pair_oracle_value(self):
        # frozen from an independent truncated-geometric enumeration
        f = PhotonFieldModel("dlcz_pair", 0.05, DetectorModel(1.0))
        assert ms.g2_hbt(f) == pytest.approx(1.9495990978146907, rel=1e-9)

    def test_mc_agrees_with_analytic(self):
        f = PhotonFieldModel("thermal", 0.5, DetectorModel(1.0))
        exact = ms.g2_hbt(f)
        mc = ms.g2_hbt(f, trials=400_000, seed=13)
        assert mc == pytest.approx(exact, rel=0.03)

    def test_mc_requires_seed(self):
        f = PhotonFieldModel("coherent", 1.0, IDEAL)
        with pytest.raises(ValueError):
            ms.g2_hbt(f, trials=1000)

    def test_mc_deterministic(self):
        f = PhotonFieldModel("thermal", 0.5, DetectorModel(1.0, 0.01))
        assert ms.g2_hbt(f, trials=50_000, seed=3) == ms.g2_hbt(f, trials=50_000, seed=3)


class TestBackgroundCalibration:
    def test_round_trip(self):
        f = PhotonFieldModel("single_photon", 1.0, DetectorModel(0.008))
        b = ms.calibrate_background(0.062, f)
        check = PhotonFieldModel("single_photon", 1.0, DetectorModel(0.008, b))
        assert ms.g2_hbt(check) == pytest.approx(0.062, abs=1e-4)

    def test_monotone_in_target(self):
        f = PhotonFieldModel("single_photon", 1.0, DetectorModel(0.008))
        b_low = ms.calibrate_background(0.03, f)
        b_high = ms.calibrate_background(0.12, f)
        assert 0.0 < b_low < b_high

    def test_rejects_bad_target(self):
        f = PhotonFieldModel("single_photon", 1.0, DetectorModel(0.008))
        with pytest.raises(ValueError):
            ms.calibrate_background(0.0, f)
        with pytest.raises(ValueError):
            ms.calibrate_background(1.0, f)


class TestDetectorValidation:
    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=1.5)

    def test_background_range(self):
        with pytest.raises(ValueError):
            DetectorModel(background_prob=1.0)


class TestTwoPhotonStateValidation:
    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        m[0, 0] = 1.0
        with pytest.raises(ValueError):
            TwoPhotonState(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            TwoPhotonState(np.eye(4, dtype=complex))
