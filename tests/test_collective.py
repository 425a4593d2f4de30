import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydlink import collective as col
from rydlink.config import load_config
from rydlink.geometry import protocol_modes

OMEGA = 2.0 * np.pi / 492e-9  # effective Rabi from the 492 ns period


@pytest.fixture(scope="module")
def modes():
    return protocol_modes(load_config().geometry)


class TestPeriods:
    def test_pair_period_is_single_over_sqrt2(self):
        ratio = col.pair_oscillation_period(OMEGA) / col.single_excitation_period(OMEGA)
        assert abs(ratio - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_single_period_matches_calibration(self):
        assert col.single_excitation_period(OMEGA) == pytest.approx(492e-9, rel=1e-12)

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            col.single_excitation_period(0.0)
        with pytest.raises(ValueError):
            col.pair_oscillation_period(-1.0)


class TestCollectiveRabi:
    def test_enhanced_frequency(self):
        # population reaches 1 at t = pi / (sqrt(N) Omega)
        n = 150.0
        t = np.pi / (np.sqrt(n) * OMEGA)
        assert col.collective_rabi_population(n, OMEGA, t) == pytest.approx(1.0, abs=1e-12)

    def test_single_atom_limit(self):
        t = np.pi / OMEGA
        assert col.collective_rabi_population(1.0, OMEGA, t) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_sub_single_atom(self):
        with pytest.raises(ValueError):
            col.collective_rabi_population(0.5, OMEGA, 1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_sqrt_n_against_brute_force(self, n):
        # oracle: exact N-atom blockaded trace, fitted frequency
        rng = np.random.default_rng(n)
        pos = rng.normal(scale=[3.5, 3.5, 6.5], size=(n, 3))
        k = np.array([0.3, -0.2, 5.35])
        t_grid = np.linspace(0.0, 4.0 * np.pi / OMEGA, 600)
        p_g = col.brute_force_collective_trace(n, OMEGA, t_grid, k, pos)
        w_n = col.fit_oscillation_frequency(t_grid, p_g, np.sqrt(n) * OMEGA)
        p_1 = col.brute_force_collective_trace(1, OMEGA, t_grid, k, pos[:1])
        w_1 = col.fit_oscillation_frequency(t_grid, p_1, OMEGA)
        assert abs(w_n / w_1 - np.sqrt(n)) < 1e-6


class TestPairEvolution:
    def test_initial_state(self):
        pair = col.pair_evolution(OMEGA, 0.0)
        assert pair.amplitudes[0] == pytest.approx(1.0)

    def test_dark_state_probability_at_half_pi_sqrt2(self):
        # at t = pi/(sqrt(2) Omega): equal weight dark state and double-ground
        t = np.pi / (np.sqrt(2.0) * OMEGA)
        pair = col.pair_evolution(OMEGA, t)
        assert pair.psi_minus_probability() == pytest.approx(0.5, abs=1e-9)

    def test_period_structure(self):
        # the double-ground population has period T'; the amplitudes only
        # recur after 2 T' (the bright superposition picks up a sign at T')
        t_p = col.pair_oscillation_period(OMEGA)
        at_tp = col.pair_evolution(OMEGA, t_p)
        assert abs(at_tp.amplitudes[2]) ** 2 == pytest.approx(0.0, abs=1e-12)
        assert abs(at_tp.amplitudes[1]) == pytest.approx(1.0, abs=1e-9)
        at_2tp = col.pair_evolution(OMEGA, 2.0 * t_p)
        assert abs(at_2tp.amplitudes[0]) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 5e-6))
    def test_normalized_and_dark_component_constant(self, t):
        pair = col.pair_evolution(OMEGA, t)
        a1, a2, _ = pair.amplitudes
        assert np.linalg.norm(pair.amplitudes) == pytest.approx(1.0, abs=1e-12)
        # the antisymmetric combination is dark: constant amplitude 1/sqrt(2)
        assert abs((a1 - a2) / np.sqrt(2.0)) == pytest.approx(0.5 * np.sqrt(2.0), abs=1e-12)


class TestRunProtocol:
    def test_maximally_entangled_at_half_pair_period(self):
        t = col.pair_oscillation_period(OMEGA) / 2.0
        state, success = col.run_protocol(t, OMEGA)
        assert state.concurrence() == pytest.approx(1.0, abs=1e-9)
        assert state.entanglement_entropy_bits() == pytest.approx(1.0, abs=1e-9)
        assert success == pytest.approx(0.5, abs=1e-9)

    def test_zero_duration_not_entangled(self):
        state, success = col.run_protocol(0.0, OMEGA)
        assert state.concurrence() == pytest.approx(0.0, abs=1e-12)
        assert success == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 5e-6))
    def test_success_never_below_half(self, t):
        # only the |S1,S4> branch fails, and it never holds more than 1/2
        state, success = col.run_protocol(t, OMEGA)
        assert 0.5 - 1e-12 <= success <= 1.0 + 1e-12
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestBruteForcePair:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_superatom_matches_full_space(self, n, modes):
        rng = np.random.default_rng(100 + n)
        k1, k2, dk = modes.k1.numeric, modes.k2.numeric, modes.dk.numeric
        for trial in range(5):
            pos = rng.normal(scale=[3.5, 3.5, 6.5], size=(n, 3))
            t = rng.uniform(0.0, 2.0) * col.pair_oscillation_period(OMEGA)
            bf = col.brute_force_pair(n, OMEGA, t, k1, k2, dk, pos)
            pair = col.pair_evolution(OMEGA, t)
            assert bf.fidelity_with(pair) >= 1.0 - 1e-9

    def test_rejects_out_of_range_n(self):
        with pytest.raises(ValueError):
            col.brute_force_pair(1, OMEGA, 1e-9, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            col.brute_force_pair(7, OMEGA, 1e-9, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((7, 3)))


class TestStateValidation:
    def test_pair_state_needs_three_normalized_amplitudes(self):
        with pytest.raises(ValueError):
            col.PairState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            col.PairState(np.array([1.0, 1.0, 0.0]))

    def test_atom_photon_state_validation(self):
        with pytest.raises(ValueError):
            col.AtomPhotonState(np.array([1.0, 1.0]))
        s = col.AtomPhotonState(np.array([0.6, 0.8]))
        assert s.concurrence() == pytest.approx(0.96)
