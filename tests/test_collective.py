import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydlink import collective as col
from rydlink import oracles
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
        p_g = oracles.brute_force_collective_trace(n, OMEGA, t_grid, k, pos)
        w_n = oracles.fit_oscillation_frequency(t_grid, p_g, np.sqrt(n) * OMEGA)
        p_1 = oracles.brute_force_collective_trace(1, OMEGA, t_grid, k, pos[:1])
        w_1 = oracles.fit_oscillation_frequency(t_grid, p_1, OMEGA)
        assert abs(w_n / w_1 - np.sqrt(n)) < 1e-6


def concurrence(amps):
    """Concurrence 2|a||b| of the atom-photon state a|k_up,S1> + b|k_down,S4>."""
    return 2.0 * np.abs(amps[..., 0]) * np.abs(amps[..., 1])


def entanglement_entropy_bits(amps):
    p = np.abs(amps) ** 2
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log2(p)))


def psi_minus_probability(pair):
    """Weight of the dark state (|R2,S1> - |R3,S4>)/sqrt(2)."""
    return abs((pair[0] - pair[1]) / np.sqrt(2.0)) ** 2


class TestPairEvolution:
    def test_initial_state(self):
        pair = col.pair_evolution(OMEGA, 0.0)
        assert pair[0] == pytest.approx(1.0)

    def test_dark_state_probability_at_half_pi_sqrt2(self):
        # at t = pi/(sqrt(2) Omega): equal weight dark state and double-ground
        t = np.pi / (np.sqrt(2.0) * OMEGA)
        pair = col.pair_evolution(OMEGA, t)
        assert psi_minus_probability(pair) == pytest.approx(0.5, abs=1e-9)

    def test_period_structure(self):
        # the double-ground population has period T'; the amplitudes only
        # recur after 2 T' (the bright superposition picks up a sign at T')
        t_p = col.pair_oscillation_period(OMEGA)
        at_tp = col.pair_evolution(OMEGA, t_p)
        assert abs(at_tp[2]) ** 2 == pytest.approx(0.0, abs=1e-12)
        assert abs(at_tp[1]) == pytest.approx(1.0, abs=1e-9)
        at_2tp = col.pair_evolution(OMEGA, 2.0 * t_p)
        assert abs(at_2tp[0]) == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 5e-6))
    def test_normalized_and_dark_component_constant(self, t):
        pair = col.pair_evolution(OMEGA, t)
        a1, a2, _ = pair
        assert np.linalg.norm(pair) == pytest.approx(1.0, abs=1e-12)
        # the antisymmetric combination is dark: constant amplitude 1/sqrt(2)
        assert abs((a1 - a2) / np.sqrt(2.0)) == pytest.approx(0.5 * np.sqrt(2.0), abs=1e-12)


class TestRunProtocol:
    def test_maximally_entangled_at_half_pair_period(self):
        t = col.pair_oscillation_period(OMEGA) / 2.0
        amps, success = col.run_protocol(t, OMEGA)
        assert concurrence(amps) == pytest.approx(1.0, abs=1e-9)
        assert entanglement_entropy_bits(amps) == pytest.approx(1.0, abs=1e-9)
        assert success == pytest.approx(0.5, abs=1e-9)

    def test_zero_duration_not_entangled(self):
        amps, success = col.run_protocol(0.0, OMEGA)
        assert concurrence(amps) == pytest.approx(0.0, abs=1e-12)
        assert success == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 5e-6))
    def test_success_never_below_half(self, t):
        # only the |S1,S4> branch fails, and it never holds more than 1/2
        amps, success = col.run_protocol(t, OMEGA)
        assert 0.5 - 1e-12 <= success <= 1.0 + 1e-12
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="raman_duration"):
            col.run_protocol(np.array([0.0, -1e-9]), OMEGA)


class TestBruteForcePair:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_superatom_matches_full_space(self, n, modes):
        rng = np.random.default_rng(100 + n)
        k1, k2, dk = modes.k1, modes.k2, modes.dk
        for trial in range(5):
            pos = rng.normal(scale=[3.5, 3.5, 6.5], size=(n, 3))
            t = rng.uniform(0.0, 2.0) * col.pair_oscillation_period(OMEGA)
            bf = oracles.brute_force_pair(n, OMEGA, t, k1, k2, dk, pos)
            pair = col.pair_evolution(OMEGA, t)
            assert bf.fidelity_with(pair) >= 1.0 - 1e-9

    def test_rejects_out_of_range_n(self):
        with pytest.raises(ValueError):
            oracles.brute_force_pair(1, OMEGA, 1e-9, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((1, 3)))
        with pytest.raises(ValueError):
            oracles.brute_force_pair(7, OMEGA, 1e-9, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros((7, 3)))


class TestStateValidation:
    def test_pair_state_needs_three_normalized_amplitudes(self):
        t = np.linspace(0.0, 2.0 * col.pair_oscillation_period(OMEGA), 601)
        pair = col.pair_evolution(OMEGA, t)
        assert pair.shape == (601, 3)
        assert np.allclose(np.linalg.norm(pair, axis=-1), 1.0, atol=1e-12)
        assert np.array_equal(pair[123], col.pair_evolution(OMEGA, t[123]))

    def test_atom_photon_state_validation(self):
        t = np.linspace(0.0, 2.0 * col.pair_oscillation_period(OMEGA), 601)
        amps, success = col.run_protocol(t, OMEGA)
        assert amps.shape == (601, 2) and success.shape == (601,)
        assert np.allclose(np.linalg.norm(amps, axis=-1), 1.0, atol=1e-12)
        row_amps, row_success = col.run_protocol(t[77], OMEGA)
        assert np.array_equal(amps[77], row_amps) and success[77] == row_success
