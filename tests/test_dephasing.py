import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydlink import dephasing as dp
from rydlink.config import load_config
from rydlink.dephasing import SimulationFlags
from rydlink.geometry import protocol_modes
from rydlink.measurement import BLOCK


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def gamma_e(cfg):
    return cfg.parsed["raman"]["intermediate_linewidth"]


@pytest.fixture(scope="module")
def dk_norm(cfg):
    return np.linalg.norm(protocol_modes(cfg.geometry).k2)


class TestThermalMotion:
    def test_velocity_sigma_value(self):
        # sqrt(kB T / m) at 150 uK for mass 86.909 amu: 0.1196 um/us
        sigma = dp.thermal_velocity_sigma(150.0, 86.909)
        assert sigma == pytest.approx(0.1198, rel=1e-3)

    def test_sigma_scales_as_sqrt_temperature(self):
        assert dp.thermal_velocity_sigma(600.0, 86.909) == pytest.approx(
            2.0 * dp.thermal_velocity_sigma(150.0, 86.909), rel=1e-12
        )

    def test_coherence_time_matches_inferred_momentum(self, dk_norm):
        # |dk| = 5.352 rad/um at 150 uK gives the 1.56 us free lifetime
        tau = dp.motional_coherence_time_us(dk_norm, 150.0, 86.909)
        assert tau == pytest.approx(1.56, abs=0.01)

    def test_zero_mismatch_never_dephases(self):
        assert dp.motional_coherence_time_us(0.0, 150.0, 86.909) == np.inf

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            dp.thermal_velocity_sigma(0.0, 86.909)


class TestRamanCoupling:
    def test_branch_weights_cancel_light_shift(self, cfg):
        _, shift = dp.raman_rabi_local(cfg.geometry)
        assert shift == pytest.approx(0.0, abs=1e-6)

    def test_branch_weights_require_opposite_detunings(self):
        with pytest.raises(ValueError):
            dp.shift_cancelling_branch_weights(1e8, 2e8)

    def test_weight_magnitudes_sum_to_one(self):
        b1, b2 = dp.shift_cancelling_branch_weights(2.0 * np.pi * 40e6, -2.0 * np.pi * 610e6)
        assert abs(b1) + abs(b2) == pytest.approx(1.0, rel=1e-12)

    def test_effective_rabi_scale(self, cfg):
        # adiabatic-elimination estimate ~ 2 pi x 1.17 MHz for the defaults
        omega, _ = dp.raman_rabi_local(cfg.geometry)
        assert omega / (2.0 * np.pi * 1e6) == pytest.approx(1.168, abs=0.01)

    def test_exact_splitting_close_to_perturbative(self, cfg):
        # deviation at relative order (Omega/2 Delta)^2, about 1% here
        omega, _ = dp.raman_rabi_local(cfg.geometry)
        exact = dp.raman_splitting_exact(cfg.geometry)
        assert abs(exact - omega) / omega < 0.02
        assert abs(exact - omega) / omega > 1e-4  # genuinely different estimators


ATOMS = st.lists(
    st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0), st.floats(-5e6, 5e6)),
    min_size=1,
    max_size=6,
)


class TestKernelInvariants:
    """Invariants of the batched propagators on the packaged geometry.

    Each drawn atom has local field scales (s1, s2) and a Doppler shift in
    rad/s. The 1e-12 slack covers rounding in the spectral propagation.
    """

    @staticmethod
    def batch(atoms):
        s1, s2, doppler = (np.array(col) for col in zip(*atoms))
        cfg = load_config()
        t_grid_s = np.linspace(0.0, cfg.parsed["simulation"]["dephasing_t_max"], 41)
        gamma_e = cfg.parsed["raman"]["intermediate_linewidth"]
        return gamma_e, dp._four_level_hamiltonian(cfg.geometry, s1, s2, doppler), t_grid_s

    @settings(max_examples=25, deadline=None)
    @given(ATOMS)
    def test_population_bounds_no_jump_amplitude(self, atoms):
        gamma_e, H, t = self.batch(atoms)
        population = dp._batched_lindblad_trace(H, gamma_e, t)
        amps = dp._batched_amplitudes(H, gamma_e, t)
        assert np.all(population >= -1e-12) and np.all(population <= 1.0 + 1e-12)
        # the no-jump branch is one part of the Rydberg population
        assert np.all(np.abs(amps) ** 2 <= population + 1e-12)
        # the collective projection never exceeds the mean population
        assert np.all(np.abs(amps.mean(axis=1)) ** 2 <= (np.abs(amps) ** 2).mean(axis=1) + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(ATOMS)
    def test_lossless_lindblad_is_unitary(self, atoms):
        _, H, t = self.batch(atoms)
        population = dp._batched_lindblad_trace(H, 0.0, t)
        amps = dp._batched_amplitudes(H, 0.0, t)
        assert np.max(np.abs(population - np.abs(amps) ** 2)) <= 1e-9


def per_point_spectral_sum(weights, rates, t_grid_s):
    """Oracle of dp._spectral_sum: a fresh exp(rates t) at every time point."""
    return np.array([np.einsum("nk,nk->n", weights, np.exp(rates * t)) for t in t_grid_s])


SPECTRAL_SUM = dp._spectral_sum  # the helper itself, while kernel_modes stands in for it


class TestSpectralSum:
    """The recurrence against the per-point sum on the 640-point grid of the
    ``ensemble`` benchmark (the packaged 4 us window)."""

    T_GRID_S = np.linspace(0.0, 4e-6, 640)

    @staticmethod
    def kernel_modes(monkeypatch, kernel, gamma):
        """(weights, rates) that a kernel hands to the spectral sum for a batch
        of eight atoms of the packaged geometry."""
        rng = np.random.default_rng(11)
        cfg = load_config()
        H = dp._four_level_hamiltonian(
            cfg.geometry, rng.uniform(0.2, 1.0, 8), rng.uniform(0.2, 1.0, 8), rng.uniform(-5e6, 5e6, 8)
        )
        seen = []

        def capture(weights, rates, t_grid_s):
            seen.append((weights, rates))
            return np.zeros((len(t_grid_s), len(weights)), dtype=complex)

        monkeypatch.setattr(dp, "_spectral_sum", capture)
        kernel(H, cfg.parsed["raman"]["intermediate_linewidth"] * gamma, TestSpectralSum.T_GRID_S)
        return seen[0]

    @pytest.mark.parametrize("kernel", [dp._batched_amplitudes, dp._batched_lindblad_trace],
                             ids=["amplitudes", "lindblad"])
    @pytest.mark.parametrize("gamma", [1.0, 0.0], ids=["gamma_e", "lossless"])
    def test_matches_per_point_sum_on_packaged_modes(self, monkeypatch, kernel, gamma):
        weights, rates = self.kernel_modes(monkeypatch, kernel, gamma)
        assert (rates.real.min() < -1e3) == (gamma > 0.0)  # damped modes exactly when gamma > 0
        got = SPECTRAL_SUM(weights, rates, self.T_GRID_S)
        assert np.max(np.abs(got - per_point_spectral_sum(weights, rates, self.T_GRID_S))) <= 1e-12

    @pytest.mark.parametrize("start", [0, 100], ids=["from-zero", "from-point-100"])
    @pytest.mark.parametrize("damping", [0.0, 3.6e7], ids=["undamped", "damped"])
    def test_matches_per_point_sum_on_drawn_modes(self, damping, start):
        # oscillation rates up to the 2 pi x 610 MHz single-photon detuning
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(50, 16)) + 1j * rng.normal(size=(50, 16))
        weights /= np.abs(weights).sum(axis=1, keepdims=True)
        rates = -damping * rng.random((50, 16)) + 1j * rng.uniform(-4e9, 4e9, (50, 16))
        t = self.T_GRID_S[start:]
        assert np.max(np.abs(SPECTRAL_SUM(weights, rates, t) - per_point_spectral_sum(weights, rates, t))) <= 1e-12

    @pytest.mark.parametrize(
        "t_grid_s",
        [
            np.geomspace(1e-9, 4e-6, 640),
            np.r_[np.linspace(0.0, 2e-6, 320), np.linspace(2.1e-6, 4e-6, 320)],
            T_GRID_S + np.where(np.arange(640) == 300, 1e-9 * T_GRID_S[1], 0.0),
        ],
        ids=["geometric", "gap", "one-point-off-by-1e-9-dt"],
    )
    def test_non_uniform_grid_raises(self, t_grid_s):
        weights = np.ones((3, 4), dtype=complex)
        with pytest.raises(ValueError, match="uniformly spaced"):
            SPECTRAL_SUM(weights, 1j * weights, t_grid_s)


class TestSampling:
    def test_seed_required(self, cfg):
        with pytest.raises(ValueError, match="explicit seed"):
            dp.sample_atoms(cfg.ensemble, 10, None)

    def test_per_index_streams_are_stable(self, cfg):
        # sample i must not depend on how many samples are drawn, also across block boundaries
        sizes = (5, BLOCK + 1, 2 * BLOCK + 3)
        draws = [dp.sample_atoms(cfg.ensemble, n, 42) for n in sizes]
        for n, (pos, vel) in zip(sizes, draws):
            assert pos.shape == vel.shape == (n, 3)
        for (pos_a, vel_a), (pos_b, vel_b) in zip(draws, draws[1:]):
            assert np.array_equal(pos_a, pos_b[: len(pos_a)])
            assert np.array_equal(vel_a, vel_b[: len(vel_a)])

    def test_position_spread_matches_cloud(self, cfg):
        pos, _ = dp.sample_atoms(cfg.ensemble, 4000, 1)
        assert np.std(pos[:, 2]) == pytest.approx(6.5, rel=0.1)
        assert np.std(pos[:, 0]) == pytest.approx(3.5, rel=0.1)


class TestSimulation:
    def grid(self, t_max=4.0, n=150):
        return np.linspace(0.0, t_max, n)

    def test_minimum_sample_count_enforced(self, cfg, gamma_e):
        with pytest.raises(ValueError):
            dp.simulate_single_excitation(
                cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(), 50, 1, self.grid()
            )

    def test_all_off_is_undamped(self, cfg, gamma_e):
        r = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(), 100, 1, self.grid()
        )
        # envelope fit returns an effectively infinite decay time
        assert r.tau_osc_us > 50.0
        assert np.allclose(r.spinwave_projection, r.population_r, atol=1e-9)

    def test_homogeneous_period_matches_exact_splitting(self, cfg, gamma_e):
        # the oscillation with everything off runs at the exact 4-level
        # splitting, within 0.1%
        from rydlink.oracles import fit_oscillation_frequency

        t = self.grid(t_max=3.0, n=400)
        r = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(), 100, 1, t
        )
        w_fit = fit_oscillation_frequency(t * 1e-6, r.population_r, dp.raman_splitting_exact(cfg.geometry))
        assert abs(w_fit - dp.raman_splitting_exact(cfg.geometry)) / w_fit < 1e-3

    def test_motion_only_tau_ratio(self, cfg, gamma_e):
        r = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(motion=True),
            800, 3, self.grid(t_max=5.0, n=250),
        )
        assert r.tau_osc_us / r.tau_free_us == pytest.approx(2.0, rel=0.1)
        assert r.tau_free_us == pytest.approx(1.6, rel=0.15)

    def test_doubling_samples_is_stable(self, cfg, gamma_e):
        kw = dict(flags=SimulationFlags(motion=True), t_grid_us=self.grid(t_max=5.0, n=250))
        a = dp.simulate_single_excitation(cfg.geometry, cfg.ensemble, gamma_e, n_samples=1000, seed=3, **kw)
        b = dp.simulate_single_excitation(cfg.geometry, cfg.ensemble, gamma_e, n_samples=2000, seed=3, **kw)
        assert abs(a.tau_osc_us - b.tau_osc_us) / b.tau_osc_us < 0.03

    def test_projection_never_exceeds_population(self, cfg, gamma_e):
        for flags in (
            SimulationFlags(motion=True),
            SimulationFlags(inhomogeneity=True),
            SimulationFlags(scattering=True),
            SimulationFlags(motion=True, inhomogeneity=True, scattering=True),
        ):
            r = dp.simulate_single_excitation(
                cfg.geometry, cfg.ensemble, gamma_e, flags, 120, 9, self.grid(n=80)
            )
            assert np.all(r.spinwave_projection <= r.population_r + 1e-9)

    def test_scattering_damps_population(self, cfg, gamma_e):
        quiet = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(), 100, 2, self.grid(n=80)
        )
        noisy = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(scattering=True), 100, 2, self.grid(n=80)
        )
        # spontaneous emission kills the oscillation contrast at late times
        # (the drive keeps repumping, so the mean stays near 1/2)
        assert np.ptp(noisy.population_r[-20:]) < 0.5 * np.ptp(quiet.population_r[-20:])

    def test_same_seed_reproduces_exactly(self, cfg, gamma_e):
        kw = dict(
            flags=SimulationFlags(motion=True, inhomogeneity=True),
            n_samples=150, seed=4, t_grid_us=self.grid(n=60),
        )
        a = dp.simulate_single_excitation(cfg.geometry, cfg.ensemble, gamma_e, **kw)
        b = dp.simulate_single_excitation(cfg.geometry, cfg.ensemble, gamma_e, **kw)
        assert np.array_equal(a.population_r, b.population_r)
        assert np.array_equal(a.spinwave_projection, b.spinwave_projection)

    def test_metadata_documents_conventions(self, cfg, gamma_e):
        r = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(motion=True), 100, 5, self.grid(n=60)
        )
        assert "tau_convention" in r.metadata
        assert r.metadata["seed"] == 5
