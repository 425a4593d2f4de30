import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydlink import dephasing as dp
from rydlink.config import load_config, parse_quantity
from rydlink.dephasing import SimulationFlags
from rydlink.geometry import protocol_modes

import laguerre_rule
import oracles
import spectral_kernels as sk


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def gamma_e(cfg):
    return cfg.parsed["raman"]["intermediate_linewidth"]


@pytest.fixture(scope="module")
def dk_norm(cfg):
    return np.linalg.norm(protocol_modes(cfg.geometry).k2)


@pytest.fixture(scope="module")
def packaged_phase(cfg):
    """sigma_D t_max of the packaged config, 2.56 rad."""
    t_max_us = cfg.parsed["simulation"]["dephasing_t_max"] * 1e6
    return oracles.doppler_phase(cfg.geometry, cfg.ensemble, t_max_us)


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


class TestRamanCoupling:
    def test_branch_weights_cancel_light_shift(self, cfg):
        # the differential light shift of the two paths goes as |b1| / Delta_1 + |b2| / Delta_2
        d1, d2 = cfg.geometry.detuning_1, cfg.geometry.detuning_2
        b1, b2 = dp.shift_cancelling_branch_weights(d1, d2)
        assert abs(b1) / d1 + abs(b2) / d2 == pytest.approx(0.0, abs=1e-15 / abs(d1))

    def test_branch_weights_require_opposite_detunings(self):
        with pytest.raises(ValueError):
            dp.shift_cancelling_branch_weights(1e8, 2e8)

    def test_weight_magnitudes_sum_to_one(self):
        b1, b2 = dp.shift_cancelling_branch_weights(2.0 * np.pi * 40e6, -2.0 * np.pi * 610e6)
        assert abs(b1) + abs(b2) == pytest.approx(1.0, rel=1e-12)

    def test_effective_rabi_scale(self, cfg):
        # adiabatic-elimination estimate ~ 2 pi x 1.17 MHz for the defaults
        omega = dp.raman_rabi_local(cfg.geometry)
        assert omega / (2.0 * np.pi * 1e6) == pytest.approx(1.168, abs=0.01)

    def test_exact_splitting_close_to_perturbative(self, cfg):
        # deviation at relative order (Omega/2 Delta)^2, about 1% here
        omega = dp.raman_rabi_local(cfg.geometry)
        exact = dp.raman_splitting(cfg.geometry)[0]
        assert abs(exact - omega) / omega < 0.02
        assert abs(exact - omega) / omega > 1e-4  # genuinely different estimators

    @pytest.mark.parametrize(
        "detuning_2, resolved",
        # split / rounding: 8.5e12, 3.4e4, 3.5 (the splitting 2% off a 50-digit one) and 3.4e-6
        [("-610 MHz", True), ("-1e+7 MHz", True), ("-1e+9 MHz", False), ("-1e+12 MHz", False)],
    )
    def test_splitting_against_the_rounding_of_its_eigenvalues(self, cfg, detuning_2, resolved):
        geo = dataclasses.replace(cfg.geometry, detuning_2=parse_quantity(detuning_2, "frequency"))
        evals = np.linalg.eigvalsh(dp._four_level_hamiltonian(geo, np.ones(1), np.ones(1), np.zeros(1))[0])
        splitting, rounding = dp.raman_splitting(geo)
        assert rounding == pytest.approx(np.finfo(float).eps * np.abs(evals).max(), rel=1e-12)
        assert (splitting > dp.MIN_SPLITTING_ROUNDINGS * rounding) == resolved


ATOMS = st.lists(
    st.tuples(st.floats(0.2, 1.0), st.floats(0.2, 1.0), st.floats(-5e6, 5e6)),
    min_size=1,
    max_size=6,
)


class TestKernelInvariants:
    """Invariants of the batched propagators on the packaged geometry.

    Each drawn atom has local field scales (s1, s2) and a Doppler shift in
    rad/s. The 1e-12 slack covers rounding in the propagation.
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
    """Oracle of sk.spectral_sum: a fresh exp(rates t) at every time point."""
    return np.array([np.einsum("nk,nk->n", weights, np.exp(rates * t)) for t in t_grid_s])


SPECTRAL_SUM = sk.spectral_sum  # the helper itself, while kernel_modes stands in for it


class TestSpectralSum:
    """The recurrence of the spectral oracle against the per-point sum on the
    640-point grid of the ``ensemble`` benchmark (the packaged 4 us window)."""

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

        monkeypatch.setattr(sk, "spectral_sum", capture)
        kernel(H, cfg.parsed["raman"]["intermediate_linewidth"] * gamma, TestSpectralSum.T_GRID_S)
        return seen[0]

    @pytest.mark.parametrize("kernel", [sk.spectral_amplitudes, sk.spectral_lindblad_trace],
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


@pytest.fixture(scope="module")
def packaged_batch(cfg, gamma_e, packaged_phase):
    """The 4x4 Hamiltonians at the 400 nodes of the packaged rule with motion and
    inhomogeneity, and the node weights."""
    geo, flags = cfg.geometry, SimulationFlags(True, True)
    sizes = dp.rule_sizes(cfg.ensemble, flags, 2000, packaged_phase)
    rho_sq, doppler, weights = dp.atom_nodes(cfg.ensemble, protocol_modes(geo).k2, geo.beams["C"].waist_um, flags, sizes)
    s1, s2 = (np.exp(-rho_sq / geo.beams[b].waist_um**2) for b in ("C", "E"))
    return dp._four_level_hamiltonian(geo, s1, s2, doppler), weights


def no_jump_generator(H, gamma):
    """-i H_eff, the generator whose real form dp._batched_amplitudes propagates."""
    H_eff = H.astype(complex)
    H_eff[:, dp.LEVEL_E1, dp.LEVEL_E1] -= 0.5j * gamma
    H_eff[:, dp.LEVEL_E2, dp.LEVEL_E2] -= 0.5j * gamma
    return -1j * H_eff


class TestPropagator:
    """The propagated batches and dp._expm against the spectral and Pade oracles and scipy on the packaged nodes."""

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["lossless", "gamma_e"])
    @pytest.mark.parametrize("n_t", [320, 640])
    def test_lindblad_matches_spectral_oracle(self, packaged_batch, gamma_e, n_t, gamma):
        H, weights = packaged_batch
        t = np.linspace(0.0, 4e-6, n_t)
        got = dp._batched_lindblad_trace(H, gamma * gamma_e, t)
        err = got - sk.spectral_lindblad_trace(H, gamma * gamma_e, t)
        assert np.abs(err).max() <= 5e-12
        assert np.abs(err @ weights).max() <= 2e-13

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["lossless", "gamma_e"])
    def test_amplitudes_match_spectral_oracle(self, packaged_batch, gamma_e, gamma):
        # the lossless oracle (eigh) is itself off by up to 5.5e-12 at the worst nodes, against
        # a 40-digit exponential of the same H, where this kernel is within 6e-13
        H, weights = packaged_batch
        t = np.linspace(0.0, 4e-6, 640)
        got = dp._batched_amplitudes(H, gamma * gamma_e, t)
        err = got - sk.spectral_amplitudes(H, gamma * gamma_e, t)
        assert np.abs(err).max() <= 1e-11
        assert np.abs(err @ weights).max() <= 5e-13

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["lossless", "gamma_e"])
    @pytest.mark.parametrize("kind", ["liouvillian", "no-jump"])
    def test_expm_matches_scipy(self, packaged_batch, gamma_e, kind, gamma):
        from scipy.linalg import expm

        H, _ = packaged_batch
        G = dp._real_liouvillian(H, gamma * gamma_e) if kind == "liouvillian" else no_jump_generator(H, gamma * gamma_e)
        A = G * (4e-6 / 639)  # one step of the 640-point grid
        ref = expm(A)
        assert np.abs(dp._expm(A) - ref).max(axis=(1, 2)).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["lossless", "gamma_e"])
    @pytest.mark.parametrize("kind", ["liouvillian", "no-jump"])
    def test_expm_matches_pade_oracle(self, packaged_batch, gamma_e, kind, gamma):
        H, _ = packaged_batch
        G = dp._real_liouvillian(H, gamma * gamma_e) if kind == "liouvillian" else no_jump_generator(H, gamma * gamma_e)
        A = G * (4e-6 / 639)
        ref = sk.pade13_expm(A)
        assert np.abs(dp._expm(A) - ref).max(axis=(1, 2)).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here")
    @pytest.mark.parametrize("side", [1.0 - 1e-9, 1.0 + 1e-9], ids=["below-theta", "above-theta"])
    @pytest.mark.parametrize("kind", ["liouvillian", "no-jump"])
    def test_expm_at_the_scaling_threshold(self, packaged_batch, gamma_e, kind, side):
        # 1-norms just below THETA_24 take the polynomial at its widest, with no squaring; just
        # above it, one squaring of the polynomial at half that norm. The reference is the
        # long-double one: scipy's expm is itself up to 1.7e-15 off at these norms
        H, _ = packaged_batch
        G = dp._real_liouvillian(H, gamma_e) if kind == "liouvillian" else no_jump_generator(H, gamma_e)
        A = G / np.abs(G).sum(axis=1).max(axis=1)[:, None, None] * (dp.THETA_24 * side)
        ref = sk.longdouble_expm(A)
        err = (np.abs(dp._expm(A) - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))).astype(float)
        assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(A).sum(axis=1).max(axis=1)))

    def test_expm_scales_each_matrix_on_its_own(self, packaged_batch):
        # 1-norms from 2e-3 to 2e3 in one stack: each matrix is squared as often as it needs,
        # and loses at most the rounding of its norm
        from scipy.linalg import expm

        H, _ = packaged_batch
        A = no_jump_generator(H[:7], 0.0) * (4e-6 / 639) * np.logspace(-4, 2, 7)[:, None, None]
        ref = expm(A)
        err = np.abs(dp._expm(A) - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert np.all(err <= 1e-15 * np.maximum(1.0, np.abs(A).sum(axis=1).max(axis=1)))

    @pytest.mark.parametrize(
        "t_grid_s, match",
        [
            (np.geomspace(1e-9, 4e-6, 640), "uniformly spaced"),
            (np.r_[np.linspace(0.0, 2e-6, 320), np.linspace(2.1e-6, 4e-6, 320)], "uniformly spaced"),
            (
                TestSpectralSum.T_GRID_S + np.where(np.arange(640) == 300, 1e-9 * TestSpectralSum.T_GRID_S[1], 0.0),
                "uniformly spaced",
            ),
            (np.linspace(0.5e-6, 4e-6, 640), "from t = 0"),
        ],
        ids=["geometric", "gap", "one-point-off-by-1e-9-dt", "from-0.5-us"],
    )
    def test_non_uniform_grid_raises(self, packaged_batch, t_grid_s, match):
        H, _ = packaged_batch
        with pytest.raises(ValueError, match=match):
            dp._propagate(dp._real_liouvillian(H[:3], 0.0), [dp.LEVEL_R], t_grid_s)

    @pytest.mark.parametrize("n_t", [5, 17, 641], ids=["8-values", "24-values", "672-values"])
    def test_grids_whose_last_block_of_values_runs_over(self, packaged_batch, gamma_e, n_t):
        # n_t = a B + b with a < n_a = ceil(n_t / B): each block computes n_a B values, more than n_t,
        # and the output keeps the first n_t, within the tolerances of the packaged grids
        H, weights = packaged_batch
        t = np.linspace(0.0, 4e-6, n_t)
        for gamma in (0.0, gamma_e):
            assert dp._propagate(dp._real_liouvillian(H, gamma), [dp.LEVEL_R], t).shape == (len(H), n_t, 1)
            err = dp._batched_lindblad_trace(H, gamma, t) - sk.spectral_lindblad_trace(H, gamma, t)
            assert np.abs(err).max() <= 5e-12 and np.abs(err @ weights).max() <= 2e-13
            err = dp._batched_amplitudes(H, gamma, t) - sk.spectral_amplitudes(H, gamma, t)
            assert err.shape == (n_t, len(H))
            assert np.abs(err).max() <= 1e-11 and np.abs(err @ weights).max() <= 5e-13

    def test_hamiltonian_is_real_symmetric(self, packaged_batch):
        # the real form [[D, H], [-H, D]] of the no-jump generator rests on H = H^T real
        H, _ = packaged_batch
        assert H.dtype == np.float64
        assert np.array_equal(H, H.transpose(0, 2, 1))

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["lossless", "gamma_e"])
    def test_real_generator_is_the_complex_one_in_real_form(self, packaged_batch, gamma_e, gamma):
        # [[D, H], [-H, D]] is [[Re G, -Im G], [Im G, Re G]] of G = -i H_eff, so the amplitudes are
        # bit for bit those of the complex generator's real form
        H, _ = packaged_batch
        t = np.linspace(0.0, 4e-6, 320)
        G = no_jump_generator(H, gamma * gamma_e)
        real_form = np.block([[G.real, -G.imag], [G.imag, G.real]])
        want = dp._propagate(real_form, [dp.LEVEL_R, 4 + dp.LEVEL_R], t).view(complex)[..., 0].T
        assert np.array_equal(dp._batched_amplitudes(H, gamma * gamma_e, t), want)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-4e9, 4e9), min_size=16, max_size=16),
        st.sampled_from([1.0, 2.0 * np.pi * 3e10, 2.0 * np.pi * 1e11]),
    )
    def test_decay_rates_never_exceed_gamma(self, entries, gamma):
        # the stiffness guard of dp._batched_lindblad_trace reads gamma as the fastest decay
        # rate; gamma 1.0 stands for the packaged linewidth
        cfg = load_config()
        gamma = cfg.parsed["raman"]["intermediate_linewidth"] if gamma == 1.0 else gamma
        X = np.array(entries).reshape(4, 4)
        drawn = (X + X.T + 1j * (np.triu(X, 1) - np.triu(X, 1).T))[None]
        k_sw = protocol_modes(cfg.geometry).k2
        waist = cfg.geometry.beams["C"].waist_um
        flags = SimulationFlags(True, True)
        phase = oracles.doppler_phase(cfg.geometry, cfg.ensemble, cfg.parsed["simulation"]["dephasing_t_max"] * 1e6)
        rho_sq, doppler, _ = dp.atom_nodes(cfg.ensemble, k_sw, waist, flags, dp.rule_sizes(cfg.ensemble, flags, 2000, phase))
        s1, s2 = (np.exp(-rho_sq[::97] / cfg.geometry.beams[b].waist_um**2) for b in ("C", "E"))
        packaged = dp._four_level_hamiltonian(cfg.geometry, s1, s2, doppler[::97])
        for H in (drawn, packaged):
            evals = np.linalg.eigvals(dp._real_liouvillian(H, gamma))
            assert np.abs(evals.real).max() <= gamma * (1.0 + 1e-12)


class TestStreaming:
    """simulate_single_excitation propagates the nodes BLOCK at a time and keeps only their weighted sums."""

    @staticmethod
    def streamed_and_whole(monkeypatch, cfg, gamma_e, flags, n_t):
        """(population, projection) of the packaged run with ``flags`` at n_t points, the same from the
        two kernels on all its nodes at once and one weighted product each, and the node count of each
        kernel call."""
        kernel, rule, chunks, nodes = dp._batched_amplitudes, dp.atom_nodes, [], []
        monkeypatch.setattr(dp, "_batched_amplitudes", lambda H, *args: chunks.append(H) or kernel(H, *args))
        monkeypatch.setattr(dp, "atom_nodes", lambda *args: nodes.append(rule(*args)) or nodes[-1])
        t = np.linspace(0.0, cfg.parsed["simulation"]["dephasing_t_max"] * 1e6, n_t)
        population, projection, _ = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, flags, cfg.parsed["simulation"]["dephasing_samples"], 1, t
        )
        H, ((_, _, w),), gamma = np.concatenate(chunks), nodes, gamma_e if flags.scatter else 0.0
        amps = kernel(H, gamma, t * 1e-6)
        whole_population = (dp._batched_lindblad_trace(H, gamma, t * 1e-6) if flags.scatter else np.abs(amps) ** 2) @ w
        whole_projection = np.abs(amps @ w) ** 2
        whole = np.clip(whole_population, 0.0, 1.0), np.clip(whole_projection / whole_projection[0], 0.0, 1.0)
        return (population, projection), whole, [len(h) for h in chunks]

    @pytest.mark.parametrize(
        "flags, n_nodes",
        [(SimulationFlags(True, True, True), 400), (SimulationFlags(True, True), 400), (SimulationFlags(True), 20)],
        ids=["motion-inhomo-scatter", "motion-inhomo", "motion"],
    )
    def test_streamed_sums_match_the_whole_batch(self, monkeypatch, cfg, gamma_e, flags, n_nodes):
        # 400 nodes stream as 6 x 64 + 16, and 20 as one chunk of fewer than BLOCK
        streamed, whole, sizes = self.streamed_and_whole(monkeypatch, cfg, gamma_e, flags, 640)
        assert sizes == [min(dp.BLOCK, n_nodes - lo) for lo in range(0, n_nodes, dp.BLOCK)]
        for got, want in zip(streamed, whole):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_peak_memory_stays_below_one_amplitude_array(self, cfg, gamma_e):
        # what the run allocates above what is live before it, against the 16 bytes per point and node
        # of one complex (points, nodes) amplitude array, which it no longer holds (6.9 MiB held before)
        t = np.linspace(0.0, cfg.parsed["simulation"]["dephasing_t_max"] * 1e6, 640)
        args = (cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(True, True, True), 2000, 1, t)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            _, _, record = dp.simulate_single_excitation(*args)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert record["n_nodes"] == 400
        assert peak < 16 * len(t) * record["n_nodes"]


class TestDopplerRule:
    """The Hermite axis in the Doppler shift, sized by the run's phase sigma_D t_max."""

    CAP = dp.DOPPLER_PHASE_MAX
    # the tolerance the reach table is bisected at: 1% below DOPPLER_TOL leaves room for the rounding of
    # the miss, which moves it by up to 1e-16 (8e-17 seen just past a reach)
    SIZING_TOL = 0.99 * dp.DOPPLER_TOL
    MISS_ROUNDING = 5e-16

    @pytest.mark.parametrize("phase", np.r_[np.geomspace(1e-8, 1.0, 17), np.linspace(1.0, CAP, 64)])
    def test_fewest_nodes_that_meet_the_tolerance(self, phase):
        # n nodes meet the sizing tolerance at the phase, and n - 1, whose reach lies below it, do not:
        # both up to the rounding of the miss, which still leaves n within DOPPLER_TOL
        n = dp.doppler_nodes(phase)
        assert dp.doppler_miss(n, phase) <= self.SIZING_TOL + self.MISS_ROUNDING < dp.DOPPLER_TOL
        assert n == 1 or dp.doppler_miss(n - 1, phase) > self.SIZING_TOL - self.MISS_ROUNDING

    @pytest.mark.parametrize("n", range(1, dp.N_V + 1))
    def test_reach_table_is_the_bisection(self, n):
        assert dp.DOPPLER_REACH[n - 1] == pytest.approx(oracles.doppler_reach(n, self.SIZING_TOL), rel=1e-8)

    def test_reach_table_leaves_room_for_rounding(self):
        # each reach rounded to 10 significant digits stays below DOPPLER_TOL by more than the 1e-16
        # rounding of the miss (9.9e-14 at worst): a table bisected at DOPPLER_TOL itself gave 1.0009e-13
        misses = [dp.doppler_miss(n, float(f"{reach:.9e}")) for n, reach in enumerate(dp.DOPPLER_REACH, 1)]
        assert max(misses) <= self.SIZING_TOL + self.MISS_ROUNDING < dp.DOPPLER_TOL

    @pytest.mark.parametrize("n", range(1, dp.N_V + 1))
    def test_miss_does_not_fall_as_the_phase_grows(self, n):
        # up to its reach the miss of n nodes only grows, beyond rounding, and stays within the
        # tolerance: meeting it at t_max meets it at every earlier time of the window
        reach = dp.DOPPLER_REACH[n - 1]
        x = np.linspace(0.0, reach, 400)
        miss = dp.doppler_miss(n, x)
        assert miss.max() <= dp.DOPPLER_TOL
        assert (np.maximum.accumulate(miss) - miss).max() <= 1e-15
        # and the reach is tight: just past it the miss is at the sizing tolerance, up to rounding
        assert dp.doppler_miss(n, reach * (1.0 + 1e-8)) > self.SIZING_TOL - self.MISS_ROUNDING

    def test_a_zero_of_the_miss_past_the_reach_sizes_nothing(self):
        # the 2-node mean, cos x, crosses exp(-x^2 / 2) at this phase, so its miss there is below the
        # tolerance although 2 nodes fail from 0.001 rad on: the fewest nodes that meet it at t_max
        # alone would be 2, and the reach gives the 33 that meet it at every earlier time
        x = 4.712404041776436
        assert dp.doppler_miss(2, x) <= dp.DOPPLER_TOL < dp.doppler_miss(2, 1.0)
        assert dp.doppler_nodes(x) == 33

    def test_cap_admits_every_phase_the_fixed_rule_did(self, packaged_phase):
        # the 32 nodes of the fixed rule missed by 2.4e-12 at 5 rad; N_V meet the tolerance there
        assert 5.0 < self.CAP < 5.02
        assert dp.doppler_miss(dp.N_V, 5.0) <= dp.DOPPLER_TOL < dp.doppler_miss(oracles.FIXED_N_V, 5.0)
        assert dp.doppler_nodes(self.CAP) == dp.N_V and dp.doppler_nodes(np.nextafter(self.CAP, 6.0)) == dp.N_V
        assert all(np.diff(dp.DOPPLER_REACH) > 0.0)
        assert dp.doppler_nodes(packaged_phase) == 20

    def test_record_states_the_miss_of_a_shrunk_axis(self, cfg, gamma_e):
        # a budget of 10 keeps 10 of the 20 nodes the packaged phase needs: the record writes their
        # largest miss over the written times, above the tolerance, and does not claim to meet it
        t = np.linspace(0.0, 4.0, 60)
        _, _, record = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(motion=True), 10, 1, t
        )
        assert record["n_nodes"] == 10 and record["doppler_tolerance"] == dp.DOPPLER_TOL
        assert record["doppler_miss"] == dp.doppler_miss(10, t / record["tau_free_us"]).max() > 1e3 * dp.DOPPLER_TOL

    # of the five packaged flag sets only these two have a Doppler axis
    @pytest.mark.parametrize(
        "flags", [SimulationFlags(motion=True), SimulationFlags(True, True, True)], ids=["motion", "motion-inhomo-scatter"]
    )
    def test_matches_the_fixed_32_node_rule(self, cfg, gamma_e, packaged_phase, monkeypatch, flags):
        sim = cfg.parsed["simulation"]
        t_grid = np.linspace(0.0, sim["dephasing_t_max"] * 1e6, sim["dephasing_points"])
        args = (cfg.geometry, cfg.ensemble, gamma_e, flags, sim["dephasing_samples"], cfg.seed, t_grid)
        population, projection, record = dp.simulate_single_excitation(*args)
        n_v = dp.doppler_nodes(packaged_phase)
        monkeypatch.setattr(dp, "doppler_nodes", oracles.fixed_doppler_nodes)
        fixed_population, fixed_projection, fixed_record = dp.simulate_single_excitation(*args)
        assert np.abs(population - fixed_population).max() <= 1e-12
        assert np.abs(projection - fixed_projection).max() <= 1e-12
        assert fixed_record["n_nodes"] * n_v == record["n_nodes"] * oracles.FIXED_N_V


class TestQuadratureRule:
    @pytest.mark.parametrize("on", list(itertools.product((False, True), repeat=3)))
    def test_axes_collapse_when_off_or_isotropic(self, cfg, packaged_phase, on):
        flags = SimulationFlags(*on)
        motion, inhomo, _ = on
        n_v = dp.doppler_nodes(packaged_phase) if motion else 1
        assert dp.rule_sizes(cfg.ensemble, flags, 10**6, packaged_phase) == (dp.N_X if inhomo else 1, 1, n_v)
        anisotropic = dataclasses.replace(cfg.ensemble, cloud_sigma_um=(3.5, 5.0, 6.5))
        full = (dp.N_X if inhomo else 1, dp.N_THETA if inhomo else 1, n_v)
        assert dp.rule_sizes(anisotropic, flags, 10**6, packaged_phase) == full

    @staticmethod
    @functools.cache
    def written_values(anisotropic, budget, fixed=False):
        """Population and projection of a motion + inhomo run at 40 points of the packaged window, on
        the fixed 32-node Doppler rule of the oracles if ``fixed``."""
        cfg = load_config()
        ens = dataclasses.replace(cfg.ensemble, cloud_sigma_um=(3.5, 5.0, 6.5)) if anisotropic else cfg.ensemble
        with pytest.MonkeyPatch.context() as patch:
            if fixed:
                patch.setattr(dp, "doppler_nodes", oracles.fixed_doppler_nodes)
            population, projection, _ = dp.simulate_single_excitation(
                cfg.geometry, ens, cfg.parsed["raman"]["intermediate_linewidth"], SimulationFlags(True, True),
                budget, 1, np.linspace(0.0, 4.0, 40),
            )
        return np.r_[population, projection]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(dp.MIN_SAMPLES, 30_000), st.booleans())
    def test_budget_shrinks_the_rule_until_it_fits(self, budget, anisotropic):
        cfg = load_config()
        ens = cfg.ensemble
        if anisotropic:
            ens = dataclasses.replace(ens, cloud_sigma_um=(3.5, 5.0, 6.5))
        flags = SimulationFlags(motion=True, inhomo=True)
        phase = oracles.doppler_phase(cfg.geometry, ens, 4.0)  # the window of written_values
        full = dp.rule_sizes(ens, flags, 10**6, phase)
        sizes = dp.rule_sizes(ens, flags, budget, phase)
        if math.prod(full) <= budget:
            assert sizes == full
        else:
            assert math.prod(sizes) <= budget
            if budget >= 2000:
                # from the packaged budget up, the shrunk rule lies within 1e-6 of the full one
                gap = self.written_values(anisotropic, budget) - self.written_values(anisotropic, 10**6)
                assert np.abs(gap).max() <= 1e-6

    @pytest.mark.parametrize(
        "sigma, rho_tol",
        [((3.5, 3.5, 6.5), (1.2e-12, 5e-11)), ((3.5, 5.0, 6.5), (1.5e-8, 4e-7))],
        ids=["isotropic", "anisotropic"],
    )
    def test_weights_and_moments(self, cfg, dk_norm, packaged_phase, sigma, rho_tol):
        # positive weights summing to 1, and exact moments of the beam-C intensity I = exp(-rho^2 / w^2),
        # the variable of the Gauss rule: <I^k> = (1 + 2k sigma_x^2 / w^2)^-1/2 (1 + 2k sigma_y^2 / w^2)^-1/2
        # for k < 2 N_X, and <doppler^2> = (sigma_v |k| 1e6)^2. <rho^2> = sigma_x^2 + sigma_y^2 and
        # <rho^4> = 3 sigma_x^4 + 2 sigma_x^2 sigma_y^2 + 3 sigma_y^4 hold to the rule's error in
        # log I only, which rho_tol bounds (relative)
        ens = dataclasses.replace(cfg.ensemble, cloud_sigma_um=sigma)
        k_sw = protocol_modes(cfg.geometry).k2
        waist = cfg.geometry.beams["C"].waist_um
        flags = SimulationFlags(True, True)
        rho_sq, doppler, w = dp.atom_nodes(ens, k_sw, waist, flags, dp.rule_sizes(ens, flags, 10**6, packaged_phase))
        assert np.all(w > 0) and w.sum() == pytest.approx(1.0, abs=1e-14)
        sx2, sy2 = sigma[0] ** 2, sigma[1] ** 2
        k = np.arange(2 * dp.N_X)
        exact = ((1 + 2 * k * sx2 / waist**2) * (1 + 2 * k * sy2 / waist**2)) ** -0.5
        assert np.abs(np.exp(-rho_sq / waist**2) ** k[:, None] @ w / exact - 1).max() <= 1e-14
        assert w @ rho_sq == pytest.approx(sx2 + sy2, rel=rho_tol[0])
        assert w @ rho_sq**2 == pytest.approx(3 * sx2**2 + 2 * sx2 * sy2 + 3 * sy2**2, rel=rho_tol[1])
        sigma_d = dp.thermal_velocity_sigma(ens.temperature_uK, ens.atomic_mass_amu) * dk_norm * 1e6
        assert w @ doppler == pytest.approx(0.0, abs=1e-6 * sigma_d)
        assert w @ doppler**2 == pytest.approx(sigma_d**2, rel=1e-12)

    @pytest.mark.parametrize("b", [0.05, 1.0, 6.9, 84.0])
    def test_jacobi_rule_is_exact_below_degree_2n(self, b):
        # the Golub-Welsch rule for the density b x^(b - 1) on (0, 1]: <x^k> = b / (b + k) for k < 2n;
        # b = 6.9 is the packaged cloud's, 0.05 a 41 um one and 84 a 1 um one under beam C
        x, w = dp.jacobi_rule(np.array([b]), dp.N_X)
        k = np.arange(2 * dp.N_X)
        assert np.all((x > 0) & (x < 1)) and np.all(w > 0)
        assert np.abs(x[0] ** k[:, None] @ w[0] * (b + k) / b - 1).max() <= 5e-14

    def test_hermite_rule_is_one_read_only_pair_per_size(self):
        # every motion run shares the cached arrays, so none of them may write into them
        v, w = dp._hermite_rule(dp.N_V)
        assert dp._hermite_rule(dp.N_V)[0] is v and dp._hermite_rule(dp.N_V)[1] is w
        assert not v.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0
        assert w.sum() == pytest.approx(1.0, rel=1e-15) and w @ v**2 == pytest.approx(1.0, rel=1e-13)

    def test_jacobi_rule_at_the_smallest_b_the_config_allows(self):
        # a beam 1.4e-4 times the cloud: the nodes stay inside (0, 1) and the moments near exact
        b = dp.MIN_JACOBI_B
        x, w = dp.jacobi_rule(np.array([b]), dp.N_X)
        k = np.arange(2 * dp.N_X)
        assert np.all((x > 0) & (x < 1)) and np.all(w > 0)
        assert np.abs(x[0] ** k[:, None] @ w[0] * (b + k) / b - 1).max() <= 1e-7

    @pytest.mark.parametrize("sigma", [1e-300, 1e300], ids=["point-cloud", "no-light"])
    def test_extreme_clouds_give_finite_nodes(self, cfg, sigma):
        # a cloud far narrower or wider than the beam puts every atom at I = 1 or at I = 0
        ens = dataclasses.replace(cfg.ensemble, cloud_sigma_um=(sigma, sigma, 6.5))
        rho_sq, _, w = dp.atom_nodes(ens, np.ones(3), 13.0, SimulationFlags(inhomo=True), (dp.N_X, 1, 1))
        intensity = np.exp(-rho_sq / 13.0**2)
        assert np.all(np.isfinite(w)) and w.sum() == pytest.approx(1.0, abs=1e-14)
        assert w @ intensity == pytest.approx(1.0 if sigma < 1 else 0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_jacobi_nodes_at_or_below_zero_take_the_dark_limit(self, cfg):
        # a 1.2e8 um cloud under a 13 um beam has b ~ 6e-15, where the smallest Jacobi node
        # rounds to zero or below; it must give I = 0 (rho^2 = inf), not log of a negative
        ens = dataclasses.replace(cfg.ensemble, cloud_sigma_um=(1.2e8, 1.2e8, 6.5))
        assert dp.jacobi_rule(np.array([1e-15]), dp.N_X)[0].min() <= 0.0
        rho_sq, _, w = dp.atom_nodes(ens, np.ones(3), 13.0, SimulationFlags(inhomo=True), (dp.N_X, 1, 1))
        assert np.all(np.isfinite(w)) and np.all(rho_sq >= 0.0)

    @pytest.mark.parametrize("flags", [SimulationFlags(True, True), SimulationFlags(True, True, True)],
                             ids=["motion-inhomo", "motion-inhomo-scatter"])
    def test_matches_the_laguerre_rule_on_the_packaged_cloud(self, cfg, gamma_e, packaged_phase, monkeypatch, flags):
        # the 48 x 32 Gauss-Laguerre rule it replaced, about 1e-11 from a converged rule here
        sim = cfg.parsed["simulation"]
        t_grid = np.linspace(0.0, sim["dephasing_t_max"] * 1e6, sim["dephasing_points"])
        args = (cfg.geometry, cfg.ensemble, gamma_e, flags, sim["dephasing_samples"], cfg.seed, t_grid)
        pop_j, proj_j, record_j = dp.simulate_single_excitation(*args)
        monkeypatch.setattr(dp, "atom_nodes", laguerre_rule.atom_nodes)
        pop_l, proj_l, record_l = dp.simulate_single_excitation(*args)
        nodes = math.prod(dp.rule_sizes(cfg.ensemble, flags, sim["dephasing_samples"], packaged_phase))
        assert (record_j["n_nodes"], record_l["n_nodes"]) == (nodes, laguerre_rule.N_U * laguerre_rule.N_V)
        assert np.max(np.abs(pop_j - pop_l)) <= 1e-10
        assert np.max(np.abs(proj_j - proj_l)) <= 1e-10

    @pytest.mark.parametrize("fixed", [True, False], ids=["fixed-32-node-doppler", "sized-doppler"])
    def test_floor_is_the_smallest_budget_within_1e_4(self, fixed):
        # at MIN_SAMPLES the motion + inhomo rule lies within 1e-12 of the full one on the packaged cloud
        # and within 1e-4 on the (3.5, 5.0) um one. The floor was set on the fixed 32-node Doppler rule,
        # where one node fewer misses 1e-4; the sized rule keeps 4 x 5 of its 16 x 20 fast nodes there,
        # 3.7e-5 off at every budget from 240 to 359, so on it the floor is not the smallest that works
        floor = dp.MIN_SAMPLES

        def gap(anisotropic, budget):
            full = self.written_values(anisotropic, 10**6, fixed)
            return np.abs(self.written_values(anisotropic, budget, fixed) - full).max()

        assert gap(False, floor) <= 1e-12
        assert gap(True, floor) <= 1e-4
        if fixed:
            assert 1e-4 < gap(True, floor - 1)

    @pytest.mark.parametrize("flags", [SimulationFlags(), SimulationFlags(scatter=True)], ids=["none", "scatter"])
    def test_none_and_scatter_evaluate_one_node(self, cfg, gamma_e, monkeypatch, flags):
        batches = []

        def spy(kernel):
            def counted(H, *args):
                batches.append(len(H))
                return kernel(H, *args)

            return counted

        for name in ("_batched_amplitudes", "_batched_lindblad_trace"):
            monkeypatch.setattr(dp, name, spy(getattr(dp, name)))
        _, _, record = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, flags, 2000, 1, np.linspace(0.0, 4.0, 60)
        )
        assert record["n_nodes"] == 1
        assert batches == ([1, 1] if flags.scatter else [1])


FIT_RUNS = {
    # the five runs of the default dataset, then the three of the benchmark's ensemble workload
    **{f"packaged-{name}": (flags, None, None) for name, flags in {
        "none": SimulationFlags(),
        "motion": SimulationFlags(motion=True),
        "inhomo": SimulationFlags(inhomo=True),
        "scatter": SimulationFlags(scatter=True),
        "motion-inhomo-scatter": SimulationFlags(True, True, True),
    }.items()},
    "ensemble-none": (SimulationFlags(), 4000, 640),
    "ensemble-motion-inhomo": (SimulationFlags(motion=True, inhomo=True), 4000, 640),
    "ensemble-motion-inhomo-scatter": (SimulationFlags(True, True, True), 4000, 640),
}


class TestEnvelopeFit:
    """dp.fit_envelope_time_us against scipy's curve_fit over all five parameters, and against the
    variable-projection fit it replaced, which stopped only where no step lowered the residual."""

    @pytest.mark.parametrize("run", FIT_RUNS)
    def test_matches_curve_fit(self, cfg, gamma_e, run):
        flags, budget, points = FIT_RUNS[run]
        sim = cfg.parsed["simulation"]
        t = np.linspace(0.0, sim["dephasing_t_max"] * 1e6, points or sim["dephasing_points"])
        _, projection, record = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, flags, budget or sim["dephasing_samples"], 1, t
        )
        w, se = oracles.curve_fit_envelope_time_us(t, projection, dp.raman_splitting(cfg.geometry)[0])
        # measured: at most 1.2e-4 of se apart in w, and 9e-4 relative in se (on none, where
        # curve_fit's finite-difference Jacobian is the coarser one)
        assert abs(record["tau_osc_us"] - w) <= 1e-3 * se
        assert record["tau_osc_se_us"] == pytest.approx(se, rel=1e-2)

    @staticmethod
    def envelope(b):
        t = np.linspace(0.0, 4.0, 320)
        return t, np.exp(-((t / 2.2) ** 2)) * (0.5 * np.cos(2 * np.pi * 1.3 * t + 0.3) + b)

    def test_noise_free_envelope_is_met_exactly(self):
        fit = dp.fit_envelope_time_us(*self.envelope(0.4), 1.01 * 2 * np.pi * 1.3e6)
        assert float(fit) == pytest.approx(2.2, rel=1e-9) and fit.se_us < 1e-9

    def test_negative_offset_is_held_at_zero_as_curve_fit_holds_it(self):
        t, y = self.envelope(-0.1)
        fit = dp.fit_envelope_time_us(t, y, 1.01 * 2 * np.pi * 1.3e6)
        w, se = oracles.curve_fit_envelope_time_us(t, y, 1.01 * 2 * np.pi * 1.3e6)
        assert abs(fit - w) <= 1e-3 * se and fit.se_us == pytest.approx(se, rel=1e-2)

    @staticmethod
    @functools.cache
    def projection(run):
        """(t, projection, omega guess) of a FIT_RUNS case on the packaged config."""
        cfg = load_config()
        flags, budget, points = FIT_RUNS[run]
        sim = cfg.parsed["simulation"]
        t = np.linspace(0.0, sim["dephasing_t_max"] * 1e6, points or sim["dephasing_points"])
        _, projection, _ = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, cfg.parsed["raman"]["intermediate_linewidth"], flags,
            budget or sim["dephasing_samples"], 1, t,
        )
        return t, projection, dp.raman_splitting(cfg.geometry)[0]

    @staticmethod
    def counted_fit(monkeypatch, t, y, omega):
        """(the fit, the residual evaluations it took)."""
        calls = []
        residual = dp._envelope_residual
        monkeypatch.setattr(dp, "_envelope_residual", lambda *args: calls.append(1) or residual(*args))
        fit = dp.fit_envelope_time_us(t, y, omega)
        monkeypatch.setattr(dp, "_envelope_residual", residual)
        return fit, len(calls)

    @pytest.mark.parametrize("run", FIT_RUNS)
    def test_matches_the_fit_that_stopped_at_no_descent(self, monkeypatch, run):
        # the fit it replaced also stops, beyond the residual's rounding, where no step lowers RSS: at
        # most 2.2e-7 se apart (ensemble-motion-inhomo-scatter), in 4 to 12 evaluations where it took 7 to 23
        t, y, omega = self.projection(run)
        fit, evaluations = self.counted_fit(monkeypatch, t, y, omega)
        oracle = oracles.no_descent_envelope_time_us(t, y, omega)
        assert abs(fit - oracle) <= 1e-6 * oracle.se_us
        assert fit.se_us == pytest.approx(oracle.se_us, rel=1e-5)
        assert evaluations <= 14

    @pytest.mark.parametrize("run", FIT_RUNS)
    @pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["up", "down"])
    def test_one_ulp_moves_neither_tau_nor_the_evaluations(self, monkeypatch, run, direction):
        t, y, omega = self.projection(run)
        fit, evaluations = self.counted_fit(monkeypatch, t, y, omega)
        moved, moved_evaluations = self.counted_fit(monkeypatch, t, np.nextafter(y, direction), omega)
        assert abs(moved - fit) <= 1e-6 * fit.se_us
        assert abs(moved_evaluations - evaluations) <= 2

    def test_zero_projection_stops_at_the_start(self):
        # no residual to lower: both fits return the start, the window, with a standard error of 0
        t = np.linspace(0.0, 4.0, 320)
        for fit in (dp.fit_envelope_time_us, oracles.no_descent_envelope_time_us):
            result = fit(t, np.zeros_like(t), 8e6)
            assert float(result) == 4.0 and result.se_us == 0.0

    def test_no_convergence_raises(self, monkeypatch):
        t = np.linspace(0.0, 4.0, 50)
        monkeypatch.setattr(dp, "FIT_MAX_STEPS", 0)
        with pytest.raises(dp.FitError, match="no convergence"):
            dp.fit_envelope_time_us(t, np.exp(-((t / 2) ** 2)) * (0.5 * np.cos(8 * t) + 0.5), 8e6)

    def test_five_points_have_no_standard_error(self):
        t = np.linspace(0.0, 4.0, 5)
        fit = dp.fit_envelope_time_us(t, np.exp(-((t / 2) ** 2)) * (0.5 * np.cos(8 * t) + 0.5), 8e6)
        assert math.isfinite(fit) and fit.se_us is None


class TestSimulation:
    def grid(self, t_max=4.0, n=150):
        return np.linspace(0.0, t_max, n)

    @staticmethod
    def far_detuned(cfg, gamma_e, detuning_2):
        geo = dataclasses.replace(cfg.geometry, detuning_2=parse_quantity(detuning_2, "frequency"))
        sim = cfg.parsed["simulation"]
        t_grid = np.linspace(0.0, sim["dephasing_t_max"] * 1e6, sim["dephasing_points"])
        return dp.simulate_single_excitation(
            geo, cfg.ensemble, gamma_e, SimulationFlags(), sim["dephasing_samples"], cfg.seed, t_grid
        )

    @pytest.mark.parametrize("detuning_2", ["-1e+10 MHz", "-1e+11 MHz"])
    def test_far_detuning_stays_in_the_unit_interval(self, monkeypatch, cfg, gamma_e, detuning_2):
        # the one-step propagator is unitary only to rounding: at these detunings the lossless
        # population comes out within 1e-9 above 1 and is returned as 1. Their splittings lie
        # below the rounding of the eigenvalues and their windows span ~1e-6 rad, so the clip
        # is reached with both gates off
        monkeypatch.setattr(dp, "MIN_SPLITTING_ROUNDINGS", 0.0)
        monkeypatch.setattr(dp, "MIN_FIT_PHASE", 0.0)
        population, projection, _ = self.far_detuned(cfg, gamma_e, detuning_2)
        for values in (population, projection):
            assert np.all((values >= 0.0) & (values <= 1.0))

    @pytest.mark.parametrize("detuning_2", ["-1e+10 MHz", "-1e+11 MHz"])
    def test_far_detuning_is_refused_at_the_splitting(self, monkeypatch, cfg, gamma_e, detuning_2):
        # 0.034 and 3.4e-4 of the rounding of the eigenvalues: refused before any propagation
        monkeypatch.setattr(dp, "_propagate", None)
        with pytest.raises(dp.Refused, match="the Raman splitting .* is below") as refused:
            self.far_detuned(cfg, gamma_e, detuning_2)
        assert refused.value.limit == "splitting"

    def test_all_off_is_undamped(self, cfg, gamma_e):
        population, projection, record = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(), dp.MIN_SAMPLES, 1, self.grid()
        )
        # envelope fit returns an effectively infinite decay time
        assert record["tau_osc_us"] > 50.0
        assert np.allclose(projection, population, atol=1e-9)

    def test_homogeneous_period_matches_exact_splitting(self, cfg, gamma_e):
        # the oscillation with everything off runs at the exact 4-level
        # splitting, within 0.1%
        t = self.grid(t_max=3.0, n=400)
        population, _, _ = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(), dp.MIN_SAMPLES, 1, t
        )
        w_fit = oracles.fit_oscillation_frequency(t * 1e-6, population, dp.raman_splitting(cfg.geometry)[0])
        assert abs(w_fit - dp.raman_splitting(cfg.geometry)[0]) / w_fit < 1e-3

    def test_motion_only_tau_ratio(self, cfg, gamma_e):
        _, _, record = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(motion=True),
            800, 3, self.grid(t_max=5.0, n=250),
        )
        assert record["tau_osc_us"] / record["tau_free_us"] == pytest.approx(2.0, rel=0.1)
        assert record["tau_free_us"] == pytest.approx(1.6, rel=0.15)

    def test_doubling_samples_is_stable(self, cfg, gamma_e):
        # sigma_D t_max = 3.2 rad: a budget of 400 shrinks the 20 x 23 rule to 20 x 20 nodes; 2000 runs the full rule
        kw = dict(flags=SimulationFlags(motion=True, inhomo=True), t_grid_us=self.grid(t_max=5.0, n=250))
        _, _, a = dp.simulate_single_excitation(cfg.geometry, cfg.ensemble, gamma_e, n_samples=400, seed=3, **kw)
        _, _, b = dp.simulate_single_excitation(cfg.geometry, cfg.ensemble, gamma_e, n_samples=2000, seed=3, **kw)
        assert abs(a["tau_osc_us"] - b["tau_osc_us"]) / b["tau_osc_us"] < 0.03

    def test_projection_never_exceeds_population(self, cfg, gamma_e):
        for flags in (
            SimulationFlags(motion=True),
            SimulationFlags(inhomo=True),
            SimulationFlags(scatter=True),
            SimulationFlags(motion=True, inhomo=True, scatter=True),
        ):
            population, projection, _ = dp.simulate_single_excitation(
                cfg.geometry, cfg.ensemble, gamma_e, flags, dp.MIN_SAMPLES, 9, self.grid(n=80)
            )
            assert np.all(projection <= population + 1e-9)

    def test_scattering_damps_population(self, cfg, gamma_e):
        quiet, _, _ = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(), dp.MIN_SAMPLES, 2, self.grid(n=80)
        )
        noisy, _, _ = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(scatter=True), dp.MIN_SAMPLES, 2, self.grid(n=80)
        )
        # spontaneous emission kills the oscillation contrast at late times
        # (the drive keeps repumping, so the mean stays near 1/2)
        assert np.ptp(noisy[-20:]) < 0.5 * np.ptp(quiet[-20:])

    def test_seed_does_not_change_the_ensemble(self, cfg, gamma_e):
        # the quadrature draws nothing: seeds 4 and 5 give the same bytes
        kw = dict(flags=SimulationFlags(motion=True, inhomo=True), n_samples=dp.MIN_SAMPLES, t_grid_us=self.grid(n=60))
        a = dp.simulate_single_excitation(cfg.geometry, cfg.ensemble, gamma_e, seed=4, **kw)
        b = dp.simulate_single_excitation(cfg.geometry, cfg.ensemble, gamma_e, seed=5, **kw)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_metadata_documents_conventions(self, cfg, gamma_e):
        _, _, record = dp.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, SimulationFlags(motion=True), dp.MIN_SAMPLES, 5, self.grid(n=60)
        )
        assert "tau_convention" in record["metadata"]
        assert record["seed"] == 5
        phase = oracles.doppler_phase(cfg.geometry, cfg.ensemble, 4.0)
        assert (record["n_samples"], record["n_nodes"]) == (dp.MIN_SAMPLES, dp.doppler_nodes(phase))
        assert record["flags"] == {"motion": True, "inhomo": False, "scatter": False}
        # the Doppler axis states its tolerance and meets it at every written time
        assert record["doppler_tolerance"] == dp.DOPPLER_TOL
        assert 0.0 <= record["doppler_miss"] <= dp.DOPPLER_TOL
        # metadata holds only what the record has nowhere else
        assert set(record["metadata"]) == {"omega_eff_rad_s", "spinwave_k_rad_um", "tau_convention"}
