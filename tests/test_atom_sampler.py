"""The per-atom Monte Carlo sampler that the quadrature over the atoms replaced, kept as its oracle.

``sample_atoms`` draws Gaussian positions and Maxwell-Boltzmann velocities
from the seeded streams (ATOM_STREAM, b), as ``dephasing`` did before its
ensemble mean became a product Gauss rule, and ``sampled_ensemble`` runs the
dephasing kernels on those atoms. The quadrature of
``simulate_single_excitation`` must lie within 5 standard errors of the
sampled means, and must not move when every axis of its rule is doubled.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from rydlink import dephasing as dp
from rydlink.config import load_config
from rydlink.dephasing import SimulationFlags
from rydlink.geometry import protocol_modes

from per_trial_samplers import BLOCK, rng_blocks

ATOM_STREAM = 1  # the atoms' stream key; the package leaves key 1 unused


def sample_atoms(ens, n_samples, seed):
    """(positions in um, velocities in um/us), each of shape (n_samples, 3).

    Samples are drawn in blocks from streams (ATOM_STREAM, b) of
    ``per_trial_samplers.rng_blocks``, positions then velocities per sample, so
    sample i does not depend on how many samples are drawn. A velocity in
    um/us is numerically identical to one in m/s.
    """
    sigma_v = dp.thermal_velocity_sigma(ens.temperature_uK, ens.atomic_mass_amu)
    scale = np.stack([np.asarray(ens.cloud_sigma_um, dtype=float), np.full(3, sigma_v)])
    blocks = rng_blocks(seed, n_samples, ATOM_STREAM)
    draws = np.concatenate([rng.normal(0.0, scale, size=(n, 2, 3)) for rng, n in blocks])
    return draws[:, 0], draws[:, 1]


def sampled_ensemble(geo, ens, gamma_e, flags, n_samples, seed, t_grid_us):
    """(mean population, its standard error, mean r amplitude, its standard error) over
    sampled atoms at each time; the amplitude's error is that of the complex mean,
    sqrt((var Re + var Im) / n)."""
    pos, vel = sample_atoms(ens, n_samples, seed)
    rho_sq = pos[:, 0] ** 2 + pos[:, 1] ** 2 if flags.inhomo else np.zeros(n_samples)
    s1, s2 = (np.exp(-rho_sq / geo.beams[b].waist_um ** 2) for b in ("C", "E"))
    doppler = (vel @ protocol_modes(geo).k2) * 1e6 if flags.motion else np.zeros(n_samples)
    H = dp._four_level_hamiltonian(geo, s1, s2, doppler)
    gamma = gamma_e if flags.scatter else 0.0
    t_grid_s = np.asarray(t_grid_us) * 1e-6
    amps = dp._batched_amplitudes(H, gamma, t_grid_s)
    pop = dp._batched_lindblad_trace(H, gamma, t_grid_s) if flags.scatter else np.abs(amps) ** 2
    root_n = np.sqrt(n_samples)
    amp_se = np.sqrt(amps.real.var(axis=1, ddof=1) + amps.imag.var(axis=1, ddof=1)) / root_n
    return pop.mean(axis=1), pop.std(axis=1, ddof=1) / root_n, amps.mean(axis=1), amp_se


def double_every_axis(monkeypatch):
    """Twice the nodes on every axis of the rule over the atoms: the Doppler axis twice the nodes
    that doppler_nodes sizes for the run's phase."""
    for name in ("N_X", "N_THETA"):
        monkeypatch.setattr(dp, name, 2 * getattr(dp, name))
    monkeypatch.setattr(dp, "doppler_nodes", lambda phase, sized=dp.doppler_nodes: 2 * sized(phase))


@pytest.fixture(scope="module")
def cfg():
    return load_config()


class TestSampling:
    def test_per_index_streams_are_stable(self, cfg):
        # sample i must not depend on how many samples are drawn, also across block boundaries
        sizes = (5, BLOCK + 1, 2 * BLOCK + 3)
        draws = [sample_atoms(cfg.ensemble, n, 42) for n in sizes]
        for n, (pos, vel) in zip(sizes, draws):
            assert pos.shape == vel.shape == (n, 3)
        for (pos_a, vel_a), (pos_b, vel_b) in zip(draws, draws[1:]):
            assert np.array_equal(pos_a, pos_b[: len(pos_a)])
            assert np.array_equal(vel_a, vel_b[: len(vel_a)])

    def test_position_spread_matches_cloud(self, cfg):
        pos, _ = sample_atoms(cfg.ensemble, 4000, 1)
        assert np.std(pos[:, 2]) == pytest.approx(6.5, rel=0.1)
        assert np.std(pos[:, 0]) == pytest.approx(3.5, rel=0.1)


ALL_FLAGS = [SimulationFlags(*on) for on in itertools.product((False, True), repeat=3)]
ANISOTROPIC = (3.5, 5.0, 6.5)  # um; the packaged cloud is (3.5, 3.5, 6.5)


def flag_id(flags):
    return "-".join(name for name, on in dataclasses.asdict(flags).items() if on) or "none"


class TestQuadratureOracle:
    T_GRID_US = np.linspace(0.0, 4.0, 81)

    @pytest.mark.parametrize(
        "flags, sigma",
        [(f, None) for f in ALL_FLAGS] + [(f, ANISOTROPIC) for f in ALL_FLAGS if f.inhomo],
        ids=[flag_id(f) for f in ALL_FLAGS] + [f"{flag_id(f)}-anisotropic" for f in ALL_FLAGS if f.inhomo],
    )
    def test_sampled_mean_within_5_standard_errors(self, cfg, flags, sigma):
        """At the packaged node budget, the 4000-atom sampler's mean population and the magnitude
        of its mean amplitude lie within 5 standard errors of the quadrature at every time. Only
        the inhomo runs read the cloud's x and y widths, so only they run on the anisotropic cloud.
        The 1e-12 covers rounding where every atom starts alike (t = 0) and the error is 0."""
        ens = cfg.ensemble if sigma is None else dataclasses.replace(cfg.ensemble, cloud_sigma_um=sigma)
        gamma_e = cfg.parsed["raman"]["intermediate_linewidth"]
        budget = cfg.parsed["simulation"]["dephasing_samples"]
        quad_pop, quad_proj, _ = dp.simulate_single_excitation(
            cfg.geometry, ens, gamma_e, flags, budget, 1, self.T_GRID_US
        )
        pop, pop_se, amp, amp_se = sampled_ensemble(cfg.geometry, ens, gamma_e, flags, 4000, 1, self.T_GRID_US)
        assert np.all(np.abs(pop - quad_pop) <= 5.0 * pop_se + 1e-12)
        # | |A_mc| - |A| | <= |A_mc - A|, and the projection is |A|^2 normalised at t = 0
        magnitude = np.abs(amp) / np.abs(amp[0])
        assert np.all(np.abs(magnitude - np.sqrt(quad_proj)) <= 5.0 * amp_se + 1e-12)

    @pytest.mark.parametrize("flags", [SimulationFlags(True, True), SimulationFlags(True, True, True)],
                             ids=["motion-inhomo", "motion-inhomo-scatter"])
    def test_doubling_every_axis_moves_no_written_value(self, cfg, monkeypatch, flags):
        """The packaged run's 320 populations and projections move by at most 1e-10 when the
        rule has twice the nodes on every axis."""
        sim = cfg.parsed["simulation"]
        t_grid = np.linspace(0.0, sim["dephasing_t_max"] * 1e6, sim["dephasing_points"])
        args = (cfg.geometry, cfg.ensemble, cfg.parsed["raman"]["intermediate_linewidth"], flags)
        pop, proj, record = dp.simulate_single_excitation(*args, sim["dephasing_samples"], cfg.seed, t_grid)
        double_every_axis(monkeypatch)
        pop_2, proj_2, record_2 = dp.simulate_single_excitation(*args, 4 * sim["dephasing_samples"], cfg.seed, t_grid)
        assert record_2["n_nodes"] == 4 * record["n_nodes"]
        assert np.max(np.abs(pop_2 - pop)) <= 1e-10
        assert np.max(np.abs(proj_2 - proj)) <= 1e-10

    @pytest.mark.parametrize(
        "sigma, flags, n_t, tol",
        [
            ((1.0, 1.0), SimulationFlags(True, True), 160, 1e-10),
            ((2.0, 2.0), SimulationFlags(True, True), 160, 1e-10),
            ((5.0, 5.0), SimulationFlags(True, True), 160, 1e-10),
            # the doubled rule has 40 x 32 x 40 nodes here, so fewer points
            (ANISOTROPIC[:2], SimulationFlags(True, True), 40, 1e-10),
            ((7.0, 7.0), SimulationFlags(True, True), 160, 1e-7),
            ((7.0, 7.0), SimulationFlags(True, True, True), 160, 1e-7),
        ],
        ids=["1um", "2um", "5um", "anisotropic", "7um", "7um-scatter"],
    )
    def test_doubling_every_axis_on_other_clouds(self, cfg, monkeypatch, sigma, flags, n_t, tol):
        """The full rule on clouds from 1 to 7 um moves by at most tol when every axis has twice the
        nodes: 6e-10 (motion + inhomo) and 1e-8 (+ scatter) at 7 um, where the 48-node Gauss-Laguerre
        rule of tests/laguerre_rule.py missed by 6e-3, and 5e-13 and less from 5 um down."""
        ens = dataclasses.replace(cfg.ensemble, cloud_sigma_um=(*sigma, 6.5))
        args = (cfg.geometry, ens, cfg.parsed["raman"]["intermediate_linewidth"], flags, 10**6, 1)
        t_grid = np.linspace(0.0, 4.0, n_t)
        pop, proj, record = dp.simulate_single_excitation(*args, t_grid)
        double_every_axis(monkeypatch)
        pop_2, proj_2, record_2 = dp.simulate_single_excitation(*args, t_grid)
        assert record_2["n_nodes"] == (8 if sigma[0] != sigma[1] else 4) * record["n_nodes"]
        assert np.max(np.abs(pop_2 - pop)) <= tol
        assert np.max(np.abs(proj_2 - proj)) <= tol

    def test_doubling_azimuth_nodes_on_anisotropic_cloud(self, cfg, monkeypatch):
        ens = dataclasses.replace(cfg.ensemble, cloud_sigma_um=ANISOTROPIC)
        args = (cfg.geometry, ens, 0.0, SimulationFlags(inhomo=True), 10**6, 1, self.T_GRID_US)
        pop, proj, record = dp.simulate_single_excitation(*args)
        monkeypatch.setattr(dp, "N_THETA", 2 * dp.N_THETA)
        pop_2, proj_2, _ = dp.simulate_single_excitation(*args)
        assert record["n_nodes"] == dp.N_X * dp.N_THETA // 2
        assert np.max(np.abs(pop_2 - pop)) <= 1e-10
        assert np.max(np.abs(proj_2 - proj)) <= 1e-10
