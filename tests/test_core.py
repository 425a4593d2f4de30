"""Reference Lindblad integrator and superoperator, and the checks of the spectral batch against them.

``lindblad_evolve`` is a fixed-step RK4 integrator on plain arrays. The
step is halved until a further halving changes no output entry by more
than CONVERGENCE_TOL; failing that raises NonConvergenceError. It shares
no code with the eigendecomposition path in ``dephasing`` that it checks.

``kron_liouvillian`` is the complex row-major superoperator of the same
generator, and ``coordinate_map`` the map B from the 16 real coordinates of
a Hermitian rho to its row-major vec; ``dephasing`` builds its real
Liouvillian without either, and must equal B^-1 L B.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from rydlink import dephasing as dp
from rydlink.config import load_config
from rydlink.geometry import Beam, BeamGeometry

CONVERGENCE_TOL = 1e-8


class NonConvergenceError(RuntimeError):
    """Raised when halving the integrator step still changes the output."""


def _lindblad_rhs(rho, H, ops):
    out = -1j * (H @ rho - rho @ H)
    for L, LdL in ops:
        out += L @ rho @ L.conj().T - 0.5 * (LdL @ rho + rho @ LdL)
    return out


def _rk4_run(rho0, H, ops, t_grid, n_sub):
    """Fixed-step RK4 between consecutive grid points, n_sub substeps each."""
    rhos = [rho0]
    rho = rho0
    for t0, t1 in zip(t_grid[:-1], t_grid[1:]):
        dt = (t1 - t0) / n_sub
        for _ in range(n_sub):
            k1 = _lindblad_rhs(rho, H, ops)
            k2 = _lindblad_rhs(rho + 0.5 * dt * k1, H, ops)
            k3 = _lindblad_rhs(rho + 0.5 * dt * k2, H, ops)
            k4 = _lindblad_rhs(rho + dt * k3, H, ops)
            rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rhos.append(rho)
    return rhos


def lindblad_evolve(rho0, H, collapse_ops, t_grid, max_refinements=8):
    """Density matrices on a grid that starts at 0 and strictly increases.

    ``collapse_ops`` carry the square root of their rate in their entries.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] != 0.0:
        raise ValueError("t_grid must start at 0")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    ops = [(L, L.conj().T @ L) for L in map(np.asarray, collapse_ops)]

    # initial substep count: resolve the fastest scale in H and the rates
    rate = max(np.max(np.abs(H)), max((np.max(np.abs(LdL)) for _, LdL in ops), default=0.0), 1e-300)
    n_sub = max(1, int(np.ceil(np.max(np.diff(t_grid)) * rate / 0.05)))

    prev = _rk4_run(rho0, H, ops, t_grid, n_sub)
    err = float("inf")
    for _ in range(max_refinements):
        cur = _rk4_run(rho0, H, ops, t_grid, 2 * n_sub)
        err = max(np.max(np.abs(a - b)) for a, b in zip(prev, cur))
        if err < CONVERGENCE_TOL:
            return cur
        prev = cur
        n_sub *= 2
    raise NonConvergenceError(
        f"Lindblad step halving did not converge below {CONVERGENCE_TOL} "
        f"(last change {err:.3e} at {2 * n_sub} substeps)"
    )


def random_hermitian(rng, dim, scale=1.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2.0


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def coordinate_map():
    """B (16, 16): vec(rho) = B x for the coordinates x of rho (populations rho_ii,
    then Re rho_ij and Im rho_ij for i < j), vec row-major."""
    B = np.zeros((16, 16), dtype=complex)
    col = 4
    for i in range(4):
        B[4 * i + i, i] = 1.0
        for j in range(i + 1, 4):
            B[4 * i + j, col], B[4 * j + i, col] = 1.0, 1.0
            B[4 * i + j, col + 1], B[4 * j + i, col + 1] = 1j, -1j
            col += 2
    return B


def kron_liouvillian(H, collapse):
    """Row-major superoperator of -i[H, rho] + sum_C (C rho C^+ - {C^+ C, rho}/2)."""
    eye = np.eye(len(H))
    out = -1j * (np.kron(H, eye) - np.kron(eye, H.T))
    for C in collapse:
        CdC = C.conj().T @ C
        out += np.kron(C, C.conj()) - 0.5 * (np.kron(CdC, eye) + np.kron(eye, CdC.T))
    return out


def raman_collapse(gamma):
    """sqrt(gamma)|s><e1| and sqrt(gamma)|s><e2|."""
    ops = []
    for e_level in (dp.LEVEL_E1, dp.LEVEL_E2):
        C = np.zeros((4, 4))
        C[dp.LEVEL_S, e_level] = np.sqrt(gamma)
        ops.append(C)
    return ops


class TestLindblad:
    def test_pure_decay_rate(self):
        # single collapse sqrt(gamma)|0><1| empties the excited state as e^{-gamma t}
        gamma = 3.0e5
        L = np.zeros((2, 2))
        L[0, 1] = np.sqrt(gamma)
        t_grid = np.linspace(0.0, 5.0 / gamma, 6)
        rhos = lindblad_evolve(np.diag([0.0, 1.0]), np.zeros((2, 2)), [L], t_grid)
        for t, rho in zip(t_grid, rhos):
            assert rho[1, 1].real == pytest.approx(np.exp(-gamma * t), abs=1e-6)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(5)
        H = random_hermitian(rng, 3, scale=1e6)
        L = np.sqrt(2e5) * rng.normal(size=(3, 3))
        rhos = lindblad_evolve(np.diag([1.0, 0.0, 0.0]), H, [L], np.linspace(0.0, 5e-6, 4))
        for rho in rhos:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-7)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-9
            assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-8

    def test_unitary_limit_matches_eigendecomposition(self):
        rng = np.random.default_rng(11)
        H = random_hermitian(rng, 2, scale=1e6)
        psi = random_state(rng, 2)
        t = 2.3e-6
        rhos = lindblad_evolve(np.outer(psi, psi.conj()), H, [], [0.0, t])
        evals, evecs = np.linalg.eigh(H)
        psi_t = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi))
        assert np.max(np.abs(rhos[-1] - np.outer(psi_t, psi_t.conj()))) < 1e-7

    def test_nonconvergence_raises(self):
        # zero refinement budget with accumulated phase error above the
        # tolerance must fail loudly, not silently return
        H = np.diag([0.0, 2.0 * np.pi * 1e9])
        with pytest.raises(NonConvergenceError):
            lindblad_evolve(np.full((2, 2), 0.5), H, [], [0.0, 0.3e-6], max_refinements=0)

    def test_grid_validation(self):
        rho = np.diag([1.0, 0.0])
        H = np.zeros((2, 2))
        with pytest.raises(ValueError):
            lindblad_evolve(rho, H, [], [1.0, 2.0])  # must start at 0
        with pytest.raises(ValueError):
            lindblad_evolve(rho, H, [], [0.0, 2.0, 1.0])

    def test_batched_spectral_trace_matches_rk4(self):
        # MHz-scale detunings and beams C and E keep the RK4 step count small;
        # the packaged GHz-scale geometry would need minutes here
        two_pi = 2.0 * np.pi
        d1, d2 = two_pi * 1e6, -two_pi * 3e6
        gamma = two_pi * 1e6
        beams = {
            "C": Beam(wavelength_nm=795.0, direction=(0.0, 0.0, 1.0), waist_um=13.0, rabi=two_pi * 1e6),
            "E": Beam(wavelength_nm=475.0, direction=(0.0, 0.0, -1.0), waist_um=520.0, rabi=two_pi * 1e6),
        }
        geo = BeamGeometry(beams=beams, detuning_1=d1, detuning_2=d2)
        H = dp._four_level_hamiltonian(
            geo, np.array([1.0, 0.6]), np.array([1.0, 0.9]), np.array([0.0, two_pi * 0.3e6])
        )
        t_grid = np.linspace(0.0, 0.5e-6, 11)
        batched = dp._batched_lindblad_trace(H, gamma, t_grid)

        collapse = []
        for e_level in (dp.LEVEL_E1, dp.LEVEL_E2):
            L = np.zeros((4, 4))
            L[dp.LEVEL_S, e_level] = np.sqrt(gamma)
            collapse.append(L)
        rho0 = np.zeros((4, 4))
        rho0[dp.LEVEL_R, dp.LEVEL_R] = 1.0
        for atom in range(2):
            rhos = lindblad_evolve(rho0, H[atom], collapse, t_grid)
            rk4 = np.array([rho[dp.LEVEL_R, dp.LEVEL_R].real for rho in rhos])
            assert np.max(np.abs(rk4 - batched[:, atom])) < 1e-9


class TestRealLiouvillian:
    """dp._real_liouvillian against B^-1 L B, and the paired spectral sum against
    the matrix exponential and the full 16-mode sum."""

    B = coordinate_map()
    B_INV = np.diag(1.0 / np.diag(B.conj().T @ B).real) @ B.conj().T  # B^+ B is diagonal

    @staticmethod
    def hamiltonians():
        """Two drawn Hermitian H at the 100 MHz scale and three atoms of the packaged geometry."""
        rng = np.random.default_rng(3)
        cfg = load_config()
        drawn = [random_hermitian(rng, 4, scale=2.0 * np.pi * 1e8) for _ in range(2)]
        packaged = dp._four_level_hamiltonian(
            cfg.geometry, np.array([1.0, 0.7, 0.3]), np.array([1.0, 0.9, 0.4]), np.array([0.0, 3e6, -4e6])
        )
        return np.array([*drawn, *packaged]), cfg.parsed["raman"]["intermediate_linewidth"]

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["lossless", "gamma_e"])
    def test_equals_transformed_kron_superoperator(self, gamma):
        H, gamma_e = self.hamiltonians()
        got = dp._real_liouvillian(H, gamma * gamma_e)
        assert got.dtype == np.float64 and got.shape == (len(H), 16, 16)
        for h, real in zip(H, got):
            oracle = self.B_INV @ kron_liouvillian(h, raman_collapse(gamma * gamma_e)) @ self.B
            scale = np.abs(oracle).max()
            assert np.abs(oracle.imag).max() <= 1e-12 * scale
            assert np.abs(real - oracle.real).max() <= 1e-12 * scale

    def test_maps_are_exactly_real_images_of_the_basis(self):
        # each coordinate's Hermitian matrix, and the collapse at unit rate, read off exactly
        _, hmap, dissipator = dp._liouville_maps()
        for k in range(16):
            oracle = self.B_INV @ kron_liouvillian(self.B[:, k].reshape(4, 4), []) @ self.B
            assert not oracle.imag.any()
            assert np.array_equal(hmap[k].reshape(16, 16), oracle.real)
        oracle = self.B_INV @ kron_liouvillian(np.zeros((4, 4)), raman_collapse(1.0)) @ self.B
        assert not oracle.imag.any()
        assert np.array_equal(dissipator, oracle.real)

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["lossless", "gamma_e"])
    def test_population_rows_preserve_trace(self, gamma):
        H, gamma_e = self.hamiltonians()
        L = dp._real_liouvillian(H, gamma * gamma_e)
        scale = np.abs(L).max(axis=(1, 2))
        assert np.all(np.abs(L[:, :4, :].sum(axis=1)).max(axis=1) <= 1e-12 * scale)

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["lossless", "gamma_e"])
    def test_matrix_exponential_keeps_a_density_matrix(self, gamma):
        H, gamma_e = self.hamiltonians()
        t_grid = np.linspace(0.0, load_config().parsed["simulation"]["dephasing_t_max"], 41)
        batched = dp._batched_lindblad_trace(H, gamma * gamma_e, t_grid)
        x0 = np.eye(16)[dp.LEVEL_R]
        for atom, L in enumerate(dp._real_liouvillian(H, gamma * gamma_e)):
            x = np.array([expm(L * t) @ x0 for t in t_grid])
            populations = x[:, :4]
            assert np.abs(populations.sum(axis=1) - 1.0).max() <= 1e-12
            assert populations.min() >= -1e-12 and populations.max() <= 1.0 + 1e-12
            assert np.abs(x[:, dp.LEVEL_R] - batched[:, atom]).max() <= 1e-9

    @pytest.mark.parametrize("gamma", [0.0, 1.0], ids=["lossless", "gamma_e"])
    def test_pair_sum_equals_full_mode_sum(self, gamma):
        H, gamma_e = self.hamiltonians()
        t_grid = np.linspace(0.0, 4e-6, 640)
        evals, evecs = np.linalg.eig(dp._real_liouvillian(H, gamma * gamma_e))
        weights = evecs[:, dp.LEVEL_R, :] * np.linalg.solve(evecs, np.eye(16)[:, [dp.LEVEL_R]])[..., 0]
        full = dp._spectral_sum(weights, evals, t_grid).real
        assert np.abs(dp._batched_lindblad_trace(H, gamma * gamma_e, t_grid) - full).max() <= 1e-12
