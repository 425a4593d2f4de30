"""Reference Lindblad integrator, and the check of the spectral batch against it.

``lindblad_evolve`` is a fixed-step RK4 integrator on plain arrays. The
step is halved until a further halving changes no output entry by more
than CONVERGENCE_TOL; failing that raises NonConvergenceError. It shares
no code with the eigendecomposition path in ``dephasing`` that it checks.
"""

import numpy as np
import pytest

from rydlink import dephasing as dp

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
        # MHz-scale detunings keep the RK4 step count small; the packaged
        # GHz-scale scheme would need minutes here
        two_pi = 2.0 * np.pi
        d1, d2 = two_pi * 1e6, -two_pi * 3e6
        b1, b2 = dp.shift_cancelling_branch_weights(d1, d2)
        gamma = two_pi * 1e6
        scheme = dp.RamanLevelScheme(
            omega_ground=two_pi * 1e6, omega_rydberg=two_pi * 1e6,
            detuning_1=d1, detuning_2=d2, branch_1=b1, branch_2=b2, gamma_e=gamma,
        )
        H = dp._four_level_hamiltonian(
            scheme, np.array([1.0, 0.6]), np.array([1.0, 0.9]), np.array([0.0, two_pi * 0.3e6])
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
