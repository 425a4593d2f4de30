"""Acceptance gate: one test per numbered criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or check the
captured output) and enforces the stated tolerance with asserts.
"""

import contextlib
import json

import numpy as np
import pytest

from rydlink import cli
from rydlink import collective as col
from rydlink import dephasing as dp
from rydlink import measurement as ms
from rydlink import repeater as rp
from rydlink.config import load_config
from rydlink.geometry import protocol_modes
from rydlink.measurement import DetectorModel, PhotonFieldModel

import oracles

OMEGA = 2.0 * np.pi / 492e-9  # protocol Rabi calibrated to the 492 ns period
SQ2 = np.sqrt(2.0)


# one verdict line per criterion; echoed after the run by tests/conftest.py
ACCEPTANCE_VERDICTS = []


def _report(number, name, verdict):
    line = f"ACCEPTANCE {number:2d} {name}: {verdict}"
    ACCEPTANCE_VERDICTS.append(line)
    print(line)


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        _report(number, name, "FAIL")
        raise
    _report(number, name, "PASS")


@pytest.fixture(scope="module")
def cfg():
    return load_config()


@pytest.fixture(scope="module")
def modes(cfg):
    return protocol_modes(cfg.geometry)


def test_criterion_01_sqrt2_enhancement():
    with criterion(1, "sqrt2 period enhancement"):
        ratio = col.pair_oscillation_period(OMEGA) / col.single_excitation_period(OMEGA)
        assert abs(ratio - 1.0 / SQ2) < 1e-9
        # consistency note: 492 ns / sqrt(2) = 347.9 ns, which lies within
        # 2 combined standard deviations of the measured 339(5) ns pair
        # period (the 492 ns calibration itself carries a 5 ns error)
        pair_ns = 492.0 / SQ2
        assert pair_ns == pytest.approx(347.9, abs=0.1)
        sigma_combined = np.hypot(5.0 / SQ2, 5.0)
        assert abs(pair_ns - 339.0) < 2.0 * sigma_combined


def test_criterion_02_fifty_percent_branch():
    with criterion(2, "50% dark-state branch"):
        t = np.pi / (SQ2 * OMEGA)
        a1, a2, _ = col.pair_evolution(OMEGA, t)
        # weight of the dark state (|R2,S1> - |R3,S4>)/sqrt(2)
        assert abs(abs((a1 - a2) / SQ2) ** 2 - 0.5) < 1e-9
        (a, b), _ = col.run_protocol(t, OMEGA)
        # concurrence 2|a||b| of the conditional atom-photon state
        assert abs(2.0 * abs(a) * abs(b) - 1.0) < 1e-9


def test_criterion_03_brute_force_equivalence(modes):
    with criterion(3, "brute-force pair equivalence"):
        k1, k2, dk = modes.k1, modes.k2, modes.dk
        rng = np.random.default_rng(2024)
        for n in range(2, 7):
            for _ in range(100):
                pos = rng.normal(scale=[3.5, 3.5, 6.5], size=(n, 3))
                t = rng.uniform(0.0, 2.0) * col.pair_oscillation_period(OMEGA)
                bf = oracles.brute_force_pair(n, OMEGA, t, k1, k2, dk, pos)
                pair = col.pair_evolution(OMEGA, t)
                assert bf.fidelity_with(pair) >= 1.0 - 1e-9


def test_criterion_04_collective_enhancement():
    with criterion(4, "sqrt(N) collective enhancement"):
        rng = np.random.default_rng(8)
        k = np.array([0.3, -0.2, 5.35])
        t_grid = np.linspace(0.0, 4.0 * np.pi / OMEGA, 800)
        p1 = oracles.brute_force_collective_trace(1, OMEGA, t_grid, k, np.zeros((1, 3)))
        w1 = oracles.fit_oscillation_frequency(t_grid, p1, OMEGA)
        for n in (2, 3, 4, 6):
            pos = rng.normal(scale=[3.5, 3.5, 6.5], size=(n, 3))
            pn = oracles.brute_force_collective_trace(n, OMEGA, t_grid, k, pos)
            wn = oracles.fit_oscillation_frequency(t_grid, pn, np.sqrt(n) * OMEGA)
            assert abs(wn / w1 - np.sqrt(n)) < 1e-6


def test_criterion_05_fidelity_arithmetic():
    with criterion(5, "fidelity bound arithmetic"):
        assert abs(ms.fidelity_bound(0.897, 0.828, 0.879) - 0.901) < 5e-4


def test_criterion_06_motion_only_dephasing(cfg):
    with criterion(6, "motion-only dephasing times"):
        t_grid = np.linspace(0.0, 5.0, 320)
        _, _, record = dp.simulate_single_excitation(
            cfg.geometry,
            cfg.ensemble,
            cfg.parsed["raman"]["intermediate_linewidth"],
            dp.SimulationFlags(motion=True),
            2000,
            cfg.seed,
            t_grid,
        )
        assert record["tau_osc_us"] / record["tau_free_us"] == pytest.approx(2.0, rel=0.10)
        assert record["tau_free_us"] == pytest.approx(1.6, rel=0.15)


def test_criterion_07_phi_sweep_complementarity():
    with criterion(7, "phi-sweep complementary sinusoids"):
        singlet = np.array([1.0, -1.0]) / SQ2
        for phi in np.linspace(0.0, 2.0 * np.pi, 101):
            p = ms.born_probabilities(singlet, phi % (2.0 * np.pi), 1.0, "pm")
            c_par, c_perp = p[0] + p[1], p[2] + p[3]
            assert abs(c_par + c_perp - 1.0) < 1e-12
            assert c_par == pytest.approx((1.0 - np.cos(phi)) / 2.0, abs=1e-9)
            hv = ms.born_probabilities(singlet, phi % (2.0 * np.pi), 1.0, "hv")
            assert hv[0] + hv[1] == pytest.approx(0.0, abs=1e-12)


def test_criterion_08_g2_suite(cfg):
    with criterion(8, "g2 suite"):
        trials = 1_000_000
        assert ms.g2_hbt(PhotonFieldModel("single_photon", 1.0, DetectorModel())) < 1e-12

        coherent = PhotonFieldModel("coherent", 1.0, DetectorModel(1.0))
        mc, _ = ms.g2_from_counts(*ms.hbt_counts(coherent, trials, cfg.seed), trials)
        p1, _, p12 = ms._hbt_click_probs(coherent.occupation_distribution(), coherent.detector)
        sigma = 1.0 / np.sqrt(trials * p12)  # relative error dominated by n12
        assert abs(mc - 1.0) < 3.0 * sigma

        thermal = PhotonFieldModel("thermal", 0.03, DetectorModel(1.0))
        exact = ms.g2_hbt(thermal)  # click estimator: (2+u)/(1+u), u = 0.03
        mc, _ = ms.g2_from_counts(*ms.hbt_counts(thermal, trials, cfg.seed + 1), trials)
        _, _, p12 = ms._hbt_click_probs(thermal.occupation_distribution(), thermal.detector)
        sigma = exact / np.sqrt(trials * p12)
        assert abs(mc - 2.0) < 3.0 * sigma + abs(exact - 2.0)
        assert abs(exact - 2.0) < 0.03  # low-flux bias itself is small

        chain = PhotonFieldModel("single_photon", 1.0, DetectorModel(0.008))
        b = ms.calibrate_background(0.062, chain)
        check = PhotonFieldModel("single_photon", 1.0, DetectorModel(0.008, b))
        assert abs(ms.g2_hbt(check) - 0.062) < 1e-4


def test_criterion_09_repeater_advantage(cfg):
    with criterion(9, "repeater spurious-free advantage"):
        semi = rp.SourceModel("semi_deterministic")
        trials = 1_000_000
        for eta in (1.0, 0.1):
            link = rp.LinkConfig(channel_transmission=eta)
            mc = rp.simulate_link(semi, semi, link, trials, cfg.seed)
            assert mc.spurious_fraction == 0.0
            exact = rp.analytic_link(semi, semi, link)
            sigma = np.sqrt(exact.herald_rate * (1.0 - exact.herald_rate) / trials)
            assert abs(mc.herald_rate - exact.herald_rate) < 4.0 * sigma
            if eta == 1.0:
                assert abs(mc.herald_rate - 0.125) < 5.0 * np.sqrt(0.125 * 0.875 / trials)
        spurious = []
        for p in (0.01, 0.05, 0.1):
            src = rp.SourceModel("dlcz", emission_prob=p)
            spurious.append(rp.analytic_link(src, src, rp.LinkConfig()).spurious_fraction)
        assert spurious[0] > 0.0
        assert spurious[0] < spurious[1] < spurious[2]


def test_criterion_10_fidelity_band(cfg):
    with criterion(10, "end-to-end fidelity band"):
        chain = PhotonFieldModel(
            "single_photon", 1.0, DetectorModel(cfg.parsed["detector"]["calibration_chain_efficiency"])
        )
        b = ms.calibrate_background(cfg.parsed["detector"]["g2_calibration_target"], chain)
        det = DetectorModel(cfg.parsed["detector"]["entanglement_chain_efficiency"], b)
        t_ent = col.pair_oscillation_period(OMEGA) / 2.0
        amps, _ = col.run_protocol(t_ent, OMEGA)
        coherence = np.exp(
            -cfg.parsed["readout"]["second_read_delay"] / cfg.parsed["ensemble"]["ground_spinwave_lifetime"]
        )
        result = ms.measure_three_bases(
            amps, cfg.parsed["readout"]["phase_shift"], coherence, det, 200_000, cfg.seed
        )
        assert 0.87 <= result["F"] <= 0.93


def test_criterion_11_determinism(tmp_path):
    with criterion(11, "byte-identical determinism"):
        commands = [
            ["dephasing", "--flags", "motion"],
            ["entangle", "--fidelity"],
            ["g2", "--field", "thermal"],
            ["repeater", "--source", "dlcz"],
        ]
        for i, cmd in enumerate(commands):
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"{i}{run}"
                assert cli.main(["--out", str(out), *cmd]) == 0
                manifest = json.loads((out / "manifest.json").read_text())
                outs.append(
                    {name: (out / name).read_bytes() for name in manifest["outputs"]}
                )
            assert outs[0].keys() == outs[1].keys()
            for name in outs[0]:
                assert outs[0][name] == outs[1][name], f"{cmd}: {name} differs"
