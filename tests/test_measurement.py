import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydlink import measurement as ms
from rydlink import repeater as rp
from rydlink.collective import run_protocol
from rydlink.config import load_config
from rydlink.measurement import DetectorModel, PhotonFieldModel, ZeroCoincidenceError

from per_trial_samplers import BLOCK, assert_same_rate, cell_hbt_counts, hbt_cells, per_trial_hbt_counts
from test_atom_sampler import ATOM_STREAM, sample_atoms

IDEAL = DetectorModel()
SQ2 = 1.0 / np.sqrt(2.0)
# (|k_up>|S1> - |k_down>|S4>)/sqrt(2): the protocol output at half the pair period
BELL = np.array([SQ2, -SQ2])


def bell_probs(phase, basis, coherence=1.0):
    return ms.born_probabilities(BELL, phase, coherence, basis)


def density_matrix_probabilities(amps, phase, coherence, basis):
    """Oracle: project the 4x4 two-photon density matrix over (HH, HV, VH, VV)."""
    vec = np.zeros(4, dtype=complex)
    vec[1] = amps[0]
    vec[2] = amps[1] * np.exp(1j * phase)
    dm = np.outer(vec, vec.conj())
    dm[1, 2] *= coherence
    dm[2, 1] *= coherence
    b0, b1 = ms._basis_vectors(basis)
    outcomes = [(b0, b0), (b1, b1), (b0, b1), (b1, b0)]
    return np.array([(np.kron(u, v).conj() @ dm @ np.kron(u, v)).real for u, v in outcomes])


def coincidence_reference(p_sig, det):
    """Explicit sum over signal outcomes (o1, o2) and click channels (x, y)."""
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
        # |k_up>|S1> reads out as |HV>, |k_down>|S4> as |VH>, at any phase
        for phi in (0.0, 1.0, np.pi):
            p = ms.born_probabilities(np.array([0.6, 0.8]), phi, 1.0, "hv")
            assert np.allclose(p, [0.0, 0.0, 0.36, 0.64], atol=1e-15)

    def test_phase_rotates_coherence_only(self):
        # c_par - c_perp = 2 Re(a conj(b) e^{-i phi}) in the pm basis
        amps = np.array([0.6, 0.8])
        for phi in np.linspace(0.0, 2.0 * np.pi, 13):
            p = ms.born_probabilities(amps, phi, 1.0, "pm")
            assert p[0] + p[1] - p[2] - p[3] == pytest.approx(0.96 * np.cos(phi), abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            ms.born_probabilities(np.array([1.0, 1.0]), 0.0, 1.0, "pm")


class TestMemoryDecoherence:
    def test_damps_coherence_by_exponential(self):
        f = np.exp(-300e-9 / 30e-6)
        p = bell_probs(0.0, "pm", f)
        # c_par = (1 - f cos phi)/2: the visibility is the coherence factor
        assert p[2] + p[3] - p[0] - p[1] == pytest.approx(f, abs=1e-12)
        assert np.allclose(bell_probs(0.0, "hv", f), [0.0, 0.0, 0.5, 0.5], atol=1e-15)

    def test_zero_delay_is_identity(self):
        # coherence exp(0) = 1: the pure singlet, anti-correlated in every basis
        for basis in ms.BASES:
            p = bell_probs(0.0, basis, np.exp(-0.0 / 30e-6))
            assert p[0] + p[1] == pytest.approx(0.0, abs=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="coherence"):
            bell_probs(0.0, "pm", -0.1)
        with pytest.raises(ValueError, match="coherence"):
            bell_probs(0.0, "pm", 1.5)


class TestBornProbabilities:
    def test_phi_dependence_in_pm_basis(self):
        # C_par = (1 - cos phi)/2, C_perp = (1 + cos phi)/2
        for phi in np.linspace(0.0, 2.0 * np.pi, 13):
            p = bell_probs(phi, "pm")
            assert p[0] + p[1] == pytest.approx((1.0 - np.cos(phi)) / 2.0, abs=1e-12)
            assert p[2] + p[3] == pytest.approx((1.0 + np.cos(phi)) / 2.0, abs=1e-12)

    def test_hv_parallel_always_zero(self):
        for phi in np.linspace(0.0, 2.0 * np.pi, 13):
            p = bell_probs(phi, "hv")
            assert p[0] == pytest.approx(0.0, abs=1e-12)
            assert p[1] == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 2.0 * np.pi), st.sampled_from(ms.BASES))
    def test_probabilities_sum_to_one(self, phi, basis):
        p = bell_probs(phi, basis)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unknown_basis(self):
        # a name lookup, so an unknown basis raises rather than falling through to one of BASES
        with pytest.raises(KeyError, match="diag"):
            bell_probs(0.0, "diag")

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, np.pi / 2.0),
        st.floats(0.0, 2.0 * np.pi),
        st.floats(0.0, 2.0 * np.pi),
        st.floats(0.0, 1.0),
        st.sampled_from(ms.BASES),
    )
    def test_matches_density_matrix_oracle(self, theta, alpha, phase, coherence, basis):
        amps = np.array([np.cos(theta), np.sin(theta) * np.exp(1j * alpha)])
        p = ms.born_probabilities(amps, phase, coherence, basis)
        reference = density_matrix_probabilities(amps, phase, coherence, basis)
        assert np.max(np.abs(p - reference)) <= 1e-15

    @pytest.mark.parametrize("basis", ms.BASES)
    def test_batch_equals_per_row_calls(self, basis):
        omega = 2.0 * np.pi / 492e-9
        amps, _ = run_protocol(np.linspace(0.0, 1e-6, 601), omega)
        assert amps.shape == (601, 2)
        batch = ms.born_probabilities(amps, 0.3, 0.99, basis)
        rows = np.array([ms.born_probabilities(a, 0.3, 0.99, basis) for a in amps])
        assert batch.shape == (601, 4)
        assert np.array_equal(batch, rows)
        # and over phases for one state
        phis = np.linspace(0.0, 2.0 * np.pi, 65)
        batch = ms.born_probabilities(BELL, phis, 0.99, basis)
        assert np.array_equal(batch, [ms.born_probabilities(BELL, phi, 0.99, basis) for phi in phis])


class TestCoincidenceModel:
    def test_ideal_detectors_reproduce_born(self):
        p = bell_probs(0.7, "pm")
        q = ms.coincidence_probabilities(p, IDEAL)
        assert np.allclose(q, p, atol=1e-12)

    def test_background_washes_out_correlations(self):
        noisy = DetectorModel(efficiency=1e-6, background_prob=0.5)
        q = ms.coincidence_probabilities(bell_probs(np.pi, "pm"), noisy)
        assert np.allclose(q, 0.25, atol=1e-3)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(0.0, 0.9),
        st.floats(0.0, 2.0 * np.pi),
        st.sampled_from(ms.BASES),
    )
    def test_matrix_form_matches_enumeration(self, efficiency, background, phase, basis):
        p_sig = bell_probs(phase, basis)
        det = DetectorModel(efficiency, background)
        reference = coincidence_reference(p_sig, det)
        if reference is None:
            with pytest.raises(ZeroCoincidenceError):
                ms.coincidence_probabilities(p_sig, det)
            return
        q = ms.coincidence_probabilities(p_sig, det)
        assert np.max(np.abs(q - reference)) <= 1e-15

    def test_zero_everything_raises(self):
        dead = DetectorModel(efficiency=0.0, background_prob=0.0)
        with pytest.raises(ZeroCoincidenceError):
            ms.coincidence_probabilities(bell_probs(0.0, "pm"), dead)


class TestVisibilityAndFidelity:
    def test_visibility_definition(self):
        assert ms.visibility(np.array([10, 10, 60, 60])) == pytest.approx(100.0 / 140.0)

    def test_visibility_is_symmetric_in_sign(self):
        a = ms.visibility(np.array([60, 60, 10, 10]))
        b = ms.visibility(np.array([10, 10, 60, 60]))
        assert a == pytest.approx(b)

    def test_no_counts_raises(self):
        with pytest.raises(ZeroCoincidenceError):
            ms.visibility(np.array([0, 0, 0, 0]))
        # one empty row of a batch is enough
        with pytest.raises(ZeroCoincidenceError):
            ms.visibility(np.array([[10, 10, 60, 60], [0, 0, 0, 0]]))

    def test_visibility_broadcasts_over_probability_batch(self):
        # the phi sweep: (65, 4) Born probabilities give 65 visibilities, each
        # the formula applied to its own row
        phis = np.linspace(0.0, 2.0 * np.pi, 65)
        p = ms.born_probabilities(BELL, phis, 0.9, "pm")
        v = ms.visibility(p)
        assert v.shape == (65,)
        par, perp = p[:, 0] + p[:, 1], p[:, 2] + p[:, 3]
        assert np.array_equal(v, np.abs(perp - par) / (perp + par))
        assert np.array_equal(v, [ms.visibility(row) for row in p])
        # the coherence factor is the visibility: |0.9 cos phi|
        assert np.allclose(v, np.abs(0.9 * np.cos(phis)), atol=1e-12)

    def test_visibility_of_integer_counts(self):
        counts = np.array([[10, 10, 60, 60], [60, 60, 10, 10], [0, 5, 5, 0], [3, 0, 0, 0]])
        v = ms.visibility(counts)
        assert v.dtype == np.float64
        assert np.allclose(v, [100.0 / 140.0, 100.0 / 140.0, 0.0, 1.0], rtol=1e-15)
        # as exact as the quotient of Python ints
        assert v.tolist() == [abs((c[2] + c[3]) - (c[0] + c[1])) / sum(c) for c in counts.tolist()]

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
        res = ms.measure_three_bases(BELL, np.pi, 1.0, IDEAL, 50000, 1)
        assert set(res) == {"V_hv", "V_pm", "V_circ", "V_errors", "F", "F_error"}
        assert res["V_hv"] == pytest.approx(1.0)
        assert res["V_pm"] == pytest.approx(1.0)
        assert res["V_circ"] == pytest.approx(1.0)
        assert res["F"] == pytest.approx(1.0)
        # invariant: F is exactly the visibility average formula
        assert res["F"] == 0.25 * (1.0 + res["V_hv"] + res["V_pm"] + res["V_circ"])
        # perfect correlations have no binomial spread
        assert res["V_errors"] == [0.0, 0.0, 0.0]
        assert res["F_error"] == 0.0


class TestSampling:
    @staticmethod
    def counts(amps, phase, coherence, det, trials, seed):
        """The (3, 4) counts of the key table: basis i draws from (COINCIDENCE_STREAM, i)."""
        rows = []
        for i, basis in enumerate(ms.BASES):
            p = ms.coincidence_probabilities(ms.born_probabilities(amps, phase, coherence, basis), det)
            rows.append(ms.rng_stream(seed, ms.COINCIDENCE_STREAM, i).multinomial(trials, p / p.sum()))
        return np.array(rows)

    def test_deterministic_given_seed(self):
        det = DetectorModel(0.5, 0.01)
        a = ms.measure_three_bases(BELL, 0.3, 0.95, det, 1000, 7)
        b = ms.measure_three_bases(BELL, 0.3, 0.95, det, 1000, 7)
        assert a == b
        assert a != ms.measure_three_bases(BELL, 0.3, 0.95, det, 1000, 8)

    def test_counts_sum_to_trials(self):
        counts = self.counts(BELL, 0.3, 0.95, DetectorModel(0.5, 0.01), 1234, 0)
        assert counts.shape == (len(ms.BASES), 4)
        assert np.array_equal(counts.sum(axis=1), [1234] * len(ms.BASES))

    def test_result_is_array_expression_of_counts(self):
        # visibilities, binomial errors and F from the (3, 4) counts, errors
        # summed over Python ints as a reference
        args = (BELL, 0.3, 0.95, DetectorModel(0.5, 0.01), 5000, 3)
        counts, res = self.counts(*args), ms.measure_three_bases(*args)
        v = ms.visibility(counts)
        assert [res["V_hv"], res["V_pm"], res["V_circ"]] == v.tolist()
        par, perp = counts[:, :2].sum(axis=1), counts[:, 2:].sum(axis=1)
        n = par + perp
        errors = [2.0 * np.sqrt(a * b / c) / c for a, b, c in zip(par.tolist(), perp.tolist(), n.tolist())]
        assert res["V_errors"] == pytest.approx(errors, rel=1e-15)
        assert res["F"] == ms.fidelity_bound(*v.tolist())
        assert res["F_error"] == pytest.approx(0.25 * np.sqrt(sum(e**2 for e in errors)), rel=1e-15)

    def test_largest_trial_count_gives_finite_errors(self):
        # 2**63 - 1 is the largest count multinomial takes; par * perp would overflow int64
        res = ms.measure_three_bases(BELL, np.pi, 1.0, DetectorModel(0.5, 0.01), 2**63 - 1, 1)
        assert all(0.0 < e < 1e-9 for e in res["V_errors"])


class TestRandomStreams:
    def test_stream_families_do_not_overlap(self, monkeypatch):
        """Each Monte Carlo entry point asks for the streams of the key table, and
        no stream of seed s or s + 1 repeats another, nor one of the atom sampler
        kept in the tests: the first draws of all of them are pairwise distinct."""
        requested = []
        stream = ms.rng_stream

        def recording_stream(seed, *key):
            requested.append((seed, key))
            return stream(seed, *key)

        monkeypatch.setattr(ms, "rng_stream", recording_stream)
        monkeypatch.setattr(rp, "rng_stream", recording_stream)
        ensemble = load_config().ensemble
        semi = rp.SourceModel("semi_deterministic")
        for seed in (7, 8):
            ms.hbt_counts(PhotonFieldModel("thermal", 0.5, IDEAL), 100, seed)
            rp.simulate_link(semi, semi, rp.LinkConfig(), BLOCK + 1, seed)
            sample_atoms(ensemble, BLOCK + 1, seed)
            ms.measure_three_bases(BELL, np.pi, 1.0, IDEAL, 100, seed)
        keys = [(), (0,), (ATOM_STREAM, 0), (ATOM_STREAM, 1)]
        keys += [(ms.COINCIDENCE_STREAM, i) for i in range(len(ms.BASES))]
        assert requested == [(seed, key) for seed in (7, 8) for key in keys]
        first_draws = {stream(seed, *key).integers(2**63) for seed, key in requested}
        assert len(first_draws) == len(requested)


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
        # a name lookup: an unknown kind in range of the mean-photon check must not fall through to a law
        with pytest.raises(KeyError, match="squeezed"):
            PhotonFieldModel("squeezed", 0.1, IDEAL)
        with pytest.raises(KeyError, match="squeezed"):
            ms.occupation("squeezed", 0.1)

    @pytest.mark.parametrize(
        "kind, parameter",
        [
            ("single_photon", -0.1), ("single_photon", 1.5), ("single_photon", math.nan),
            ("coherent", 0.0), ("coherent", -1.0), ("thermal", -0.5), ("thermal", math.inf), ("thermal", 20.0),
            ("dlcz_pair", 0.0), ("dlcz_pair", ms.DLCZ_MAX_EXCITATION * 1.01),
        ],
    )
    def test_occupation_rejects_parameters_outside_the_kind_range(self, kind, parameter):
        # a numpy warning would fail the test too: every range is checked before any arithmetic
        with pytest.raises(ValueError):
            ms.occupation(kind, parameter)

    def test_vacuum_is_an_occupation_but_has_no_g2(self):
        # a semi source with no retrieval emits nothing; the g2 field rules the vacuum out itself
        assert np.array_equal(ms.occupation("single_photon", 0.0), [1.0, 0.0])
        with pytest.raises(ValueError, match="vacuum"):
            PhotonFieldModel("single_photon", 0.0, IDEAL)


class TestThinning:
    @pytest.mark.parametrize("eta", [0.0, 1e-8, 0.5, 1.0])
    @pytest.mark.parametrize(
        "kind, parameter", [("single_photon", 0.3), ("coherent", 1.0), ("thermal", 1.0), ("dlcz_pair", 0.05)]
    )
    def test_matches_binomial_sum(self, kind, parameter, eta):
        dist = PhotonFieldModel(kind, parameter, IDEAL).occupation_distribution()
        direct = [
            sum(p * math.comb(n, j) * eta**j * (1.0 - eta) ** (n - j) for n, p in enumerate(dist) if n >= j)
            for j in range(len(dist))
        ]
        kept = ms.thinned(dist, eta)
        assert kept.shape == dist.shape
        np.testing.assert_allclose(kept, direct, rtol=1e-12, atol=0.0)
        # thinning moves probability between photon numbers and loses none
        assert kept.sum() == pytest.approx(dist.sum(), rel=1e-14)


def exact_click_probs(dist, eta, b):
    """Oracle of ms._hbt_click_probs in rational arithmetic: (P1, P12) of the
    distribution normalized exactly, from the no-click probabilities."""
    dist = [Fraction(p) for p in dist]
    dist = [p / sum(dist) for p in dist]
    eta, b = Fraction(eta), Fraction(b)
    none_1 = (1 - b) * sum(p * (1 - eta / 2) ** n for n, p in enumerate(dist))
    none_both = (1 - b) ** 2 * sum(p * (1 - eta) ** n for n, p in enumerate(dist))
    return 1 - none_1, 1 - 2 * none_1 + none_both


class TestG2:
    @pytest.mark.parametrize("b", [0.0, 1.3e-4])
    @pytest.mark.parametrize("eta", [1.0, 0.5, 0.008, 1e-6])
    @pytest.mark.parametrize(
        "kind, parameter",
        [("single_photon", 1.0), ("single_photon", 0.3), ("thermal", 1.0), ("coherent", 1.0), ("dlcz_pair", 0.05)],
    )
    def test_click_probabilities_match_rational_oracle(self, kind, parameter, eta, b):
        # no cancellation: at small efficiency P12 keeps its relative precision
        det = DetectorModel(eta, b)
        dist = PhotonFieldModel(kind, parameter, det).occupation_distribution()
        p1, p2, p12 = ms._hbt_click_probs(dist, det)
        exact_p1, exact_p12 = exact_click_probs(dist, eta, b)
        assert p1 == p2
        # errors as floats, so that a failure prints short numbers
        assert float(abs(Fraction(p1) - exact_p1)) <= 1e-13 * float(exact_p1)
        assert float(abs(Fraction(p12) - exact_p12)) <= 1e-13 * float(exact_p12)

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
        mc, _ = ms.g2_from_counts(*ms.hbt_counts(f, 400_000, 13), 400_000)
        assert mc == pytest.approx(exact, rel=0.03)

    def test_mc_deterministic(self):
        f = PhotonFieldModel("thermal", 0.5, DetectorModel(1.0, 0.01))
        assert ms.hbt_counts(f, 50_000, 3) == ms.hbt_counts(f, 50_000, 3)


@pytest.mark.parametrize("calibrated", [False, True], ids=["b0", "calibrated"])
@pytest.mark.parametrize("eta", [0.008, 0.5, 1.0])
@pytest.mark.parametrize(
    "kind, parameter", [("single_photon", 1.0), ("coherent", 1.0), ("thermal", 1.0), ("dlcz_pair", 0.05)]
)
class TestAggregatedG2:
    @staticmethod
    def field(kind, parameter, eta, calibrated):
        b = 0.0
        if calibrated:  # the background of the packaged calibration chain, as g2 --calibrated uses
            det = load_config().parsed["detector"]
            chain = PhotonFieldModel("single_photon", 1.0, DetectorModel(det["calibration_chain_efficiency"]))
            b = ms.calibrate_background(det["g2_calibration_target"], chain)
        return PhotonFieldModel(kind, parameter, DetectorModel(eta, b))

    def test_matches_per_trial_oracle(self, kind, parameter, eta, calibrated):
        # P(c1), P(c2) and P(c1 & c2) fix the joint law of a trial's two clicks
        field = self.field(kind, parameter, eta, calibrated)
        aggregated, oracle = 10**10, 1 << 18
        counts = ms.hbt_counts(field, aggregated, 5)
        reference = per_trial_hbt_counts(field, oracle, 6)
        for label, k_a, k_b in zip(("n1", "n2", "n12"), counts, reference):
            assert_same_rate(label, k_a, aggregated, k_b, oracle)

    def test_pattern_probabilities_sum_the_cells(self, kind, parameter, eta, calibrated):
        # the (n, k) cells summed per click pattern are the four probabilities hbt_counts draws from,
        # within 8 ulp of 1 (at most 5.5 measured, on the rest of the thermal field at eta = 0.008)
        field = self.field(kind, parameter, eta, calibrated)
        p1, p2, p12 = ms._hbt_click_probs(field.occupation_distribution(), field.detector)
        patterns = np.array([p12, p1 - p12, p2 - p12, 1.0 - p1 - p2 + p12])
        np.testing.assert_allclose(hbt_cells(field).sum(axis=0), patterns, rtol=0.0, atol=8 * np.finfo(float).eps)

    def test_matches_cell_oracle(self, kind, parameter, eta, calibrated):
        field = self.field(kind, parameter, eta, calibrated)
        aggregated = 10**10
        counts = ms.hbt_counts(field, aggregated, 5)
        reference = cell_hbt_counts(field, aggregated, 6)
        for label, k_a, k_b in zip(("n1", "n2", "n12"), counts, reference):
            assert_same_rate(label, k_a, aggregated, k_b, aggregated)


class TestG2FromCounts:
    def test_int64_product_does_not_overflow(self):
        # n12 T is about 2e23 here, far past int64
        field = PhotonFieldModel("thermal", 1.0, DetectorModel(1.0))
        trials = 10**12
        n1, n2, n12 = ms.hbt_counts(field, trials, 3)
        assert n12 * trials > 2**63
        g2, se = ms.g2_from_counts(n1, n2, n12, trials)
        assert math.isfinite(g2)
        assert (g2, se) == ms.g2_from_counts(*ms.hbt_counts(field, trials, 3), trials)
        assert abs(g2 - ms.g2_hbt(field)) < 5.0 * se

    def test_error_is_delta_method(self):
        # g2 = n12 T / (n1 n2) from the click means; its variance from their per-trial covariance
        n1, n2, n12, trials = 4000, 3000, 150, 10**6
        x, y, z = n1 / trials, n2 / trials, n12 / trials
        g2 = z / (x * y)
        grad = np.array([1.0 / (x * y), -g2 / x, -g2 / y])
        cov = np.array(
            [
                [z * (1 - z), z * (1 - x), z * (1 - y)],
                [z * (1 - x), x * (1 - x), z - x * y],
                [z * (1 - y), z - x * y, y * (1 - y)],
            ]
        )
        g2_est, se = ms.g2_from_counts(n1, n2, n12, trials)
        assert g2_est == pytest.approx(g2, rel=1e-14)
        assert se == pytest.approx(math.sqrt(grad @ cov @ grad / trials), rel=1e-12)
        assert ms.g2_from_counts(n1, n2, 0, trials) == (0.0, 0.0)
        with pytest.raises(ZeroCoincidenceError):
            ms.g2_from_counts(0, n2, 0, trials)


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

    @pytest.mark.parametrize(
        "parameter, eta, target, rel",
        [
            (1.0, 0.008, 0.062, 1e-9),  # the packaged calibration point
            *[(r, eta, t, 1e-7) for r in (0.3, 1.0) for eta in (0.002, 0.008, 0.1, 1.0) for t in (0.01, 0.062, 0.5, 0.9)],
            *[(1.0, eta, 0.062, 1e-12) for eta in (1e-6, 1e-9, 1e-12, 1e-15)],
        ],
    )
    def test_root_reproduces_target(self, parameter, eta, target, rel):
        f = PhotonFieldModel("single_photon", parameter, DetectorModel(eta))
        b = ms.calibrate_background(target, f)
        check = PhotonFieldModel("single_photon", parameter, DetectorModel(eta, b))
        assert ms.g2_hbt(check) == pytest.approx(target, rel=rel)

    @pytest.mark.parametrize("kind, parameter", [("thermal", 1.0), ("coherent", 1.0), ("dlcz_pair", 0.05)])
    def test_rejects_target_below_own_g2(self, kind, parameter):
        # background pulls g2 towards 1 from either side, so no b takes a field with g2 >= 1 below 1
        f = PhotonFieldModel(kind, parameter, DetectorModel(0.008))
        with pytest.raises(ValueError, match="below the field's own g2"):
            ms.calibrate_background(0.062, f)

    @pytest.mark.parametrize(
        "eta, match", [(1e-160, "misses the target g2"), (1e-170, r"outside \[0, 1\)"), (1e-300, r"outside \[0, 1\)")]
    )
    def test_underflowing_click_probabilities_raise(self, eta, match):
        # no b with a g2 within ROUND_TRIP_TOL of the target: an error, not a wrong background
        f = PhotonFieldModel("single_photon", 1.0, DetectorModel(eta))
        with pytest.raises(ValueError, match=match):
            ms.calibrate_background(0.062, f)

    def test_rejects_field_without_clicks(self):
        f = PhotonFieldModel("single_photon", 1.0, DetectorModel(0.0))
        with pytest.raises(ValueError, match="no clicks"):
            ms.calibrate_background(0.062, f)
