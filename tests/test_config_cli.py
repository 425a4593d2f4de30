import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from rydlink import cli, dephasing, measurement
from rydlink.config import ConfigError, load_config, parse_quantity

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def default_raw():
    import importlib.resources

    text = (importlib.resources.files("rydlink.data") / "default.yaml").read_text()
    return yaml.safe_load(text)


def write_config(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


class TestQuantityParsing:
    def test_frequency_is_angular(self):
        # "3 MHz" means 2 pi x 3e6 rad/s
        assert parse_quantity("3 MHz", "frequency") == pytest.approx(TWO_PI * 3e6)
        assert parse_quantity("-610 MHz", "frequency") == pytest.approx(-TWO_PI * 610e6)

    def test_rad_per_s_passthrough(self):
        assert parse_quantity("1.5 rad/s", "frequency") == pytest.approx(1.5)

    def test_times_and_lengths(self):
        assert parse_quantity("492 ns", "time") == pytest.approx(492e-9)
        assert parse_quantity("1.6 us", "time") == pytest.approx(1.6e-6)
        assert parse_quantity("795 nm", "length") == pytest.approx(0.795)  # um
        assert parse_quantity("7 um", "length") == pytest.approx(7.0)

    def test_temperature_mass_angle(self):
        assert parse_quantity("150 uK", "temperature") == pytest.approx(150e-6)
        assert parse_quantity("5 deg", "angle") == pytest.approx(np.radians(5.0))
        assert parse_quantity("86.909 amu", "mass") > 0

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ConfigError, match="expected a time"):
            parse_quantity("3 MHz", "time")

    def test_missing_unit_rejected(self):
        with pytest.raises(ConfigError):
            parse_quantity("3", "frequency")

    def test_unknown_unit_rejected(self):
        with pytest.raises(ConfigError, match="unknown unit"):
            parse_quantity("3 furlongs", "length")

    def test_dimensionless_must_be_plain_number(self):
        assert parse_quantity(0.5, "dimensionless") == 0.5
        with pytest.raises(ConfigError):
            parse_quantity("0.5", "dimensionless")


class TestSchema:
    def test_packaged_default_loads(self):
        cfg = load_config()
        assert cfg.seed == 7
        assert cfg.ensemble.effective_atom_number == 150
        assert cfg.geometry.detuning_2 < 0

    def test_unknown_key_names_path(self, tmp_path, default_raw):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["ensemble"]["tempreture"] = "150 uK"
        with pytest.raises(ConfigError, match=r"config\.ensemble\.tempreture"):
            load_config(write_config(tmp_path, raw))

    def test_missing_key_names_path(self, tmp_path, default_raw):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        del raw["detector"]["g2_calibration_target"]
        with pytest.raises(ConfigError, match=r"config\.detector\.g2_calibration_target"):
            load_config(write_config(tmp_path, raw))

    def test_unknown_beam_key(self, tmp_path, default_raw):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["geometry"]["beams"]["F"] = raw["geometry"]["beams"]["A"]
        with pytest.raises(ConfigError, match=r"config\.geometry\.beams\.F"):
            load_config(write_config(tmp_path, raw))

    def test_missing_beam_key(self, tmp_path, default_raw):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        del raw["geometry"]["beams"]["E"]
        with pytest.raises(ConfigError, match=r"config\.geometry\.beams\.E: missing key"):
            load_config(write_config(tmp_path, raw))

    def test_calibration_protocol_rabi(self):
        cfg = load_config()
        assert TWO_PI / cfg.protocol_rabi == pytest.approx(492e-9)

    def test_config_hash_stable(self):
        assert load_config().config_hash() == load_config().config_hash()

    def test_libyaml_and_python_parsers_agree(self, monkeypatch):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        fast = load_config()
        monkeypatch.delattr(yaml, "CSafeLoader")
        slow = load_config()
        assert fast.raw == slow.raw
        assert fast.config_hash() == slow.config_hash()

    def test_beam_quantities_range_checked_at_load(self, tmp_path, default_raw):
        # every beam quantity enters squared somewhere downstream
        bad = {
            "wavelength": ("-795 nm", "1e300 nm", "1e-300 nm"),
            "waist": ("0 um", "1e300 um", "1e-300 um"),
            "rabi": ("-3 MHz", "1e300 MHz", "1e-300 MHz"),
        }
        for beam in default_raw["geometry"]["beams"]:
            for name, values in bad.items():
                for value in values:
                    raw = yaml.safe_load(yaml.safe_dump(default_raw))
                    raw["geometry"]["beams"][beam][name] = value
                    key = f"geometry.beams.{beam}.{name}"
                    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
                        load_config(write_config(tmp_path, raw))


def run_cli(args, outdir):
    return cli.main(["--out", str(outdir), *args])


class TestCli:
    def test_success_exit_code_and_manifest(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["rabi", "--single"], out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "rabi"
        assert "rabi_single.csv" in manifest["outputs"]
        data = (out / "rabi_single.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == manifest["outputs"]["rabi_single.csv"]

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("geometry: {}\n")
        assert cli.main(["--config", str(bad), "--out", str(tmp_path / "o"), "rabi", "--single"]) == 2

    @pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
    def test_malformed_yaml_exits_2_naming_file(self, tmp_path, monkeypatch, capsys, loader):
        if loader == "SafeLoader":
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        elif not hasattr(yaml, loader):
            pytest.skip("PyYAML built without libyaml")
        bad = tmp_path / "bad.yaml"
        # an unclosed list, and a byte that is not UTF-8
        for content in (b"geometry: [1, 2\n", b"seed: \xff\n"):
            bad.write_bytes(content)
            assert cli.main(["--config", str(bad), "--out", str(tmp_path / "o"), "g2", "--field", "single"]) == 2
            err = capsys.readouterr().err
            assert f"{bad}: bad YAML" in err
            # the parser's own mark names the file too
            assert f'in "{bad}"' in err

    def test_missing_config_file_exit_code(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.yaml"), "rabi", "--single"]) == 2
        assert cli.main(["--config", str(tmp_path), "rabi", "--single"]) == 2

    def test_nonconvergence_maps_to_exit_3(self, tmp_path, monkeypatch):
        def boom(cfg, args, writer):
            raise dephasing.FitError("no convergence")

        monkeypatch.setattr(cli, "cmd_rabi", boom)
        assert run_cli(["rabi", "--single"], tmp_path / "o") == 3

    def test_failed_envelope_fit_exits_3_without_summary(self, tmp_path, monkeypatch):
        def no_fit(*args, **kwargs):
            raise RuntimeError("Optimal parameters not found")

        monkeypatch.setattr(dephasing, "curve_fit", no_fit)
        out = tmp_path / "o"
        assert run_cli(["dephasing", "--samples", "100"], out) == 3
        assert not list(out.glob("dephasing_*.json"))

    @pytest.mark.parametrize(
        "args, named",
        [
            (["g2", "--field", "dlcz", "--parameter", "1.5"], "--parameter"),
            (["dephasing", "--samples", "50"], "--samples"),
            (["g2", "--field", "single", "--parameter", "2"], "--parameter"),
            (["g2", "--field", "coherent", "--parameter", "0"], "--parameter"),
            (["g2", "--field", "thermal", "--parameter", "inf"], "--parameter"),
            (["g2", "--field", "single", "--parameter", "nan"], "--parameter"),
            (["dephasing", "--flags", ","], "--flags"),
            (["dephasing", "--flags", ""], "--flags"),
            (["dephasing", "--flags", "motion,motion"], "--flags"),
            (["dephasing", "--flags", "motion,,inhomo"], "--flags"),
            (["repeater", "--source", "semi", "--sweep", "p"], "--sweep p: applies only to --source dlcz"),
            # no singles in the Monte Carlo trials: g2 is undefined
            (
                ["g2", "--field", "single", "--parameter", "1e-9"],
                "--parameter 1e-09 for --field single with simulation.g2_trials",
            ),
            # more of the distribution than FOCK_TAIL_TOL lies beyond the Fock cutoff
            (["g2", "--field", "thermal", "--parameter", "20"], "--parameter"),
            (["g2", "--field", "coherent", "--parameter", "50"], "--parameter"),
            (["g2", "--field", "coherent", "--parameter", "1000"], "--parameter"),
        ],
        ids=[
            "dlcz-p-above-range", "too-few-samples", "single-efficiency-above-1", "coherent-vacuum",
            "thermal-infinite", "single-efficiency-nan", "empty-flag-list", "no-flags",
            "repeated-flag", "empty-flag", "p-sweep-of-semi-source", "g2-no-singles",
            "thermal-beyond-fock-cutoff", "coherent-beyond-fock-cutoff", "coherent-far-beyond-fock-cutoff",
        ],
    )
    def test_out_of_range_option_is_config_error(self, tmp_path, capsys, args, named):
        assert run_cli(args, tmp_path / "o") == 2
        assert named in capsys.readouterr().err
        # a run that fails before writing leaves no output directory behind
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "linewidth",
        # too fast a scattering rate for the spectral propagation: a batch too stiff to
        # sum to 1e-10, a projection above the population, populations that overflow to
        # inf, a singular eigenbasis
        ["1e5 MHz", "1e12 MHz", "1e20 MHz", "1e146 MHz"],
    )
    def test_ensemble_batch_out_of_bounds_exits_3(self, tmp_path, capsys, default_raw, linewidth):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["raman"]["intermediate_linewidth"] = linewidth
        out = tmp_path / "o"
        argv = ["--config", write_config(tmp_path, raw), "--out", str(out), "dephasing", "--flags", "scatter"]
        assert cli.main([*argv, "--samples", "100"]) == 3
        assert "raman.intermediate_linewidth" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, args",
        [
            ("geometry.beams.A.wavelength", "nan nm", ["dephasing"]),
            ("geometry.beams.A.direction", [float("nan"), 0.0, 1.0], ["rabi", "--pair"]),
            ("geometry.beams.A.direction", ["x", 0.0, 1.0], ["g2", "--field", "single"]),
            ("geometry.beams.A.direction", [0.0, 1.0], ["rabi", "--single"]),
            ("ensemble.temperature", "inf uK", ["dephasing"]),
            ("raman.single_excitation_period", "nan ns", ["rabi", "--pair"]),
            ("raman.single_excitation_period", "0 ns", ["rabi", "--pair"]),
            ("detector.entanglement_chain_efficiency", float("nan"), ["entangle", "--fidelity"]),
            ("ensemble.atomic_mass", "0 amu", ["dephasing"]),
            ("readout.second_read_delay", "-1 us", ["entangle", "--fidelity"]),
            ("simulation.dephasing_t_max", "0 us", ["dephasing"]),
            ("simulation.seed", -1, ["g2", "--field", "single"]),
            ("simulation.dephasing_points", 1, ["dephasing"]),
            ("simulation.coincidence_trials", 0, ["entangle", "--fidelity"]),
            ("simulation.g2_trials", 0, ["g2", "--field", "single"]),
            ("repeater.trials", 0, ["repeater", "--source", "semi"]),
            ("repeater.channel_transmission", 1.5, ["repeater", "--source", "semi"]),
            ("repeater.retrieval_efficiency", -0.1, ["repeater", "--source", "semi"]),
            ("repeater.channel_transmission", 0.0, ["repeater", "--source", "semi"]),
            ("repeater.retrieval_efficiency", 0.0, ["repeater", "--source", "semi", "--sweep", "eta"]),
            # one trial of a single photon clicks one detector only: no g2
            ("simulation.g2_trials", 1, ["g2", "--field", "single"]),
            ("repeater.dlcz_excitation", 0.5, ["repeater", "--source", "dlcz"]),
            ("repeater.dlcz_excitation", 0.0, ["repeater", "--source", "dlcz"]),
            ("ensemble.cloud_sigma[0]", ["-3.5 um", "3.5 um", "6.5 um"], ["dephasing", "--flags", "motion,inhomo"]),
            ("ensemble.cloud_sigma[2]", ["3.5 um", "3.5 um", "0 um"], ["dephasing"]),
            ("geometry.detuning_1", "0 MHz", ["rabi", "--pair"]),
            ("geometry.detuning_2", "610 MHz", ["dephasing"]),
            ("ensemble.effective_atom_number", 0, ["rabi", "--collective"]),
            ("ensemble.ground_spinwave_lifetime", "-30 us", ["entangle", "--fidelity"]),
            ("ensemble.temperature", "0 uK", ["dephasing"]),
            ("raman.intermediate_linewidth", "-5.746 MHz", ["dephasing"]),
            ("geometry.detuning_1", "1e308 GHz", ["dephasing"]),
            ("geometry.beams.A.rabi", "-3 MHz", ["rabi", "--collective"]),
            ("geometry.beams.A.waist", "1e300 um", ["g2", "--field", "single"]),
            ("geometry.beams.A.direction", [1, 1, 0], ["rabi", "--pair"]),
            ("geometry.beams.A.direction", [0, 0, 0], ["rabi", "--pair"]),
            # 2 pi / period overflows: an infinite protocol Rabi frequency
            ("raman.single_excitation_period", "1e-300 ns", ["entangle", "--fidelity"]),
            # the thermal velocity sqrt(kB T / m) underflows to 0 or overflows
            ("ensemble.temperature", "1e-300 uK", ["dephasing"]),
            ("ensemble.temperature", "1e308 K", ["dephasing", "--flags", "motion"]),
            # removed keys: no computation used them, or another input states them
            ("ensemble.free_rydberg_lifetime", "1.6 us", ["dephasing"]),
            ("geometry.theta_1", "5 deg", ["rabi", "--pair"]),
            ("output", {"directory": "out"}, ["g2", "--field", "single"]),
            # the square of the scattering rate overflows
            ("raman.intermediate_linewidth", "1e300 MHz", ["dephasing", "--flags", "scatter"]),
            # checked at load, so a command that averages no ensemble refuses it too
            ("simulation.dephasing_samples", 99, ["rabi", "--pair"]),
            # the click probabilities underflow, so no background reproduces the target g2
            ("detector.calibration_chain_efficiency", 1e-300, ["entangle", "--fidelity"]),
            ("detector.calibration_chain_efficiency", 1e-300, ["g2", "--field", "single", "--calibrated"]),
        ],
        ids=[
            "nan-wavelength", "nan-direction", "string-direction", "short-direction",
            "inf-temperature", "nan-period", "zero-period", "nan-efficiency", "zero-mass",
            "negative-read-delay", "zero-dephasing-window", "negative-seed",
            "one-dephasing-point", "no-coincidence-trials", "no-g2-trials", "no-repeater-trials",
            "transmission-above-1", "negative-retrieval", "zero-transmission", "zero-retrieval",
            "g2-single-trial", "dlcz-p-above-range", "dlcz-p-zero",
            "negative-cloud-sigma", "zero-cloud-sigma", "zero-detuning", "same-sign-detunings",
            "no-atoms", "negative-spinwave-lifetime", "zero-temperature", "negative-linewidth",
            "overflowing-detuning", "negative-rabi", "overflowing-waist",
            "unnormalized-direction", "zero-direction", "subnormal-period",
            "underflowing-thermal-velocity", "overflowing-thermal-velocity", "removed-free-rydberg-lifetime",
            "removed-theta-1", "removed-output-directory", "overflowing-linewidth", "too-few-dephasing-samples",
            "underflowing-calibration-fidelity", "underflowing-calibration-g2",
        ],
    )
    def test_bad_config_value_exits_2_naming_key(self, tmp_path, capsys, default_raw, key, value, args):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        # an indexed key ("ensemble.cloud_sigma[0]") is set by its whole list
        *parents, leaf = key.split("[")[0].split(".")
        node = raw
        for part in parents:
            node = node[part]
        node[leaf] = value
        config = write_config(tmp_path, raw)
        assert cli.main(["--config", config, "--out", str(tmp_path / "o"), *args]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["rabi", "--collective"],
            ["rabi", "--pair"],
            ["dephasing", "--flags", "motion"],
            ["entangle", "--phi-sweep"],
            ["g2", "--field", "single"],
            ["repeater", "--source", "semi"],
        ],
        ids=lambda a: "-".join(a).replace("--", ""),
    )
    def test_indistinguishable_modes_exit_2(self, tmp_path, capsys, default_raw, args):
        # C and E on the optical axis: the Raman kick is purely axial, so
        # the kicked spin-wave modes overlap the unkicked ones
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        for beam in ("C", "E"):
            raw["geometry"]["beams"][beam]["direction"] = [0.0, 0.0, 1.0]
        config = write_config(tmp_path, raw)
        assert cli.main(["--config", config, "--out", str(tmp_path / "o"), *args]) == 2
        assert "geometry.beams" in capsys.readouterr().err

    def test_small_calibration_efficiency_reproduces_target(self, tmp_path, default_raw):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["detector"]["calibration_chain_efficiency"] = 1e-9
        out = tmp_path / "o"
        assert cli.main(["--config", write_config(tmp_path, raw), "--out", str(out), "entangle", "--fidelity"]) == 0
        b = json.loads((out / "entangle_fidelity.json").read_text())["calibrated_background"]
        g2 = measurement.g2_hbt(measurement.PhotonFieldModel("single_photon", 1.0, measurement.DetectorModel(1e-9, b)))
        assert g2 == pytest.approx(0.062, rel=1e-12)

    @pytest.mark.parametrize(
        "specs, tag", [(("motion", " motion"), "motion"), (("motion,inhomo", "inhomo,motion"), "motion-inhomo")]
    )
    def test_dephasing_files_named_from_parsed_flags(self, tmp_path, specs, tag):
        # equivalent --flags texts write the same files under the same names
        a, b = (tmp_path / spec for spec in specs)
        for spec, out in zip(specs, (a, b)):
            assert run_cli(["dephasing", "--flags", spec, "--samples", "100"], out) == 0
        names = sorted(p.name for p in b.iterdir())
        assert names == [f"dephasing_{tag}.csv", f"dephasing_{tag}.json", "manifest.json"]
        assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)

    def test_unknown_dephasing_flag_is_config_error(self, tmp_path):
        assert run_cli(["dephasing", "--flags", "wobble"], tmp_path / "o") == 2

    @pytest.mark.parametrize("below_file", [False, True], ids=["--out-file", "--out-below-file"])
    def test_unusable_output_directory_exits_2(self, tmp_path, capsys, below_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        target = blocker / "x" if below_file else blocker
        assert cli.main(["--out", str(target), "g2", "--field", "single"]) == 2
        assert "--out: cannot create directory" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["dephasing", "--flags", "motion", "--samples", "150"], out) == 0
            assert run_cli(["repeater", "--source", "semi"], out) == 0
        for name in ("dephasing_motion.csv", "dephasing_motion.json", "repeater_semi.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_phi_sweep_columns_match_formats(self, tmp_path):
        out = tmp_path / "sweep"
        assert run_cli(["entangle", "--phi-sweep"], out) == 0
        header = (out / "entangle_phi_sweep.csv").read_text().splitlines()[0]
        assert header == "phi_rad,c_pp,c_mm,c_pm,c_mp,v"

    def test_repeater_sweep_rows(self, tmp_path):
        out = tmp_path / "rep"
        assert run_cli(["repeater", "--source", "dlcz", "--sweep", "p"], out) == 0
        lines = (out / "repeater_dlcz_sweep_p.csv").read_text().splitlines()
        assert lines[0] == "sweep_value,herald_rate,spurious_fraction,conditional_fidelity,ci_low,ci_high"
        assert len(lines) == 7  # header + 6 grid points

    def test_repeater_without_heralds_writes_null_fidelity(self, tmp_path, default_raw):
        # one dlcz trial heralds nothing, so there is no conditional fidelity
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["repeater"]["trials"] = 1
        out = tmp_path / "o"
        assert cli.main(["--config", write_config(tmp_path, raw), "--out", str(out), "repeater", "--source", "dlcz"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        report = json.loads((out / "repeater_dlcz.json").read_text(), parse_constant=reject)
        assert report["monte_carlo"]["herald_rate"] == 0.0
        assert report["monte_carlo"]["conditional_fidelity"] is None
        assert report["analytic"]["conditional_fidelity"] > 0.0

    def test_json_artifact_refuses_nan(self, tmp_path):
        writer = cli.RunWriter(tmp_path / "o", load_config(), "repeater")
        with pytest.raises(ValueError, match="JSON compliant"):
            writer.json("bad.json", {"x": float("nan")})
        assert not (tmp_path / "o").exists()

    def test_p_sweep_rejected_for_semi(self, tmp_path):
        assert run_cli(["repeater", "--source", "semi", "--sweep", "p"], tmp_path / "o") == 2

    def test_g2_single_json(self, tmp_path):
        out = tmp_path / "g2"
        assert run_cli(["g2", "--field", "single"], out) == 0
        report = json.loads((out / "g2_single.json").read_text())
        assert report["g2_analytic"] < 1e-12
        assert report["version"] == 1

    def test_cli_import_skips_scipy_stats(self):
        # importing scipy costs about half a second of every CLI start-up; only
        # the envelope fit of dephasing and the oracles load it
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import rydlink.cli; rydlink.cli.load_config(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'rydlink.oracles'))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "args",
        [["g2", "--field", "coherent"], ["g2", "--field", "single", "--calibrated"], ["entangle", "--fidelity"]],
        ids=lambda a: "-".join(a).replace("--", ""),
    )
    def test_g2_and_entangle_commands_skip_scipy(self, tmp_path, args):
        # the g2 fields and the background calibration are closed forms in numpy
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import rydlink.cli; "
            f"assert rydlink.cli.main(['--out', {str(tmp_path / 'o')!r}, *{args!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
