import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from rydlink import cli, dephasing
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

    def test_declared_angle_must_match_directions(self, tmp_path, default_raw):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["geometry"]["theta_1"] = "12 deg"  # beams actually cross at 5 deg
        with pytest.raises(ConfigError, match="theta_1"):
            load_config(write_config(tmp_path, raw))

    def test_calibration_protocol_rabi(self):
        cfg = load_config()
        assert TWO_PI / cfg.protocol_rabi == pytest.approx(492e-9)

    def test_config_hash_stable(self):
        assert load_config().config_hash() == load_config().config_hash()


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
        ],
        ids=[
            "dlcz-p-above-range", "too-few-samples", "single-efficiency-above-1", "coherent-vacuum",
            "thermal-infinite",
        ],
    )
    def test_out_of_range_option_is_config_error(self, tmp_path, capsys, args, named):
        assert run_cli(args, tmp_path / "o") == 2
        assert named in capsys.readouterr().err

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
            ("repeater.dlcz_excitation", 0.5, ["repeater", "--source", "dlcz"]),
            ("repeater.dlcz_excitation", 0.0, ["repeater", "--source", "dlcz"]),
        ],
        ids=[
            "nan-wavelength", "nan-direction", "string-direction", "short-direction",
            "inf-temperature", "nan-period", "zero-period", "nan-efficiency", "zero-mass",
            "negative-read-delay", "zero-dephasing-window", "negative-seed",
            "one-dephasing-point", "no-coincidence-trials", "no-g2-trials", "no-repeater-trials",
            "transmission-above-1", "negative-retrieval", "dlcz-p-above-range", "dlcz-p-zero",
        ],
    )
    def test_bad_config_value_exits_2_naming_key(self, tmp_path, capsys, default_raw, key, value, args):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        *parents, leaf = key.split(".")
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
        raw["geometry"]["theta_1"] = "0 deg"
        raw["geometry"]["theta_2"] = "0 deg"
        config = write_config(tmp_path, raw)
        assert cli.main(["--config", config, "--out", str(tmp_path / "o"), *args]) == 2
        assert "geometry.beams" in capsys.readouterr().err

    def test_unknown_dephasing_flag_is_config_error(self, tmp_path):
        assert run_cli(["dephasing", "--flags", "wobble"], tmp_path / "o") == 2

    def test_env_var_output_override(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv(cli.OUTDIR_ENV, str(target))
        assert cli.main(["rabi", "--single"]) == 0
        assert (target / "rabi_single.csv").exists()

    @pytest.mark.parametrize("below_file", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("source", ["--out", cli.OUTDIR_ENV])
    def test_unusable_output_directory_exits_2(self, tmp_path, monkeypatch, capsys, source, below_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        target = blocker / "x" if below_file else blocker
        if source == "--out":
            argv = ["--out", str(target), "g2", "--field", "single"]
        else:
            monkeypatch.setenv(cli.OUTDIR_ENV, str(target))
            argv = ["g2", "--field", "single"]
        assert cli.main(argv) == 2
        assert f"{source}: cannot create directory" in capsys.readouterr().err

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

    def test_p_sweep_rejected_for_semi(self, tmp_path):
        assert run_cli(["repeater", "--source", "semi", "--sweep", "p"], tmp_path / "o") == 2

    def test_g2_single_json(self, tmp_path):
        out = tmp_path / "g2"
        assert run_cli(["g2", "--field", "single"], out) == 0
        report = json.loads((out / "g2_single.json").read_text())
        assert report["g2_analytic"] < 1e-12
        assert report["version"] == 1

    def test_cli_import_skips_scipy_stats(self):
        # scipy.stats costs about half a second of every CLI start-up
        src = str(Path(cli.__file__).resolve().parents[1])
        code = f"import sys; sys.path.insert(0, {src!r}); import rydlink.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
