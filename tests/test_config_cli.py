import copy
import hashlib
import itertools
import json
import re
import runpy
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import oracles
import pytest
import yaml

from rydlink import cli, config, dephasing, measurement
from rydlink.config import ConfigError, load_config, parse_quantity

TWO_PI = 2.0 * np.pi


def packaged_doppler_phase():
    """sigma_D t_max of the packaged config, 2.56 rad."""
    cfg = load_config()
    return oracles.doppler_phase(cfg.geometry, cfg.ensemble, cfg.parsed["simulation"]["dephasing_t_max"] * 1e6)


@pytest.fixture(scope="module")
def default_raw():
    import importlib.resources

    text = (importlib.resources.files("rydlink.data") / "default.yaml").read_text()
    return yaml.safe_load(text)


class Twice(list):
    """The values of a key that a config writes twice in one mapping, in order."""


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

    def test_every_unknown_key_is_named_in_one_refusal(self, tmp_path, default_raw):
        # at every level, and whatever the YAML type of the key (sorting an int with a str key raised TypeError)
        raw = copy.deepcopy(default_raw)
        raw[1] = "x"
        raw["ensemble"]["tempreture"] = "150 uK"
        raw["geometry"]["beams"]["A"]["wasit"] = "7 um"
        expected = "config.1, config.geometry.beams.A.wasit, config.ensemble.tempreture: unknown keys"
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
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

    def test_every_missing_key_is_named_in_one_refusal(self, tmp_path, capsys, default_raw):
        # in two sections, then with a typo that the one refusal names once as unknown and once as missing
        raw = copy.deepcopy(default_raw)
        del raw["ensemble"]["temperature"], raw["ensemble"]["atomic_mass"], raw["simulation"]["seed"]
        missing = "config.ensemble.atomic_mass, config.ensemble.temperature, config.simulation.seed: missing keys"
        raw_typo = copy.deepcopy(raw)
        raw_typo["ensemble"]["temperatur"] = "150 uK"
        for config_raw, expected in ((raw, missing), (raw_typo, f"config.ensemble.temperatur: unknown key; {missing}")):
            path = write_config(tmp_path, config_raw)
            with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
                load_config(path)
            assert cli.main(["--config", path, "--out", str(tmp_path / "o"), "rabi", "--single"]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {expected}\n"
            assert not (tmp_path / "o").exists()

    def test_calibration_protocol_rabi(self):
        cfg = load_config()
        assert TWO_PI / cfg.protocol_rabi == pytest.approx(492e-9)

    def test_config_hash_stable(self):
        assert load_config().config_hash == load_config().config_hash

    def test_libyaml_and_python_parsers_agree(self, monkeypatch):
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        fast = load_config()
        parsed = []

        class PythonLoader(yaml.SafeLoader):
            """The pure-Python loader under a class of its own: no earlier load cached a tree for it."""

            def get_single_data(self):
                parsed.append(True)
                return super().get_single_data()

        monkeypatch.delattr(yaml, "CSafeLoader")
        monkeypatch.setattr(yaml, "SafeLoader", PythonLoader)
        slow = load_config()
        assert parsed == [True]
        assert fast.parsed == slow.parsed
        assert fast.config_hash == slow.config_hash

    def test_beam_quantities_range_checked_at_load(self, tmp_path, default_raw):
        # every beam quantity enters squared somewhere downstream
        bad = {
            "wavelength": ("-795 nm", "1e300 nm", "1e-300 nm"),
            "waist": ("0 um", "1e300 um", "1e-300 um"),
            "rabi": ("-3 MHz", "1e300 MHz", "1e-300 MHz"),
        }
        for beam, spec in default_raw["geometry"]["beams"].items():
            for name in bad.keys() & spec.keys():
                for value in bad[name]:
                    raw = yaml.safe_load(yaml.safe_dump(default_raw))
                    raw["geometry"]["beams"][beam][name] = value
                    key = f"geometry.beams.{beam}.{name}"
                    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
                        load_config(write_config(tmp_path, raw))


# the keys of the Raman coupling, which every numerical failure of dephasing names
RAMAN_KEYS = "geometry.beams.C.rabi, geometry.beams.E.rabi, geometry.detuning_1, geometry.detuning_2"

K2_ZERO_KEYS = (
    "geometry.beams.A.wavelength",
    "geometry.beams.A.direction",
    "geometry.beams.B.wavelength",
    "geometry.beams.B.direction",
    "ensemble.temperature",
    "ensemble.atomic_mass",
)
# beam B at beam A's wavelength and opposite to it: k2 = k_A + k_B = 0, so the free spin wave never
# dephases and tau_free_us is infinite
K2_ZERO_VALUES = ("795 nm", [0.0, 0.0, 1.0], "795 nm", [0.0, 0.0, -1.0], "150 uK", "86.909 amu")

# a config for each limit that only the dephasing gate checks, and that no other command reads
MOVED_RULES = {
    "detunings": {"geometry.detuning_2": "610 MHz"},
    "thermal": {"ensemble.temperature": "1e-300 uK"},  # sqrt(kB T / m) underflows to 0
    "tau_free": dict(zip(K2_ZERO_KEYS, K2_ZERO_VALUES)),
    "jacobi": {"geometry.beams.C.waist": "1e-6 um"},  # b = 4e-14 across the packaged cloud
}


def with_values(raw, changes):
    """A copy of ``raw`` with each dotted key of ``changes`` set to its value."""
    raw = copy.deepcopy(raw)
    for dotted, value in changes.items():
        *path, leaf = dotted.split(".")
        node = raw
        for key in path:
            node = node[key]
        node[leaf] = value
    return raw


@pytest.fixture
def parses(monkeypatch):
    """The YAML parses load_config makes; the loader is a class of its own, so no earlier load's tree serves it."""
    done = []

    class CountingLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        def get_single_data(self):
            done.append(True)
            return super().get_single_data()

    monkeypatch.setattr(yaml, "CSafeLoader", CountingLoader, raising=False)
    return done


def _mutable(node):
    """The dicts and lists in a tree, walked through its read-only mappings and tuples."""
    if isinstance(node, (dict, list)):
        yield node
    if isinstance(node, (Mapping, list, tuple)):
        for child in node.values() if isinstance(node, Mapping) else node:
            yield from _mutable(child)


class TestConfigCache:
    def test_one_check_per_content(self, tmp_path, default_raw, parses, monkeypatch):
        checks = []
        # the schema walk, and the mode gate
        for name in ("_walk", "modes_distinguishable"):
            original = getattr(config, name)
            monkeypatch.setattr(config, name, lambda *a, _f=original, _n=name: checks.append(_n) or _f(*a))
        path = write_config(tmp_path, default_raw)
        first = load_config(path)
        assert "modes_distinguishable" in checks and "_walk" in checks
        per_load = sorted(checks)
        # the same bytes again: no parse, no check, and the one RunConfig
        assert load_config(path) is first
        assert len(parses) == 1 and sorted(checks) == per_load
        raw = copy.deepcopy(default_raw)
        raw["simulation"]["seed"] += 1
        write_config(tmp_path, raw)
        assert load_config(path).seed == default_raw["simulation"]["seed"] + 1
        assert len(parses) == 2 and sorted(checks) == sorted(per_load * 2)

    def test_rewritten_config_is_read_again(self, tmp_path, default_raw):
        # the same path, rewritten between two runs of one process, must give the new content's run
        raw = copy.deepcopy(default_raw)
        path = write_config(tmp_path, raw)
        args = ["g2", "--field", "thermal"]
        assert cli.main(["--config", path, "--out", str(tmp_path / "first"), *args]) == 0
        raw["simulation"]["seed"] += 1
        write_config(tmp_path, raw)
        assert cli.main(["--config", path, "--out", str(tmp_path / "second"), *args]) == 0
        fresh = write_config(tmp_path, raw, "fresh.yaml")
        assert cli.main(["--config", fresh, "--out", str(tmp_path / "fresh"), *args]) == 0
        first, second, expected = (
            json.loads((tmp_path / run / "manifest.json").read_text()) for run in ("first", "second", "fresh")
        )
        assert second["config_hash"] == expected["config_hash"] == load_config(fresh).config_hash
        assert second["config_hash"] != first["config_hash"]
        assert second["outputs"] == expected["outputs"] != first["outputs"]
        assert second["seed"] == first["seed"] + 1

    @pytest.mark.parametrize("from_file", [False, True], ids=["packaged", "file"])
    def test_shared_config_is_read_only(self, tmp_path, default_raw, from_file):
        path = write_config(tmp_path, default_raw) if from_file else None
        first = load_config(path)
        assert not list(_mutable(first.parsed))
        # the tree, one of its sections, a beam's section and the beams of the geometry
        for mapping, key in (
            (first.parsed, "simulation"),
            (first.parsed["simulation"], "seed"),
            (first.parsed["geometry"]["beams"]["A"], "rabi"),
            (first.geometry.beams, "A"),
        ):
            with pytest.raises(TypeError):
                mapping[key] = None
            with pytest.raises(TypeError):
                del mapping[key]
        with pytest.raises(ValueError, match="read-only"):
            first.geometry.beams["A"].direction[0] = 1.0
        again = load_config(path)
        assert again is first
        # a load that no cache serves gives the same config
        config._run_config.cache_clear()
        fresh = load_config(path)
        assert fresh is not first
        assert fresh.parsed == first.parsed and fresh.config_hash == first.config_hash
        assert fresh.config_hash == load_config(write_config(tmp_path, default_raw, "copy.yaml")).config_hash

    def test_config_that_fails_a_check_is_refused_on_every_call(self, tmp_path, capsys, default_raw, parses):
        load_config(write_config(tmp_path, default_raw, "good.yaml"))  # a good config in the slot serves no other
        raw = copy.deepcopy(default_raw)
        raw["simulation"]["seed"] = -1
        path = write_config(tmp_path, raw)
        for _ in range(2):  # nothing of a load that fails is kept: it is parsed and checked again
            with pytest.raises(ConfigError, match=r"config\.simulation\.seed: must be >= 0"):
                load_config(path)
        bad = tmp_path / "bad.yaml"
        bad.write_text("a: [1, 2\n")
        for _ in range(2):
            with pytest.raises(ConfigError, match="bad YAML"):
                load_config(str(bad))
        assert len(parses) == 5
        # the mode gate, through the command line: exit 2 naming its keys on every call
        raw = copy.deepcopy(default_raw)
        raw["geometry"]["beams"]["A"]["waist"] = "1 um"
        path = write_config(tmp_path, raw, "narrow.yaml")
        for _ in range(2):
            assert cli.main(["--config", path, "--out", str(tmp_path / "o"), "rabi", "--single"]) == 2
            assert "geometry.beams.A.waist: the kicked spin-wave modes overlap" in capsys.readouterr().err
        assert len(parses) == 7 and not (tmp_path / "o").exists()

    def test_cache_is_bounded(self, tmp_path, default_raw):
        raw = copy.deepcopy(default_raw)
        for seed in range(4):
            raw["simulation"]["seed"] = seed
            assert load_config(write_config(tmp_path, raw, f"seed{seed}.yaml")).seed == seed
        assert config._run_config.cache_info().currsize == 1


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

    def test_failed_run_leaves_an_earlier_run_as_it_was(self, tmp_path, monkeypatch):
        out = tmp_path / "o"
        assert run_cli(["rabi", "--single"], out) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def fail_after_first_artifact(cfg, args, writer):
            writer.csv("rabi_single.csv", ("t_ns", "p_transferred"), [(0.0, 1.0)])
            raise dephasing.FitError("no convergence")

        monkeypatch.setattr(cli, "cmd_rabi", fail_after_first_artifact)
        assert run_cli(["rabi", "--single"], out) == 3
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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
        # an unclosed list, marked by its line, a byte that is not UTF-8, marked by its position,
        # and a key repeated in one mapping, marked by its second line
        for content, mark in (
            (b"geometry: [1, 2\n", ", line 1, column 11"), (b"seed: \xff\n", ", position 6"),
            (b"seed: 1\nseed: 2\n", ", line 2, column 1"),
        ):
            bad.write_bytes(content)
            for _ in range(2):  # no bad file is cached, so a repeated run names it again
                assert cli.main(["--config", str(bad), "--out", str(tmp_path / "o"), "g2", "--field", "single"]) == 2
                err = capsys.readouterr().err
                assert f"{bad}: bad YAML" in err
                # the parser's own mark names the file too
                assert f'in "{bad}"{mark}' in err

    def test_missing_config_file_exit_code(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.yaml"), "rabi", "--single"]) == 2
        assert cli.main(["--config", str(tmp_path), "rabi", "--single"]) == 2

    def test_nonconvergence_maps_to_exit_3(self, tmp_path, monkeypatch):
        def boom(cfg, args, writer):
            raise dephasing.FitError("no convergence")

        monkeypatch.setattr(cli, "cmd_rabi", boom)
        assert run_cli(["rabi", "--single"], tmp_path / "o") == 3

    def test_failed_envelope_fit_exits_3_without_summary(self, tmp_path, monkeypatch, capsys):
        # no Levenberg-Marquardt step allowed: the fit cannot converge
        monkeypatch.setattr(dephasing, "FIT_MAX_STEPS", 0)
        out = tmp_path / "o"
        assert run_cli(["dephasing"], out) == 3
        err = capsys.readouterr().err
        assert "no convergence in 0 steps" in err and "simulation.dephasing_t_max" in err
        assert not list(out.glob("dephasing_*.json"))

    @pytest.mark.parametrize(
        "args, named",
        [
            (["g2", "--field", "dlcz", "--parameter", "1.5"], "--parameter"),
            (["g2", "--field", "single", "--parameter", "2"], "--parameter"),
            (["g2", "--field", "coherent", "--parameter", "0"], "--parameter"),
            # the vacuum has no g2: PhotonFieldModel's rule is the one check these meet
            (["g2", "--field", "single", "--parameter", "0"], "--parameter"),
            (["g2", "--field", "dlcz", "--parameter", "0"], "--parameter"),
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
            "dlcz-p-above-range", "single-efficiency-above-1", "coherent-vacuum", "single-vacuum", "dlcz-vacuum",
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
        # too fast a scattering rate: eps gamma t_max above 1e-10 from 1e5 MHz up; the
        # spectral propagation this replaced failed the larger three by a projection above
        # the population, populations that overflow to inf and a singular eigenbasis
        ["1e5 MHz", "1e12 MHz", "1e20 MHz", "1e146 MHz"],
    )
    def test_stiff_scatter_exits_2(self, tmp_path, capsys, default_raw, linewidth):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["raman"]["intermediate_linewidth"] = linewidth
        out = tmp_path / "o"
        argv = ["--config", write_config(tmp_path, raw), "--out", str(out), "dephasing", "--flags", "scatter"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "raman.intermediate_linewidth" in err and "too stiff" in err
        assert not out.exists()

    def test_doppler_refusal_names_temperature_not_linewidth(self, tmp_path, capsys, default_raw):
        # a Doppler shift far too fast for the window: the refusal is the motion's, not the scattering's
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["ensemble"]["temperature"] = "1e20 K"
        out = tmp_path / "o"
        argv = ["--config", write_config(tmp_path, raw), "--out", str(out), "dephasing", "--flags", "motion"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "ensemble.temperature" in err and "raman.intermediate_linewidth" not in err
        # the message names the Doppler phase, and no scattering rate
        assert "Doppler phase" in err and "gamma_e" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", ["motion", "motion,inhomo", "motion,scatter", "motion,inhomo,scatter"])
    def test_doppler_phase_beyond_the_hermite_rule_exits_2(self, tmp_path, capsys, default_raw, flags):
        # sigma_D t_max = 2.1e12 rad: 34 Hermite nodes hold the Doppler mean to 5.014, so every run
        # with motion is refused; the runs with scatter exited 0 with aliased curves before the phase was checked
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["ensemble"]["temperature"] = "1e20 K"
        out = tmp_path / "o"
        argv = ["--config", write_config(tmp_path, raw), "--out", str(out), "dephasing", "--flags", flags]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "ensemble.temperature, ensemble.atomic_mass" in err and "Doppler phase" in err
        assert not out.exists()

    @pytest.mark.parametrize("factor, code", [(1.0 - 1e-6, 0), (1.0 + 1e-6, 2)], ids=["below", "above"])
    def test_doppler_phase_at_the_derived_cap(self, tmp_path, capsys, default_raw, factor, code):
        # the cap is the reach of the N_V-node rule at 0.99 DOPPLER_TOL, above the 5 rad the fixed 32-node rule
        # admitted: a phase just below it runs on N_V nodes within the tolerance, one just above exits 2
        cap = dephasing.DOPPLER_PHASE_MAX
        assert 5.0 < cap
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        temperature_uK = load_config().ensemble.temperature_uK * (factor * cap / packaged_doppler_phase()) ** 2
        raw["ensemble"]["temperature"] = f"{temperature_uK!r} uK"
        out = tmp_path / "o"
        argv = ["--config", write_config(tmp_path, raw), "--out", str(out), "dephasing", "--flags", "motion"]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        if code:
            assert "ensemble.temperature, ensemble.atomic_mass" in err and f"{cap:.4g} rad" in err
            assert f"tolerance {dephasing.DOPPLER_TOL:g}" in err and not out.exists()
        else:
            record = json.loads((out / "dephasing_motion.json").read_text())
            assert record["n_nodes"] == dephasing.N_V
            assert record["doppler_miss"] <= record["doppler_tolerance"] == dephasing.DOPPLER_TOL

    def test_window_of_more_than_one_raman_period_runs(self, tmp_path, default_raw):
        # -2.5e3 MHz: the window spans 7.5 rad, past the 2 pi gate, and the run writes its files
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["geometry"]["detuning_2"] = "-2.5e+3 MHz"
        cfg = load_config(write_config(tmp_path, raw))
        phase = dephasing.raman_splitting(cfg.geometry)[0] * cfg.parsed["simulation"]["dephasing_t_max"]
        assert dephasing.MIN_FIT_PHASE < phase == pytest.approx(7.5, abs=0.05)
        out = tmp_path / "o"
        argv = ["--config", write_config(tmp_path, raw), "--out", str(out), "dephasing", "--flags", "none"]
        assert cli.main(argv) == 0
        assert (out / "dephasing_none.json").is_file()

    @pytest.mark.parametrize(
        "t_max, flags, failure",
        # sigma_D t_max = 25.6 rad on the packaged cloud; eps gamma_e t_max = 8e-9: both grow with the window
        [("40 us", "motion", "Doppler phase"), ("1 s", "scatter", "too stiff")],
        ids=["doppler-phase", "stiff-scatter"],
    )
    def test_refusal_of_a_long_window_names_t_max(self, tmp_path, capsys, default_raw, t_max, flags, failure):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["simulation"]["dephasing_t_max"] = t_max
        out = tmp_path / "o"
        argv = ["--config", write_config(tmp_path, raw), "--out", str(out), "dephasing", "--flags", flags]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "simulation.dephasing_t_max" in err and failure in err
        assert not out.exists()

    # the config keys each limit of dephasing.simulate_single_excitation depends on
    LIMIT_KEYS = {
        "detunings": ("geometry.detuning_1", "geometry.detuning_2"),
        "thermal": ("ensemble.temperature", "ensemble.atomic_mass"),
        "tau_free": K2_ZERO_KEYS,
        "jacobi": ("geometry.beams.C.waist", "geometry.beams.E.waist", "ensemble.cloud_sigma"),
        "splitting": ("geometry.beams.C.rabi", "geometry.beams.E.rabi", "geometry.detuning_1", "geometry.detuning_2"),
        "fit_phase": (
            "simulation.dephasing_t_max", "geometry.beams.C.rabi", "geometry.beams.E.rabi", "geometry.detuning_1",
            "geometry.detuning_2",
        ),
        "doppler": (
            "simulation.dephasing_t_max", "ensemble.temperature", "ensemble.atomic_mass",
            "geometry.beams.A.wavelength", "geometry.beams.A.direction", "geometry.beams.B.wavelength",
            "geometry.beams.B.direction",
        ),
        "stiffness": ("simulation.dephasing_t_max", "raman.intermediate_linewidth"),
        "values": ("simulation.dephasing_points", "simulation.dephasing_samples", "ensemble.cloud_sigma"),
    }

    @pytest.mark.parametrize(
        "limit, changes, flags",
        [
            *[(limit, MOVED_RULES[limit], "motion,inhomo,scatter") for limit in MOVED_RULES],
            # tau_free is written by every run, so it is refused with no mechanism on
            ("tau_free", MOVED_RULES["tau_free"], "none"),
            ("splitting", {"geometry.detuning_2": "-1e+12 MHz"}, "motion,inhomo,scatter"),
            ("fit_phase", {"geometry.detuning_2": "-1e+4 MHz"}, "motion,inhomo,scatter"),
            # both mechanisms on: the Doppler refusal names no scattering key
            ("doppler", {"ensemble.temperature": "1e20 K"}, "motion,scatter"),
            # and the stiffness refusal no motion key
            ("stiffness", {"raman.intermediate_linewidth": "1e5 MHz"}, "motion,scatter"),
            # 20 x 16 x 20 nodes on an anisotropic cloud, at one point more than 640 x 2**16 values hold;
            # the Doppler axis takes the nodes of its phase, so the refusal also names the Doppler keys
            (
                "values",
                {
                    "ensemble.cloud_sigma": ["3.5 um", "5.0 um", "6.5 um"],
                    "simulation.dephasing_samples": 10**6,
                    "simulation.dephasing_points": dephasing.MAX_DEPHASING_VALUES // 6400 + 1,
                },
                "motion,inhomo",
            ),
            # 20 x 33 nodes at 520 uK on the packaged cloud: 640 nodes hold 2**16 points, but the phase needs 33
            (
                "values",
                {
                    "ensemble.temperature": "520 uK",
                    "simulation.dephasing_samples": 10**6,
                    "simulation.dephasing_points": dephasing.MAX_DEPHASING_POINTS,
                },
                "motion,inhomo",
            ),
        ],
        ids=[
            *MOVED_RULES, "tau_free-none", "splitting", "fit_phase", "doppler", "stiffness", "values",
            "values-doppler-nodes",
        ],
    )
    def test_each_limit_is_refused_before_propagation_naming_its_own_keys(
        self, tmp_path, capsys, monkeypatch, default_raw, limit, changes, flags
    ):
        def propagate(*args):
            raise AssertionError("a refused run propagated")

        monkeypatch.setattr(dephasing, "_propagate", propagate)
        out = tmp_path / "o"
        argv = ["--config", write_config(tmp_path, with_values(default_raw, changes)), "--out", str(out)]
        argv += ["dephasing", "--flags", flags]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        own = self.LIMIT_KEYS[limit] + (self.LIMIT_KEYS["doppler"] if limit == "values" and "motion" in flags else ())
        assert all(key in err for key in own), err
        others = {key for keys in self.LIMIT_KEYS.values() for key in keys} - set(own)
        assert not [key for key in others if key in err], err
        assert not out.exists()
        assert set(cli.REFUSAL_KEYS) == set(self.LIMIT_KEYS)

    @pytest.mark.parametrize("limit", MOVED_RULES)
    def test_a_limit_of_dephasing_alone_refuses_no_other_command(self, tmp_path, capsys, default_raw, limit):
        # the keys of each rule are read by dephasing alone: every other command runs as on the packaged
        # config and writes the same artifacts; so does dephasing without inhomo on a too-narrow beam C,
        # since the Gauss-Jacobi rule it protects is the inhomo axis
        path = write_config(tmp_path, with_values(default_raw, MOVED_RULES[limit]))
        commands = [["rabi", "--pair"], ["entangle", "--fidelity"], ["g2", "--field", "single"]]
        commands.append(["repeater", "--source", "semi"])
        if limit == "jacobi":
            commands.append(["dephasing", "--flags", "motion,scatter"])
        for i, args in enumerate(commands):
            packaged, changed = tmp_path / f"packaged{i}", tmp_path / f"changed{i}"
            assert cli.main(["--out", str(packaged), *args]) == 0
            assert cli.main(["--config", path, "--out", str(changed), *args]) == 0
            outputs = json.loads((packaged / "manifest.json").read_text())["outputs"]
            assert json.loads((changed / "manifest.json").read_text())["outputs"] == outputs
            assert all((changed / name).read_bytes() == (packaged / name).read_bytes() for name in outputs)
        out = tmp_path / "o"
        assert cli.main(["--config", path, "--out", str(out), "dephasing", "--flags", "motion,inhomo,scatter"]) == 2
        assert f"config error: {cli.REFUSAL_KEYS[limit]}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            ("none", "simulation.dephasing_t_max, "),
            (
                "motion,scatter",
                "simulation.dephasing_t_max, raman.intermediate_linewidth, ensemble.temperature, ensemble.atomic_mass, ",
            ),
        ],
    )
    def test_batch_out_of_bounds_exits_3(self, tmp_path, capsys, monkeypatch, flags, named):
        # a bound below 0 puts every time of the batch out of bounds: the one failure left to exit 3
        # after the fit's, naming the window, the detunings and the keys of each mechanism that is on
        monkeypatch.setattr(dephasing, "BOUNDS_TOL", -1.0)
        out = tmp_path / "o"
        assert run_cli(["dephasing", "--flags", flags], out) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: {named}{RAMAN_KEYS}: a population outside" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, flags, named",
        [
            # a Raman Rabi frequency of 1e12 MHz passes every limit, and its batch leaves [0, 1]
            (
                "geometry.beams.C.rabi", "1e+12 MHz", "none",
                f"simulation.dephasing_t_max, {RAMAN_KEYS}: a population outside",
            ),
            # a detuning_2 this close to 0 passes every limit too, and the envelope fit of the run with
            # all three mechanisms, one Raman cosine under an envelope over the window, does not converge
            *[
                (
                    "geometry.detuning_2", value, "motion,inhomo,scatter",
                    f"simulation.dephasing_t_max, {RAMAN_KEYS}, simulation.dephasing_points: envelope fit",
                )
                for value in ("-1e-300 MHz", "-1e-12 MHz")
            ],
        ],
        ids=["fast-raman-beam", "detuning-2-1e-300", "detuning-2-1e-12"],
    )
    def test_config_value_exits_3_naming_key(self, tmp_path, capsys, default_raw, key, value, flags, named):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        *parents, leaf = key.split(".")
        node = raw
        for part in parents:
            node = node[part]
        node[leaf] = value
        out = tmp_path / "o"
        assert cli.main(["--config", write_config(tmp_path, raw), "--out", str(out), "dephasing", "--flags", flags]) == 3
        assert f"numerical failure: {named}" in capsys.readouterr().err
        assert not out.exists()

    def test_values_refusal_without_motion_names_no_doppler_key(self, tmp_path, capsys, monkeypatch, default_raw):
        # no run without motion reaches 640 x 2**16 values (its rule has at most 20 x 16 nodes), so the
        # cap is lowered to refuse one: the Doppler axis has one node, and the refusal names none of its keys
        monkeypatch.setattr(dephasing, "MAX_DEPHASING_VALUES", 20 * 16 * 40 - 1)
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["ensemble"]["cloud_sigma"] = ["3.5 um", "5.0 um", "6.5 um"]
        raw["simulation"]["dephasing_points"] = 40
        out = tmp_path / "o"
        argv = ["--config", write_config(tmp_path, raw), "--out", str(out), "dephasing", "--flags", "inhomo"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in self.LIMIT_KEYS["values"]), err
        assert not [key for key in self.LIMIT_KEYS["doppler"] if key in err], err
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
            # numpy's multinomial takes the count as a C long
            ("simulation.coincidence_trials", 2**63, ["entangle", "--fidelity"]),
            ("simulation.g2_trials", 2**63, ["g2", "--field", "single"]),
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
            # a Raman splitting of 0.0048 rad/s, below the 1e3 rad/s rounding of the eigenvalues it
            # is the difference of: it cleared the window gate of sqrt(eps) rad that MIN_FIT_PHASE was
            # then on 1.9e-8 rad and exited 3; the 2 pi gate of today would refuse it as well
            ("geometry.detuning_2", "-1e+12 MHz", ["dephasing", "--flags", "none"]),
            # windows of less than one Raman period, MIN_FIT_PHASE = 2 pi rad: 5.95 rad at -3.16e3 MHz
            # down to 0.0019 rad at -1e7 MHz. Under a gate of sqrt(eps) rad each exited 0: -3.16e3 and
            # -5.62e3 MHz wrote the w bound (no decay), the others a plausible decay time, such as
            # 3.36 us at -1e4 MHz (1.9 rad), where the fit cannot tell the envelope from the cosine
            *[
                ("geometry.detuning_2", detuning, ["dephasing", "--flags", "none"])
                for detuning in ("-3.16e+3 MHz", "-5.62e+3 MHz", "-1e+4 MHz", "-3.16e+4 MHz", "-1e+5 MHz", "-1e+7 MHz")
            ],
            ("ensemble.effective_atom_number", 0, ["rabi", "--collective"]),
            # the ensemble record holds the atom number as a float
            ("ensemble.effective_atom_number", 2**1024, ["rabi", "--pair"]),
            ("ensemble.effective_atom_number", 10**400, ["rabi", "--single"]),
            # the (points, nodes) arrays of the dephasing batch: too big for numpy, or an empty grid
            ("simulation.dephasing_points", 2**62, ["dephasing", "--flags", "none"]),
            ("simulation.dephasing_points", 2**63, ["dephasing", "--flags", "none"]),
            ("simulation.dephasing_points", 10**400, ["dephasing", "--flags", "none"]),
            # an anisotropic cloud's full rule has N_X x N_THETA x 20 = 6,400 nodes at the packaged
            # Doppler phase: one point more than MAX_DEPHASING_VALUES of them hold, 640 x 2**16
            (
                ("ensemble.cloud_sigma", "simulation.dephasing_samples", "simulation.dephasing_points"),
                (
                    ["3.5 um", "5.0 um", "6.5 um"],
                    10**6,
                    dephasing.MAX_DEPHASING_VALUES
                    // (dephasing.N_X * dephasing.N_THETA * dephasing.doppler_nodes(packaged_doppler_phase()))
                    + 1,
                ),
                ["dephasing", "--flags", "motion,inhomo"],
            ),
            # JSON readers that hold numbers as doubles round a seed past 2**53
            ("simulation.seed", 2**53, ["g2", "--field", "single"]),
            ("simulation.seed", 10**400, ["rabi", "--pair"]),
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
            # beam values no command read: the read-out beam, B's waist and D's waist and Rabi frequency
            (
                "geometry.beams.read",
                {"wavelength": "474 nm", "direction": [0.0, 0.0, -1.0], "waist": "7 um", "rabi": "23 MHz"},
                ["rabi", "--pair"],
            ),
            ("geometry.beams.B.waist", "7 um", ["rabi", "--collective"]),
            ("geometry.beams.D.waist", "520 um", ["dephasing"]),
            ("geometry.beams.D.rabi", "23 MHz", ["dephasing"]),
            # the square of the scattering rate overflows
            ("raman.intermediate_linewidth", "1e300 MHz", ["dephasing", "--flags", "scatter"]),
            # checked at load, so a command that averages no ensemble refuses it too
            ("simulation.dephasing_samples", 99, ["rabi", "--pair"]),
            # the click probabilities underflow, so no background reproduces the target g2
            ("detector.calibration_chain_efficiency", 1e-300, ["entangle", "--fidelity"]),
            ("detector.calibration_chain_efficiency", 1e-300, ["g2", "--field", "single", "--calibrated"]),
            # three periods overflow in ns
            ("raman.single_excitation_period", "1e300 s", ["rabi", "--single"]),
            ("raman.single_excitation_period", "1e300 s", ["rabi", "--pair"]),
            # the excitation Rabi frequency Omega_A Omega_B / (2 |Delta_1|) overflows, or underflows to 0
            ("geometry.detuning_1", "1e-300 Hz", ["rabi", "--collective"]),
            (
                ("geometry.beams.A.rabi", "geometry.beams.B.rabi", "geometry.detuning_1"),
                ("1e-150 Hz", "1e-150 Hz", "1e290 Hz"),
                ["rabi", "--collective"],
            ),
            # no finite tau_free_us, which every dephasing record writes
            *[
                (K2_ZERO_KEYS, K2_ZERO_VALUES, ["dephasing", "--flags", flags])
                for flags in ("none", "motion")
            ],
            # numpy's multinomial takes the count as a C long
            ("repeater.trials", 2**63, ["repeater", "--source", "dlcz"]),
            # a config written before these keys left the schema: one run names every one of them
            (
                ("geometry.beams.read", "geometry.beams.B.waist", "geometry.beams.D.waist", "geometry.beams.D.rabi"),
                ({"wavelength": "474 nm", "direction": [0.0, 0.0, -1.0], "waist": "7 um", "rabi": "23 MHz"},
                 "7 um", "520 um", "23 MHz"),
                ["rabi", "--pair"],
            ),
            # a direction that is no finite unit vector, refused by the schema walk
            ("geometry.beams.B.direction", [1.0, 1.0, 0.0], ["rabi", "--pair"]),
            ("geometry.beams.C.direction", [float("nan"), 0.0, 1.0], ["entangle", "--fidelity"]),
            ("geometry.beams.D.direction", [float("inf"), 0.0, 1.0], ["dephasing", "--flags", "none"]),
            # a key written twice in one mapping, of which YAML would keep the last value
            (
                "readout",
                Twice([{"second_read_delay": "300 ns", "phase_shift": f"{np.pi!r} rad"}] * 2),
                ["entangle", "--fidelity"],
            ),
            ("ensemble.temperature", Twice(["150 uK", "15000 uK"]), ["dephasing", "--flags", "motion"]),
        ],
        ids=[
            "nan-wavelength", "nan-direction", "string-direction", "short-direction",
            "inf-temperature", "nan-period", "zero-period", "nan-efficiency", "zero-mass",
            "negative-read-delay", "zero-dephasing-window", "negative-seed",
            "one-dephasing-point", "no-coincidence-trials", "no-g2-trials",
            "coincidence-trials-past-c-long", "g2-trials-past-c-long", "no-repeater-trials",
            "transmission-above-1", "negative-retrieval", "zero-transmission", "zero-retrieval",
            "g2-single-trial", "dlcz-p-above-range", "dlcz-p-zero",
            "negative-cloud-sigma", "zero-cloud-sigma", "zero-detuning", "same-sign-detunings",
            "splitting-below-rounding", "window-5.95-rad", "window-3.37-rad", "window-1.9-rad",
            "window-0.6-rad", "window-0.19-rad", "window-0.0019-rad",
            "no-atoms", "atoms-past-float", "atoms-far-past-float", "dephasing-points-2-62",
            "dephasing-points-2-63", "dephasing-points-past-float", "dephasing-values-past-bound",
            "seed-past-double", "seed-past-float", "negative-spinwave-lifetime", "zero-temperature", "negative-linewidth",
            "overflowing-detuning", "negative-rabi", "overflowing-waist",
            "unnormalized-direction", "zero-direction", "subnormal-period",
            "underflowing-thermal-velocity", "overflowing-thermal-velocity", "removed-free-rydberg-lifetime",
            "removed-theta-1", "removed-output-directory", "removed-read-beam", "removed-B-waist", "removed-D-waist",
            "removed-D-rabi", "overflowing-linewidth", "too-few-dephasing-samples",
            "underflowing-calibration-fidelity", "underflowing-calibration-g2",
            "period-beyond-ns-single", "period-beyond-ns-pair", "overflowing-excitation-rabi",
            "underflowing-excitation-rabi", "zero-spin-wave-vector-none", "zero-spin-wave-vector-motion",
            "repeater-trials-past-c-long", "removed-keys-together",
            "unnormalized-B-direction", "nan-C-direction", "inf-D-direction", "repeated-section", "repeated-leaf",
        ],
    )
    def test_bad_config_value_exits_2_naming_key(self, tmp_path, capsys, default_raw, key, value, args):
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        # a row that sets several keys gives a tuple of keys and one of values, and
        # an indexed key ("ensemble.cloud_sigma[0]") is set by its whole list
        keys, values = (key, value) if isinstance(key, tuple) else ((key,), (value,))
        for k, v in zip(keys, values):
            *parents, leaf = k.split("[")[0].split(".")
            node = raw
            for part in parents:
                node = node[part]
            node[leaf] = "TWICE" if isinstance(v, Twice) else v
        config = write_config(tmp_path, raw)
        if isinstance(value, Twice):  # the key's line once per value: the refusal names the key and its second line
            text = Path(config).read_text()
            line = re.search(r"^( *)(\S+): TWICE\n", text, re.M)
            Path(config).write_text(text.replace(line[0], "".join(f"{line[1]}{line[2]}: {json.dumps(v)}\n" for v in value)))
            second = text.count("\n", 0, line.start()) + 2
            keys = (f"repeated key {line[2]!r}\n  in \"{config}\", line {second},",)
        assert cli.main(["--config", config, "--out", str(tmp_path / "o"), *args]) == 2
        err = capsys.readouterr().err
        assert all(k in err for k in keys), err
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
            assert run_cli(["dephasing", "--flags", spec], out) == 0
        names = sorted(p.name for p in b.iterdir())
        assert names == [f"dephasing_{tag}.csv", f"dephasing_{tag}.json", "manifest.json"]
        assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)

    @pytest.mark.parametrize(
        "on",
        list(itertools.product((False, True), repeat=3)),
        ids=lambda on: "-".join(name for name, x in zip(("motion", "inhomo", "scatter"), on) if x) or "none",
    )
    def test_every_flags_subset_writes_one_record(self, tmp_path, on):
        # the names go in reversed, yet the tag lists them as motion, inhomo, scatter; the JSON
        # flags are the parsed set, and no key of the record is repeated in its metadata
        names = ("motion", "inhomo", "scatter")
        chosen = [name for name, x in zip(names, on) if x]
        out = tmp_path / "o"
        assert run_cli(["dephasing", "--flags", ",".join(reversed(chosen)) or "none"], out) == 0
        tag = "-".join(chosen) or "none"
        files = sorted(p.name for p in out.iterdir())
        assert files == [f"dephasing_{tag}.csv", f"dephasing_{tag}.json", "manifest.json"]
        record = json.loads((out / f"dephasing_{tag}.json").read_text())
        assert record["flags"] == dict(zip(names, on))
        assert not set(record) & set(record["metadata"])

    def test_unknown_dephasing_flag_is_config_error(self, tmp_path):
        assert run_cli(["dephasing", "--flags", "wobble"], tmp_path / "o") == 2

    @pytest.mark.parametrize("below_file", [False, True], ids=["--out-file", "--out-below-file"])
    def test_unusable_output_directory_exits_2(self, tmp_path, capsys, below_file):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file\n")
        target = blocker / "x" if below_file else blocker
        assert cli.main(["--out", str(target), "g2", "--field", "single"]) == 2
        assert "--out: cannot create directory" in capsys.readouterr().err

    @pytest.mark.parametrize("blocked", ["rabi_single.csv", "manifest.json"])
    def test_output_write_failure_exits_2_naming_the_file(self, tmp_path, capsys, blocked):
        # a directory that has an output file's name
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        assert run_cli(["rabi", "--single"], out) == 2
        assert f"config error: --out: cannot write {str(out / blocked)!r}: Is a directory" in capsys.readouterr().err
        assert not (out / "manifest.json.partial").exists()
        assert (out / blocked).is_dir()

    @pytest.mark.parametrize("blocked", ["entangle_phi_sweep.csv", "entangle_phi_sweep_hv.csv"])
    def test_write_failure_keeps_no_manifest_that_disagrees(self, tmp_path, blocked):
        out = tmp_path / "o"
        assert run_cli(["rabi", "--single"], out) == 0
        before = (out / "manifest.json").read_bytes()
        (out / blocked).mkdir()
        assert run_cli(["entangle", "--phi-sweep"], out) == 2
        if blocked == "entangle_phi_sweep.csv":  # the first file: nothing was written, the earlier run stands
            assert (out / "manifest.json").read_bytes() == before
        else:  # entangle_phi_sweep.csv was written, which the earlier manifest does not list
            assert (out / "entangle_phi_sweep.csv").is_file()
            assert not (out / "manifest.json").exists()
        assert not (out / "manifest.json.partial").exists()

    def test_csv_rows_match_per_value_oracle(self):
        header = ("a", "b", "c")
        t = np.linspace(0.0, 1e-6, 601)
        rows = [
            (-0.0, 5e-324, 1e300),
            (float("nan"), float("inf"), -float("inf")),
            (np.float64(1.0) / 3.0, np.int64(-(2**62) - 1), 7),
            (2**70, True, np.float32(0.1)),
            np.array([2.5e-7, -1.0, 6.02214076e23]),  # a row of a 2-D array, as entangle writes
            *zip(t, np.sin(t * 1e6), np.cos(t * 1e6)),  # numpy scalars, as rabi and dephasing write
        ]
        writer = cli.RunWriter(Path("unused"), load_config(), "rabi")
        writer.csv("values.csv", header, iter(rows))
        writer.csv("header_only.csv", header, [])
        assert writer.artifacts["values.csv"] == oracles.csv_bytes_per_value(header, rows)
        assert writer.artifacts["header_only.csv"] == oracles.csv_bytes_per_value(header, []) == b"a,b,c\n"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["dephasing", "--flags", "motion"], out) == 0
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

    def test_largest_repeater_trial_count_runs(self, tmp_path, default_raw):
        # one multinomial per link point, so the largest count numpy takes costs no more than one trial
        raw = yaml.safe_load(yaml.safe_dump(default_raw))
        raw["repeater"]["trials"] = 2**63 - 1
        out = tmp_path / "o"
        assert cli.main(["--config", write_config(tmp_path, raw), "--out", str(out), "repeater", "--source", "dlcz"]) == 0
        report = json.loads((out / "repeater_dlcz.json").read_text())
        mc, exact = report["monte_carlo"], report["analytic"]["herald_rate"]
        assert mc["trials"] == 2**63 - 1
        assert abs(mc["herald_rate"] - exact) <= 5.0 * np.sqrt(exact * (1.0 - exact) / mc["trials"])

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

    def test_cli_import_skips_scipy(self):
        # importing scipy costs about half a second and 43 MiB of every process that loads it
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import rydlink.cli; rydlink.cli.load_config(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_no_package_module_imports_scipy(self):
        package = Path(cli.__file__).resolve().parent
        importing = [p.name for p in package.rglob("*.py") if re.search(r"^\s*(from|import) scipy\b", p.read_text(), re.M)]
        assert importing == []

    @pytest.mark.parametrize(
        "args",
        [
            *runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "run_default_dataset.py"))["COMMANDS"],
            ["dephasing", "--flags", "motion,inhomo"],
            ["dephasing", "--flags", "motion,scatter"],
            ["dephasing", "--flags", "inhomo,scatter"],
            ["g2", "--field", "coherent"],
        ],
        ids=lambda a: "-".join(a).replace("--", ""),
    )
    def test_every_command_skips_scipy(self, tmp_path, args):
        # every subcommand, and every dephasing mechanism set, in a fresh interpreter: the
        # envelope fit, the g2 fields and the background calibration are numpy alone
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import rydlink.cli; "
            f"assert rydlink.cli.main(['--out', {str(tmp_path / 'o')!r}, *{args!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
