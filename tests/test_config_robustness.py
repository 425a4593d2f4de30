"""Every key of the config schema at extreme values, through seven commands, and at a small
step, through the default dataset.

The tables are derived from ``config._SCHEMA``, so a new key is covered without a new
row. Each leaf whose kind is a dimension or a plain number (every element of a list)
is set to +-1e-300, +-1e-12, +-1e12 and +-1e300 of the unit its packaged value is
written in, and each integer leaf to INTEGERS; each of COMMANDS runs on the result in
process. The pytest configuration turns a numpy RuntimeWarning into an error, so a
warning fails a case as a traceback would.

A key that no command reads is a knob that silently does nothing: each leaf, and each
element of a list of quantities on its own, is moved by a small step, and the commands
of the default dataset must then change an artifact or an exit code, unless GATE_ONLY or
UNREAD lists the leaf with its reason.

Each leaf, and the first element of each list, given a value of the wrong kind, and each
section given a scalar, exits 2 at load naming its key; so does a config that is empty
or a list. Each wrong kind beside a fault in another section, and a config with one fault
of each sort, exit 2 with one refusal that names every fault.

An integer int() cannot read (more digits than it converts, or none after a base prefix) exits
2 as bad YAML naming its line, and one past float range exits 2 naming its key; no such refusal
has a line of more than 200 characters.
"""

import copy
import importlib.resources
import json
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from rydlink import cli, config

MAGNITUDES = (1e-300, 1e-12, 1e12, 1e300)
# past a C long and past a float, a YAML boolean, and one past the upper bound of each integer key
# that has one; every dephasing_points here is out of range, so no probe allocates a large grid
INTEGERS = (-1, 0, 2**63, 10**400, True, 2**53, config.MAX_DEPHASING_POINTS + 1, int(sys.float_info.max) + 1)
COMMANDS = (
    ("rabi", "--pair"),
    ("rabi", "--collective"),
    ("dephasing", "--flags", "none"),
    ("dephasing", "--flags", "motion,inhomo,scatter"),
    ("entangle", "--fidelity"),
    ("g2", "--field", "single", "--calibrated"),
    ("repeater", "--source", "dlcz"),
)
# the JSON keys FORMATS.md lets be null
NULLABLE = {
    "tau_osc_se_us", "p", "monte_carlo.conditional_fidelity", "analytic.conditional_fidelity", "analytic.trials",
    "analytic.seed",
}
UNIT_INTERVAL = {  # populations and visibilities
    "p_single_atom", "p_collective", "c_par", "c_perp", "population_r", "projection", "V_hv", "V_pm", "V_circ",
}

PACKAGED = yaml.safe_load((importlib.resources.files("rydlink.data") / config.DEFAULT_CONFIG_RESOURCE).read_text())


def _packaged(leaf):
    """The packaged value at the key path ``leaf``."""
    node = PACKAGED
    for key in leaf:
        node = node[key]
    return node


def _config(tmp_path, leaf, value, *more):
    """The path of the packaged config with ``value`` at the key path ``leaf``, and so on for each
    (key path, value) pair of ``more``."""
    raw = copy.deepcopy(PACKAGED)
    for leaf, value in ((leaf, value), *more):
        node = raw
        for key in leaf[:-1]:
            node = node[key]
        node[leaf[-1]] = value
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def _leaves(schema, path=()):
    """(key path, kind) of every schema leaf; a list leaf gives the kind of its elements."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _leaves(spec, (*path, key))
        else:
            yield (*path, key), spec[0][0][0] if isinstance(spec[0], tuple) else spec[0]


LEAVES = [leaf for leaf, kind in _leaves(config._SCHEMA) if isinstance(kind, str)]
INT_LEAVES = [leaf for leaf, kind in _leaves(config._SCHEMA) if kind is int]


def _scaled(packaged, value):
    """``value`` in the unit of the packaged value, element by element for a list."""
    if isinstance(packaged, list):
        return [_scaled(element, value) for element in packaged]
    return f"{value:g} {packaged.split()[1]}" if isinstance(packaged, str) else value


def _check_outputs(outdir, label):
    manifest = json.loads((outdir / "manifest.json").read_text())
    for name in manifest["outputs"]:
        text = (outdir / name).read_text()
        if name.endswith(".csv"):
            header, *rows = (line.split(",") for line in text.splitlines())
            columns = np.array(rows, dtype=float).T
            items = list(zip(header, columns))
        else:
            items = [
                (key, np.array(value, dtype=float))
                for key, value in _json_items(json.loads(text))
                if not isinstance(value, str)
            ]
        for key, values in items:
            where = f"{label}: {name} {key}"
            if values.ndim == 0 and np.isnan(values):  # a null, or a nan the JSON writer would have refused
                assert key in NULLABLE, f"{where} is null"
                continue
            assert np.isfinite(values).all(), f"{where} = {values}"
            if key.rpartition(".")[2] in UNIT_INTERVAL:
                assert ((values >= 0.0) & (values <= 1.0)).all(), f"{where} = {values}"


def _json_items(node, key=""):
    """(dotted key, value) of every leaf; a list's elements carry the list's key."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _json_items(v, f"{key}.{k}" if key else k)
    elif isinstance(node, list):
        for v in node:
            yield from _json_items(v, key)
    else:
        yield key, node


def _exit_cleanly(tmp_path, capsys, leaf, values):
    """Each of ``values`` at the key ``leaf``, through each of COMMANDS: every run exits 0, 2 or 3,
    an exit 2 or 3 names the key, and an exit 0 writes finite numbers only."""
    dotted = ".".join(leaf)
    for value in values:
        path = _config(tmp_path, leaf, value)
        for i, command in enumerate(COMMANDS):
            label = f"{dotted} = {value!r}, {' '.join(command)}"
            outdir = tmp_path / str(i)
            code = cli.main(["--config", str(path), "--out", str(outdir), *command])
            err = capsys.readouterr().err
            assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NONCONVERGENCE), label
            if code != cli.EXIT_OK:
                assert dotted in err, f"{label}: {err}"
            else:
                _check_outputs(outdir, label)


@pytest.mark.parametrize("leaf", LEAVES, ids=[".".join(leaf) for leaf in LEAVES])
def test_extreme_values_exit_cleanly(tmp_path, capsys, leaf):
    values = [_scaled(_packaged(leaf), sign * magnitude) for magnitude in MAGNITUDES for sign in (1, -1)]
    _exit_cleanly(tmp_path, capsys, leaf, values)


@pytest.mark.parametrize("leaf", INT_LEAVES, ids=[".".join(leaf) for leaf in INT_LEAVES])
def test_extreme_integers_exit_cleanly(tmp_path, capsys, leaf):
    _exit_cleanly(tmp_path, capsys, leaf, INTEGERS)


@pytest.mark.parametrize("value", ["-1e+10 MHz", "-1e+11 MHz"])
def test_far_detuning_writes_populations_within_bounds(tmp_path, capsys, value):
    # the one-step propagator is unitary only to rounding: these detunings put population_r
    # within 1e-9 above 1 before it is written; their Raman splittings, 0.034 and 3.4e-4 of
    # the rounding of the eigenvalues, now stop both at exit 2 before any propagation, and
    # test_dephasing's test_far_detuning_stays_in_the_unit_interval checks the clip itself
    _exit_cleanly(tmp_path, capsys, ("geometry", "detuning_2"), [value])


# each detuning alone at each decade from 1e3 to 1e13 MHz, keeping the opposite signs the Raman
# coupling needs, through the five flag sets of the default dataset
DETUNINGS = [
    (key, f"{sign * 10.0**k:g} MHz") for key, sign in (("detuning_1", 1), ("detuning_2", -1)) for k in range(3, 14)
]
FLAG_SETS = ("none", "motion", "inhomo", "scatter", "motion,inhomo,scatter")


@pytest.mark.parametrize("key, value", DETUNINGS, ids=[f"{key}={value}" for key, value in DETUNINGS])
def test_detuning_table_exits_0_or_2_naming_the_detuning(tmp_path, capsys, key, value):
    # never 3: a far detuning shrinks the Raman splitting, which the dephasing run refuses before any
    # propagation once its window spans less than one Raman period or it sinks into eigenvalue rounding
    path = _config(tmp_path, ("geometry", key), value)
    for flags in FLAG_SETS:
        label = f"geometry.{key} = {value}, dephasing --flags {flags}"
        outdir = tmp_path / flags
        code = cli.main(["--config", str(path), "--out", str(outdir), "dephasing", "--flags", flags])
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), f"{label}: {err}"
        if code == cli.EXIT_CONFIG:
            assert f"geometry.{key}" in err and not outdir.exists(), f"{label}: {err}"
        else:
            _check_outputs(outdir, label)


# a value of the wrong kind for a leaf (or a list element) of kind ``kind``: a bare number for a quantity,
# a string for a plain number or an integer; then, for every kind, a list, a mapping, a bool, null, a
# quantity whose number does not parse and an integer past float range (out of range for an integer key).
# No value is a list of three, so each is wrong for a list leaf too.
def _wrong_kinds(kind):
    own = "1" if kind in ("dimensionless", int) else 1.0
    return [own, [1.0, 2.0], {"a": 1}, True, None, "abc us", 10**400]


def _refused(tmp_path, capsys, path, *named):
    """The config at ``path`` exits 2 at load with one refusal, one of whose faults starts with each of
    ``named``, with no traceback and no output directory."""
    outdir = tmp_path / "o"
    code = cli.main(["--config", str(path), "--out", str(outdir), "rabi", "--single"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG and err.startswith("config error: ") and err.count("\n") == 1, err
    faults = "; " + err.removeprefix("config error: ")
    assert all(f"; {n}" in faults for n in named) and "Traceback" not in err, err
    assert not outdir.exists()


# every leaf, and element 0 of every list leaf, with each value of the wrong kind
KIND_PROBES = [
    (".".join(leaf) + ("" if index is None else f"[{index}]"), leaf, kind, index)
    for leaf, kind in _leaves(config._SCHEMA)
    for index in ((None, 0) if isinstance(_packaged(leaf), list) else (None,))
]


@pytest.mark.parametrize("name, leaf, kind, index", KIND_PROBES, ids=[probe[0] for probe in KIND_PROBES])
def test_wrong_kind_exits_2_naming_the_key(tmp_path, capsys, name, leaf, kind, index):
    for wrong in _wrong_kinds(kind):
        value = wrong if index is None else [wrong, *_packaged(leaf)[1:]]
        _refused(tmp_path, capsys, _config(tmp_path, leaf, value), f"config.{name}: ")


# (key path, value, refusal) of a fault to set beside a kind probe, in a section other than the probe's
SEED_FAULT = (("simulation", "seed"), -1, "config.simulation.seed: must be >= 0 and < 2**53")
TRIALS_FAULT = (("repeater", "trials"), 0, "config.repeater.trials: must lie in [1, 2**63)")


@pytest.mark.parametrize("name, leaf, kind, index", KIND_PROBES, ids=[probe[0] for probe in KIND_PROBES])
def test_wrong_kind_beside_a_fault_elsewhere_names_both(tmp_path, capsys, name, leaf, kind, index):
    other, other_value, other_fault = TRIALS_FAULT if leaf[0] == "simulation" else SEED_FAULT
    for wrong in _wrong_kinds(kind):
        value = wrong if index is None else [wrong, *_packaged(leaf)[1:]]
        path = _config(tmp_path, leaf, value, (other, other_value))
        _refused(tmp_path, capsys, path, f"config.{name}: ", other_fault)


def test_one_fault_of_each_sort_is_named_in_one_refusal(tmp_path, capsys):
    raw = copy.deepcopy(PACKAGED)
    raw["ensemble"]["free_rydberg_lifetime"] = "1.6 us"  # unknown
    del raw["readout"]["phase_shift"]  # missing
    raw["raman"] = 5  # a section that is no mapping
    raw["simulation"]["seed"] = "1"  # a leaf of the wrong kind
    raw["repeater"]["trials"] = 0  # out of range
    raw["geometry"]["beams"]["B"]["direction"] = [1.0, 1.0, 0.0]  # no unit vector
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    outdir = tmp_path / "o"
    assert cli.main(["--config", str(path), "--out", str(outdir), "rabi", "--single"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: config.ensemble.free_rydberg_lifetime: unknown key; config.readout.phase_shift: missing key; "
        "config.geometry.beams.B.direction: must have norm 1 to 1e-6; config.raman: expected a mapping; "
        "config.simulation.seed: expected an integer; config.repeater.trials: must lie in [1, 2**63)\n"
    )
    assert not outdir.exists()


def _sections(schema, path=()):
    """The key path of every mapping in the schema below the top level."""
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield (*path, key)
            yield from _sections(spec, (*path, key))


SECTIONS = list(_sections(config._SCHEMA))


@pytest.mark.parametrize("section", SECTIONS, ids=[".".join(s) for s in SECTIONS])
def test_scalar_section_exits_2_naming_it(tmp_path, capsys, section):
    _refused(tmp_path, capsys, _config(tmp_path, section, 5), "config." + ".".join(section) + ": expected a mapping")


@pytest.mark.parametrize("content", ["", "[]\n", yaml.safe_dump([PACKAGED])], ids=["empty", "empty-list", "list"])
def test_top_level_that_is_no_mapping_exits_2(tmp_path, capsys, content):
    path = tmp_path / "cfg.yaml"
    path.write_text(content)
    _refused(tmp_path, capsys, path, "config: expected a mapping")


LONG_KEY = "entanglement_chain_efficiency"
# (YAML text of the value at LONG_KEY, what its refusal at load must hold)
BAD_INTEGERS = [
    # past the 4300 digits int() converts: PyYAML's ValueError while it parses, refused as bad YAML at the key's line
    ("1" + "0" * 5000, ["bad YAML: an integer int() cannot read: it has no digits or more than 4300", "line {line},"]),
    # a hexadecimal prefix with no digits, which YAML's int pattern admits and int() refuses
    ("0x_", ["bad YAML: an integer int() cannot read", "line {line},"]),
    # a plain number past float range, refused by the schema walk with its echo cut short
    ("1" + "0" * 400, [f"config.detector.{LONG_KEY}: expected a finite plain number, got 1000"]),
]


@pytest.mark.parametrize("text, named", BAD_INTEGERS, ids=["5001-digits", "no-hex-digits", "401-digits"])
def test_bad_integer_exits_2_with_a_short_refusal(tmp_path, capsys, text, named):
    packaged = (importlib.resources.files("rydlink.data") / config.DEFAULT_CONFIG_RESOURCE).read_text()
    line = f"  {LONG_KEY}: {_packaged(('detector', LONG_KEY))}\n"
    assert packaged.count(line) == 1
    path = tmp_path / "cfg.yaml"
    path.write_text(packaged.replace(line, f"  {LONG_KEY}: {text}\n"))
    outdir = tmp_path / "o"
    assert cli.main(["--config", str(path), "--out", str(outdir), "rabi", "--single"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    number = packaged[: packaged.index(line)].count("\n") + 1
    assert all(n.format(line=number) in err for n in named) and "Traceback" not in err, err
    assert max(map(len, err.splitlines())) <= 200, err
    assert not outdir.exists()


DATASET = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "run_default_dataset.py"))["COMMANDS"]
# a step down, which keeps every packaged value in its range (the transmission and the retrieval sit at 1)
STEP = 0.93
TILT = 0.02


def _moves():
    """(name, key path, list index or None) of each leaf, and of each element of a list of quantities
    on its own; a direction is moved as one leaf, since the schema requires a unit vector."""
    for leaf, kind in _leaves(config._SCHEMA):
        dotted, packaged = ".".join(leaf), _packaged(leaf)
        if isinstance(packaged, list) and kind != "dimensionless":
            yield from ((f"{dotted}[{i}]", leaf, i) for i in range(len(packaged)))
        else:
            yield dotted, leaf, None


MOVES = list(_moves())


def _stepped(value):
    """An integer up by 1, a number or quantity down by STEP, a direction tilted by TILT off its smallest
    component and renormalised."""
    if isinstance(value, list):
        v = np.add(value, TILT * np.eye(3)[np.argmin(np.abs(value))])
        return (v / np.linalg.norm(v)).tolist()
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * STEP
    number, unit = value.split()
    return f"{float(number) * STEP!r} {unit}"


# the leaves a step moves nothing of. One that only gates gives a value at which the commands exit 2
# naming it; one that no command reads says why it stays.
GATE_ONLY = {
    # the mode gate takes the overlap of k_D - k_E across the waist of A
    "geometry.beams.A.waist": "1 um",
    "geometry.beams.D.direction": _packaged(("geometry", "beams", "E", "direction")),
    "geometry.beams.E.direction": _packaged(("geometry", "beams", "D", "direction")),
    "geometry.beams.E.wavelength": "2000 nm",
    # D is axial, and the mode gate sees k_D across the axis only: its wavelength meets the range check alone
    "geometry.beams.D.wavelength": "0 nm",
}
UNREAD = {
    "geometry.beams.C.wavelength": "k_C cancels from k3 = k2 - k_D + k_E; it sets k1, k4 and dk, which the "
    "brute-force oracle of acceptance criterion 3 reads",
    "geometry.beams.C.direction": "as C.wavelength",
    "ensemble.cloud_sigma[2]": "no beam profile depends on z; the atom-sampler oracle of tests/test_atom_sampler.py "
    "draws it",
}


def _dataset(tmp_path, path, baseline=None):
    """(exit code, artifact sha256s or None) of each DATASET command on the config at ``path``, in order,
    up to the first that differs from ``baseline``."""
    results = []
    for i, command in enumerate(DATASET):
        outdir = tmp_path / str(i)
        code = cli.main(["--config", str(path), "--out", str(outdir), *command])
        outputs = json.loads((outdir / "manifest.json").read_text())["outputs"] if code == cli.EXIT_OK else None
        results.append((code, outputs))
        if baseline is not None and results[-1] != baseline[i]:
            break
    return results


@pytest.fixture(scope="module")
def dataset_baseline(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("baseline")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(PACKAGED))
    return _dataset(tmp_path, path)


def test_gate_only_and_unread_name_schema_leaves():
    assert set(GATE_ONLY) | set(UNREAD) <= {name for name, _, _ in MOVES}


@pytest.mark.parametrize("name, leaf, index", MOVES, ids=[name for name, _, _ in MOVES])
def test_every_key_moves_an_artifact_or_an_exit_code(tmp_path, capsys, dataset_baseline, name, leaf, index):
    value = copy.deepcopy(_packaged(leaf))
    if index is None:
        value = _stepped(value)
    else:
        value[index] = _stepped(value[index])
    path = _config(tmp_path, leaf, value)
    config.load_config(path)  # the step stays in range, so what it moves is read, not refused
    results = _dataset(tmp_path, path, dataset_baseline)
    if name in GATE_ONLY or name in UNREAD:
        moved = " ".join(DATASET[len(results) - 1])
        assert results == dataset_baseline, f"{name} moves {moved}: drop it from the table"
    else:
        assert results != dataset_baseline, f"{name}: no command reads it; remove the key, or list it with its reason"


@pytest.mark.parametrize("name", GATE_ONLY)
def test_gate_only_keys_refuse_their_probe(tmp_path, capsys, name):
    path = _config(tmp_path, tuple(name.split(".")), GATE_ONLY[name])
    assert cli.main(["--config", str(path), "--out", str(tmp_path / "o"), *DATASET[0]]) == cli.EXIT_CONFIG
    assert name in capsys.readouterr().err
