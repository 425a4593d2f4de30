"""Golden output hashes of every command of the default dataset.

Each command runs on the packaged config (seed 7); the sha256 of every
artifact in its manifest, and the manifest's config_hash, must equal the
values pinned here, so any change to the output bytes between versions
fails loudly. A change that alters
bytes on purpose updates these hashes and says why in CHANGES.md.
"""

import json
import runpy
from pathlib import Path

import pytest

from rydlink import cli

DATASET_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_default_dataset.py"

# sha256 of the packaged config's YAML tree, as json.dumps(tree, sort_keys=True)
CONFIG_HASH = "e448729961095be5fb0d3ff3228244722a9f892dbadeafcb94ec4971af6b43c2"

GOLDEN = {
    ("rabi", "--collective"): {
        "rabi_collective.csv": "8bbbfd45bbc49ac2b4638c3761703fb04670c96a68c45124622de13c8064e62e",
    },
    ("rabi", "--single"): {
        "rabi_single.csv": "8595eb147f80689db207606d9b9b4b814b6e11c9eeea2df23a10554cd831675e",
    },
    ("rabi", "--pair"): {
        "rabi_pair.csv": "4b1c4bda7322fa40db972b8a98c578953904097b89f59ff7e09503ee5b23551b",
    },
    ("entangle", "--phi-sweep"): {
        "entangle_phi_sweep.csv": "f673fc9814044979a42de5339d80e90c7df3862d71a83c66e542b0886613c63e",
        "entangle_phi_sweep_hv.csv": "e3692112a4a138e7425b730373c9337067ce25b0ae05d432099c10c1b9cb7c37",
    },
    ("entangle", "--fidelity"): {
        "entangle_fidelity.json": "7abc45c764cb264d604dbb6f507b96322892ed6ba8ede48b01c7b3045f07bed7",
    },
    ("dephasing", "--flags", "none"): {
        "dephasing_none.csv": "e51b9dbedbb480eb639f7c94a9f7d594123c98eb21b3a582c7578c5d63214da5",
        "dephasing_none.json": "544a3e158c414a734d25d47132bd7fa844c1ed44e06c16e3ac16b381bff533e3",
    },
    ("dephasing", "--flags", "motion"): {
        "dephasing_motion.csv": "62fb800af5feaeb52cd2c7c647802b736c39f8ed7ce1d9e3fc3a900d527bbfdb",
        "dephasing_motion.json": "2f54bd453c46eb03bab5fab6ce3cf8053ac285a4e039742bbb692db10f0d0fcd",
    },
    ("dephasing", "--flags", "inhomo"): {
        "dephasing_inhomo.csv": "f75e19d6659439592535d98844e3ce239b1f6c2c7d129e2018051ee27ada372f",
        "dephasing_inhomo.json": "f54f1a34ff3df6b70b5d708e9e7a04509fe4a1c6ac31c88f966ed0e909c91704",
    },
    ("dephasing", "--flags", "scatter"): {
        "dephasing_scatter.csv": "ac0591b0ba0b5c2cc4b35b97d2d8e1687d652836ba5893cd140fa196a56966be",
        "dephasing_scatter.json": "aa752014e7498724257885d83ba5aa00cbffbd417e9f155518d79568b9ed3b32",
    },
    # the only command that runs the Lindblad batch
    ("dephasing", "--flags", "motion,inhomo,scatter"): {
        "dephasing_motion-inhomo-scatter.csv": "ffa561ecd3b0ea786e3dac6e6909d9395186ada9ca3b22fa1082d7103923a614",
        "dephasing_motion-inhomo-scatter.json": "5ca614aca826d8543050c4c1bbc49a2a1a61a7641d35460bd341806addbf4e91",
    },
    ("g2", "--field", "single"): {
        "g2_single.json": "65f76bd7f2cbcf3958a20e01ef094c90f9febfcdcf7c22b965fc05d6d11f1715",
    },
    ("g2", "--field", "single", "--calibrated"): {
        "g2_single_calibrated.json": "febf4fe50db9a960c4ca4c5ae6c2c400b5e8209bb37652351cf8bc37082b0f7b",
    },
    # run by the benchmark's link workload though not by the default dataset
    ("g2", "--field", "coherent"): {
        "g2_coherent.json": "23fb0a9fd94f9c058863e8f3e1b8251dedc749db447ed4decb354b507b815299",
    },
    ("g2", "--field", "thermal"): {
        "g2_thermal.json": "a53c0e55ebdaf288ba30b9d70381ee572daab8942d967ebf58801ead955e6271",
    },
    ("g2", "--field", "dlcz"): {
        "g2_dlcz.json": "6e049ab6cd6d2db05815a503b68bd26855dea8720365976b2624eb235e6256bf",
    },
    ("repeater", "--source", "semi"): {
        "repeater_semi.json": "e6959cc3dc25dd66d4824c03cc5628b59ca267948124eb8bcaad1e5aeb9ebcd9",
    },
    ("repeater", "--source", "dlcz"): {
        "repeater_dlcz.json": "aa18a07af6e690934ddab40ddb3731b415f962de659babd8ce43245bd2f553d7",
    },
    # ten eta points of the semi source
    ("repeater", "--source", "semi", "--sweep", "eta"): {
        "repeater_semi_sweep_eta.csv": "7a5d562e419123e09d2453b18d2d196a9c738f21968ddcf0564bb44ce18e01de",
    },
    ("repeater", "--source", "dlcz", "--sweep", "p"): {
        "repeater_dlcz_sweep_p.csv": "5bdc50d45659f9a014a0b3545ea82b5683c99b00c9f1ab524b522b3f7d10391c",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN), ids=["-".join(c).replace("--", "") for c in GOLDEN])
def test_manifest_matches_golden_hashes(tmp_path, command):
    assert cli.main(["--out", str(tmp_path), *command]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["config_hash"] == CONFIG_HASH
    assert manifest["outputs"] == GOLDEN[command]


def test_every_dataset_command_is_pinned():
    commands = runpy.run_path(str(DATASET_SCRIPT))["COMMANDS"]
    assert [tuple(cmd) for cmd in commands if tuple(cmd) not in GOLDEN] == []
