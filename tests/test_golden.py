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
CONFIG_HASH = "98879f2defa72b356a07b5d5e23b628f7e2732a58e5eb4eaf0960a9b98fba43f"

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
        "dephasing_none.csv": "4f1cef5f19cb944fb1af40cfdb482d2ebf97f90513da92011cc841eb6571280c",
        "dephasing_none.json": "7082a160284ec7a495ac5102d363601109cc71494a0d8a092a939a6ca57131be",
    },
    ("dephasing", "--flags", "motion"): {
        "dephasing_motion.csv": "fdf2ae3b6edbb9e8a317dcff0d5047c543c93628e284dee7f69c37a11ceeea44",
        "dephasing_motion.json": "82a1d3b635031552bedabb5f6a95f1e25e0873e49380b29894fec98541e5046d",
    },
    ("dephasing", "--flags", "inhomo"): {
        "dephasing_inhomo.csv": "a2c7d7c3f22f9eb7f86d1171f23a70385744e4947c82da98aac381b969b1a378",
        "dephasing_inhomo.json": "b28f517340eb5cb3e34d9be95598992db62e966c0bb062f8ed0eba3ba9257d51",
    },
    ("dephasing", "--flags", "scatter"): {
        "dephasing_scatter.csv": "2c936a691676bcfcb10de310632222edbc38e88e280d2c2cd931ac0b7969f7e9",
        "dephasing_scatter.json": "53ee1585e407763b43d2015ab6e756081fe9300b471cb21e684951f20f255aee",
    },
    # the only command that runs the Lindblad batch
    ("dephasing", "--flags", "motion,inhomo,scatter"): {
        "dephasing_motion-inhomo-scatter.csv": "98fb63cfe7001f4ac7a369122cfc9dbbe5c8b606de9e0e0fe7bc3f85e6e8ac0f",
        "dephasing_motion-inhomo-scatter.json": "8f083bf79300a86d03e52116425f329f2694b7faf0d89d0fbba552fb843290d4",
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
