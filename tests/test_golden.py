"""Golden output hashes of a fast subset of the default dataset.

Each command runs on the packaged config (seed 7); the sha256 of every
artifact in its manifest must equal the value pinned here, so any change
to the output bytes between versions fails loudly. A change that alters
bytes on purpose updates these hashes and says why in CHANGES.md.
"""

import json

import pytest

from rydlink import cli

GOLDEN = {
    ("rabi", "--collective"): {
        "rabi_collective.csv": "8bbbfd45bbc49ac2b4638c3761703fb04670c96a68c45124622de13c8064e62e",
    },
    ("rabi", "--single"): {
        "rabi_single.csv": "8595eb147f80689db207606d9b9b4b814b6e11c9eeea2df23a10554cd831675e",
    },
    ("rabi", "--pair"): {
        "rabi_pair.csv": "5ec6f78ab158bf12630324d0871229db9aae4003cc8617d3e90eda828a27b4a0",
    },
    ("entangle", "--phi-sweep"): {
        "entangle_phi_sweep.csv": "f673fc9814044979a42de5339d80e90c7df3862d71a83c66e542b0886613c63e",
        "entangle_phi_sweep_hv.csv": "e3692112a4a138e7425b730373c9337067ce25b0ae05d432099c10c1b9cb7c37",
    },
    ("entangle", "--fidelity"): {
        "entangle_fidelity.json": "e17542a985399a768eea9abc9157e3679fe2a24815190e1c4f419b351f158758",
    },
    ("dephasing", "--flags", "motion"): {
        "dephasing_motion.csv": "bdb395c6e94f6855a18a36640da202f0df03709a1cb5532fcdc7639d7a2eb70d",
        "dephasing_motion.json": "d8700f93af2cdf7d82c3586ed7af1d252c7929efe8740869738cf8116eb78fda",
    },
    ("g2", "--field", "single"): {
        "g2_single.json": "f540495861bd7649e92a23e4e500877702ed11a3ad23ace302838ca8c18d750c",
    },
    ("repeater", "--source", "semi"): {
        "repeater_semi.json": "64427b95d7dea7e80433bf7bdf50a77123b6f7f8aa9bb9a3c98b8619e2f9ddb6",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN), ids=["-".join(c).replace("--", "") for c in GOLDEN])
def test_manifest_matches_golden_hashes(tmp_path, command):
    assert cli.main(["--out", str(tmp_path), *command]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["outputs"] == GOLDEN[command]
