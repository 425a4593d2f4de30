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
    ("dephasing", "--flags", "none"): {
        "dephasing_none.csv": "710e73275bd97d72c7702d108e907841cee3baf374ae845fa1c84a486c6f1fa2",
        "dephasing_none.json": "d1d679a75f4e1c9858ed161e761614a34aa280b80479cd02ecc0a35997da9904",
    },
    ("dephasing", "--flags", "motion"): {
        "dephasing_motion.csv": "bdb395c6e94f6855a18a36640da202f0df03709a1cb5532fcdc7639d7a2eb70d",
        "dephasing_motion.json": "d8700f93af2cdf7d82c3586ed7af1d252c7929efe8740869738cf8116eb78fda",
    },
    ("g2", "--field", "single"): {
        "g2_single.json": "f540495861bd7649e92a23e4e500877702ed11a3ad23ace302838ca8c18d750c",
    },
    ("g2", "--field", "single", "--calibrated"): {
        "g2_single_calibrated.json": "993d3c55e809303af3ac51532c3ea52714ba3af6672d1f2d2e6186f813261dfa",
    },
    ("g2", "--field", "thermal"): {
        "g2_thermal.json": "36566d2a787dbf51d8d11c279b7944dd4f893323ccd3100f6ab6c03d10a1f28e",
    },
    ("g2", "--field", "dlcz"): {
        "g2_dlcz.json": "0280e930d2a5a1fb48eaa7aadb92a2a92b6fec22db9d7317376838510154fa90",
    },
    ("repeater", "--source", "semi"): {
        "repeater_semi.json": "64427b95d7dea7e80433bf7bdf50a77123b6f7f8aa9bb9a3c98b8619e2f9ddb6",
    },
    ("repeater", "--source", "dlcz"): {
        "repeater_dlcz.json": "dd7cbf8def2630c5706c00ea3e768c0e3e611881b43e7f7dabd119367d55cb3b",
    },
    ("repeater", "--source", "dlcz", "--sweep", "p"): {
        "repeater_dlcz_sweep_p.csv": "1c5e520bdae1f15df6664ed080ef61668fad30c256ff8724459ca9bb0144e6a7",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN), ids=["-".join(c).replace("--", "") for c in GOLDEN])
def test_manifest_matches_golden_hashes(tmp_path, command):
    assert cli.main(["--out", str(tmp_path), *command]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["outputs"] == GOLDEN[command]
