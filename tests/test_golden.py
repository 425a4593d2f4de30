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
        "rabi_pair.csv": "4b1c4bda7322fa40db972b8a98c578953904097b89f59ff7e09503ee5b23551b",
    },
    ("entangle", "--phi-sweep"): {
        "entangle_phi_sweep.csv": "f673fc9814044979a42de5339d80e90c7df3862d71a83c66e542b0886613c63e",
        "entangle_phi_sweep_hv.csv": "e3692112a4a138e7425b730373c9337067ce25b0ae05d432099c10c1b9cb7c37",
    },
    ("entangle", "--fidelity"): {
        "entangle_fidelity.json": "9950e633f4ca0abfda7fdab1791652300bea3e48d4976f4f990a91383941c482",
    },
    ("dephasing", "--flags", "none"): {
        "dephasing_none.csv": "0c5e6cdf1b9f1ef092a744d64f83fe0578c139b993d9e2ab4ae4a0f110709c45",
        "dephasing_none.json": "8d0f870624818f78327bf9418bacecf1c9484a5a9ef823830ed8189b575a0709",
    },
    ("dephasing", "--flags", "motion"): {
        "dephasing_motion.csv": "acc8d7602af144e0614f315b5d09911c2de4c9cd143393801cb1e868c2256d35",
        "dephasing_motion.json": "c6652fd2ac87cdc20dd5f770246c0c8fd569ab87f1fb6016f0e5ea77e96c36f3",
    },
    # the only command that runs the Lindblad batch
    ("dephasing", "--flags", "motion,inhomo,scatter"): {
        "dephasing_motion-inhomo-scatter.csv": "d65d21b8e01fa28ce7d03599403cd78f5746c1966ff4808af5ae5ed6c2aabfc0",
        "dephasing_motion-inhomo-scatter.json": "40db1566b3f80e386b12b4c8cef3158c95030f827b56d9de83f7e0ecec478c21",
    },
    ("g2", "--field", "single"): {
        "g2_single.json": "f540495861bd7649e92a23e4e500877702ed11a3ad23ace302838ca8c18d750c",
    },
    ("g2", "--field", "single", "--calibrated"): {
        "g2_single_calibrated.json": "0e2ab0617c6a28f80d7a9886d4405c7b79de5a5f1e804255e512c3bb43240290",
    },
    ("g2", "--field", "thermal"): {
        "g2_thermal.json": "36566d2a787dbf51d8d11c279b7944dd4f893323ccd3100f6ab6c03d10a1f28e",
    },
    ("g2", "--field", "dlcz"): {
        "g2_dlcz.json": "0280e930d2a5a1fb48eaa7aadb92a2a92b6fec22db9d7317376838510154fa90",
    },
    ("repeater", "--source", "semi"): {
        "repeater_semi.json": "5663068c3483ae810a063261e6b2adb670aaea5706a1bbf083a2fb3a74ae4a83",
    },
    ("repeater", "--source", "dlcz"): {
        "repeater_dlcz.json": "f29d170e95a18aadcfa80e3a694c7b76a42d7b49596b861c36db05163fed9add",
    },
    # the repeater's largest cost: ten eta points of the semi source
    ("repeater", "--source", "semi", "--sweep", "eta"): {
        "repeater_semi_sweep_eta.csv": "1d660a778856e545d8e373a9f8ebbaefad0d26cd0205e232a44e82e59d802149",
    },
    ("repeater", "--source", "dlcz", "--sweep", "p"): {
        "repeater_dlcz_sweep_p.csv": "f38244a84f261ab37efb91b648d0411f38763f9e9ac909f35a4f48e42d77ed59",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN), ids=["-".join(c).replace("--", "") for c in GOLDEN])
def test_manifest_matches_golden_hashes(tmp_path, command):
    assert cli.main(["--out", str(tmp_path), *command]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["outputs"] == GOLDEN[command]
