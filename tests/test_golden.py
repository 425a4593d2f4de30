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
        "entangle_fidelity.json": "7abc45c764cb264d604dbb6f507b96322892ed6ba8ede48b01c7b3045f07bed7",
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
        "g2_single.json": "d9214748930e0622b00c112b3ebe541b3ac9747d81448f1d018eeca8e2384859",
    },
    ("g2", "--field", "single", "--calibrated"): {
        "g2_single_calibrated.json": "cbbe31e12e19c268e66c522a49dd485bb4e0a8060e8eb8d40994940536194eb8",
    },
    # run by the benchmark's link workload though not by the default dataset
    ("g2", "--field", "coherent"): {
        "g2_coherent.json": "70eb9187cf4e40c4ba5652cdf2b591daba84448ea99bf4e088039444b268ae91",
    },
    ("g2", "--field", "thermal"): {
        "g2_thermal.json": "752ce056d378bc3c4847b504c142f7b50454da0a0ca5c4c982ffad2019308cfb",
    },
    ("g2", "--field", "dlcz"): {
        "g2_dlcz.json": "5f93ab7f8dfd2d8197894a3101fbae333635c6aa7c425fb7b7e53450fd56102d",
    },
    ("repeater", "--source", "semi"): {
        "repeater_semi.json": "6642012316834b395999ee0ae43fac9a904570165f2eac37b5d8a101a1b2ada2",
    },
    ("repeater", "--source", "dlcz"): {
        "repeater_dlcz.json": "1b4cae0fce335932ff0900af75e6ee3c66c923eeac04a0e9fa20d9cef64fe9f9",
    },
    # the repeater's largest cost: ten eta points of the semi source
    ("repeater", "--source", "semi", "--sweep", "eta"): {
        "repeater_semi_sweep_eta.csv": "c70acb551911d0594aef31154b7ab3f08e5165981e9e6fbd34461c409414dda5",
    },
    ("repeater", "--source", "dlcz", "--sweep", "p"): {
        "repeater_dlcz_sweep_p.csv": "916a46db8510d8f0c77abc4d5afb302461ae0276378f97a68d4bd2f87c7d054c",
    },
}


@pytest.mark.parametrize("command", list(GOLDEN), ids=["-".join(c).replace("--", "") for c in GOLDEN])
def test_manifest_matches_golden_hashes(tmp_path, command):
    assert cli.main(["--out", str(tmp_path), *command]) == cli.EXIT_OK
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["outputs"] == GOLDEN[command]
