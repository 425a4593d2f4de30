#!/usr/bin/env python3
"""Produce the full default dataset: every subcommand, default config.

Each command writes its CSV/JSON artifacts and its own manifest.json into
a subdirectory of --out (default: out/dataset) named after the command,
for example ``g2_field_single_calibrated/``, so every manifest lists
exactly the files beside it. Useful as a one-shot regeneration of
everything the plots in a writeup would be made from.
"""

import argparse
import sys
from pathlib import Path

from rydlink import cli

COMMANDS = [
    ["rabi", "--collective"],
    ["rabi", "--single"],
    ["rabi", "--pair"],
    ["dephasing", "--flags", "none"],
    ["dephasing", "--flags", "motion"],
    ["dephasing", "--flags", "inhomo"],
    ["dephasing", "--flags", "scatter"],
    ["dephasing", "--flags", "motion,inhomo,scatter"],
    ["entangle", "--phi-sweep"],
    ["entangle", "--fidelity"],
    ["g2", "--field", "single"],
    ["g2", "--field", "single", "--calibrated"],
    ["g2", "--field", "thermal"],
    ["g2", "--field", "dlcz"],
    ["repeater", "--source", "semi"],
    ["repeater", "--source", "dlcz"],
    ["repeater", "--source", "semi", "--sweep", "eta"],
    ["repeater", "--source", "dlcz", "--sweep", "p"],
]


def slug(cmd) -> str:
    """Directory name of a command: ``dephasing --flags motion,inhomo`` -> ``dephasing_flags_motion-inhomo``."""
    return "_".join(arg.lstrip("-") for arg in cmd).replace(",", "-")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/dataset")
    ap.add_argument("--config", default=None)
    args = ap.parse_args()
    for cmd in COMMANDS:
        argv = ["--out", str(Path(args.out) / slug(cmd))]
        if args.config:
            argv += ["--config", args.config]
        code = cli.main(argv + cmd)
        print(f"{' '.join(cmd):45s} -> exit {code}")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
