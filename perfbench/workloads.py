"""The benchmark's workloads: which CLI commands one pass runs, on which config.

Every workload runs on the packaged default config with the workload seed
written into ``simulation.seed`` and a few sizes overridden. Each pass is a
closed loop with one client: the commands run one after another in this
process, each into its own output directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

# Copy of scripts/run_default_dataset.COMMANDS as of the commit that defined
# this benchmark. It is copied, not imported, so that a later change to the
# script cannot change what the benchmark measures.
DATASET_COMMANDS = (
    ("rabi", "--collective"),
    ("rabi", "--single"),
    ("rabi", "--pair"),
    ("dephasing", "--flags", "none"),
    ("dephasing", "--flags", "motion"),
    ("dephasing", "--flags", "motion,inhomo,scatter"),
    ("entangle", "--phi-sweep"),
    ("entangle", "--fidelity"),
    ("g2", "--field", "single"),
    ("g2", "--field", "single", "--calibrated"),
    ("g2", "--field", "thermal"),
    ("g2", "--field", "dlcz"),
    ("repeater", "--source", "semi"),
    ("repeater", "--source", "dlcz"),
    ("repeater", "--source", "semi", "--sweep", "eta"),
    ("repeater", "--source", "dlcz", "--sweep", "p"),
)

ENSEMBLE_COMMANDS = (
    ("dephasing", "--flags", "none"),
    ("dephasing", "--flags", "motion,inhomo"),
    ("dephasing", "--flags", "motion,inhomo,scatter"),
)

LINK_COMMANDS = (
    ("repeater", "--source", "semi"),
    ("repeater", "--source", "dlcz"),
    ("repeater", "--source", "semi", "--sweep", "eta"),
    ("repeater", "--source", "dlcz", "--sweep", "eta"),
    ("repeater", "--source", "dlcz", "--sweep", "p"),
    ("g2", "--field", "single"),
    ("g2", "--field", "coherent"),
    ("g2", "--field", "thermal"),
    ("g2", "--field", "dlcz"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    # config section -> {key: value}, applied over the packaged default
    overrides: dict = field(default_factory=dict)


WORKLOADS = {
    # The default dataset, the ROADMAP's definition of end to end: every
    # layer in the proportions a user regenerating the dataset pays, and the
    # only workload in which geometry/collective do real work.
    "dataset": Workload("dataset", DATASET_COMMANDS),
    # Dephasing at twice the default samples and time points, so the 16x16
    # Liouvillian stack (about 16 MB) exceeds the L2 cache. Two scatter-free
    # runs take the eigh-only path; they share sampling and amplitude code
    # with the scatter run, so a Lindblad change that slows them shows.
    "ensemble": Workload(
        "ensemble",
        ENSEMBLE_COMMANDS,
        {"simulation": {"dephasing_samples": 4000, "dephasing_points": 640}},
    ),
    # Monte Carlo link and g2 sampling with no dephasing or protocol code, at
    # the packaged dlcz excitation (0.05). Twice the default repeater trials
    # raise the expected heralds at the lowest-rate sweep point (dlcz,
    # eta = 0.1) from 11 to 21, so a pass with zero heralds and an undefined
    # fidelity has probability about e^-21.
    "link": Workload("link", LINK_COMMANDS, {"repeater": {"trials": 524288}}),
}

# The packaged config's own seed; the reference pass that checks byte drift
# runs every workload at this seed.
REFERENCE_SEED = 7


def family(cmd) -> str:
    """The end-to-end command-family metric a command's time counts toward."""
    if cmd[0] in ("rabi", "entangle"):
        return "protocol_s"
    if cmd[0] == "dephasing":
        return "dephasing_scatter_s" if "scatter" in cmd[2] else "dephasing_coherent_s"
    if cmd[0] == "g2":
        return "g2_s"
    return "repeater_semi_s" if cmd[2] == "semi" else "repeater_dlcz_s"


FAMILIES = (
    "protocol_s",
    "dephasing_coherent_s",
    "dephasing_scatter_s",
    "g2_s",
    "repeater_semi_s",
    "repeater_dlcz_s",
)


def slug(cmd) -> str:
    """Output directory name of one command, e.g. ``dephasing-flags-motion+inhomo``."""
    return "-".join(arg.lstrip("-").replace(",", "+") for arg in cmd)


def write_config(root: Path, workload: Workload, seed: int, path: Path) -> Path:
    """Write the workload's config for ``seed`` to ``path`` and return it."""
    raw = yaml.safe_load((root / "src" / "rydlink" / "data" / "default.yaml").read_text())
    raw["simulation"]["seed"] = seed
    for section, values in workload.overrides.items():
        raw[section].update(values)
    path.write_text(yaml.safe_dump(raw, sort_keys=False))
    return path
