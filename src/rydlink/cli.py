"""Command-line front end: seeded runs emitting CSV/JSON plus a manifest.

Column orders are frozen and documented in FORMATS.md. All floats are
written with a fixed %.12g format so identical (config, seed) pairs give
byte-identical files. A run writes its artifacts only once its command has
succeeded, and ends by replacing manifest.json, which holds their sha256
checksums. The argument parser is built once per process, ``main`` looks
its ``cmd_*`` function up by name on every call, and calls with the same
config bytes share one checked, read-only ``RunConfig`` (``load_config``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import collective, dephasing, measurement, repeater
from .config import ConfigError, RunConfig, load_config
from .measurement import DetectorModel, PhotonFieldModel

ARTIFACT_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3


class RunWriter:
    """Single owner of an output directory. Artifacts stay in memory until ``finish``, so a
    command that fails writes nothing and leaves an earlier run's files as they were."""

    def __init__(self, outdir: Path, cfg: RunConfig, command: str):
        self.outdir = outdir
        self.cfg = cfg
        self.command = command
        self.artifacts: dict = {}

    def _record(self, name: str, data: bytes):
        self.artifacts[name] = data

    def csv(self, name: str, header, rows):
        # %g converts each value as float() does, so a row reads as f"{float(x):.12g}" per value
        fmt = ",".join(["%.12g"] * len(header))
        lines = [",".join(header), *(fmt % tuple(row) for row in rows)]
        self._record(name, ("\n".join(lines) + "\n").encode())

    def json(self, name: str, obj: dict):
        obj = {"version": ARTIFACT_VERSION, **obj}
        self._record(name, (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode())

    def finish(self):
        """Create the directory, write the artifacts, then replace manifest.json with one that lists them."""
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create directory {str(self.outdir)!r}: {exc.strerror}") from None
        manifest = {
            "version": ARTIFACT_VERSION,
            "command": self.command,
            "config_hash": self.cfg.config_hash,
            "seed": self.cfg.seed,
            "outputs": {name: hashlib.sha256(data).hexdigest() for name, data in self.artifacts.items()},
        }
        path = self.outdir / "manifest.json"
        partial = self.outdir / "manifest.json.partial"
        leftovers = [partial]
        try:
            for name, data in self.artifacts.items():
                target = self.outdir / name
                with open(target, "wb") as fh:
                    # the file is truncated now, so an earlier run's manifest may no longer describe it
                    leftovers = [partial, path]
                    fh.write(data)
            target = path
            partial.write_bytes((json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode())
            os.replace(partial, path)
        except OSError as exc:
            for leftover in leftovers:
                with contextlib.suppress(OSError):  # a directory of that name is not ours to remove
                    leftover.unlink(missing_ok=True)
            raise ConfigError(f"--out: cannot write {str(target)!r}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_rabi(cfg: RunConfig, args, writer: RunWriter):
    n_points = 601
    if args.mode == "collective":
        omega = cfg.excitation_rabi
        n_eff = cfg.ensemble.effective_atom_number
        period = collective.single_excitation_period(np.sqrt(n_eff) * omega)
        t = np.linspace(0.0, 3.0 * period, n_points)
        rows = zip(
            t * 1e9,
            collective.collective_rabi_population(1.0, omega, t),
            collective.collective_rabi_population(n_eff, omega, t),
        )
        writer.csv("rabi_collective.csv", ("t_ns", "p_single_atom", "p_collective"), rows)
        return
    omega = cfg.protocol_rabi
    if args.mode == "single":
        period = collective.single_excitation_period(omega)
        t = np.linspace(0.0, 3.0 * period, n_points)
        rows = zip(t * 1e9, collective.collective_rabi_population(1.0, omega, t))
        writer.csv("rabi_single.csv", ("t_ns", "p_transferred"), rows)
        return
    # pair: polarization correlations vs Raman duration at the configured
    # phase, read out at once (no memory wait)
    period = collective.pair_oscillation_period(omega)
    t = np.linspace(0.0, 2.0 * period, n_points)
    amps, _ = collective.run_protocol(t, omega)
    p = measurement.born_probabilities(amps, cfg.parsed["readout"]["phase_shift"], 1.0, "pm")
    rows = zip(t * 1e9, p[:, 0] + p[:, 1], p[:, 2] + p[:, 3])
    writer.csv("rabi_pair.csv", ("t_ns", "c_par", "c_perp"), rows)


def _parse_flags(spec: str) -> dephasing.SimulationFlags:
    """--flags as the SimulationFlags whose field names it lists."""
    names = tuple(field.name for field in dataclasses.fields(dephasing.SimulationFlags))
    parts = [] if spec == "none" else [p.strip() for p in spec.split(",")]
    if not set(parts) <= set(names) or len(set(parts)) < len(parts):
        raise ConfigError(f"--flags {spec!r}: give distinct names from {names}, comma separated, or 'none'")
    return dephasing.SimulationFlags(**dict.fromkeys(parts, True))


# the config keys that set each limit at which dephasing.simulate_single_excitation refuses a run
_SPLITTING_KEYS = "geometry.beams.C.rabi, geometry.beams.E.rabi, geometry.detuning_1, geometry.detuning_2"
_THERMAL_KEYS = "ensemble.temperature, ensemble.atomic_mass"
_TAU_FREE_KEYS = (f"{_THERMAL_KEYS}, geometry.beams.A.wavelength, geometry.beams.A.direction, "  # 1/(|k2| sigma_v)
                  "geometry.beams.B.wavelength, geometry.beams.B.direction")
REFUSAL_KEYS = {
    "detunings": "geometry.detuning_1, geometry.detuning_2",
    "thermal": _THERMAL_KEYS,
    "splitting": _SPLITTING_KEYS,
    "fit_phase": f"simulation.dephasing_t_max, {_SPLITTING_KEYS}",
    "tau_free": _TAU_FREE_KEYS,
    "doppler": f"simulation.dephasing_t_max, {_TAU_FREE_KEYS}",  # sigma_D t_max = t_max / tau_free
    "stiffness": "simulation.dephasing_t_max, raman.intermediate_linewidth",
    "jacobi": "geometry.beams.C.waist, geometry.beams.E.waist, ensemble.cloud_sigma",
    "values": "simulation.dephasing_points, simulation.dephasing_samples, ensemble.cloud_sigma",
}


def cmd_dephasing(cfg: RunConfig, args, writer: RunWriter):
    flags = _parse_flags(args.flags)
    sim = cfg.parsed["simulation"]
    t_grid = np.linspace(0.0, sim["dephasing_t_max"] * 1e6, sim["dephasing_points"])
    gamma_e = cfg.parsed["raman"]["intermediate_linewidth"]
    try:
        population, projection, record = dephasing.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, flags, sim["dephasing_samples"], cfg.seed, t_grid
        )
    except dephasing.Refused as exc:
        keys = REFUSAL_KEYS[exc.limit]
        if exc.limit == "values" and flags.motion:  # the Doppler axis takes the nodes of its phase
            keys += ", " + REFUSAL_KEYS["doppler"]
        raise ConfigError(f"{keys}: {exc}") from None
    except dephasing.FitError as exc:  # the fit's model is one Raman cosine under an envelope, over the window
        raise dephasing.FitError(f"{REFUSAL_KEYS['fit_phase']}, simulation.dephasing_points: {exc}") from None
    except dephasing.BatchError as exc:
        # the window and the Raman coupling enter every batch; the rest only with their mechanism
        keys = {"scatter": "raman.intermediate_linewidth, ", "motion": f"{_THERMAL_KEYS}, "}
        named = "simulation.dephasing_t_max, " + "".join(text for name, text in keys.items() if getattr(flags, name))
        raise dephasing.BatchError(f"{named}{_SPLITTING_KEYS}: {exc}") from None
    # the parsed names, so that equivalent --flags texts name the same files
    tag = "-".join(name for name, on in record["flags"].items() if on) or "none"
    writer.csv(f"dephasing_{tag}.csv", ("t_us", "population_r", "projection"), zip(t_grid, population, projection))
    writer.json(f"dephasing_{tag}.json", record)


def _entangled_amplitudes(cfg: RunConfig) -> np.ndarray:
    """Protocol output at the maximally entangling Raman duration."""
    omega = cfg.protocol_rabi
    amps, _ = collective.run_protocol(collective.pair_oscillation_period(omega) / 2.0, omega)
    return amps


def _memory_coherence(cfg: RunConfig) -> float:
    """Coherence left by the ground-spin-wave decay before the second read."""
    return np.exp(-cfg.parsed["readout"]["second_read_delay"] / cfg.parsed["ensemble"]["ground_spinwave_lifetime"])


def _calibrated_background(cfg: RunConfig) -> float:
    det = DetectorModel(cfg.parsed["detector"]["calibration_chain_efficiency"], 0.0)
    field = PhotonFieldModel("single_photon", 1.0, det)
    try:
        return measurement.calibrate_background(cfg.parsed["detector"]["g2_calibration_target"], field)
    except ValueError as exc:
        raise ConfigError(f"detector.calibration_chain_efficiency, detector.g2_calibration_target: {exc}") from None


def cmd_entangle(cfg: RunConfig, args, writer: RunWriter):
    amps = _entangled_amplitudes(cfg)
    coherence = _memory_coherence(cfg)
    if args.phi_sweep:
        phis = np.linspace(0.0, 2.0 * np.pi, 65)
        for basis, name in (("pm", "entangle_phi_sweep.csv"), ("hv", "entangle_phi_sweep_hv.csv")):
            p = measurement.born_probabilities(amps, phis % (2.0 * np.pi), coherence, basis)
            rows = np.column_stack([phis, p, measurement.visibility(p)])
            writer.csv(name, ("phi_rad", "c_pp", "c_mm", "c_pm", "c_mp", "v"), rows)
        return
    # --fidelity: three-basis measurement with the calibrated noise chain
    b = _calibrated_background(cfg)
    det = DetectorModel(cfg.parsed["detector"]["entanglement_chain_efficiency"], b)
    trials = cfg.parsed["simulation"]["coincidence_trials"]
    result = measurement.measure_three_bases(
        amps, cfg.parsed["readout"]["phase_shift"], coherence, det, trials, cfg.seed
    )
    writer.json(
        "entangle_fidelity.json",
        {
            "calibrated_background": b,
            "detector_efficiency": det.efficiency,
            "trials": trials,
            "seed": cfg.seed,
            **result,
        },
    )


FIELD_DEFAULTS = {
    # (model kind, default parameter)
    "single": ("single_photon", 1.0),
    "coherent": ("coherent", 1.0),
    "thermal": ("thermal", 1.0),
    "dlcz": ("dlcz_pair", 0.05),
}


def cmd_g2(cfg: RunConfig, args, writer: RunWriter):
    kind, parameter = FIELD_DEFAULTS[args.field]
    if args.parameter is not None:
        parameter = args.parameter
    b = _calibrated_background(cfg) if args.calibrated else 0.0
    det = DetectorModel(cfg.parsed["detector"]["calibration_chain_efficiency"], b)
    try:
        field = PhotonFieldModel(kind, parameter, det)
    except ValueError as exc:
        raise ConfigError(f"--parameter {parameter} for --field {args.field}: {exc}") from None
    trials = cfg.parsed["simulation"]["g2_trials"]
    try:
        g2_analytic = measurement.g2_hbt(field)
        n1, n2, n12 = measurement.hbt_counts(field, trials, cfg.seed)
        g2_mc, g2_mc_error = measurement.g2_from_counts(n1, n2, n12, trials)
    except measurement.ZeroCoincidenceError as exc:
        # the detector efficiency thins every field, so it is named with the field's parameter
        source = "--parameter" if args.parameter is not None else "default parameter"
        raise ConfigError(
            f"{source} {parameter} for --field {args.field} with simulation.g2_trials {trials} "
            f"and detector.calibration_chain_efficiency {det.efficiency:.6g}: {exc}"
        ) from None
    tag = f"{args.field}_calibrated" if args.calibrated else args.field
    writer.json(
        f"g2_{tag}.json",
        {
            "field": args.field,
            "parameter": parameter,
            "detector_efficiency": det.efficiency,
            "background_prob": b,
            "g2_analytic": g2_analytic,
            "g2_mc": g2_mc,
            "g2_mc_error": g2_mc_error,
            "n1": n1,
            "n2": n2,
            "n12": n12,
            "trials": trials,
            "seed": cfg.seed,
        },
    )


# sweep axis -> grid; each value replaces that coordinate of the configured point
SWEEPS = {
    "eta": [round(0.1 * i, 1) for i in range(1, 11)],
    "p": [0.01, 0.02, 0.05, 0.1, 0.15, 0.2],  # dlcz only
}


def cmd_repeater(cfg: RunConfig, args, writer: RunWriter):
    rep = cfg.parsed["repeater"]
    if args.sweep == "p" and args.source != "dlcz":
        raise ConfigError(f"--sweep p: applies only to --source dlcz, not --source {args.source}")

    def link_at(eta, p):
        if args.source == "semi":
            source = repeater.SourceModel("semi_deterministic", retrieval_efficiency=rep["retrieval_efficiency"])
        else:
            source = repeater.SourceModel("dlcz", emission_prob=p)
        return source, source, repeater.LinkConfig(channel_transmission=eta)

    point = {"eta": rep["channel_transmission"], "p": rep["dlcz_excitation"]}
    if args.sweep is None:
        nodes = link_at(**point)
        writer.json(
            f"repeater_{args.source}.json",
            {
                "source": args.source,
                "eta": point["eta"],
                "p": point["p"] if args.source == "dlcz" else None,
                "monte_carlo": repeater.simulate_link(*nodes, rep["trials"], cfg.seed).as_dict(),
                "analytic": repeater.analytic_link(*nodes).as_dict(),
            },
        )
        return
    rows = []
    for value in SWEEPS[args.sweep]:
        s = repeater.simulate_link(*link_at(**{**point, args.sweep: value}), rep["trials"], cfg.seed)
        rows.append((value, s.herald_rate, s.spurious_fraction, s.conditional_fidelity, *s.herald_rate_ci95))
    writer.csv(
        f"repeater_{args.source}_sweep_{args.sweep}.csv",
        ("sweep_value", "herald_rate", "spurious_fraction", "conditional_fidelity", "ci_low", "ci_high"),
        rows,
    )


# ---------------------------------------------------------------------------
# argument parsing and entry point


@functools.cache  # one parser per process; main dispatches on the command's name, not on a stored function
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rydlink", description=__doc__)
    parser.add_argument("--config", default=None, help="run configuration (default: packaged)")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_rabi = sub.add_parser("rabi", help="oscillation traces")
    mode = p_rabi.add_mutually_exclusive_group(required=True)
    mode.add_argument("--collective", dest="mode", action="store_const", const="collective")
    mode.add_argument("--single", dest="mode", action="store_const", const="single")
    mode.add_argument("--pair", dest="mode", action="store_const", const="pair")

    p_deph = sub.add_parser("dephasing", help="spin-wave dephasing traces")
    p_deph.add_argument("--flags", default="none", help="comma list of motion,inhomo,scatter or 'none'")

    p_ent = sub.add_parser("entangle", help="polarization correlations and fidelity")
    which = p_ent.add_mutually_exclusive_group(required=True)
    which.add_argument("--phi-sweep", action="store_true")
    which.add_argument("--fidelity", action="store_true")

    p_g2 = sub.add_parser("g2", help="Hanbury Brown-Twiss autocorrelation")
    p_g2.add_argument("--field", choices=sorted(FIELD_DEFAULTS), required=True)
    p_g2.add_argument("--calibrated", action="store_true", help="use the calibrated background")
    p_g2.add_argument("--parameter", type=float, default=None, help="mean photon number / p override")

    p_rep = sub.add_parser("repeater", help="elementary link Monte Carlo")
    p_rep.add_argument("--source", choices=("semi", "dlcz"), required=True)
    p_rep.add_argument("--sweep", choices=sorted(SWEEPS), default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        writer = RunWriter(Path(args.out), cfg, args.command)
        globals()[f"cmd_{args.command}"](cfg, args, writer)
        writer.finish()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (dephasing.FitError, dephasing.BatchError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
