"""Command-line front end: seeded runs emitting CSV/JSON plus a manifest.

Column orders are frozen and documented in FORMATS.md. All floats are
written with a fixed %.12g format so identical (config, seed) pairs give
byte-identical files; every run ends by writing manifest.json with
sha256 checksums of the artifacts it produced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def _fmt(x) -> str:
    return f"{float(x):.12g}"


class RunWriter:
    """Single owner of an output directory, made by the first write; accumulates the manifest."""

    def __init__(self, outdir: Path, cfg: RunConfig, command: str):
        self.outdir = outdir
        self.cfg = cfg
        self.command = command
        self.checksums: dict = {}

    def _write(self, name: str, data: bytes):
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: cannot create directory {str(self.outdir)!r}: {exc.strerror}") from None
        (self.outdir / name).write_bytes(data)

    def _record(self, name: str, data: bytes):
        self._write(name, data)
        self.checksums[name] = hashlib.sha256(data).hexdigest()

    def csv(self, name: str, header, rows):
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(x) for x in row))
        self._record(name, ("\n".join(lines) + "\n").encode())

    def json(self, name: str, obj: dict):
        obj = {"version": ARTIFACT_VERSION, **obj}
        self._record(name, (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode())

    def finish(self):
        manifest = {
            "version": ARTIFACT_VERSION,
            "command": self.command,
            "config_hash": self.cfg.config_hash(),
            "seed": self.cfg.seed,
            "outputs": self.checksums,
        }
        self._write("manifest.json", (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode())


# ---------------------------------------------------------------------------
# subcommands


def _excitation_rabi(cfg: RunConfig) -> float:
    """Single-atom two-photon Rabi frequency of the excitation pair (A, B)."""
    geo = cfg.geometry
    return geo.beams["A"].rabi * geo.beams["B"].rabi / (2.0 * abs(geo.detuning_1))


def cmd_rabi(cfg: RunConfig, args, writer: RunWriter):
    n_points = 601
    if args.mode == "collective":
        omega = _excitation_rabi(cfg)
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


FLAG_NAMES = ("motion", "inhomo", "scatter")  # in the field order of SimulationFlags


def _parse_flags(spec: str) -> dict:
    """--flags as {name: on} in FLAG_NAMES order."""
    parts = [] if spec == "none" else [p.strip() for p in spec.split(",")]
    if not set(parts) <= set(FLAG_NAMES) or len(set(parts)) < len(parts):
        raise ConfigError(f"--flags {spec!r}: give distinct names from {FLAG_NAMES}, comma separated, or 'none'")
    return {name: name in parts for name in FLAG_NAMES}


def cmd_dephasing(cfg: RunConfig, args, writer: RunWriter):
    on = _parse_flags(args.flags)
    flags = dephasing.SimulationFlags(*on.values())
    sim = cfg.parsed["simulation"]
    n_samples = args.samples if args.samples is not None else sim["dephasing_samples"]
    t_grid = np.linspace(0.0, sim["dephasing_t_max"] * 1e6, sim["dephasing_points"])
    gamma_e = cfg.parsed["raman"]["intermediate_linewidth"]
    try:
        result = dephasing.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, gamma_e, flags, n_samples, cfg.seed, t_grid
        )
    except dephasing.SampleCountError as exc:  # the config's count is checked at load
        raise ConfigError(f"--samples: {exc}") from None
    except (dephasing.BatchError, np.linalg.LinAlgError) as exc:
        keys = "raman.intermediate_linewidth, geometry.detuning_1, geometry.detuning_2"
        raise dephasing.BatchError(f"{keys}: {exc}") from None
    # the parsed names, so that equivalent --flags texts name the same files
    tag = "-".join(name for name, value in on.items() if value) or "none"
    writer.csv(
        f"dephasing_{tag}.csv",
        ("t_us", "population_r", "projection"),
        zip(t_grid, result.population_r, result.spinwave_projection),
    )
    writer.json(
        f"dephasing_{tag}.json",
        {
            "flags": on,
            "n_samples": n_samples,
            "seed": cfg.seed,
            "tau_osc_us": result.tau_osc_us,
            "tau_free_us": result.tau_free_us,
            "metadata": result.metadata,
        },
    )


def _entangled_amplitudes(cfg: RunConfig) -> np.ndarray:
    """Protocol output at the maximally entangling Raman duration."""
    omega = cfg.protocol_rabi
    amps, _ = collective.run_protocol(collective.pair_oscillation_period(omega) / 2.0, omega)
    return amps


def _memory_coherence(cfg: RunConfig) -> float:
    """Coherence left by the ground-spin-wave decay before the second read."""
    lifetime_s = cfg.ensemble.ground_spinwave_lifetime_us * 1e-6
    return np.exp(-cfg.parsed["readout"]["second_read_delay"] / lifetime_s)


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
        g2_mc = measurement.g2_hbt(field, trials=trials, seed=cfg.seed)
        # the same stream again, so these are the counts g2_mc was estimated from
        n1, n2, n12 = measurement.hbt_counts(field, trials, cfg.seed)
        g2_mc_error = measurement.g2_from_counts(n1, n2, n12, trials)[1]
    except measurement.ZeroCoincidenceError as exc:
        source = "--parameter" if args.parameter is not None else "default parameter"
        raise ConfigError(
            f"{source} {parameter} for --field {args.field} with simulation.g2_trials {trials}: {exc}"
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
    p_rabi.set_defaults(func=cmd_rabi)

    p_deph = sub.add_parser("dephasing", help="spin-wave dephasing traces")
    p_deph.add_argument("--flags", default="none", help="comma list of motion,inhomo,scatter or 'none'")
    p_deph.add_argument("--samples", type=int, default=None)
    p_deph.set_defaults(func=cmd_dephasing)

    p_ent = sub.add_parser("entangle", help="polarization correlations and fidelity")
    which = p_ent.add_mutually_exclusive_group(required=True)
    which.add_argument("--phi-sweep", action="store_true")
    which.add_argument("--fidelity", action="store_true")
    p_ent.set_defaults(func=cmd_entangle)

    p_g2 = sub.add_parser("g2", help="Hanbury Brown-Twiss autocorrelation")
    p_g2.add_argument("--field", choices=sorted(FIELD_DEFAULTS), required=True)
    p_g2.add_argument("--calibrated", action="store_true", help="use the calibrated background")
    p_g2.add_argument("--parameter", type=float, default=None, help="mean photon number / p override")
    p_g2.set_defaults(func=cmd_g2)

    p_rep = sub.add_parser("repeater", help="elementary link Monte Carlo")
    p_rep.add_argument("--source", choices=("semi", "dlcz"), required=True)
    p_rep.add_argument("--sweep", choices=sorted(SWEEPS), default=None)
    p_rep.set_defaults(func=cmd_repeater)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        writer = RunWriter(Path(args.out), cfg, args.command)
        args.func(cfg, args, writer)
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
