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
import os
import sys
from pathlib import Path

import numpy as np

from . import collective, dephasing, measurement, repeater
from .config import ConfigError, RunConfig, load_config
from .measurement import DetectorModel, PhotonFieldModel

ARTIFACT_VERSION = 1

OUTDIR_ENV = "RYDLINK_OUTDIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3


def _fmt(x) -> str:
    return f"{float(x):.12g}"


class RunWriter:
    """Single owner of an existing output directory; accumulates the manifest."""

    def __init__(self, outdir: Path, cfg: RunConfig, command: str):
        self.outdir = outdir
        self.cfg = cfg
        self.command = command
        self.checksums: dict = {}

    def _record(self, name: str, data: bytes):
        (self.outdir / name).write_bytes(data)
        self.checksums[name] = hashlib.sha256(data).hexdigest()

    def csv(self, name: str, header, rows):
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(x) for x in row))
        self._record(name, ("\n".join(lines) + "\n").encode())

    def json(self, name: str, obj: dict):
        obj = {"version": ARTIFACT_VERSION, **obj}
        self._record(name, (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode())

    def finish(self):
        manifest = {
            "version": ARTIFACT_VERSION,
            "command": self.command,
            "config_hash": self.cfg.config_hash(),
            "seed": self.cfg.seed,
            "outputs": self.checksums,
        }
        blob = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        (self.outdir / "manifest.json").write_text(blob)


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
        rows = [
            (
                ti * 1e9,
                collective.collective_rabi_population(1.0, omega, ti),
                collective.collective_rabi_population(n_eff, omega, ti),
            )
            for ti in t
        ]
        writer.csv("rabi_collective.csv", ("t_ns", "p_single_atom", "p_collective"), rows)
        return
    omega = cfg.protocol_rabi
    if args.mode == "single":
        period = collective.single_excitation_period(omega)
        t = np.linspace(0.0, 3.0 * period, n_points)
        rows = [(ti * 1e9, np.sin(omega * ti / 2.0) ** 2) for ti in t]
        writer.csv("rabi_single.csv", ("t_ns", "p_transferred"), rows)
        return
    # pair: polarization correlations vs Raman duration at the configured phase
    period = collective.pair_oscillation_period(omega)
    phase = cfg.parsed["readout"]["phase_shift"]
    t = np.linspace(0.0, 2.0 * period, n_points)
    rows = []
    for ti in t:
        state, _ = collective.run_protocol(ti, omega)
        pol = measurement.momentum_to_polarization(state, phase)
        probs = measurement.born_probabilities(pol, "pm")
        rows.append((ti * 1e9, probs[0] + probs[1], probs[2] + probs[3]))
    writer.csv("rabi_pair.csv", ("t_ns", "c_par", "c_perp"), rows)


FLAG_NAMES = ("motion", "inhomo", "scatter")


def _parse_flags(spec: str) -> dephasing.SimulationFlags:
    if spec == "none":
        return dephasing.SimulationFlags()
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    unknown = sorted(set(parts) - set(FLAG_NAMES))
    if unknown:
        raise ConfigError(f"unknown dephasing flag {unknown[0]!r} (use {FLAG_NAMES} or 'none')")
    return dephasing.SimulationFlags(
        motion="motion" in parts,
        inhomogeneity="inhomo" in parts,
        scattering="scatter" in parts,
    )


def cmd_dephasing(cfg: RunConfig, args, writer: RunWriter):
    flags = _parse_flags(args.flags)
    sim = cfg.parsed["simulation"]
    n_samples = args.samples if args.samples is not None else sim["dephasing_samples"]
    t_grid = np.linspace(0.0, sim["dephasing_t_max"] * 1e6, sim["dephasing_points"])
    try:
        result = dephasing.simulate_single_excitation(
            cfg.geometry, cfg.ensemble, cfg.scheme, flags, n_samples, cfg.seed, t_grid
        )
    except dephasing.SampleCountError as exc:
        source = "--samples" if args.samples is not None else "simulation.dephasing_samples"
        raise ConfigError(f"{source}: {exc}") from None
    tag = args.flags.replace(",", "-")
    writer.csv(
        f"dephasing_{tag}.csv",
        ("t_us", "population_r", "projection"),
        zip(result.t_grid_us, result.population_r, result.spinwave_projection),
    )
    writer.json(
        f"dephasing_{tag}.json",
        {
            "flags": {"motion": flags.motion, "inhomo": flags.inhomogeneity, "scatter": flags.scattering},
            "n_samples": n_samples,
            "seed": cfg.seed,
            "tau_osc_us": result.tau_osc_us,
            "tau_free_us": result.tau_free_us,
            "metadata": result.metadata,
        },
    )


def _entangled_state(cfg: RunConfig) -> collective.AtomPhotonState:
    """Protocol output at the maximally entangling Raman duration."""
    omega = cfg.protocol_rabi
    state, _ = collective.run_protocol(collective.pair_oscillation_period(omega) / 2.0, omega)
    return state


def _read_out(cfg: RunConfig, state: collective.AtomPhotonState, phase: float) -> measurement.TwoPhotonState:
    """Two-photon polarization state after the phase shifter and the memory wait."""
    pol = measurement.momentum_to_polarization(state, phase)
    return measurement.apply_memory_decoherence(
        pol,
        cfg.parsed["readout"]["second_read_delay"],
        cfg.ensemble.ground_spinwave_lifetime_us * 1e-6,
    )


def _calibrated_background(cfg: RunConfig) -> float:
    det = DetectorModel(cfg.parsed["detector"]["calibration_chain_efficiency"], 0.0)
    field = PhotonFieldModel("single_photon", 1.0, det)
    return measurement.calibrate_background(
        cfg.parsed["detector"]["g2_calibration_target"], field
    )


def cmd_entangle(cfg: RunConfig, args, writer: RunWriter):
    if args.phi_sweep:
        phis = np.linspace(0.0, 2.0 * np.pi, 65)
        entangled = _entangled_state(cfg)
        states = [_read_out(cfg, entangled, float(phi) % (2.0 * np.pi)) for phi in phis]
        for basis, name in (("pm", "entangle_phi_sweep.csv"), ("hv", "entangle_phi_sweep_hv.csv")):
            rows = []
            for phi, state in zip(phis, states):
                p = measurement.born_probabilities(state, basis)
                par, perp = p[0] + p[1], p[2] + p[3]
                v = abs(perp - par) / (perp + par)
                rows.append((phi, p[0], p[1], p[2], p[3], v))
            writer.csv(name, ("phi_rad", "c_pp", "c_mm", "c_pm", "c_mp", "v"), rows)
        return
    # --fidelity: three-basis measurement with the calibrated noise chain
    b = _calibrated_background(cfg)
    det = DetectorModel(cfg.parsed["detector"]["entanglement_chain_efficiency"], b)
    state = _read_out(cfg, _entangled_state(cfg), cfg.parsed["readout"]["phase_shift"])
    trials = cfg.parsed["simulation"]["coincidence_trials"]
    result = measurement.measure_three_bases(state, det, trials, cfg.seed)
    writer.json(
        "entangle_fidelity.json",
        {
            "calibrated_background": b,
            "detector_efficiency": det.efficiency,
            "trials": trials,
            "seed": cfg.seed,
            **result.as_dict(),
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
    g2_analytic = measurement.g2_hbt(field)
    g2_mc = measurement.g2_hbt(field, trials=trials, seed=cfg.seed)
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
            "trials": trials,
            "seed": cfg.seed,
        },
    )


def _make_source(cfg: RunConfig, kind: str, p=None) -> repeater.SourceModel:
    rep = cfg.parsed["repeater"]
    if kind == "semi":
        return repeater.SourceModel("semi_deterministic", retrieval_efficiency=rep["retrieval_efficiency"])
    return repeater.SourceModel("dlcz", emission_prob=p if p is not None else rep["dlcz_excitation"])


def cmd_repeater(cfg: RunConfig, args, writer: RunWriter):
    rep = cfg.parsed["repeater"]
    trials = rep["trials"]

    def run(eta, p=None):
        source = _make_source(cfg, args.source, p)
        link = repeater.LinkConfig(channel_transmission=eta)
        return repeater.simulate_link(source, source, link, trials, cfg.seed)

    if args.sweep is None:
        eta = rep["channel_transmission"]
        stats = run(eta)
        source = _make_source(cfg, args.source)
        exact = repeater.analytic_link(source, source, repeater.LinkConfig(channel_transmission=eta))
        writer.json(
            f"repeater_{args.source}.json",
            {
                "source": args.source,
                "eta": eta,
                "p": rep["dlcz_excitation"] if args.source == "dlcz" else None,
                "monte_carlo": stats.as_dict(),
                "analytic": exact.as_dict(),
            },
        )
        return
    if args.sweep == "eta":
        grid = [round(0.1 * i, 1) for i in range(1, 11)]
        rows = []
        for eta in grid:
            s = run(eta)
            rows.append((eta, s.herald_rate, s.spurious_fraction, s.conditional_fidelity, *s.herald_rate_ci95))
    else:  # p sweep (dlcz only)
        if args.source != "dlcz":
            raise ConfigError("a p sweep only applies to the dlcz source")
        grid = [0.01, 0.02, 0.05, 0.1, 0.15, 0.2]
        rows = []
        for p in grid:
            s = run(rep["channel_transmission"], p=p)
            rows.append((p, s.herald_rate, s.spurious_fraction, s.conditional_fidelity, *s.herald_rate_ci95))
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
    parser.add_argument("--out", default=None, help="output directory (overrides config and env)")
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
    p_rep.add_argument("--sweep", choices=("eta", "p"), default=None)
    p_rep.set_defaults(func=cmd_repeater)
    return parser


def _resolve_outdir(args, cfg: RunConfig) -> Path:
    """Create the output directory; a path that cannot be one names its source."""
    if args.out is not None:
        path, source = Path(args.out), "--out"
    elif os.environ.get(OUTDIR_ENV):
        path, source = Path(os.environ[OUTDIR_ENV]), OUTDIR_ENV
    else:
        path, source = Path(cfg.parsed["output"]["directory"]), "output.directory"
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{source}: cannot create directory {str(path)!r}: {exc.strerror}") from None
    return path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        writer = RunWriter(_resolve_outdir(args, cfg), cfg, args.command)
        args.func(cfg, args, writer)
        writer.finish()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except dephasing.FitError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
