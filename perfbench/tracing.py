"""Span tracer that wraps rydlink functions from outside the package.

``Tracer.installed`` replaces each target function, in every rydlink module
that holds a reference to it, by a wrapper that opens a span around the
call; leaving the block puts the originals back. A span records its name,
start, end, parent span and pass ID. Spans stay in memory until
``write_spans``. A span's self time is its duration minus the time its
child spans cover, so the self times of one pass add up to the duration of
its root spans (one ``cli`` span per command). The counting hooks and the
span-name chooser run outside their own span; their time is taken out of
the enclosing span's self time and reported as ``trace.hook_s``.

Counts marked as computed are derived from the arguments and array shapes
of the wrapped calls, never from timing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
import time
from collections import defaultdict

PACKAGE = "rydlink"


def _g2_span(*args, **kwargs):
    trials = kwargs.get("trials", args[1] if len(args) > 1 else None)
    return "measurement.g2_mc" if trials is not None else "measurement.g2_analytic"


def _g2_trials(counts, field, trials=None, seed=None):
    if trials is not None:
        counts["measurement.g2_mc.trials"] += trials


def _write_bytes(counts, writer, name, data):
    counts["cli.write.bytes"] += len(data)


def _manifest_bytes(counts, result, writer):
    counts["cli.write.bytes"] += (writer.outdir / "manifest.json").stat().st_size


def _atom_steps(counts, geo, ens, scheme, flags, n_samples, seed, t_grid_us):
    counts["dephasing.atom_steps"] += n_samples * len(t_grid_us)


def _amplitude_shapes(counts, H, gamma, t_grid_s):
    n, n_t = H.shape[0], len(t_grid_s)
    counts["dephasing.eig4"] += n
    # (n_t, n) complex amplitudes plus the (n, 4, 4) complex eigenvectors
    counts["dephasing.bytes_computed"] += 16 * (n_t * n + n * 16)


def _lindblad_shapes(counts, H, gamma, t_grid_s):
    n, n_t = H.shape[0], len(t_grid_s)
    counts["dephasing.eig16"] += n
    # (n, 16, 16) complex Liouvillians and eigenvectors, (n_t, n) real output
    counts["dephasing.bytes_computed"] += 2 * 16 * n * 256 + 8 * n_t * n


def _fit_status(counts, result, t_grid_us, projection, omega_guess_rad_s):
    counts["dephasing.fit.failed"] += not math.isfinite(result)


def _chunk_inputs(counts, source_left, source_right, link, n_trials, rng):
    counts["repeater.trials"] += n_trials
    for src in (source_left, source_right):
        dist = src.emission_distribution()
        mean_photons = sum(n * p for n, p in enumerate(dist))
        counts["repeater.photons_expected"] += n_trials * link.survival * mean_photons


def _chunk_heralds(counts, result, source_left, source_right, link, n_trials, rng):
    counts["repeater.heralds"] += result[0]


# (module, attribute, span name or chooser, before hook, after hook). Hooks
# take the wrapped function's arguments; an after hook also gets its result.
# A hook that no longer fits its function (a changed signature, say) is
# reported in ``hook_errors`` and never fails the traced call.
TARGETS = (
    ("cli", "main", "cli", None, None),
    ("cli", "RunWriter._record", "cli.write", _write_bytes, None),
    ("cli", "RunWriter.finish", "cli.write", None, _manifest_bytes),
    ("config", "load_config", "config.load", None, None),
    ("geometry", "protocol_modes", "geometry.protocol_modes", None, None),
    ("collective", "run_protocol", "collective.run_protocol", None, None),
    ("dephasing", "simulate_single_excitation", "dephasing.simulate", _atom_steps, None),
    ("dephasing", "sample_atoms", "dephasing.sample_atoms", None, None),
    ("dephasing", "_batched_amplitudes", "dephasing.amplitudes", _amplitude_shapes, None),
    ("dephasing", "_batched_lindblad_trace", "dephasing.lindblad", _lindblad_shapes, None),
    ("dephasing", "fit_envelope_time_us", "dephasing.fit", None, _fit_status),
    ("measurement", "g2_hbt", _g2_span, _g2_trials, None),
    ("measurement", "calibrate_background", "measurement.calibrate", None, None),
    ("measurement", "born_probabilities", "measurement.born", None, None),
    ("repeater", "simulate_link", "repeater.simulate", None, None),
    ("repeater", "_simulate_chunk", "repeater.chunk", _chunk_inputs, _chunk_heralds),
    ("repeater", "analytic_link", "repeater.analytic", None, None),
)

# (module, attribute, counter): counted, no span
COUNTED = (("geometry", "WaveVector.__post_init__", "geometry.wavevector.constructed"),)

# counts reported as they are; the hooks also keep the bases of the two
# repeater ratios
COUNTS = (
    "geometry.wavevector.constructed",
    "dephasing.atom_steps",
    "dephasing.eig4",
    "dephasing.eig16",
    "dephasing.bytes_computed",
    "dephasing.fit.failed",
    "measurement.g2_mc.trials",
    "repeater.trials",
    "cli.write.bytes",
)

# metrics derived from arguments and array shapes, not from timing
COMPUTED = {
    "dephasing.eig16",
    "dephasing.eig4",
    "dephasing.bytes_computed",
    "dephasing.atom_steps",
    "measurement.g2_mc.trials",
    "repeater.trials",
    "repeater.detector_draw_use",
}

# Detector indices the seed implementation draws per repeater trial
# (repeater.MAX_PHOTONS at the commit that defined this benchmark). Fixed
# here so that the ratio keeps its meaning when the sampler changes.
MAX_PHOTONS = 8

UNMEASURED = {"core": "no production caller; the CLI imports only NonConvergenceError, which nothing raises"}


def _resolve(module, attr):
    """(owner object, attribute name, original) or None when the target is gone."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    original = getattr(owner, name, None) if owner is not None else None
    return None if original is None else (owner, name, original)


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, pass id, name, start, end)
        self.missing = []
        self.hook_errors = set()
        self._stack = []  # [span id, name, start, child time]
        self._pass_id = None
        self._hook_s = 0.0
        self._self_s = defaultdict(float)
        self._calls = defaultdict(int)
        self.counts = defaultdict(int)

    def _open(self, name):
        self._stack.append([len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0])

    def _close(self):
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self._self_s[name] += duration - child
        self._calls[name] += 1
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += duration
        self.spans.append((span_id, parent, self._pass_id, name, start, end))

    def _wrap(self, fn, name, before, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            if before is not None:
                tracer._hook(before, *args, **kwargs)
            span = name(*args, **kwargs) if callable(name) else name
            tracer._charge_hook(time.perf_counter() - t0)
            tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                t0 = time.perf_counter()
                tracer._hook(after, result, *args, **kwargs)
                tracer._charge_hook(time.perf_counter() - t0)
            return result

        return traced

    def _charge_hook(self, seconds):
        """Count hook time as tracer overhead, not as the enclosing span's self time."""
        self._hook_s += seconds
        if self._stack:
            self._stack[-1][3] += seconds

    def _hook(self, hook, *args, **kwargs):
        try:
            hook(self.counts, *args, **kwargs)
        except (TypeError, AttributeError, ValueError, IndexError) as exc:
            self.hook_errors.add(f"{hook.__name__}: {exc}")

    def _count(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, pass_id):
        """Trace every target for the duration of the block as pass ``pass_id``."""
        self._pass_id = pass_id
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        patches = []
        self.missing = []
        wanted = [(t[0], t[1], lambda fn, t=t: self._wrap(fn, *t[2:])) for t in TARGETS]
        wanted += [(m, a, lambda fn, c=c: self._count(fn, c)) for m, a, c in COUNTED]
        for module_name, attr, make in wanted:
            found = _resolve(sys.modules.get(f"{PACKAGE}.{module_name}"), attr)
            if found is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner, name, original = found
            wrapper = make(original)
            holders = [(owner, name)]
            if "." not in attr:  # also rebind names imported into other modules
                holders += [(m, k) for m in modules for k, v in vars(m).items() if v is original and m is not owner]
            for holder, key in holders:
                setattr(holder, key, wrapper)
                patches.append((holder, key, original))
        try:
            yield
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    def take_pass(self) -> dict:
        """Per-layer metrics of the spans and counts since the last call."""
        self_s, calls, counts = self._self_s, self._calls, self.counts
        out = {}
        for name in {t[2] for t in TARGETS if isinstance(t[2], str)} | {"measurement.g2_mc", "measurement.g2_analytic"}:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.calls"] = calls.get(name, 0)
        out.update({name: counts.get(name, 0) for name in COUNTS})
        # bisection steps: g2 evaluations inside calibrate_background, less the
        # one bracket check each call makes first
        names = {s[0]: s[3] for s in self.spans if s[2] == self._pass_id}
        nested = sum(
            1
            for s in self.spans
            if s[2] == self._pass_id and s[3] == "measurement.g2_analytic" and names.get(s[1]) == "measurement.calibrate"
        )
        out["measurement.calibrate.iterations"] = nested - calls.get("measurement.calibrate", 0)
        trials = counts.get("repeater.trials", 0)
        out["repeater.herald_frac"] = counts.get("repeater.heralds", 0) / trials if trials else 0.0
        out["repeater.detector_draw_use"] = (
            counts.get("repeater.photons_expected", 0) / (trials * MAX_PHOTONS) if trials else 0.0
        )
        out["trace.hook_s"] = self._hook_s
        out["trace.self_sum_s"] = sum(self_s.values()) + self._hook_s
        self._self_s, self._calls, self.counts = defaultdict(float), defaultdict(int), defaultdict(int)
        self._hook_s = 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, pass_id, name, start, end in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "parent": parent, "pass": pass_id, "name": name, "start": start, "end": end})
                    + "\n"
                )

