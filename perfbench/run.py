#!/usr/bin/env python3
"""rydlink benchmark: CLI workloads timed end to end and, traced, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload dataset --seed 1 --seconds 24 --trace 0

One run of one workload, in this process:

1. writes the workload config for ``--seed`` (and for the reference seed);
2. times ``SETUP_SAMPLES`` fresh interpreters that import ``rydlink.cli``
   and load that config (``setup_s``);
3. runs one reference pass at the reference seed, which warms the process
   and compares every artifact's sha256 with ``golden.json`` (reported, not
   gated);
4. runs passes of the workload for ``--seconds``. With ``--trace 0`` none is
   traced and the end-to-end metrics are reported. With ``--trace 1``
   untraced and traced passes alternate, and the per-layer metrics come
   from the traced ones; the difference in pass wall time is the tracing
   overhead. After each pass a fixed computation that uses no rydlink code
   is timed (``host.probe_s``) and the machine's CPU steal time during the
   pass is read (``host.steal_s``), so that a run taken while the machine
   was slow can be told from a regression.

Every command's outputs are checked after its pass, outside the timed
region (checks.py). The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give every metric with its sample count, and ``.bench_out/`` holds the
full result with provenance and, when traced, the spans.

``--record-golden`` runs only the reference pass and stores its hashes in
golden.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import FAMILIES, REFERENCE_SEED, WORKLOADS, family, slug, write_config

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SETUP_SAMPLES = 9


def cap_blas_threads() -> int:
    """Limit BLAS threads to the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    threads = max(1, min(int(requested) if requested else nproc, nproc))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit(root: Path):
    """The checked-out commit, read from .git without leaving the checkout."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    pkg = root / "src" / "rydlink"
    for path in sorted(p for p in pkg.rglob("*") if p.suffix in (".py", ".yaml")):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(blas_threads: int) -> dict:
    import numpy
    import scipy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
    }


def setup_sample(config: Path) -> float:
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), str(ROOT / "src"), str(config), repr(start)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1])


def steal_seconds() -> float:
    """The machine's cumulative CPU steal time over all CPUs (Linux), else 0."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def host_probe() -> float:
    """Seconds a fixed computation that uses no rydlink code takes: the machine's speed now.

    Batched small eigendecompositions and a Python loop, the two kinds of
    work the workloads spend their time in.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((6000, 4, 4))
    a = a + a.transpose(0, 2, 1)
    start = time.perf_counter()
    np.linalg.eigh(a)
    sum(i * i for i in range(600_000))
    return time.perf_counter() - start


def max_percentile(n: int):
    """Highest of p50..p99 with at least ten samples beyond it, or None."""
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


class Runner:
    """Runs passes of one workload through ``cli.main`` and checks their outputs."""

    def __init__(self, workload, rundir: Path):
        from rydlink import cli

        self.cli = cli
        self.commands = workload.commands
        self.rundir = rundir
        self.attempted = 0
        self.failures = []

    def _call(self, cmd, outdir: Path, config: Path):
        try:
            return self.cli.main(["--config", str(config), "--out", str(outdir), *cmd])
        except SystemExit as exc:
            return exc.code
        except Exception:  # a traceback is a failed operation, not a crash of the benchmark
            traceback.print_exc()
            return "exception"

    def run_pass(self, tag: str, config: Path, checker, tracer=None) -> dict:
        base = self.rundir / "out"
        shutil.rmtree(base, ignore_errors=True)
        dirs = [base / slug(cmd) for cmd in self.commands]
        times, codes = [], []
        steal = steal_seconds()
        with tracer.installed(tag) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            for cmd, outdir in zip(self.commands, dirs):
                t0 = time.perf_counter()
                codes.append(self._call(cmd, outdir, config))
                times.append(time.perf_counter() - t0)
            wall = time.perf_counter() - start
        steal = steal_seconds() - steal
        layers = tracer.take_pass() if tracer else None
        families = dict.fromkeys(FAMILIES, 0.0)
        hashes = {}
        for cmd, outdir, code, dt in zip(self.commands, dirs, codes, times):
            families[family(cmd)] += dt
            problems = [f"exit code {code}"] if code != 0 else checker.check(cmd, outdir)
            self.attempted += 1
            if problems:
                self.failures.append({"pass": tag, "command": " ".join(cmd), "problems": problems})
            if not problems:  # a checked manifest names exactly the files written
                outputs = json.loads((outdir / "manifest.json").read_text())["outputs"]
                hashes.update({f"{outdir.name}/{name}": digest for name, digest in outputs.items()})
        commands = {" ".join(cmd): dt for cmd, dt in zip(self.commands, times)}
        return {
            "wall_s": wall,
            "steal_s": steal,
            "families": families,
            "commands": commands,
            "layers": layers,
            "hashes": hashes,
        }


def byte_drift(workload: str, hashes: dict) -> list:
    """Artifacts whose sha256 differs from golden.json (added or missing ones too)."""
    golden = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.is_file() else {}
    ref = golden.get("sha256", {})
    return sorted(name for name in set(ref) | set(hashes) if ref.get(name) != hashes.get(name))


def record_golden(workload: str, hashes: dict):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden[workload] = {"seed": REFERENCE_SEED, "sha256": dict(sorted(hashes.items()))}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def measure(runner, args, config, checker, tracer):
    """Passes for ``args.seconds``; with a tracer, untraced and traced alternate."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        use_tracer = tracer is not None and len(traced) < len(untraced)
        tag = f"{'traced' if use_tracer else 'pass'}{len(traced) + len(untraced)}"
        result = runner.run_pass(tag, config, checker, tracer if use_tracer else None)
        result["probe_s"] = host_probe()
        (traced if use_tracer else untraced).append(result)
        last = time.perf_counter() - t0
        enough = tracer is None or traced
        if enough and time.perf_counter() - start + last > args.seconds:
            return untraced, traced


def stat(values):
    """Median of per-pass samples, with the count and the percentile it supports."""
    n = len(values)
    return {"value": statistics.median(values), "n": n, "max_percentile": max_percentile(n)}


def single(value, n=1):
    """A value that is not a median over passes."""
    return {"value": value, "n": n, "max_percentile": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true", help="store the reference pass hashes and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "rydlink" / "cli.py").is_file():
        print(f"no rydlink sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    blas_threads = cap_blas_threads()
    workload = WORKLOADS[args.workload]
    rundir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    config = write_config(ROOT, workload, args.seed, rundir / "config.yaml")
    ref_config = write_config(ROOT, workload, REFERENCE_SEED, rundir / "reference.yaml")

    setup = [] if args.record_golden else [setup_sample(config) for _ in range(SETUP_SAMPLES)]

    sys.path.insert(0, str(ROOT / "src"))
    from checks import Checker
    from tracing import COMPUTED, UNMEASURED, Tracer

    runner = Runner(workload, rundir)
    reference = runner.run_pass("reference", ref_config, Checker(ref_config))
    if args.record_golden:
        if runner.failures:
            print(json.dumps(runner.failures, indent=1), file=sys.stderr)
            return 1
        record_golden(args.workload, reference["hashes"])
        print(f"recorded {len(reference['hashes'])} artifact hashes for {args.workload}")
        return 0
    changed = byte_drift(args.workload, reference["hashes"])

    tracer = Tracer() if args.trace else None
    untraced, traced = measure(runner, args, config, Checker(config), tracer)

    walls = [p["wall_s"] for p in untraced]
    report = {
        "wall_s": stat(walls),
        "setup_s": stat(setup),
        "peak_rss_mib": single(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        "host.probe_s": stat([p["probe_s"] for p in untraced + traced]),
        "host.steal_s": stat([p["steal_s"] for p in untraced]),
    }
    for name in FAMILIES:
        report[name] = stat([p["families"][name] for p in untraced])
    report["failed_frac"] = single(len(runner.failures) / runner.attempted, n=runner.attempted)
    report["cli.artifacts_changed"] = single(len(changed))
    if traced:
        for name in traced[0]["layers"]:
            report.setdefault(name, stat([p["layers"][name] for p in traced]))
        traced_walls = [p["wall_s"] for p in traced]
        report["trace.wall_s"] = stat(traced_walls)
        report["trace.overhead_s"] = single(statistics.median(traced_walls) - statistics.median(walls), n=len(traced))
        report["trace.unattributed_s"] = stat([p["wall_s"] - p["layers"]["trace.self_sum_s"] for p in traced])
        tracer.write_spans(rundir / "spans.jsonl")

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in report]
    if missing:
        print(f"benchmark does not compute declared metrics: {missing}", file=sys.stderr)
        return 1
    listed = bench["end_to_end"] + bench["per_layer"]
    order = [m["name"] for m in listed]
    units = {m["name"]: m["unit"] for m in listed}
    for name, entry in report.items():
        entry["unit"] = units.get(name) or ("count" if name.endswith(".calls") else "ratio" if name.endswith("_frac") else "s")
        entry["computed"] = name in COMPUTED
    report = dict(sorted(report.items(), key=lambda kv: order.index(kv[0]) if kv[0] in order else len(order)))

    prov = provenance(blas_threads)
    print(f"# rydlink benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g} passes={len(untraced)} untraced, {len(traced)} traced")
    print("# " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# {'metric':34s} {'value':>16s} {'unit':6s} {'n':>4s}  max pct")
    for name, e in report.items():
        pct = f"p{e['max_percentile']}" if e["max_percentile"] else "-"
        kind = "  computed" if e["computed"] else ""
        print(f"# {name:34s} {e['value']:16.6f} {e['unit']:6s} {e['n']:4d}  {pct:7s}{kind}".rstrip())
    for layer, why in UNMEASURED.items():
        print(f"# unmeasured layer {layer}: {why}")
    if tracer is not None and tracer.missing:
        print(f"# trace targets not found: {', '.join(tracer.missing)}")
    for error in sorted(tracer.hook_errors if tracer is not None else ()):
        print(f"# trace count hook failed: {error}")
    for name in changed:
        print(f"# artifact changed vs golden.json: {name}")
    for f in runner.failures:
        print(f"# FAILED {f['pass']}: {f['command']}: {'; '.join(f['problems'])}")

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]} for m in declared},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": prov,
        "report": report,
        "artifacts_changed": changed,
        "failures": runner.failures,
        "unmeasured": UNMEASURED,
        "trace_missing": tracer.missing if tracer is not None else [],
        "trace_hook_errors": sorted(tracer.hook_errors) if tracer is not None else [],
        "setup_samples": setup,
        "pass_walls": walls,
        "command_median_s": {c: statistics.median(p["commands"][c] for p in untraced) for c in untraced[0]["commands"]},
        "result": result,
    }
    (rundir / "result.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
