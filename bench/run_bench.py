"""Benchmark of the equiflow package: one workload, one seed, one run.

Usage, from the repository root:

    python3 bench/run_bench.py --workload heat_vector --seed 1 --seconds 30 --trace 0

--seconds defaults to run_seconds in BENCHMARK.json, --seed to 1 and
--trace to 0.

The workloads and metric names are declared in BENCHMARK.json at the
repository root; the definitions behind them live in bench/workloads.py.
A run generates the workload's inputs from the seed, then repeats the
workload until --seconds have passed and reports medians.

--trace 0 reports the end-to-end metrics.  Only the calls that delimit
the phases are wrapped (tracing.PHASE_TARGETS); setup_s is the median of
the set-ups, cut off at the first time step, made before each iteration
(at least 7).  Timings are in reference seconds: a fixed kernel probes the
host's speed every 25 ms and the time between probes is scaled by it
(bench/hostspeed.py).  --trace 1 first repeats the
workload untraced for half the time, then wraps every public function of
the traced layers (bench/tracing.py) for the other half, and reports the
per-layer metrics plus the tracing overhead.

Every iteration is checked against acceptance-suite bounds; a failed
check is printed by name and counted as a failed operation.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run record with the environment,
per-iteration samples, output digests and (traced) the span file is
written under .bench_out/.  The program is imported from src/ of the
same checkout; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP pools are pinned before numpy loads: one worker keeps the
# timing of the small banded solves steady on a shared machine
THREADS = 1
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in _THREAD_VARS:
    os.environ[_var] = str(THREADS)
sys.dont_write_bytecode = True

import argparse
import json
import platform
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter
from typing import NoReturn

import hostspeed  # beside this file; loads numpy after the pinning above

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# at least this many set-ups per untraced run; their median is setup_s
SETUP_PROBES = 7


def _fail(message: str) -> NoReturn:
    """Stop before any result is printed."""
    print(f"run_bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_program():
    """Import equiflow from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import equiflow
    except ImportError as exc:
        _fail(f"cannot import equiflow from {SRC}: {exc}")
    origin = Path(equiflow.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        _fail(f"equiflow resolved to {origin}, outside {SRC}")
    return equiflow


def _declaration() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in _THREAD_VARS},
        "loadavg_1min_before": os.getloadavg()[0],
    }


def _repeat(workload, inputs, seconds: float, spans, tag: str, setup=None) -> list:
    """Run iterations for about `seconds` (at least one): another starts
    only if it should end less than half its length past `seconds`.  Each
    writes to its own output directory.  With a `setup` list, a set-up
    probe runs before each iteration and its (start, end) is appended."""
    done = []
    start = perf_counter()
    length = 0.0  # wall time of the last iteration
    while not done or perf_counter() - start + 0.5 * length < seconds:
        t = perf_counter()
        if setup is not None:
            setup.append(workload.setup_probe(inputs, inputs["work"] / "setup"))
        out = inputs["work"] / f"{tag}{len(done):03d}"
        out.mkdir()
        done.append(workload.run(inputs, out, spans))
        length = perf_counter() - t
    return done


def _median(values) -> float:
    return float(statistics.median(values))


def _retime(pacer, spans, iters) -> None:
    """Express every span and iteration window in reference seconds."""
    spans.retime(pacer.to_reference)
    for it in iters:
        lo, hi, t0, t1 = it.window
        it.window = (lo, hi, *pacer.to_reference([t0, t1]).tolist())


def _end_to_end(workload, inputs, seconds, tracing, package) -> tuple[dict, list, dict]:
    (inputs["work"] / "setup").mkdir()
    spans = tracing.Tracer()
    setup = []
    with hostspeed.Pacer() as pacer:
        spans.install(package, tracing.PHASE_TARGETS)
        try:
            iters = _repeat(workload, inputs, seconds, spans, "run", setup)
            while len(setup) < SETUP_PROBES:
                setup.append(workload.setup_probe(inputs, inputs["work"] / "setup"))
        finally:
            spans.restore()
    keys = ("wall_s", "evolve_s", "observe_s")

    def phases():
        return [tracing.phase_times(spans, it.window, workload.evolve, workload.observe)
                for it in iters]

    raw = phases()
    _retime(pacer, spans, iters)
    samples = phases()
    metrics = {key: _median(s[key] for s in samples) for key in keys}
    setup_s = [pacer.duration(t0, t1) for t0, t1 in setup]
    metrics["setup_s"] = _median(setup_s)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_clock = {key: _median(s[key] for s in raw) for key in keys}
    wall_clock["setup_s"] = _median(t1 - t0 for t0, t1 in setup)
    detail = {
        "iterations": samples,
        "setup_probes_s": setup_s,
        "wall_clock_iterations": raw,
        "wall_clock_setup_probes_s": [t1 - t0 for t0, t1 in setup],
        "wall_clock_medians": wall_clock,
        "host_speed": pacer.summary(),
    }
    return metrics, iters, detail


def _per_layer(workload, inputs, seconds, tracing, package, record_dir: Path, stem: str):
    idle = tracing.Tracer()  # nothing installed: untraced reference timing
    spans = tracing.Tracer()
    spans.keep_results.add("modulation.fit_mu")
    with hostspeed.Pacer() as pacer:
        plain = _repeat(workload, inputs, 0.5 * seconds, idle, "plain")
        spans.install(package, tracing.public_targets(package))
        try:
            traced = _repeat(workload, inputs, 0.5 * seconds, spans, "traced")
        finally:
            spans.restore()
    _retime(pacer, spans, plain + traced)
    spans.write(record_dir / f"{stem}-spans.csv.gz")

    k = len(traced)
    table = spans.self_times()
    plain_wall = [t1 - t0 for _, _, t0, t1 in (it.window for it in plain)]
    traced_wall = [t1 - t0 for _, _, t0, t1 in (it.window for it in traced)]
    wall = sum(traced_wall)

    def calls(name):
        return table.get(name, (0, 0.0, 0.0))[0] / k

    def self_s(name):
        return table.get(name, (0, 0.0, 0.0))[2] / k

    def incl_s(name):
        return table.get(name, (0, 0.0, 0.0))[1] / k

    def pct_ms(name, q):
        d = sorted(spans.durations(name))
        if not d:
            return 0.0
        return 1e3 * d[min(len(d) - 1, int(q * len(d)))]

    def ratio(num, den):
        return num / den if den else 0.0

    under_reconstruct = 0
    recon = {i for i, name in enumerate(spans.names) if name == "gauge.reconstruct_v"}
    for i, name in enumerate(spans.names):
        if name == "gauge.transport_frame":
            up = spans.parent[i]
            while up >= 0 and up not in recon:
                up = spans.parent[up]
            under_reconstruct += up >= 0
    fits = spans.results["modulation.fit_mu"]

    m = {}
    m["evolve_llg.step_vector.calls"] = calls("evolve_llg.step_vector")
    m["evolve_llg.step_vector.ms_p50"] = pct_ms("evolve_llg.step_vector", 0.5)
    m["evolve_llg.step_vector.ms_p90"] = pct_ms("evolve_llg.step_vector", 0.9)
    m["evolve_llg.step_vector.wall_frac"] = incl_s("evolve_llg.step_vector") * k / wall
    for name in ("evolve_llg.assemble", "evolve_llg.solve_banded.vector"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["evolve_llg.outer_iters_per_step"] = ratio(
        calls("evolve_llg.solve_banded.vector"), calls("evolve_llg.step_vector")
    )
    m["evolve_llg.dissipation_rate.self_s"] = self_s("evolve_llg.dissipation_rate")
    m["evolve_llg.scheme_energy.self_s"] = self_s("evolve_llg.scheme_energy")
    m["evolve_llg.step_scalar.calls"] = calls("evolve_llg.step_scalar")
    m["evolve_llg.step_scalar.ms_p50"] = pct_ms("evolve_llg.step_scalar", 0.5)
    m["evolve_llg.solve_banded.scalar.self_s"] = self_s("evolve_llg.solve_banded.scalar")
    m["evolve_llg.newton_per_step"] = ratio(
        calls("evolve_llg.solve_banded.scalar"), calls("evolve_llg.step_scalar")
    )
    m["gauge.hasimoto_forward.calls"] = calls("gauge.hasimoto_forward")
    m["gauge.hasimoto_forward.self_s"] = self_s("gauge.hasimoto_forward")
    m["gauge.transport_frame.calls"] = calls("gauge.transport_frame")
    m["gauge.transport_frame.self_s"] = self_s("gauge.transport_frame")
    m["gauge.transport_frame.ms_p50"] = pct_ms("gauge.transport_frame", 0.5)
    m["gauge.transport_frame.wall_frac"] = incl_s("gauge.transport_frame") * k / wall
    m["gauge.reconstruct_v.calls"] = calls("gauge.reconstruct_v")
    m["gauge.reconstruct_v.self_s"] = self_s("gauge.reconstruct_v")
    m["gauge.transports_per_reconstruct"] = ratio(
        under_reconstruct / k, calls("gauge.reconstruct_v")
    )
    m["modulation.fit_mu.calls"] = calls("modulation.fit_mu")
    m["modulation.fit_mu.self_s"] = self_s("modulation.fit_mu")
    m["modulation.fit_mu.iterations_mean"] = ratio(
        sum(state.iterations for state in fits), len(fits)
    )
    m["modulation.r_inverse.calls"] = calls("modulation.r_inverse")
    m["modulation.r_inverse.self_s"] = self_s("modulation.r_inverse")
    m["modulation.psi_and_c.self_s"] = self_s("modulation.psi_and_c")
    m["modulation.normal_form_correction.self_s"] = self_s("modulation.normal_form_correction")
    m["harmonic_family.h_profile.calls"] = calls("harmonic_family.h_profile")
    m["harmonic_family.h_profile.self_s"] = self_s("harmonic_family.h_profile")
    m["harmonic_family.energy.self_s"] = self_s("harmonic_family.energy")
    for name in ("radial_grid.d_rho", "radial_grid.d2_rho", "radial_grid.cell_dr"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["scenarios.build_initial_data.self_s"] = self_s("scenarios.build_initial_data")
    m["scenarios.predict_log_s.self_s"] = self_s("scenarios.predict_log_s")
    m["cli_io.parse_config.self_s"] = self_s("cli_io.parse_config")
    m["cli_io.load_snapshot.self_s"] = self_s("cli_io.load_snapshot")
    m["cli_io.write_s"] = incl_s("cli_io._write_table") + incl_s("cli_io.save_snapshot")
    m["cli_io.bytes_written"] = _median(it.bytes_written for it in traced)
    m["trace.overhead_frac"] = _median(traced_wall) / _median(plain_wall) - 1.0
    m["src.lines"] = float(
        sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.glob("equiflow/*.py")))
    )
    detail = {
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "host_speed": pacer.summary(),
    }
    return m, plain + traced, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = _declaration()
    if args.seconds is None:
        args.seconds = float(declared["run_seconds"])
    package = _load_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    declared_workloads = {entry["name"] for entry in declared["workloads"]}
    if args.workload not in declared_workloads or args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    group = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in declared[group]}

    env = _environment()
    print("environment " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{stem}-pid{os.getpid()}"
    work.mkdir()
    try:
        inputs = workload.prepare(args.seed, work)
        if args.trace:
            metrics, iters, detail = _per_layer(
                workload, inputs, args.seconds, tracing, package, OUT, stem
            )
        else:
            metrics, iters, detail = _end_to_end(workload, inputs, args.seconds, tracing, package)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)
    # correctness figures; metrics of the traced run, printed as notes otherwise
    notes = {"fail_frac": failed / attempted}
    for key in ("energy_resid", "roundtrip_err"):
        notes[key] = max(it.accuracy.get(key, 0.0) for it in iters)
    if args.trace:
        metrics.update(notes)
    if set(metrics) != set(units):
        _fail(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    failures = sorted({name for it in iters for name in it.failures})
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(iters)} iterations, {attempted} operations, {failed} failed")
    for name in failures:
        print(f"FAILED check {name}")
    if not args.trace:
        for key, value in notes.items():
            print(f"{key} = {value:.6g} 1")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in detail.get("wall_clock_medians", {}).items():
        print(f"{name} = {value:.6g} s on the wall clock")
    print("host speed " + json.dumps(detail["host_speed"], sort_keys=True))
    digests = iters[-1].digests
    for name, digest in digests.items():
        print(f"sha256 {name} {digest}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "metrics": metrics,
        "notes": notes,
        "failures": failures,
        "digests": digests,
        "timing": detail,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
