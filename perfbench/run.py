"""Benchmark of the vortex-atlas command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload trajectories --seed 1 --seconds 20 --trace 0

The benchmark writes seeded input files into ``.perfbench_work/`` in the
checkout, calls ``vortex_atlas.atlas.main`` on them in this process (one
process, no load-generator threads), checks every output, and repeats the
workload's pass of commands until ``--seconds`` have been spent (at least
one pass).  Each command's wall time is normalised to a fixed CPU speed
(see ``speed.py``); timings are medians over the passes.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the package's
public functions are wrapped in spans (see ``tracing.py``) and the last
line holds the per-layer metrics instead.  The line before it is a JSON
object with the details: the machine, the per-command times under the
names used in ``README.md``, the exact counts and any failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
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

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from speed import SpeedSampler, normalised  # noqa: E402
from tracing import Tracer, unit  # noqa: E402

SETUP_REPEATS = 5
SETUP_SNIPPET = """
import time
start = time.perf_counter()
from vortex_atlas.atlas import main
try:
    main([])
except SystemExit:
    pass
print(repr(time.perf_counter() - start))
"""


def measure_setup(root: Path) -> list[float]:
    """Fresh-interpreter import of the CLI up to a parser that has run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def blas_threads() -> dict[str, int]:
    """Threads each loaded OpenBLAS library will use."""
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                out[Path(path).name] = int(getattr(lib, symbol)())
                break
    return out


def machine(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unavailable (not a git checkout)"
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "source_sha256": wl.source_digest(root),
        "seed": seed,
    }


Timing = tuple[float, list[float]]


def invoke(command: wl.Command, sampler: SpeedSampler) -> tuple[wl.Outcome, Timing]:
    """Run one CLI command in this process; return its outcome, its wall time
    less the speed samples' own time, and the speed samples."""
    from vortex_atlas.atlas import main

    out, err = io.StringIO(), io.StringIO()
    with sampler:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(command.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is this command's failure
                traceback.print_exc()
                code = -1
        elapsed = time.perf_counter() - start - sampler.overhead_s
    outcome = wl.Outcome(code, out.getvalue(), err.getvalue(), command.out_path)
    return outcome, (elapsed, sampler.samples)


def run_pass(commands: list[wl.Command], tracer) -> tuple[list[Timing | None], wl.Tally]:
    """Run every command once; return each one's timing and the checks."""
    times: list[Timing | None] = []
    tally = wl.Tally()
    sampler = SpeedSampler()
    for command in commands:
        if tracer:
            tracer.recorder.group = command.group
        if command.argv:
            outcome, timing = invoke(command, sampler)
        else:
            outcome, timing = wl.Outcome(-1, "", "", None), None
        times.append(timing)
        try:
            tally.add(command.check(outcome))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            tally.expect(False, f"{command.argv[:1]}: unreadable output: {exc!r}")
        if command.out_path is not None:
            with contextlib.suppress(OSError):
                command.out_path.unlink()
    return times, tally


def command_figures(workload: str, groups: dict[str, float], counts: dict) -> dict[str, float]:
    """Per-command end-to-end figures for the detail line (see README.md)."""
    if workload == "trajectories":
        return {"traj.simulate_s": sum(groups.values())}
    if workload == "family_scan":
        return {
            "scan.sweep_points_per_s": counts["sweep.rows"] / groups["sweep"],
            "scan.thresholds_s": groups["thresholds"],
            "scan.classify_per_s": counts["classify.calls"] / groups["classify"],
        }
    return {"diagram.pairs2_s": groups["pairs2"], "diagram.pairs3_s": groups["pairs3"]}


def detail_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return {"peak_rss_mb": "MB", "failed_ratio": "ratio"}[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "vortex_atlas" / "atlas.py").is_file():
        print(f"no vortex_atlas source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    setup = [] if args.trace else measure_setup(root)
    import vortex_atlas.atlas  # noqa: F401  (loaded before any command is timed)

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        reference = wl.load_reference()
        commands = wl.WORKLOADS[args.workload](args.seed, work, reference)
        if tracer:
            tracer.install()
        times: list[list[Timing | None]] = []
        recorders = []
        tally = wl.Tally()
        counts_per_pass = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            pass_times, pass_tally = run_pass(commands, tracer)
            pass_s = time.perf_counter() - pass_start
            times.append(pass_times)
            tally.add(pass_tally)
            counts = dict(pass_tally.counts)
            if tracer:
                recorders.append(tracer.new_pass())
                counts.update(recorders[-1].exact_counts())
            counts_per_pass.append(counts)
            if time.perf_counter() - start + pass_s > args.seconds:
                break
        if tracer:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    # Exact counts must repeat from pass to pass on the same inputs.
    for counts in counts_per_pass[1:]:
        tally.expect(counts == counts_per_pass[0], "exact counts differ between passes")

    # A group's time in one pass is the wall time of its commands normalised
    # by the speed samples taken while they ran; its time in the run is the
    # median over the passes, and the pass time is the sum of those medians.
    names = list(dict.fromkeys(c.group for c in commands if c.argv))
    per_pass: dict[str, list[tuple[float, float, float]]] = {g: [] for g in names}
    for pass_times in times:
        for group in names:
            timings = [
                t for c, t in zip(commands, pass_times) if c.group == group and t is not None
            ]
            wall = sum(t[0] for t in timings)
            samples = [x for t in timings for x in t[1]]
            per_pass[group].append(
                (normalised(wall, samples), wall, sum(samples) / len(samples))
            )
    groups = {g: statistics.median(v[0] for v in per_pass[g]) for g in names}
    pass_norm_s = sum(groups.values())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(times),
        "machine": machine(root, args.seed),
        "group_s": groups,
        "group_wall_s": {g: statistics.median(v[1] for v in per_pass[g]) for g in names},
        "calibration_mean_ms": {
            g: statistics.median(v[2] * 1e3 for v in per_pass[g]) for g in names
        },
        "metrics": {
            name: {"value": value, "unit": detail_unit(name)}
            for name, value in {
                **command_figures(args.workload, groups, counts_per_pass[0]),
                "setup_s": statistics.median(setup) if setup else None,
                "peak_rss_mb": peak_rss_mb,
                "failed_ratio": tally.failed / tally.attempted,
            }.items()
        },
        "exact_counts": counts_per_pass[0],
        "failures": tally.messages,
    }

    if args.trace:
        rows = len(reference["thresholds"]) if "thresholds" in groups else 0
        layers = [recorder.per_layer(rows) for recorder in recorders]
        metrics = {
            name: statistics.median(layer[name] for layer in layers) for name in layers[0]
        }
        metrics["trace.pass_norm_s"] = pass_norm_s
        units = {name: unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_norm_s": pass_norm_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "pass_norm_s": "s", "peak_rss_mb": "MB"}

    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
