"""magbeam benchmark driver.

    python3 perfbench/run.py --workload {calibrate,forward,invert} \
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository. The driver builds the workload's
inputs from ``--seed``, then repeats the workload's fixed work (a pass)
until ``--seconds`` have elapsed, checks every output, and prints one
``metric <name> <value> <unit>`` line per metric, a ``record`` line
describing the machine and inputs, and, last, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The run binds itself to one CPU and samples the host's speed between
requests (refspeed.py); every request's time is scaled to a reference
host speed, so that a slow spell of the shared host does not read as a
slower program.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half
the time on untraced passes and half on passes with every public magbeam
function wrapped in a span, then replays visited poses through per-call
probes, and reports the per-layer metrics. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
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
from pathlib import Path

from refspeed import NOMINAL_S, reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import magbeam, magbeam.cli
from magbeam.config import default_config_path, load_config
load_config(default_config_path())
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from refspeed import reference
print(t1 - t0, *(reference() for _ in range(5)))
"""

# Share of each request's time spent, after it, on sampling the host speed.
REF_SHARE = 0.1

# Printed and reported in this order. fail_ratio is printed but carried in
# the result line as attempted/failed: its value is 0 on a correct run, so
# it cannot be a metric bounded by a share of its parent's value.
UNITS = {"wall_s": "s", "target_p50_ms": "ms", "target_max_ms": "ms",
         "peak_rss_mb": "MB", "setup_s": "s"}


PER_LAYER_UNITS = {
    "geomag.calibrated_field.us": "us", "geomag.ring_dipole_moment.us": "us",
    "geomag.tip_wrench.us": "us", "geomag.tip_wrench.calls": "count",
    "beam.tip_pose_from_wrench.us": "us",
    "equilibrium.solve_tip_pose.calls": "count", "equilibrium.solve_tip_pose.self_s": "s",
    "equilibrium.us_per_iter": "us", "equilibrium.iters_per_solve": "iter",
    "equilibrium.iters_max": "iter", "equilibrium.solve_cold.us": "us",
    "equilibrium.solve_warm.us": "us", "equilibrium.fail.divergence": "count",
    "equilibrium.fail.singular": "count", "equilibrium.fail.max_iter": "count",
    "equilibrium.sweep.self_s": "s", "equilibrium.invert_controls.self_s": "s",
    "calibration.grid_search_calibrate.self_s": "s", "calibration.cell_ms": "ms",
    "calibration.feasible_cell_ratio": "ratio", "calibration.load_experiment_csv.ms": "ms",
    "workspace.fit_ellipse.ms": "ms", "config.load_config.ms": "ms", "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def measure_setup(runs: int) -> float:
    """Median in-process time of a fresh interpreter to import magbeam and
    magbeam.cli and load the demonstrator config, scaled to the reference
    host speed (see refspeed.py) that the same interpreters measure right
    after. One unrecorded run first leaves compiled bytecode behind, as
    any installed copy has."""
    times, refs = [], []
    for k in range(runs + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE)], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        if k:
            t, *ref = map(float, out.stdout.split())
            times.append(t)
            refs += ref
    return statistics.median(times) * NOMINAL_S / statistics.median(refs)


def pin_to_one_cpu() -> tuple[int, int]:
    """Bind this process, its threads and its children to one CPU; return
    the number of CPUs it could use before and the one it now uses.

    The CPUs of the shared host slow down independently of each other, so
    the host-speed samples only describe the workload when both run on
    the same CPU. magbeam's calibration threads take turns on the GIL and
    gain nothing from a second CPU (see README.md, Noise)."""
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    return len(cpus), cpu


def machine_record(nproc: int, cpu_used: int) -> dict:
    import numpy
    import scipy
    from magbeam.calibration import default_thread_count

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "magbeam").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": nproc, "pinned_cpu": cpu_used, "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_commit": git_commit(), "source_sha256": digest.hexdigest(),
        "calibration_threads": default_thread_count(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark checkout is usually not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Repeats passes of one workload, times each request and checks the
    outputs: in full on the first pass, by exact repetition afterwards.
    After each request it samples the host speed for ``REF_SHARE`` of the
    request's time, at least once, and scales the request's time by the
    mean of the samples just before and just after it (see refspeed.py)."""

    def __init__(self, workload):
        self.w = workload
        self.latency: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference = None
        reference()  # warm-up, not recorded
        self.refs: list[float] = []
        self.last = self.sample_host(0.05)

    def sample_host(self, seconds: float) -> list[float]:
        """Time the reference for about ``seconds``, at least once."""
        batch = []
        while not batch or sum(batch) < seconds:
            batch.append(reference())
        self.refs += batch
        return batch

    def host_scale(self) -> float:
        """Factor that turns this run's raw times into reference-host
        times, taken over the whole run."""
        return NOMINAL_S / statistics.median(self.refs)

    def run_pass(self, tracer=None) -> float:
        codes, errors, latency = {}, [], {}
        for key, call in self.w.requests():
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                codes.update(call())
            except Exception as exc:  # counted as a failed operation
                errors.append(f"{key}: {type(exc).__name__}: {exc}")
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.uninstall()
            after = self.sample_host(REF_SHARE * dt)
            dt *= NOMINAL_S / statistics.fmean(self.last + after)
            self.last = after
            latency[key] = latency.get(key, 0.0) + dt
        for key, dt in latency.items():
            self.latency.setdefault(key, []).append(dt)
        wall = sum(latency.values())
        ops = self.w.ops
        self.attempted += len(ops)
        if errors:
            self.failed += len(ops)
            self.failures += errors
            return wall
        out = self.w.outputs(codes)
        if self.reference is None:
            fails = self.w.check(out)
            if not fails:
                self.reference = self.w.signature(out)
        elif self.w.signature(out) != self.reference:
            fails = [(op, "output differs from the first pass") for op in ops]
        else:
            fails = []
        self.failed += len({op for op, _ in fails})
        self.failures += [f"{op}: {msg}" for op, msg in fails]
        return wall

    def loop(self, seconds: float, tracer=None) -> list[float]:
        walls = []
        t_end = time.perf_counter() + seconds
        while not walls or time.perf_counter() < t_end:
            walls.append(self.run_pass(tracer))
        return walls


def end_to_end(runner: Runner, walls: list[float], setup_s: float) -> dict[str, float]:
    # Each request's latency is the median of its repeats, so one stall
    # does not become the run's slowest target. The times are already
    # scaled to the reference host speed.
    per_request = [statistics.median(v) for v in runner.latency.values()]
    return {
        "wall_s": statistics.median(walls),
        "target_p50_ms": statistics.median(per_request) * 1e3,
        "target_max_ms": max(per_request) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(runner, cfg, seconds: float, trace_path: Path) -> dict[str, float]:
    import probes
    from tracer import Tracer, self_times

    untraced = runner.loop(seconds / 2)
    tracer = Tracer()
    traced = runner.loop(seconds / 2, tracer)
    tracer.write(trace_path)
    spans = tracer.spans
    n = len(traced)
    own = self_times(spans)
    calls, self_s = {}, {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]
    solves = [s for s in spans if s.name == "equilibrium.solve_tip_pose"]
    done = [s for s in solves if s.result is not None]
    iters = [s.result.iterations for s in done]
    solve_self = sum(own[s.id] for s in done)

    m = {
        "geomag.tip_wrench.calls": calls.get("geomag.tip_wrench", 0) / n,
        "equilibrium.solve_tip_pose.calls": len(solves) / n,
        "equilibrium.solve_tip_pose.self_s": self_s.get("equilibrium.solve_tip_pose", 0.0) / n,
        "equilibrium.us_per_iter": solve_self / sum(iters) * 1e6 if iters else 0.0,
        "equilibrium.iters_per_solve": statistics.fmean(iters) if iters else 0.0,
        "equilibrium.iters_max": max(iters, default=0),
        "equilibrium.fail.divergence":
            sum(s.error == "DivergenceError" for s in solves) / n,
        "equilibrium.fail.singular":
            sum(s.error == "FieldSingularityError" for s in solves) / n,
        "equilibrium.fail.max_iter": sum(not s.result.converged for s in done) / n,
    }
    for name in ("equilibrium.sweep", "equilibrium.invert_controls",
                 "calibration.grid_search_calibrate", "cli.main"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    m.update(probes.pose_probes(spans))
    stage, probe_surfaces = probes.stage_probes(cfg)
    m.update(stage)
    surfaces = [s.result.error_surface for s in spans
                if s.name == "calibration.grid_search_calibrate" and s.result is not None]
    m["calibration.feasible_cell_ratio"] = probes.finite_ratio(surfaces or probe_surfaces)
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["calibrate", "forward", "invert"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: 3x3 grid, 5-point sweep, one target on a 6x6 grid")
    args = ap.parse_args(argv)

    if not (SRC / "magbeam" / "__init__.py").is_file():
        print(f"error: no magbeam source under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import magbeam
    if not Path(magbeam.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported magbeam from {magbeam.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from magbeam.config import default_config_path, load_config
    from workloads import WORKLOADS

    nproc, cpu_used = pin_to_one_cpu()

    setup_s = measure_setup(1 if args.smoke else 7) if args.trace == 0 else None
    cfg = load_config(default_config_path())
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](cfg, args.seed, workdir, smoke=args.smoke)
        runner = Runner(workload)
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics = per_layer(runner, cfg, args.seconds, trace_path)
            units = PER_LAYER_UNITS
        else:
            walls = runner.loop(args.seconds)
            metrics = end_to_end(runner, walls, setup_s)
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    fail_ratio = runner.failed / runner.attempted
    for msg in runner.failures:
        print(f"failure {msg}")
    for k, u in units.items():
        print(f"metric {k} {metrics[k]!r} {u}")
    print(f"metric fail_ratio {fail_ratio!r} ratio")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "passes": len(next(iter(runner.latency.values()))),
              "inputs": workload.seed_inputs, "machine": machine_record(nproc, cpu_used),
              "host_scale": runner.host_scale(), "host_samples": len(runner.refs),
              "request_ms": {k: [round(t * 1e3, 1) for t in v] for k, v in runner.latency.items()}}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
