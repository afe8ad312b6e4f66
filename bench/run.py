"""skdv benchmark: one workload, one seed, for a fixed number of seconds.

Usage (from the repository root):

    python3 bench/run.py --workload run_readme --seed 0 --seconds 40 --trace 0

Every run is a fresh ``python3 bench/child.py`` process with one thread,
started after the previous one ended (a closed loop of one caller).  With
``--trace 0`` the benchmark makes set-up probes and whole runs, and reports
the end-to-end metrics over them (README.md says how).  With ``--trace 1`` it
alternates untraced and traced runs and reports the per-layer metrics of the
traced ones.  A fixed calibration kernel runs in this process before the
first child and after every child, and each child's times are scaled by the
calibrations near it (see ``calibrate``).  Every run is checked (check.py); the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details of every run and the machine context go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import check
import spans
from workloads import WORKLOADS, render_ini, variant_of

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().with_name("child.py")
OUT = ROOT / ".bench_out"
THREAD_ENV = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}
SETUP_PROBES = 7  # after one discarded warm-up probe
MIN_RUNS = 2  # untraced whole runs per invocation, however slow the machine is
CALIB_S = 0.25  # nominal calibration time; scaled times are in these seconds
CALIB_WINDOW_S = 5.0  # calibrations this close to a child scale its times
HARD_LIMIT_S = 165.0  # every invocation ends well inside 180 s
MIN_CHILD_TIMEOUT_S = 5.0


def context() -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": THREAD_ENV,
    }


def calibrate(n: int) -> float:
    """Seconds taken by a fixed split-step kernel on ``n`` points.

    Other tenants of a shared machine slow every process on its CPUs, in
    phases of seconds to hours.  The kernel is numpy work of the same kind
    as skdv's (a transform pair, a spectral multiplier and a pointwise
    phase), sized to take about CALIB_S on a 2.1 GHz Xeon.  A child's time
    times CALIB_S over the median calibration near it is its time on a
    machine where the kernel takes CALIB_S, so most of a slow phase
    cancels out.
    """
    import numpy as np

    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    u = (0.5 * np.exp(-((x - np.pi) ** 2)) + 0.1).astype(complex)
    phase = np.exp(-1e-3j * np.fft.fftfreq(n, 1.0 / n) ** 2)
    t0 = time.perf_counter()
    for _ in range(round(2.5e6 / n)):
        u = np.fft.ifft(np.fft.fft(u) * phase)
        u = u * np.exp(1e-3j * (u.real ** 2 + u.imag ** 2))
    return time.perf_counter() - t0


class Runner:
    """Starts child processes one at a time and keeps every run's record."""

    def __init__(self, workload, seed: int, work: Path, deadline: float,
                 recording: bool = False):
        """``recording``: compare with no reference, keep each run's digest instead."""
        self.workload = workload
        self.recording = recording
        self.variant = variant_of(seed)
        self.ini_text = render_ini(workload, self.variant)
        self.work = work
        self.deadline = deadline
        self.ini_path = work / "config.ini"
        self.ini_path.write_text(self.ini_text)
        self.reference = check.load_reference().get(workload.name, {}).get(str(self.variant))
        self.records: list[dict] = []
        self._spawned = 0
        self.grid_n = int(workload.value("grid", "n"))
        self.calibrations: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.spans_path = OUT / f"spans-{workload.name}.npz"

    def spawn(self, mode: str, trace: bool) -> tuple[dict, dict, Path]:
        """Start one child and wait for it: (record, child result, run directory).

        The caller checks the outputs in the run directory and removes it."""
        run_dir = self.work / f"run{self._spawned:03d}"
        self._spawned += 1
        run_dir.mkdir()
        job = {"mode": mode, "trace": trace, "cli": self.workload.cli,
               "ini_path": str(self.ini_path), "result_path": str(run_dir / "result.json"),
               "spans_path": str(self.spans_path)}
        job_path = run_dir / "job.json"
        job_path.write_text(json.dumps(job))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
        if not self.calibrations:
            self._calibrate()
        timeout = max(MIN_CHILD_TIMEOUT_S, self.deadline - time.perf_counter())
        with open(run_dir / "stdout.txt", "wb") as fo, open(run_dir / "stderr.txt", "wb") as fe:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(CHILD), str(job_path)],
                                    cwd=run_dir, env=env, stdout=fo, stderr=fe)
            try:
                proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            t_exit = time.perf_counter()
        self._calibrate()

        record = {"index": len(self.records), "mode": mode, "trace": trace,
                  "t_spawn": t_spawn, "t_exit": t_exit, "elapsed_s": t_exit - t_spawn,
                  "returncode": proc.returncode, "problems": []}
        result_file = run_dir / "result.json"
        result = json.loads(result_file.read_text()) if result_file.is_file() else {}
        if proc.returncode != 0 or not result.get("ok"):
            err = result.get("error") or (run_dir / "stderr.txt").read_text()[-2000:]
            record["problems"].append(f"child exit {proc.returncode}: {err.strip()}")
        else:
            record["setup_raw_s"] = result["t_setup"] - t_spawn
            record["rss_mb"] = result["rss_mb"]
            if mode == "run":
                record["wall_raw_s"] = result["t_end"] - result["t_setup"]
        return record, result, run_dir

    def _calibrate(self) -> None:
        t0 = time.perf_counter()
        seconds = calibrate(self.grid_n)
        self.calibrations.append((t0 + 0.5 * seconds, seconds))

    def scale_times(self) -> None:
        """Give every record ``setup_s`` and ``wall_s``: its raw times scaled by
        the median of the calibrations within CALIB_WINDOW_S of it.  Each
        child is followed by a calibration, so there is always one."""
        for r in self.records:
            r["calib_s"] = statistics.median(
                s for t, s in self.calibrations
                if r["t_spawn"] - CALIB_WINDOW_S <= t <= r["t_exit"] + CALIB_WINDOW_S)
            for key in ("setup", "wall"):
                if f"{key}_raw_s" in r:
                    r[f"{key}_s"] = r[f"{key}_raw_s"] * CALIB_S / r["calib_s"]

    def launch(self, mode: str, trace: bool) -> dict:
        """One checked run; its record is kept and returned."""
        record, result, run_dir = self.spawn(mode, trace)
        if mode == "run" and not record["problems"]:
            if self.reference is None and not self.recording:
                record["problems"].append(
                    f"no reference recorded for {self.workload.name} variant {self.variant}")
            digest, found = check.check_run(self.workload, self.ini_text, result, run_dir / "out",
                                            None if self.recording else self.reference)
            record["problems"] += found
            if self.recording:
                record["digest"] = digest
            if trace and not record["problems"]:
                record["layers"], record["absent"] = spans.layer_metrics(
                    self.spans_path, self.workload.steps, self.workload.snapshots)
        record["ok"] = not record["problems"]
        shutil.rmtree(run_dir, ignore_errors=True)
        self.records.append(record)
        return record

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()


def _values(records, key):
    return [r[key] for r in records if r["ok"] and key in r]


def _median(records, key):
    values = _values(records, key)
    return statistics.median(values) if values else None


def _repeat(runner: Runner, seconds: float, started: float, launch, minimum: int) -> None:
    """Call ``launch`` at least ``minimum`` times, then while another call of
    the last one's length still fits in ``seconds``."""
    for count in itertools.count(1):
        t0 = time.perf_counter()
        launch()
        t1 = time.perf_counter()
        if runner.remaining() <= 0 or (count >= minimum and t1 - started + (t1 - t0) > seconds):
            return


def measure_end_to_end(runner: Runner, seconds: float, started: float) -> dict:
    runner.launch("setup", trace=False)  # warm-up: file cache and bytecode
    for _ in range(SETUP_PROBES):
        runner.launch("setup", trace=False)
    _repeat(runner, seconds, started, lambda: runner.launch("run", trace=False), MIN_RUNS)
    runner.scale_times()
    measured = runner.records[1:]
    runs = [r for r in measured if r["mode"] == "run"]
    return {
        "setup_s": _median(measured, "setup_s"),
        "wall_s": _median(runs, "wall_s"),
        "peak_rss_mb": _median(runs, "rss_mb"),
    }


def measure_layers(runner: Runner, seconds: float, started: float) -> tuple[dict, list]:
    def pair():
        runner.launch("run", trace=False)
        runner.launch("run", trace=True)

    _repeat(runner, seconds, started, pair, 1)
    runner.scale_times()
    traced = [r for r in runner.records if r["trace"] and r["ok"]]
    plain = [r for r in runner.records if not r["trace"]]
    if not traced:
        return {}, []
    metrics = {m: statistics.median(r["layers"][m] for r in traced) for m in traced[0]["layers"]}
    wall_traced, wall_plain = _median(traced, "wall_s"), _median(plain, "wall_s")
    if wall_plain:
        metrics["trace.overhead_frac"] = wall_traced / wall_plain - 1.0
    return metrics, sorted({m for r in traced for m in r["absent"]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its child (Runner.spawn's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    started = time.perf_counter()
    os.environ.update(THREAD_ENV)  # before this process loads numpy to calibrate
    # One CPU for this process and every child, so that the calibration
    # sees the same contention as the runs it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "skdv" / "__init__.py").is_file():
        print(f"skdv sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = OUT / "work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, args.seed, work, started + HARD_LIMIT_S)
    try:
        if args.trace:
            metrics, absent = measure_layers(runner, args.seconds, started)
            units = {m: u for m, (u, _) in spans.LAYER_METRICS.items() if m not in absent}
            units["trace.overhead_frac"] = "frac"
        else:
            metrics, absent = measure_end_to_end(runner, args.seconds, started), []
            units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runner.records)
    failed = sum(not r["ok"] for r in runner.records)
    report = {
        "workload": workload.name, "seed": args.seed, "variant": runner.variant,
        "trace": args.trace, "seconds": args.seconds, "config": runner.ini_text,
        "context": context(), "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "metrics": metrics, "absent": absent,
        "runs": runner.records, "calibrations": runner.calibrations,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload.name}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(report, indent=1))

    for r in runner.records:
        if not r["ok"]:
            print(f"run {r['index']} ({r['mode']}) failed: " + "; ".join(r["problems"])[:2000],
                  file=sys.stderr)
    if absent:
        print(f"absent metrics (function no longer exists): {', '.join(absent)}", file=sys.stderr)
    if any(v is None for v in metrics.values()) or set(metrics) != set(units):
        print("no successful run to measure", file=sys.stderr)
        return 1
    ctx = report["context"]
    print(f"{workload.name} seed={args.seed} variant={runner.variant} trace={args.trace}: "
          f"{attempted} attempted, {failed} failed, error_rate={failed / attempted:g}; "
          f"nproc={ctx['nproc']} python={ctx['python']} numpy={ctx['numpy']} scipy={ctx['scipy']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
