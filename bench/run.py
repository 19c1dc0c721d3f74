"""irlv benchmark: run the irlv CLI on a fixed workload and print its metrics.

    python3 bench/run.py --workload roc-sweep --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's `src/`, nothing needs installing.  Each
round starts the CLI in a fresh process with `--jobs 1`, one process at a
time.  Rounds repeat while the next one is expected to end within
--seconds (at least three rounds).

--trace 0 reports the end-to-end metrics, as medians over the rounds:
wall_s, cpu_s (user + system, all threads), peak_rss_mib, and setup_s
(interpreter start, `import irlv.cli` and `load_config`, timed in a
process of its own before every other round).  --trace 1 alternates an untraced
round with a traced one (bench/traced_cli.py) and reports the per-layer
metrics.  Every round's outputs are checked (bench/checks.py).  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, render

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

MIN_ROUNDS = 3
# set-up is timed in a process of its own before every SETUP_EVERY-th round
SETUP_EVERY = 2
# a run must end within 180 s; processes still running at this point are killed
DEADLINE_S = 170.0

PROBE = r"""
import ctypes, glob, json, os, sys
import numpy, scipy, irlv, irlv.cli
info = {"irlv": irlv.__file__, "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "openblas": "unknown", "blas_threads": "unknown"}
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    lib = ctypes.CDLL(path)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype, get_config.restype = ctypes.c_int, ctypes.c_char_p
                info["blas_threads"] = get_threads()
                info["openblas"] = get_config().decode().split()[1]
print(json.dumps(info))
"""

SETUP = "import sys, irlv.cli; from irlv.config import load_config; load_config(sys.argv[1])"

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    log: Path


def child_env() -> dict:
    """The caller's environment with the checkout's sources, and bytecode
    caches allowed so that only the untimed probe compiles them."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_process(argv, log: Path, deadline: float) -> Proc:
    """Run one process to its end; wall time, CPU time and peak RSS of it
    (and of any children it waited for)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], env=child_env(), cwd=ROOT,
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, log)


def cli_argv(command: str, cfg: Path, out: Path, jobs: int = 1) -> list:
    return ["-m", "irlv.cli", command, "--config", cfg, "--out", out, "--jobs", jobs]


def probe(work: Path, deadline: float) -> dict:
    """Versions and BLAS threads in effect; also compiles the sources, so
    the timed rounds that follow do not."""
    p = run_process([sys.executable, "-c", PROBE], work / "probe.log", deadline)
    text = p.log.read_text()
    if p.code != 0:
        raise RuntimeError(f"cannot import irlv from {SRC}:\n{text}")
    info = json.loads(text.strip().splitlines()[-1])
    if not Path(info["irlv"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"irlv was imported from {info['irlv']}, not from {SRC}")
    return info


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_rounds(workload, config, outs: list[Path]) -> list[str]:
    """Check the first round's outputs in full and that every later round
    wrote the same files; returns the failures."""
    try:
        first = checks.check_manifest(outs[0])
        workload.check(outs[0], config)
        for i, out in enumerate(outs[1:], 1):
            checks.check_same_outputs(first, checks.check_manifest(out), f"round {i}")
    except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return []


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run of one workload."""
    workload = WORKLOADS[name]
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = work / "run.cfg"
    cfg.write_text(render(workload.config, seed))
    info = probe(work, deadline)

    py = sys.executable
    samples: dict[str, list[float]] = {}
    units = {} if trace else dict(END_TO_END_UNITS)
    outs, errors, failures = [], [], []
    attempted = failed = 0
    round_s: list[float] = []
    t0 = time.perf_counter()
    # whole rounds only: start another while it is expected to end in time
    while attempted < MIN_ROUNDS or time.perf_counter() - t0 + statistics.median(round_s) < seconds:
        i = attempted
        attempted += 1
        start = time.perf_counter()
        out = work / f"round{i}"
        setup = None
        if trace:
            plain = run_process([py, *cli_argv(workload.command, cfg, out)], work / f"round{i}.log", deadline)
            spans = work / f"spans{i}.json"
            traced = run_process(
                [py, BENCH / "traced_cli.py", spans, *cli_argv(workload.command, cfg, work / f"traced{i}")[2:]],
                work / f"traced{i}.log", deadline)
            procs = [plain, traced]
        else:
            if i % SETUP_EVERY == 0:
                setup = run_process([py, "-c", SETUP, cfg], work / f"setup{i}.log", deadline)
            plain = run_process([py, *cli_argv(workload.command, cfg, out)], work / f"round{i}.log", deadline)
            procs = [p for p in (setup, plain) if p is not None]
        round_s.append(time.perf_counter() - start)
        bad = [p for p in procs if p.code != 0]
        if bad:
            failed += 1
            errors += [f"{p.log.name}: exit {p.code}\n{p.log.read_text()[-2000:]}" for p in bad]
            continue
        outs.append(out)
        if trace:
            failures += check_same_traced(out, work / f"traced{i}")
            metrics = tracer.layer_metrics(json.loads(spans.read_text()), traced.wall_s, plain.wall_s)
            for key, (value, unit) in metrics.items():
                samples.setdefault(key, []).append(value)
                units[key] = unit
        else:
            measured = {"wall_s": plain.wall_s, "cpu_s": plain.cpu_s, "peak_rss_mib": plain.peak_rss_mib}
            if setup is not None:
                measured["setup_s"] = setup.wall_s
            for key, value in measured.items():
                samples.setdefault(key, []).append(value)
    if outs:
        failures += check_rounds(workload, workload.config, outs)
    if not failures and not errors:
        shutil.rmtree(work)
    return {
        "workload": name, "seed": seed, "info": info, "failures": failures, "errors": errors,
        "attempted": attempted, "failed": failed, "units": units, "samples": samples,
        "elapsed_s": time.perf_counter() - t_start,
    }


def check_same_traced(out: Path, traced_out: Path) -> list[str]:
    try:
        checks.check_same_outputs(checks.check_manifest(out), checks.check_manifest(traced_out),
                                  "traced run")
    except (checks.CheckFailed, OSError) as exc:
        return [f"{type(exc).__name__}: {exc}"]
    return []


def summarize(result: dict) -> dict:
    metrics = {}
    for key, unit in result["units"].items():
        values = result["samples"].get(key)
        if values:
            metrics[key] = {"value": statistics.median(values), "unit": unit}
    return metrics


def report(result: dict) -> None:
    name, info = result["workload"], result["info"]
    print(f"{name}: seed {result['seed']}, nproc {info['nproc']}, python {info['python']}, "
          f"numpy {info['numpy']}, scipy {info['scipy']}, OpenBLAS {info['openblas']} "
          f"with {info['blas_threads']} threads")
    for key, unit in result["units"].items():
        values = result["samples"].get(key)
        if values:
            q1, q2, q3 = quartiles(values)
            print(f"{name}: {key} = {q2:.6g} {unit} (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})")
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"{'checks passed' if not result['failures'] else 'CHECKS FAILED'}, "
          f"{result['elapsed_s']:.1f} s")
    for message in result["errors"] + result["failures"]:
        print(f"{name}: {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=28.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "irlv" / "cli.py").is_file():
        print(f"error: no irlv sources at {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        results.append(result)
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + k: v for k, v in summarize(result).items()})
    print(json.dumps({
        "correct": all(not r["failures"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
