#!/usr/bin/env python3
"""lexsynth benchmark: run one workload through ``lexsynth.cli.main`` and
report end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload induce-31k --seed 20 --seconds 50 --trace 0

Set-up writes the workload's inputs from ``--seed`` into a fresh directory
under ``.perfbench/`` and times fresh interpreters importing the CLI
(``setup_s``). Then, for ``--seconds``, it runs the workload's commands one
after another, each whole workload in a fresh single-threaded process
(closed loop, one client), and checks every output file after each run:
the first run against the workload's invariants, every run against the
recorded SHA-256 digests of the seed or, lacking those, against the first
run's. It starts no run that would end past ``--seconds`` of workload runs
(output checks not counted), but always makes one (with ``--trace 1``, one
of each kind). With ``--trace 1`` untraced and traced runs alternate, and the traced ones
record spans around each module's functions.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it give the same
numbers for people, with ``failed_share`` and the environment. A run that
cannot set up (for example, no ``src/lexsynth`` in the checkout) exits
non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

END_TO_END = {
    "wall_s": "s",
    "tokens_per_s": "1/s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
    "setup_s": "s",
}

# Set-up is timed before the first workload run and again after each one,
# so its median spans the whole run rather than one moment of it.
SETUP_SAMPLES = 4
SETUP_PROBE = """\
import json, os, platform, sys
import lexsynth.cli
import lexsynth.align as align
import numpy
print(json.dumps({
    "backend": align.backend_name() if hasattr(align, "backend_name") else "unavailable",
    "nproc": len(os.sched_getaffinity(0)),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
}))
"""
CHILD_TIMEOUT_S = 150


class SetupError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Cache bytecode as an installed package would, so set-up time does not
    # depend on whether the caller's environment disables it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(samples: int, warm_up: bool = False) -> tuple[list[float], dict]:
    """Wall time of fresh interpreters that import the CLI and select the
    EM backend; returns the timings and the environment the last one saw.
    A warm-up start, untimed, fills the bytecode cache first."""
    times = []
    env_info = {}
    for n in range(samples + warm_up):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - started
        if proc.returncode != 0:
            raise SetupError(f"cannot import lexsynth.cli from {SRC}:\n{proc.stderr}")
        env_info = json.loads(proc.stdout)
        if n or not warm_up:
            times.append(elapsed)
    return times, env_info


class Runner:
    """Runs one workload's commands in fresh child processes."""

    def __init__(self, work: Path, log: Path):
        self.work = work
        self.log = log
        self._n = 0

    def run(self, commands, trace: bool) -> dict | None:
        """The child's record, or None when the child itself failed."""
        self._n += 1
        record = self.work.parent / f"record-{self._n}.json"
        spec = self.work.parent / f"spec-{self._n}.json"
        spec.write_text(json.dumps({
            "src": str(SRC),
            "work": str(self.work),
            "commands": [[list(c.argv), c.stdout] for c in commands],
            "trace": trace,
            "record": str(record),
        }), encoding="utf-8")
        with self.log.open("a", encoding="utf-8") as log:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec)],
                                  env=child_env(), stdout=log, stderr=log,
                                  timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not record.is_file():
            return None
        return json.loads(record.read_text(encoding="utf-8"))

    def prepare_commands(self, commands) -> None:
        rec = self.run(commands, trace=False)
        if rec is None or any(rec["exit_codes"]):
            raise SetupError(f"set-up commands failed; see {self.log}")


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


def save_digests(wl: Workload, seed: int, digests: dict[str, str]) -> None:
    table = load_digests()
    wl.store(table, seed, digests)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def one_run(runner: Runner, wl: Workload, seed: int, trace: bool, expected, invariants: bool):
    """Run the workload once and check it: (child record or None, problems,
    seconds the check took)."""
    for name in wl.outputs:
        (runner.work / name).unlink(missing_ok=True)
    record = runner.run(wl.commands(seed), trace)
    if record is None:
        return None, [f"child process failed; see {runner.log}"], 0.0
    if any(record["exit_codes"]):
        return record, [f"exit codes {record['exit_codes']}"], 0.0
    started = time.perf_counter()
    problems = wl.check(runner.work, expected, invariants)
    return record, problems, time.perf_counter() - started


def measure(wl: Workload, seed: int, seconds: float, trace: bool, record_digests: bool,
            out_dir: Path) -> dict:
    """Set up, run for ``seconds`` and return the result with its details."""
    base = Path(tempfile.mkdtemp(prefix=f"{wl.name}-{seed}-", dir=out_dir))
    work = base / "work"
    work.mkdir()
    runner = Runner(work, base / "child.log")
    try:
        setup_times, env_info = measure_setup(SETUP_SAMPLES, warm_up=True)
        gen_started = time.perf_counter()
        tokens = wl.generate(work, seed)
        wl.prepare(work, seed, runner.prepare_commands)
        gen_s = time.perf_counter() - gen_started
        recorded = None if record_digests else wl.recorded(load_digests(), seed)
        # The invariants are checked on the first run; every later run must
        # reproduce the recorded digests or, lacking those, the first run's.
        expected = recorded

        runs = []  # (traced, record, problems)
        started = time.perf_counter()
        checking = 0.0
        while True:
            traced = trace and sum(t for t, _, _ in runs) < sum(not t for t, _, _ in runs)
            began = time.perf_counter()
            record, problems, check_s = one_run(runner, wl, seed, traced, expected,
                                                invariants=not runs or expected is None)
            runs.append((traced, record, problems))
            setup_times += measure_setup(SETUP_SAMPLES)[0]
            if not problems and expected is None:
                expected = wl.digests(work)
                if record_digests:
                    recorded = expected
                    save_digests(wl, seed, recorded)
            # Stop before a run that would end past the deadline, so a run
            # lasts about ``seconds`` whatever one workload run takes. The
            # invariants, checked once, count toward neither.
            checking += check_s
            now = time.perf_counter()
            full = now - started - checking + (now - began - check_s) > seconds
            if full and (not trace or {t for t, _, _ in runs} == {True, False}):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(runs)
    failed = sum(1 for _, _, problems in runs if problems)
    plain = [r for t, r, _ in runs if r is not None and not t]
    traced_runs = [r for t, r, _ in runs if r is not None and t]
    if not plain or (trace and not traced_runs):
        raise SetupError(f"no run of {wl.name} completed; see {runner.log}")
    wall = statistics.median(r["wall_s"] for r in plain)
    if trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced_runs),
                          "unit": unit} for name, unit in spans.PER_LAYER.items()}
        metrics["trace.overhead_s"]["value"] = metrics["trace.wall_s"]["value"] - wall
    else:
        values = {
            "wall_s": wall,
            "tokens_per_s": tokens / wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "setup_s": statistics.median(setup_times),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        "environment": env_info,
        "input_tokens": tokens,
        "generate_s": gen_s,
        "setup_samples_s": setup_times,
        "runs": [{"traced": t, "problems": p,
                  **({k: v for k, v in r.items() if k != "layers"} if r else {})}
                 for t, r, p in runs],
        "digests_recorded": recorded is not None,
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def report(details: dict, path: Path) -> None:
    env = details["environment"]
    result = details["result"]
    print(f"environment: backend={env['backend']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']}")
    print(f"workload {details['workload']} seed {details['seed']}: "
          f"{details['input_tokens']} input tokens, {result['attempted']} runs, "
          f"outputs checked against invariants and "
          f"{'recorded digests' if details['digests_recorded'] else 'the first run'}")
    for run in details["runs"]:
        for problem in run["problems"][:5]:
            print(f"  FAILED: {problem}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:>16.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(f"  {'failed_share':<28} {share:>16.6g} ratio "
          f"({result['failed']}/{result['attempted']} runs)")
    print(f"details: {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure for this long; at least one run either way")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the SHA-256 of this seed's outputs in digests.json")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    if not (SRC / "lexsynth" / "cli.py").is_file():
        print(f"perfbench: no lexsynth sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        details = measure(wl, seed, args.seconds, bool(args.trace), args.record, OUT)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = OUT / f"{wl.name}-seed{seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    report(details, path)
    print(json.dumps(details["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
