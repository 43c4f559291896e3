"""End-to-end benchmark of the kronwalk CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {factor,product} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The load is a closed loop with one client: each op is one
``python -m kronwalk.cli ...`` child process, and the next op starts only
after the previous one has exited, so no two children ever run at once.  A
fresh process per op means no cache carries from one op to the next, as for
a CLI user, and gives each op its own peak RSS.

A run sets up (makes the seeded inputs, writes the input files, runs one
warm-up op) nine times and reports the median as ``setup_s``.  It then runs
ops for ``--seconds`` seconds, and only after that checks every op's output
against ``reference.py``.  With ``--trace 0`` it prints the end-to-end
metrics, with every time scaled to a reference host speed by the calibration
times ``launcher.py`` takes between ops (see ``speed_scale``).  With
``--trace 1`` each op runs twice, untraced and then under ``tracechild.py``,
and it prints the per-layer metrics of ``layers.py``.

The second-to-last line of stdout is a report: environment, input digest,
op counts and failures by kind.  The last line is the result object.  The
sources are taken from ``src/`` beside this directory; without them the
benchmark exits with status 3 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from layers import UNITS as LAYER_UNITS
from layers import LayerTotals
from reference import Checker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
OP_TIMEOUT_S = 45.0
# launcher.calibrate() takes this long at the reference speed (about its mean
# between ops on a shared 2-vCPU Xeon VM under Python 3.11).
REFERENCE_CALIBRATION_S = 0.012

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


@dataclass
class Run:
    """One child process: which op it ran and how it ended."""

    op: workloads.Op
    stem: str
    latency: float
    status: int  # exit code, or minus the signal number
    rss_mb: float
    timed_out: bool
    calibration: float  # seconds of launcher.calibrate() right after the op


class Spawner:
    """Runs ops through ``launcher.py``, started in the work directory."""

    def __init__(self, work: Path) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=work, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, op: workloads.Op, stem: str, traced: bool = False) -> Run:
        if traced:
            argv = [sys.executable, str(HERE / "tracechild.py"), f"{stem}.trace",
                    "{spawn_time}", *op.argv]
        else:
            argv = [sys.executable, "-m", "kronwalk.cli", *op.argv]
        request = {"argv": argv, "stdout": f"{stem}.out", "stderr": f"{stem}.err",
                   "timeout": OP_TIMEOUT_S * (2 if traced else 1)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Run(op, stem, reply["latency"], reply["status"], reply["rss_kb"] / 1024,
                   reply["timed_out"], reply["calibration"])

    def calibrate(self) -> float:
        self.proc.stdin.write("{}\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["calibration"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def setup(workload: str, seed: int, smoke: bool, work: Path,
          spawner: Spawner) -> tuple[list[workloads.Op], Run]:
    ops = workloads.schedule(workload, seed, smoke)
    for op in ops:
        for name, g in op.files.items():
            (work / name).write_text(workloads.edge_list_text(g))
    warmup = spawner.run(workloads.Op(workload, workloads.WARMUP[workload]), "warmup")
    return ops, warmup


def source_identity() -> dict:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kronwalk").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {"kronwalk_commit": commit, "kronwalk_source_sha256": h.hexdigest()}


def classify(run: Run, checker: Checker) -> str | None:
    """How the op failed, or None if it passed."""
    if run.timed_out:
        return "timeout"
    if run.status != 0:
        if run.status == 2:
            return "exit_2"
        stderr = Path(f"{run.stem}.err").read_text(errors="replace")
        return "traceback" if "Traceback" in stderr else f"exit_{run.status}"
    stdout = Path(f"{run.stem}.out").read_text()
    problem = checker.check(run.op, stdout)
    if problem is not None:
        return "wrong: " + problem
    return None


def p90_of(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def speed_scale(calibrations: list[float]) -> float:
    """The factor that takes a time measured alongside ``calibrations`` to
    the reference speed: REFERENCE_CALIBRATION_S over their mean.

    The host's speed switches between levels up to 2x apart, several times a
    second, and the share of slow time drifts over minutes, so a raw time
    says as much about the host as about kronwalk.  One calibration catches
    one instant; the mean of several measures the mix of speeds around them.
    (A median would not: it jumps from one level to the other as the mix
    moves past one half.)
    """
    return REFERENCE_CALIBRATION_S / statistics.mean(calibrations)


def at_reference_speed(runs: list[Run]) -> list[float]:
    """Each op's latency scaled by the four calibrations nearest it: the two
    taken before it started and the two after it ended."""
    cal = [r.calibration for r in runs]
    return [r.latency * speed_scale(cal[max(0, i - 2):i + 2]) for i, r in enumerate(runs)]


def probe(argv: list[str], spawner: Spawner, checker: Checker) -> str:
    """Run one op of ``workloads.KNOWN_FAILING``; "ok" or how it failed."""
    op = workloads.Op(argv[0], list(argv), graphs=(workloads.family(argv[1]),))
    return classify(spawner.run(op, "known_failing"), checker) or "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("factor", "product"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run a few tiny ops once each, ignoring --seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kronwalk" / "cli.py").is_file():
        print(f"error: kronwalk sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 3

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    spawner = Spawner(work)
    try:
        return measure(args, work, spawner)
    finally:
        spawner.close()
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, work: Path, spawner: Spawner) -> int:
    setup_times, setup_calibrations = [], []
    for _ in range(SETUP_REPEATS):
        setup_calibrations.append(spawner.calibrate())
        start = time.perf_counter()
        ops, warmup = setup(args.workload, args.seed, args.smoke, work, spawner)
        setup_times.append(time.perf_counter() - start - warmup.calibration)
        setup_calibrations.append(warmup.calibration)
    load_before = os.getloadavg()

    runs: list[Run] = []
    pairs: list[tuple[Run, Run]] = []
    start = time.perf_counter()
    index = 0
    while (index < len(ops) if args.smoke
           else time.perf_counter() - start < args.seconds):
        op = ops[index % len(ops)]
        untraced = spawner.run(op, f"op{index}")
        runs.append(untraced)
        if args.trace:
            traced = spawner.run(op, f"op{index}t", traced=True)
            runs.append(traced)
            pairs.append((untraced, traced))
        index += 1
    wall = time.perf_counter() - start
    load_after = os.getloadavg()

    checker = Checker()
    failures: dict[str, int] = {}
    ok = 0
    for run in runs:
        kind = classify(run, checker)
        if kind is None:
            ok += 1
        else:
            failures[kind] = failures.get(kind, 0) + 1
    wrong = sum(n for kind, n in failures.items() if kind.startswith("wrong") or kind == "exit_2")

    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        **source_identity(),
    }
    timed = [untraced for untraced, _ in pairs] if args.trace else runs
    latencies = sorted(r.latency for r in timed)
    p90 = p90_of(latencies)
    busy = sum(latencies)
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(timed) / busy,
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": p90,
        "wall_s": wall,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "inputs_sha256": workloads.digest(ops),
        "ops_scheduled": len(ops),
        "ops_run": len(runs),
        "ops_beyond_p90": sum(1 for x in latencies if x > p90),
        "error_ratio": (len(runs) - ok) / len(runs),
        "failures": failures,
        "raw": raw,
        "calibration_mean_s": statistics.mean(r.calibration for r in timed),
        "setup_calibration_mean_s": statistics.mean(setup_calibrations),
        "setup_s_all": setup_times,
        "latencies_s": [round(r.latency, 4) for r in runs],
        "calibration_s": [round(r.calibration, 5) for r in runs],
        "env": env,
    }
    if args.workload == "factor" and not (args.smoke or args.trace):
        report["known_failing"] = {" ".join(argv): probe(argv, spawner, checker)
                                   for argv in workloads.KNOWN_FAILING}

    if args.trace:
        totals = LayerTotals()
        for untraced, traced in pairs:
            if Path(f"{traced.stem}.trace").is_file():
                totals.add(f"{traced.stem}.trace", traced.latency, untraced.latency)
        values = totals.metrics()
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        env["trace_overhead_ratio"] = values["trace.overhead_ratio"]
    else:
        warm = workloads.Op(args.workload, workloads.WARMUP[args.workload])
        plain = spawner.run(warm, "overhead")
        traced = spawner.run(warm, "overheadt", traced=True)
        env["trace_overhead_ratio"] = traced.latency / plain.latency
        env["trace_overhead_ratio_of"] = "warm-up op"
        scaled = sorted(at_reference_speed(timed))
        values = {
            "setup_s": raw["setup_s"] * speed_scale(setup_calibrations),
            "ops_per_s": len(scaled) / sum(scaled),
            "op_p50_s": statistics.median(scaled),
            "op_p90_s": p90_of(scaled),
            "peak_rss_mb": max(r.rss_mb for r in runs),
            "ok_ratio": ok / len(runs),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}

    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": wrong == 0, "attempted": len(runs),
                      "failed": len(runs) - ok, "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
