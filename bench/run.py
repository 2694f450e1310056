#!/usr/bin/env python3
"""Outside-in benchmark of the `qcat` command line tool.

    python3 bench/run.py --workload sweep|normality|general|all
                         [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-digests

Run from anywhere; the program is taken from `src/` next to this directory.
With --trace 0 every `qcat` invocation is a separate process, started only
after the previous one exited (a closed loop with one client), and the run
reports the end-to-end metrics.  With --trace 1 the run also executes the
same commands in-process through `qcatalan.cli.main` with spans around each
layer (see tracer.py) and reports the per-layer metrics.  Every output is
checked.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads
from workloads import SETUP, Command

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

MIN_PASSES = 3
MIN_SAMPLES = 7
# Setup and reference samples are interleaved with the workload's
# invocations so that each takes this share of the run; spread over the
# run, a burst of load on the machine cannot move their medians.
SETUP_SHARE = 0.1
REFERENCE_SHARE = 0.2
# Nominal start-up and compute seconds of reference.py, about its typical
# values on the machine the bounds were set on (2-core Xeon VM, Python
# 3.11.7).  Setup times are scaled to the nominal start-up speed and pass
# times to the nominal compute speed, which cancels most of the drift of a
# shared machine's speed between runs; the scale factors and the unscaled
# times are in each run's record.
REFERENCE_START_S = 0.1
REFERENCE_COMPUTE_S = 0.5
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = dict(tracer.UNITS, **{"cli.out_bytes": "bytes", "proc.cpu_s": "s",
                                       "trace.overhead": "1"})


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def interquartile_mean(samples: list[float]) -> float:
    """Mean of the middle half of the samples.  On a machine slowed in short
    bursts it follows the share of time spent slowed, as the wall of a long
    command does, and a single stall cannot pull it."""
    xs = sorted(samples)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of PERCENTILES that has at least ten samples above it,
    as (percentile, nearest-rank value), or None when there are too few."""
    xs = sorted(samples)
    for p in reversed(PERCENTILES):
        rank = math.ceil(p / 100 * len(xs))
        if rank >= 1 and len(xs) - rank >= 10:
            return p, xs[rank - 1]
    return None


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: bytes


@dataclass
class Tally:
    """Invocations attempted and failed, with the first few problems."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def count(self, cmd: Command, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{cmd.key[:120]}: {'; '.join(problems)}")


def output_problems(cmd: Command, inv: Invocation, digests: dict[str, str],
                    seed: int) -> list[str]:
    """Semantic checks, plus the recorded sha256 of stdout where there is one.
    At the default seed every command must have one."""
    problems = workloads.check_output(cmd, inv.exit_code, inv.stdout)
    if inv.exit_code != cmd.expect_exit:
        problems.append(inv.stderr.decode(errors="replace")[-200:])
    want = digests.get(cmd.key)
    if want is None and seed == workloads.DEFAULT_SEED:
        problems.append("no digest recorded for this command")
    elif want is not None and hashlib.sha256(inv.stdout).hexdigest() != want:
        problems.append("stdout differs from the recorded digest")
    return problems


def spawn(argv: list[str], threads: int = 1) -> Invocation:
    """Run one process to completion through spawn.py, which keeps this
    process's own size out of the child's max-RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC), QCAT_THREADS=str(threads))
    # Installed programs start from cached bytecode; let the first run write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    report_fd, child_fd = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), str(child_fd), *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
            pass_fds=(child_fd,),
        )
    finally:
        os.close(child_fd)
    stderr: list[bytes] = []
    with proc, open(report_fd, "rb") as report_pipe:
        reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
        reader.start()
        stdout = proc.stdout.read()
        reader.join()
        report = json.loads(report_pipe.read())
    return Invocation(report["wall"], report["cpu"], report["maxrss_kb"] / 1024.0,
                      report["status"], stdout, stderr[0])


def invoke(cmd: Command) -> Invocation:
    return spawn([sys.executable, "-m", "qcatalan.cli", *cmd.argv], cmd.threads)


def reference_sample() -> tuple[float, float]:
    """(start-up, compute) seconds of one run of reference.py."""
    inv = spawn([sys.executable, str(HERE / "reference.py")])
    if inv.exit_code != 0:
        raise RuntimeError(f"reference.py exited {inv.exit_code}: {inv.stderr[-300:]!r}")
    compute = float(inv.stdout.rsplit(b"\n", 2)[-2])
    return inv.wall - compute, compute


def commit() -> str | None:
    """HEAD of a git checkout at ROOT, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the program's sources, which names the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qcatalan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@contextlib.contextmanager
def qcat_threads(value: str):
    old = os.environ.get("QCAT_THREADS")
    os.environ["QCAT_THREADS"] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ["QCAT_THREADS"]
        else:
            os.environ["QCAT_THREADS"] = old


def in_process_pass(cli, cmds: list[Command]) -> tuple[float, list[tuple[int, bytes]]]:
    """The pass through cli.main in this process: (wall, [(exit, stdout)])."""
    results = []
    wall = 0.0
    for cmd in cmds:
        out = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(list(cmd.argv), out=out)
            wall += time.perf_counter() - start
        results.append((code, out.getvalue().encode("utf-8")))
    return wall, results


def traced_iteration(cli, cmds: list[Command], invs: list[Invocation], tally: Tally,
                     traced_first: bool) -> dict[str, float]:
    """An untraced and a traced in-process pass, in the given order, both with
    QCAT_THREADS=1 because spans in pool workers would be lost; both must
    reproduce the subprocess stdout byte for byte.  Returns the per-layer
    metrics."""
    spans = tracer.Tracer()
    walls, outputs = {}, {}
    with qcat_threads("1"):
        for traced in (True, False) if traced_first else (False, True):
            with spans.installed() if traced else contextlib.nullcontext():
                walls[traced], outputs[traced] = in_process_pass(cli, cmds)
    for cmd, inv, *outs in zip(cmds, invs, outputs[False], outputs[True]):
        for out in outs:
            same = out == (inv.exit_code, inv.stdout)
            tally.count(cmd, [] if same else ["in-process output differs from the process's"])
    metrics = tracer.layer_metrics(spans.spans)
    metrics["cli.out_bytes"] = sum(len(stdout) for _, stdout in outputs[True])
    metrics["trace.overhead"] = walls[True] / walls[False]
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    digests = json.loads(DIGESTS.read_text())
    cmds = workloads.commands(workload, seed, nproc())
    tally = Tally()

    def checked(cmd: Command) -> Invocation:
        inv = invoke(cmd)
        tally.count(cmd, output_problems(cmd, inv, digests, seed))
        return inv

    start = time.perf_counter()
    deadline = start + seconds
    checked(SETUP)  # untimed: leaves the bytecode cache warm
    setup: list[float] = []
    reference: list[tuple[float, float]] = []
    passes: list[list[Invocation]] = []
    layers: list[dict[str, float]] = []
    took: list[float] = []
    if trace:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from qcatalan import cli
    while len(took) < (1 if trace else MIN_PASSES) or (
        time.perf_counter() + statistics.median(took) <= deadline
    ):
        began = time.perf_counter()
        invs = []
        for cmd in cmds:
            invs.append(checked(cmd))
            while not trace and sum(setup) < SETUP_SHARE * (time.perf_counter() - start):
                setup.append(checked(SETUP).wall)
            while not trace and (
                sum(map(sum, reference)) < REFERENCE_SHARE * (time.perf_counter() - start)
            ):
                reference.append(reference_sample())
        passes.append(invs)
        if trace:
            layers.append(traced_iteration(cli, cmds, invs, tally, len(layers) % 2 == 1))
        took.append(time.perf_counter() - began)

    # A typical pass: each command's median over the passes, summed.
    command_walls = [statistics.median(invs[i].wall for invs in passes) for i in range(len(cmds))]
    walls = [sum(inv.wall for inv in invs) for invs in passes]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": nproc(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "qcat_threads": {cmd.key: cmd.threads for cmd in cmds},
        "traced_qcat_threads": 1 if trace else None,
        "passes": len(passes),
        "pass_wall_s": walls,
        "pass_wall_tail": tail_percentile(walls),
        "command_median_wall_s": command_walls,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
    }
    if trace:
        metrics = {name: statistics.median(d[name] for d in layers) for name in layers[0]}
        metrics["proc.cpu_s"] = statistics.median(sum(i.cpu for i in invs) for invs in passes)
        units = PER_LAYER_UNITS
    else:
        while len(setup) < MIN_SAMPLES:
            setup.append(checked(SETUP).wall)
        while len(reference) < MIN_SAMPLES:
            reference.append(reference_sample())
        start_speed = REFERENCE_START_S / interquartile_mean([r[0] for r in reference])
        compute_speed = REFERENCE_COMPUTE_S / interquartile_mean([r[1] for r in reference])
        record.update(
            start_speed_factor=start_speed,
            compute_speed_factor=compute_speed,
            unscaled_wall_s=sum(command_walls),
            unscaled_setup_s=statistics.median(setup),
            setup_s_samples=setup,
            reference_s_samples=reference,
        )
        metrics = {
            "wall_s": sum(command_walls) * compute_speed,
            "setup_s": statistics.median(setup) * start_speed,
            "peak_rss_mb": statistics.median(max(i.rss_mb for i in invs) for invs in passes),
        }
        units = END_TO_END_UNITS
    return {
        "record": record,
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def summary(result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit, and fail_ratio."""
    rec = result["record"]
    lines = [
        f"== {rec['workload']}  seed {rec['seed']}  passes {rec['passes']}  "
        f"python {rec['python']}  nproc {rec['nproc']}  commit {rec['commit']}  "
        f"src {rec['src_sha256'][:12]}"
    ]
    if rec["trace"]:
        lines.append("  traced in-process with QCAT_THREADS=1: spans in pool workers would be lost")
    else:
        lines.append(f"  scaled to the reference speed: wall {rec['unscaled_wall_s']:.4g} s "
                     f"x {rec['compute_speed_factor']:.4f}, setup {rec['unscaled_setup_s']:.4g} s "
                     f"x {rec['start_speed_factor']:.4f}")
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    tail = rec["pass_wall_tail"]
    lines.append(
        f"  {'pass wall tail':<28} "
        + (f"p{tail[0]:g} {tail[1]:.6g} s unscaled" if tail else
           f"none: {rec['passes']} passes, p50 needs 20")
    )
    lines.append(f"  {'fail_ratio':<28} {result['failed'] / result['attempted']:.6g} 1 "
                 f"({result['failed']} of {result['attempted']} invocations)")
    lines += [f"  problem: {p}" for p in rec["problems"]]
    return lines


def record_digests() -> int:
    """Write the sha256 of every default-seed invocation's stdout, refusing
    outputs that fail the semantic checks."""
    digests = {}
    for cmd in [SETUP] + [c for w in workloads.WORKLOADS
                          for c in workloads.commands(w, workloads.DEFAULT_SEED, nproc())]:
        inv = invoke(cmd)
        problems = workloads.check_output(cmd, inv.exit_code, inv.stdout)
        if problems:
            print(f"bench: {cmd.key[:120]}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        digests[cmd.key] = hashlib.sha256(inv.stdout).hexdigest()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"bench: recorded {len(digests)} digests in {DIGESTS.name}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "qcatalan" / "cli.py").is_file():
        print(f"bench: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for result in results:
        print("\n".join(summary(result)))
        print(json.dumps({"record": result["record"]}))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['record']['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
