"""solvgraph benchmark: runs the CLI commands users run and checks their output.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from the root of a solvgraph source tree; the package is imported from
its ``src/`` directory.  With ``--trace 0`` each command runs as its own
``python -m solvgraph`` child, one at a time, and passes over the workload's
command list repeat for ``--seconds``.  The timings are scaled to a fixed
reference speed of the CPU (pacer.py says how) and are medians, as are
setup_s and peak_rss_mb.  With ``--trace 1``
the same commands run in-process through ``solvgraph.cli.main``, once
untraced and once traced, and the per-layer metrics come from the traced
pass.  Every output is checked either way.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the run: seed,
commands, source revision, Python version, nproc and per-pass figures.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
import pacer
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SHARE = 0.1  # of --seconds spent on setup rounds, after at least MIN_SETUP_ROUNDS
MIN_SETUP_ROUNDS = 5
MIN_PASSES = 2  # so that even a slow single-command workload has a median of two runs
CMD_TIMEOUT_S = 150  # a command still running then is killed and counted as failed

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "max_cmd_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class Command(NamedTuple):
    argv: tuple[str, ...]
    files: dict[str, Path]  # export kind -> path the command writes


def _export(spec: str, kinds, out_dir: Path) -> Command:
    files = {k: out_dir / f"{spec.replace('@', '_')}.{k}" for k in kinds}
    argv = ["graph", spec]
    for k, path in files.items():
        argv += [f"--{k}", str(path)]
    return Command(tuple(argv), files)


def _gl2_element(rng: random.Random, q: int) -> str:
    """A uniformly random non-central (non-scalar) element of gl2@q."""
    while True:
        x = [rng.randrange(q) for _ in range(4)]
        if x[1] or x[2] or x[0] != x[3]:
            return ",".join(map(str, x))


def workload_commands(name: str, rng: random.Random, out_dir: Path) -> list[Command]:
    """The workload's command list; the seed only picks the solvabilizer element."""
    if name == "verify":
        return [Command(("verify", s), {}) for s in ("gl2@5", "gl2@7", "sl2@13", "sl2@17")]
    if name == "solvabilizer":
        return [Command(("conjecture", "gl2@5"), {}), Command(("conjecture", "sl2@11"), {}),
                Command(("info", "gl2@7"), {}),
                Command(("solvabilizer", "gl2@7", "--element", _gl2_element(rng, 7)), {})]
    if name == "export":
        return [_export("sl2@13", ("json", "dot", "csv"), out_dir),
                _export("gl2@5", ("json", "dot"), out_dir),
                Command(("complement", "sl2@13"), {}), Command(("complement", "gl2@5"), {})]
    if name == "solvable":
        return [Command(("info", "t3@3"), {})]
    raise ValueError(name)


WORKLOADS = ("verify", "solvabilizer", "export", "solvable")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SOLVGRAPH_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class CmdResult(NamedTuple):
    wall_s: float  # scaled to the reference speed, see pacer.py
    cpu_s: float  # scaled likewise
    raw_wall_s: float  # unscaled, steal time included
    rss_mb: float
    error: str | None


def run_child(cmd: Command, env, out_dir: Path) -> CmdResult:
    """Run one command as its own process; usage comes from that child alone."""
    for path in cmd.files.values():
        path.unlink(missing_ok=True)
    out_path = out_dir / "stdout.txt"
    with open(out_path, "wb") as out:
        run = pacer.run_paced([sys.executable, "-m", "solvgraph", *cmd.argv],
                              timeout=CMD_TIMEOUT_S, stdin=subprocess.DEVNULL, stdout=out,
                              env=env, cwd=ROOT)
    if run.timed_out:
        error = f"killed after {CMD_TIMEOUT_S} s"
    else:
        error = checks.check(cmd.argv, os.waitstatus_to_exitcode(run.status),
                             out_path.read_text(), cmd.files)
    return CmdResult(run.scaled_wall_s, run.scaled_cpu_s, sum(s.wall for s in run.slices),
                     run.usage.ru_maxrss / 1024, error)


PROBE = """\
import sys, time
from solvgraph.cli import load_algebra, parse_spec
load_algebra(parse_spec(sys.argv[1])).lines()
print(repr(time.process_time()))
"""


def setup_time(cmds: list[Command], env, out_dir: Path) -> float:
    """Seconds from process start until each command's algebra is built,
    validated and its lines() filled, summed over the commands and scaled
    to the reference speed.

    A probe child does what the CLI does before its command-specific work:
    start the interpreter, import the package, parse the spec, construct
    and validate the algebra, and fill lines().  Then it reports its own CPU
    time, which is its set-up time without the host's steal time: set-up
    reads only files the warm-up round has cached.
    """
    total = 0.0
    out_path = out_dir / "probe.txt"
    for cmd in cmds:
        with open(out_path, "wb") as out:
            run = pacer.run_paced([sys.executable, "-c", PROBE, cmd.argv[1]],
                                  timeout=60, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                  stdout=out)
        if run.timed_out or os.waitstatus_to_exitcode(run.status) != 0:
            raise RuntimeError(f"setup probe for {cmd.argv[1]} failed")
        total += float(out_path.read_text()) * run.scale
    return total


def measure(name: str, rng: random.Random, seconds: float, out_dir: Path):
    env = child_env()
    cmds = workload_commands(name, rng, out_dir)
    cpu = pacer.pin_to_one_cpu()
    setup_time(cmds, env, out_dir)  # warm-up: byte-compile the package, fill the file cache
    setups = []
    start = time.perf_counter()
    while (len(setups) < MIN_SETUP_ROUNDS
           or time.perf_counter() - start < SETUP_SHARE * seconds):
        setups.append(setup_time(cmds, env, out_dir))

    passes = []
    start = time.perf_counter()
    while True:
        order = cmds[:]
        rng.shuffle(order)
        passes.append([(c.argv, run_child(c, env, out_dir)) for c in order])
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > seconds:
            break

    results = [r for p in passes for _, r in p]
    by_cmd: dict[tuple[str, ...], list[CmdResult]] = {}
    for argv, r in (x for p in passes for x in p):
        by_cmd.setdefault(argv, []).append(r)
    # Each command's median scaled time over the run; the pass is their sum.
    cmd_wall = [statistics.median(r.wall_s for r in rs) for rs in by_cmd.values()]
    per_pass = [{
        "wall_s": sum(r.wall_s for _, r in p),
        "raw_wall_s": sum(r.raw_wall_s for _, r in p),
        "cpu_s": sum(r.cpu_s for _, r in p),
        "max_cmd_s": max(r.wall_s for _, r in p),
        "peak_rss_mb": max(r.rss_mb for _, r in p),
    } for p in passes]
    metrics = {
        "wall_s": sum(cmd_wall),
        "cpu_s": sum(statistics.median(r.cpu_s for r in rs) for rs in by_cmd.values()),
        "max_cmd_s": max(cmd_wall),
        "peak_rss_mb": statistics.median(pp["peak_rss_mb"] for pp in per_pass),
        "setup_s": statistics.median(setups),
    }
    record = {
        "commands": [" ".join(c.argv) for c in cmds],
        "cpu": cpu,
        "pass_medians": {k: statistics.median(pp[k] for pp in per_pass) for k in per_pass[0]},
        "passes": [{**pp, "order": [" ".join(a) for a, _ in p],
                    "cmd_wall_s": [r.wall_s for _, r in p],
                    "cmd_raw_wall_s": [r.raw_wall_s for _, r in p]}
                   for pp, p in zip(per_pass, passes)],
        "setup_rounds_s": setups,
        "errors": [f"{' '.join(a)}: {r.error}" for p in passes for a, r in p if r.error],
    }
    return metrics, len(results), sum(r.error is not None for r in results), record


def run_inprocess(cli, cmds: list[Command]) -> tuple[float, list[str | None]]:
    """Run the commands through cli.main in this process; return wall time and errors."""
    errors = []
    wall = 0.0
    for cmd in cmds:
        for path in cmd.files.values():
            path.unlink(missing_ok=True)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(cmd.argv))
        wall += time.perf_counter() - t0
        errors.append(checks.check(cmd.argv, rc, buf.getvalue(), cmd.files))
    return wall, errors


def measure_traced(name: str, rng: random.Random, out_dir: Path):
    sys.path.insert(0, str(SRC))
    from solvgraph import cli

    cmds = workload_commands(name, rng, out_dir)
    rng.shuffle(cmds)
    if Path(cli.__file__).resolve().parent != SRC / "solvgraph":
        raise RuntimeError(f"imported solvgraph from {cli.__file__}, not from {SRC}")
    plain_s, plain_err = run_inprocess(cli, cmds)
    spans = tracer.Tracer()
    spans.install()
    try:
        traced_s, traced_err = run_inprocess(cli, cmds)
    finally:
        spans.uninstall()
    metrics = spans.metrics(traced_s - plain_s)
    errors = plain_err + traced_err
    record = {
        "commands": [" ".join(c.argv) for c in cmds],
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": len(spans.span_name),
        "profile": spans.profile(),
        "errors": [f"{' '.join(c.argv)}: {e}" for c, e in zip(cmds + cmds, errors) if e],
    }
    return metrics, len(errors), sum(e is not None for e in errors), record


def git_sha() -> str | None:
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
    return None


def src_sha256() -> str:
    """Digest of the package sources, which identifies the code when git does not."""
    h = hashlib.sha256()
    for path in sorted((SRC / "solvgraph").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "solvgraph" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'solvgraph'} not found; run from a solvgraph "
              "source tree", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    out_dir = WORK / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    nproc = len(os.sched_getaffinity(0))  # before measure() pins the process to one CPU
    try:
        if args.trace:
            metrics, attempted, failed, record = measure_traced(args.workload, rng, out_dir)
            units = {k: tracer.PER_LAYER[k][0] for k in metrics}
        else:
            metrics, attempted, failed, record = measure(args.workload, rng, args.seconds,
                                                         out_dir)
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_sha256(),
        "python": platform.python_version(), "nproc": nproc,
        "fail_ratio": failed / attempted, **record,
    }
    with open(WORK / "results.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    for err in record["errors"]:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    summary = {k: v for k, v in record.items() if k != "profile"}
    print(json.dumps({"run": summary}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
