#!/usr/bin/env python3
"""Benchmark runner for wcnn: the study pipeline and open-loop serving.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--seconds S]

Builds the wcnn libraries, the `wcnn` CLI and the `perfbench` program
from this checkout's sources (Release, into $CARGO_TARGET_DIR or
.bench_build), then runs one workload. The last line of standard
output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The line before it is the run record: host facts (nproc,
build type, compiler, worker threads, serving engine), digests, the
ladder steps and sample counts. Records and spans are also kept under
<build dir>/records/. Nothing is written outside the build directory.

--self-test checks that the correctness gates count failures: it arms
the existing failpoints `sim.replicate` (in process) and
`serve.predict` (in the server, at a low probability) and asserts the
failed share rises, and it runs every workload on a held-out seed that
must pass every check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
TARGETS = ["perfbench", "wcnn"]


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else (Path.cwd() / path)


def build(out: Path) -> Path:
    """Configure and build; returns the directory holding the binaries."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no wcnn sources under {ROOT / 'src'}")
    out.mkdir(parents=True, exist_ok=True)
    logfile = out / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", *TARGETS],
    ]
    with open(logfile, "w") as fh:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT,
                                timeout=BUILD_TIMEOUT_S).returncode
            if rc != 0:
                raise RuntimeError(f"build step failed ({' '.join(cmd)}); "
                                   f"see {logfile}")
    return out


def pins_for(workload: str, seed: int) -> list[str]:
    pins = json.loads((HERE / "pins.json").read_text()).get(workload, {})
    pin = pins.get(str(seed), pins.get("*", {}))
    args: list[str] = []
    for key in ("dataset", "cv", "prediction"):
        if key in pin:
            args += [f"--pin-{key}", pin[key]]
    return args


def run_once(bindir: Path, workload: str, seed: int, seconds: int,
             trace: int, extra: list[str] | None = None) -> tuple[str, dict]:
    """Run one workload; returns (stdout, result object)."""
    work = bindir / "work" / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(bindir / "perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--wcnn", str(bindir / "wcnn"),
           "--dataset", str(ROOT / "wcnn_bench_dataset.csv"),
           "--work", str(work), *pins_for(workload, seed),
           *(extra or [])]
    env = dict(os.environ, WCNN_SCENARIO_DIR=str(ROOT / "scenarios"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The whole group: perfbench and its wcnn serve child.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    records = bindir / "records"
    records.mkdir(exist_ok=True)
    for name in ("record.json", "spans.jsonl"):
        if (work / name).is_file():
            shutil.copy(work / name,
                        records / f"{work.name}.{name}")
    shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited with {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed nothing")
    return stdout, json.loads(lines[-1])


def record_of(stdout: str) -> dict:
    """The run record: the line before the result object."""
    return json.loads(stdout.strip().splitlines()[-2])


def self_test(bindir: Path, seconds: int) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    study = names[0]
    held_out = 1_000_003
    checks: list[tuple[str, bool, str]] = []

    def share(r: dict) -> float:
        return r["failed"] / max(1, r["attempted"])

    clean = {}
    for name in names:
        _, r = run_once(bindir, name, 1, seconds, 1)
        clean[name] = r
        checks.append((f"{name} seed 1 traced: correct, no failures",
                       r["correct"] and r["failed"] == 0,
                       f"failed {r['failed']}/{r['attempted']}"))

    _, r = run_once(bindir, study, 1, seconds, 0,
                    ["--failpoints", "sim.replicate=nth:1"])
    checks.append(("sim.replicate armed: failed share rises",
                   not r["correct"] and share(r) > share(clean[study]),
                   f"failed {r['failed']}/{r['attempted']}"))

    # Every distinct input goes through the batcher, where the site is.
    _, r = run_once(bindir, study, 1, seconds, 0,
                    ["--server-failpoints", "serve.predict=prob:0.002:7"])
    checks.append(("serve.predict armed at p=0.002: failed share rises",
                   not r["correct"] and share(r) > share(clean[study]),
                   f"failed {r['failed']}/{r['attempted']}"))

    for name in names:
        out, r = run_once(bindir, name, held_out, seconds, 0)
        pinned = record_of(out)["pinned"] == 1
        checks.append((f"{name} held-out seed {held_out}: pinned, every "
                       "check passes",
                       pinned and r["correct"] and r["failed"] == 0,
                       f"pinned {int(pinned)}, "
                       f"failed {r['failed']}/{r['attempted']}"))

    for what, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {what}  ({detail})")
    return 0 if all(ok for _, ok, _ in checks) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        bindir = build(build_dir())
        if args.self_test:
            return self_test(bindir, args.seconds)
        if not args.workload:
            ap.error("--workload is required")
        stdout, _ = run_once(bindir, args.workload, args.seed, args.seconds,
                             args.trace)
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as exc:
        log(f"error: {exc}")
        return 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
