#!/usr/bin/env python3
"""End-to-end benchmark of DIRE: builds the engine and the harness from the
sources in this checkout, then runs one workload.

    python3 direbench/run.py --workload eval_batch --seed 1 --seconds 30 --trace 0
    python3 direbench/run.py --smoke

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Everything the build and the
runs leave behind goes to `.bench_build/` at the root of the checkout. See
direbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
HARNESS = CMAKE_DIR / "direbench"
CLI = CMAKE_DIR / "dire" / "tools" / "dire_cli"
WORKLOADS = ("eval_batch", "serve_mixed", "ivm_churn")


def fail(message, code=1):
    print(f"direbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds dire_cli and the harness incrementally."""
    log_path = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "direbench", "dire_cli", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.close()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed, see {log_path}")


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:16]


def harness_args(workload, seed, seconds, trace, smoke=False):
    work = BUILD / "work" / f"{workload}-{seed}-{os.getpid()}"
    work.parent.mkdir(parents=True, exist_ok=True)
    args = [str(HARNESS), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--cli", str(CLI), "--work", str(work)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        args += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if smoke:
        args.append("--smoke")
    return args


def smoke():
    """Runs every workload once on tiny inputs, untraced and traced, and
    checks that each emits exactly the metrics BENCHMARK.json declares, in
    their units, with every output check passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            run = subprocess.run(harness_args(workload, 1, 0.5, trace, smoke=True),
                                 capture_output=True, text=True, timeout=170)
            lines = run.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = None
            problems = []
            if run.returncode != 0 or result is None:
                problems.append(f"exit {run.returncode}, no result")
            else:
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != declared[trace]:
                    missing = sorted(set(declared[trace]) - set(got))
                    extra = sorted(set(got) - set(declared[trace]))
                    wrong = sorted(k for k in got if k in declared[trace] and got[k] != declared[trace][k])
                    problems.append(f"missing {missing} extra {extra} wrong unit {wrong}")
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{result['failed']} of {result['attempted']} failed")
            status = "ok" if not problems else "FAILED " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            if problems:
                print(run.stderr[-3000:], file=sys.stderr)
            ok = ok and not problems
    print(json.dumps({"smoke": ok}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", default="1", help="a number, or 'dev' / 'heldout'")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no DIRE sources under {ROOT}; run from a full checkout", 2)
    # Compiler and harness temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    build()
    os.environ["DIREBENCH_COMMIT"] = commit_id()
    if args.smoke:
        return smoke()
    sys.stdout.flush()
    try:
        return subprocess.run(harness_args(args.workload, args.seed, args.seconds, args.trace),
                              timeout=170).returncode
    except subprocess.TimeoutExpired:
        fail("the run did not finish within 170 s")


if __name__ == "__main__":
    sys.exit(main())
