"""lockeysim benchmark launcher.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Each workload runs in a fresh
interpreter (``worker.py``) with one BLAS/OpenMP thread.  With ``--trace 0``
the set-up is also sampled in several short-lived interpreters and the
median reported.  The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is the
run record (machine, versions, load, failures), which is also written to
``.perfbench/results/``.  Exits non-zero without a result if any child fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

#: Extra set-up samples per untraced run, each in its own interpreter.
SETUP_PROBES = 5
#: Every child must have ended this long after the launcher started.
DEADLINE_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class ChildFailed(Exception):
    pass


def run_child(args, env, deadline):
    """Run the worker with `args`; its last stdout line parsed as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left before the deadline")
    try:
        done = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"worker {args} timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"worker {args} exited with code {done.returncode}")
    return json.loads(lines[-1])


def git_commit():
    """``git rev-parse HEAD`` of the checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the package sources.

    Benchmark checkouts are often exported trees without ``.git``; there this
    is the only record of which code was measured.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **THREAD_ENV)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    load_start = os.getloadavg()
    try:
        setup = [] if args.trace else [
            run_child(base + ["--setup-only"], env, deadline)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        result = run_child(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    info = result.pop("info")
    if not args.trace:
        setup.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setup)
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    units = {name: unit for name, unit, _ in [*workloads.END_TO_END, *workloads.per_layer_spec()]}
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": info.pop("numpy"),
        "lockeysim": info.pop("lockeysim"),
        "threads": THREAD_ENV,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "setup_samples": setup,
        **info,
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"record": record, "result": result}, indent=1) + "\n")
    summary = {key: value for key, value in record.items() if key != "functions"}
    print(json.dumps({"record": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
