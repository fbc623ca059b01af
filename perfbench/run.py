"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload cold-inline --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in fresh
interpreters (``perfbench/workload.py`` with ``PYTHONPATH=src``), so
``setup_s`` and ``rss_peak_mb`` belong to that workload alone.  With
``--trace 0`` the workload is first set up ``SETUPS - 1`` times in
throwaway interpreters, then once more in the measuring one, and
``setup_s`` is the median of those set-ups; the measuring interpreter
then runs the closed loop for ``--seconds`` (ending on a whole pass over
its inputs) and reports the end-to-end metrics.  With ``--trace 1`` it reports the per-layer ledger instead.

Every metric is printed with its unit; the last line of standard output
is the JSON result.  The exit code is 0 only when every session of
every timed request matched its reference.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-inline", "shard-2", "open-loop-mixed")
#: set-ups per ``--trace 0`` run; ``setup_s`` is their median
SETUPS = 3
#: a run must end within this many seconds of starting
RUN_BUDGET_S = 175.0


def run_child(args, role, deadline):
    """One workload interpreter; returns its JSON result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role,
    ]
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic())
    )
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} interpreter exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a checkout", file=sys.stderr)
        return 2

    deadline = start + RUN_BUDGET_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_child(args, "setup", deadline)["setup_s"])
        result = run_child(args, "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"]["value"] = statistics.median(setups)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6f} {m['unit']}")
    info = dict(result["info"])
    seams = info.pop("seams", None)
    if not args.trace:
        info["setup_samples_s"] = [round(s, 4) for s in setups]
    for key, value in info.items():
        print(f"  [{key}] {value}")
    for where, calls in (seams or {}).items():
        print(f"  [seam] {where}: {calls}{'' if calls == 'missing' else ' calls'}")
    for error in result["errors"]:
        print(f"  [error] {error}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
