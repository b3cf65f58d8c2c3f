"""Self-optimizing-loop benchmark: one workload, every metric, checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in its own subprocess (``bench/loop.py``) against the
``src/`` tree next to this directory.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced passes, reports the per-layer metrics (tracing
overhead included) and writes a Chrome trace-event file.  Every metric
is printed by name with its unit; the last stdout line is the JSON
result.  Raw samples and machine details go to ``.bench_out/``.  The
exit status is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
#: Wall-clock limit of the workload subprocess.
CHILD_TIMEOUT_S = 170.0


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` (``None`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_child(args: argparse.Namespace, stem: str) -> dict | None:
    """Run the workload in a subprocess; its result, or ``None`` if it failed."""
    command = [
        sys.executable, "-m", "bench.loop",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        command += ["--trace-file", str(OUT / f"{stem}.chrome.json")]
    if args.campaigns is not None:
        command += ["--campaigns", str(args.campaigns)]
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    # Own process group: a timeout also stops the reference workers the
    # workload process may have started.
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    ) as child:
        try:
            stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException as error:  # timeout or interrupt: stop the group
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            if not isinstance(error, subprocess.TimeoutExpired):
                raise
            print(f"error: {args.workload} did not finish within {CHILD_TIMEOUT_S:.0f}s", file=sys.stderr)
            return None
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: {args.workload} exited with status {child.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaigns", type=int, help="override the campaigns per pass (smoke runs)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }
    result = run_child(args, stem)
    if result is None:
        return 1
    run_info.update(loadavg_end=os.getloadavg(), numpy=result["numpy"], result=result)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}
    attempted, failed = result["attempted"], result["failed"]
    (OUT / f"{stem}.json").write_text(json.dumps(run_info, indent=1))

    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(f"{args.workload} seed {args.seed}: {attempted} campaigns, {failed} failed")
    print(f"  plan digest {result['plan_digest']}")
    if result["scr_digest"] is not None:
        print(f"  SCR digest  {result['scr_digest']}")
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
