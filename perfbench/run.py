"""The mags benchmark: one command for every workload.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0

Runs one workload of ``perfbench/workload.py`` in fresh processes pinned to
one BLAS thread, against the program in ``src/`` of this checkout. With
``--trace 0`` it sets the workload up three to five times (each in a new
process; the last one goes on to the timed phase), and prints the end-to-end
metrics. With ``--trace 1`` it sets up once, times one plain operation and
then the same operation traced, and prints the per-layer metrics named in
``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
machine facts included, goes to ``.perfbench/results/``. Set-up and run
files go to ``.perfbench/work/`` and are removed at the end.
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
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-desk", "eval-sweep", "props")  # as in workload.py, which imports mags
# Set-ups per untraced run: at least MIN_SETUPS, and up to MAX_SETUPS while
# the set-ups so far took less than SETUP_BUDGET_S (cheap set-ups repeat
# more, to steady their median).
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 5, 5.0
BUDGET_S = 170.0  # the whole run, set-ups included, ends within this
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **ONE_THREAD)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "pinned_env": ONE_THREAD,
    }


def run_child(args, work: Path, index: int, final: bool, deadline: float) -> dict:
    """Start one workload process and return its result.json. Only the
    final process goes on from set-up to the timed phase."""
    mine = work / f"setup{index}"
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(mine), "--deadline", repr(deadline)]
    if not final:
        cmd.append("--setup-only")
    elif index:
        cmd += ["--earlier"] + [str(work / f"setup{j}" / "result.json") for j in range(index)]
    if args.toy:
        cmd.append("--toy")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget used up before the workload started")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=remaining + 5)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n"
                           + proc.stderr[-4000:])
    return json.loads((mine / "result.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mags benchmark (see BENCHMARK.json)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True, help="workload seed; all inputs derive from it")
    ap.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--toy", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = ap.parse_args(argv)

    started = time.monotonic()
    if not (ROOT / "src" / "mags" / "cli.py").is_file():
        print(f"error: no mags sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    work = ROOT / ".perfbench" / "work" / run_name
    results = ROOT / ".perfbench" / "results"
    deadline = started + BUDGET_S
    try:
        runs = []
        while not args.trace and (len(runs) < MIN_SETUPS - 1 or (
                len(runs) < MAX_SETUPS - 1 and time.monotonic() - started < SETUP_BUDGET_S)):
            runs.append(run_child(args, work, len(runs), False, deadline))
        runs.append(run_child(args, work, len(runs), True, deadline))
        final = runs[-1]
        if args.trace:
            results.mkdir(parents=True, exist_ok=True)
            shutil.copy(work / "setup0" / "spans.npz", results / f"{run_name}.spans.npz")
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = final["attempted"], final["failed"]
    setup_s = statistics.median(r["setup_norm_s"] for r in runs)
    e2e = {
        "items_per_s": final["items_per_s"],
        "setup_s": setup_s,
        "peak_rss_mb": final["peak_rss_mb"],
        "ok_frac": 1.0 - failed / attempted,
    }
    section = "per_layer" if args.trace else "end_to_end"
    values = final["per_layer"] if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "toy": args.toy, "machine": machine_facts(),
        "runtime": final["facts"], "inputs": final["inputs"],
        "setup_s_each": [r["setup_s"] for r in runs],
        "setup_norm_s_each": [r["setup_norm_s"] for r in runs],
        "setup_ref_s_each": [r["setup_ref_s"] for r in runs], "ops": final["ops"],
        "attempted": attempted, "failed": failed, "failures": final["failures"],
        "absent": final.get("absent", []), "end_to_end": e2e, "metrics": metrics,
    }
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_name}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload} seed {args.seed}: {len(final['ops'])} operations "
          f"in {final['timed_s']:.1f} s, one BLAS thread "
          f"(reported {final['facts']['blas_threads']}), {record['machine']['cpu_model']}, "
          f"{record['machine']['nproc']} cpus")
    print(f"{final['item']}_per_s {final['items_per_s']:.6g} 1/s "
          f"(wall clock {final['raw_items_per_s']:.6g} 1/s)")
    if args.workload == "props":
        print(f"cert_suite_s {final['op_s']:.6g} s")
    print(f"failed_frac {failed / attempted:.6g} ({failed} of {attempted})")
    for msg in final["failures"][:20]:
        print(f"  failed: {msg}")
    for name, m in metrics.items():
        shown = "absent" if name.rpartition(".")[0] in record["absent"] else f"{m['value']:.6g}"
        print(f"{name} {shown} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
