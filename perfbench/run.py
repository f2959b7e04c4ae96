"""The expsums benchmark: one seeded workload, checked outputs, metrics.

    python3 perfbench/run.py --workload {dense,sparse,audit} --seed N \\
        --seconds S --trace {0,1}

Run from a source checkout; the library is imported from ``src`` (no
install needed).  Each run starts fresh worker processes (``worker.py``)
so that import time and peak memory belong to this workload alone.  They
run single-threaded: the BLAS thread pools are set to one thread.

* ``--trace 0`` starts five fresh processes that import expsums and make
  one warm-up call, and reports the median of those set-up times as
  ``setup_s``; the last of them then runs passes over the seeded items
  until they have taken ``--seconds`` (see ``worker.py``; ``items.py``
  holds the workloads).
* ``--trace 1`` makes a traced and an untraced pass over the same items,
  checks that their stripped results are byte-identical, and reports the
  per-module metrics from the spans, which it writes to
  ``.bench_build/perfbench/``.

Every metric is printed as ``name value unit``, followed by the machine
record and, on the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units are
those of ``BENCHMARK.json``.  The exit code is 0 only when every output
passed its oracle checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _machine() -> dict:
    """Read-only machine record: cores, CPU model and cache sizes."""
    rec = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor(),
           "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            rec[f"L{level}"] = size
    return rec


def _bytes(size: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def _worker(mode: str, args, deadline: float, extra=()) -> dict:
    env = dict(os.environ)
    # one thread: BLAS pools would otherwise spin on the second core
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("dense", "sparse", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "expsums" / "__init__.py").is_file():
        print(f"error: no expsums source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    machine = _machine()
    try:
        if args.trace:
            out_dir = ROOT / ".bench_build" / "perfbench"
            out_dir.mkdir(parents=True, exist_ok=True)
            span_file = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            res = _worker("trace", args, deadline, ("--spans", str(span_file)))
            values = res["metrics"]
        else:
            setups = [_worker("setup", args, deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            res = _worker("run", args, deadline)
            setups.append(res["setup_s"])
            values = dict(res, setup_s=statistics.median(setups))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    for msg in res["failures"]:
        print(f"FAILED {msg}")
    metrics = {}
    for m in wanted:
        if values.get(m["name"]) is None:
            print(f"error: metric {m['name']} not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    print(f"error_rate {failed / attempted:.6g} 1 ({failed} of {attempted} items failed)")
    env = dict(machine, **res["env"], pass_items=res["pass_items"])
    if not args.trace:
        env["items"] = attempted
        env["passes"] = res["passes"]
        env["tail_percentile"] = res["tail_percentile"]
        env["setup_samples_s"] = setups
        env["grid_bytes_max"] = res["grid_bytes_max"]
    if "L3" in env:
        grid = env.get("grid_bytes_max", values.get("quadrature.grid_bytes_max", 0))
        env["grid_over_L3"] = grid / _bytes(env["L3"])
    print("env " + json.dumps(env, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
