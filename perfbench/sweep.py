"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workloads dense sparse audit --seeds 1-10 \\
        [--trace 0] [--out sweep.json] [--against earlier.json]

Runs ``run.py`` once per (workload, seed), one after another, and prints
per workload and metric the median, the quartiles and the spread
(q3 - q1) / median, with "!" where a spread of an end-to-end metric other
than ``setup_s`` reaches a third of its bound.  ``--against`` compares the
medians with an earlier sweep and marks "!" where one is worse by more than
the metric's bound.  ``--out`` writes the summary, together with every
run's metrics, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def _worse(new: float, old: float, better: str) -> float:
    """Share by which ``new`` is worse than ``old`` (negative when better)."""
    if not old:
        return 0.0
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["dense", "sparse", "audit"])
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else None

    report = {"run_seconds": spec["run_seconds"], "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            result = json.loads(last[0]) if last[0].startswith("{") else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}", file=sys.stderr)
                continue
            runs.append({"seed": seed, **{k: v["value"]
                                          for k, v in result["metrics"].items()}})
        summary = {}
        for name, m in metrics.items():
            values = [r[name] for r in runs]
            if not values:
                continue
            s = summary[name] = _summary(values)
            flag = ""
            if (not args.trace and name != "setup_s"
                    and s["spread"] >= m["bound"] / 3):
                flag = "!"
            line = (f"{workload:7s} {name:34s} median {s['median']:<12.6g} "
                    f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                    f"spread {s['spread']:.4f}{flag}")
            if earlier and not args.trace:
                old = earlier["workloads"][workload]["summary"][name]["median"]
                worse = _worse(s["median"], old, m["better"])
                line += f"  vs earlier {worse:+.4f}{'!' if worse > m['bound'] else ''}"
            print(line, flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
