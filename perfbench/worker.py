"""One workload in one fresh process; prints one JSON object.

    python3 perfbench/worker.py --mode {setup,run,trace} --workload W --seed N --seconds S

``setup`` only imports expsums and makes the warm-up call.  ``run`` then
times passes over the seeded items until they have taken ``--seconds``:
one whole pass at least, at most ``MAX_PASSES``, the last one possibly
stopped part-way (item sizes follow a golden-ratio schedule, so any prefix
of a pass mixes small and large items).  ``trace`` makes one traced and one
untraced pass, writes the spans to ``--spans`` and returns the per-module
metrics and the tracing overhead.  Oracles and result comparisons run
outside the item timings.  ``src`` must be on ``PYTHONPATH``; ``run.py``
arranges that.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

MAX_PASSES = 8


def _timed(run_item, i: int):
    """(seconds, output or None, error message or None) of one item."""
    t0 = time.perf_counter()
    try:
        out, err = run_item(i), None
    except Exception as exc:  # a failed item is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, err


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 items beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _check_pass(its, outs, errors, first: dict[int, str], items_mod) -> list[str]:
    """Oracle failures of one pass over ``its``.  The first output of each
    item is checked and its record kept in ``first``; later outputs must
    repeat that record byte for byte."""
    failures = []
    for i, (item, out, err) in enumerate(zip(its, outs, errors)):
        if err is not None:
            failures.append(f"{item.label}: {err}")
        elif i in first:
            if items_mod.record(item, out) != first[i]:
                failures.append(f"{item.label}: result differs from its first run")
        else:
            try:
                msgs = items_mod.check(item, out)
                first[i] = items_mod.record(item, out)
            except Exception as exc:
                msgs = [f"oracle raised {type(exc).__name__}: {exc}"]
            if msgs:
                failures.append(f"{item.label}: {'; '.join(msgs)}")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import expsums
    warm = expsums.indicator_poly(expsums.IntegerSet.from_iterable(range(1, 102)))
    expsums.certified_l1(warm, 0.1)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import items
    its = items.build(args.workload, args.seed, args.scale)

    def run_item(i):
        return items.run_item(its[i])

    import numpy
    import scipy
    from expsums import quadrature

    budget = os.environ.get("EXPSUMS_MEMORY_BUDGET") or quadrature.DEFAULT_MEMORY_BUDGET
    out = {"setup_s": setup_s, "pass_items": len(its),
           "env": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                   "backend": expsums.BACKEND, "memory_budget_bytes": int(budget),
                   "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}}
    n = len(its)
    first: dict[int, str] = {}
    if args.mode == "run":
        # passes over the items until they have taken --seconds; the first
        # pass is always whole, the last may stop part-way, and no run makes
        # more than MAX_PASSES, so no single item fills the tail.  Each pass
        # is checked after it ends, outside the item timings
        times, failures, widths, grid, spent = [], [], [], 0, 0.0
        while not times or (spent < args.seconds and len(times) < MAX_PASSES * n):
            runs = []
            for i in range(n):
                runs.append(_timed(run_item, i))
                spent += runs[-1][0]
                if times and spent >= args.seconds:
                    break
            outs, errors = [r[1] for r in runs], [r[2] for r in runs]
            if not times:
                for item, o in zip(its, outs):
                    enc = None if o is None else items.enclosure(item, o)
                    if enc is not None and enc[0] > 0:
                        lo, hi, shape = enc
                        widths.append((hi - lo) / lo)
                        grid = max(grid, math.prod(shape or (0,)))
            times += [r[0] for r in runs]
            del runs
            failures += _check_pass(its, outs, errors, first, items)
            del outs
        tail_s, tail_pct = tail(times)
        out.update(
            attempted=len(times), failed=len(failures), failures=failures[:20],
            passes=len(times) / n, timed_s=spent, items_per_s=len(times) / spent,
            item_p50_s=statistics.median(times), item_tail_s=tail_s,
            tail_percentile=tail_pct,
            enclosure_rel_width=statistics.median(widths) if widths else None,
            grid_bytes_max=items.BYTES_PER_SAMPLE * grid,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    else:
        import spans
        # a traced pass, then an untraced one over the same items; the
        # traced pass comes first, so any first-pass cost makes the reported
        # overhead larger, not smaller.  Both must give the same results.
        tracer = spans.Tracer()
        traced = []
        with spans.patched(tracer):
            for i in range(n):
                tracer.item = i
                traced.append(_timed(run_item, i))
        plain = [_timed(run_item, i) for i in range(n)]
        failures = []
        for runs in (traced, plain):
            failures += _check_pass(its, [r[1] for r in runs], [r[2] for r in runs],
                                    first, items)
        plain_s, traced_s = sum(r[0] for r in plain), sum(r[0] for r in traced)
        metrics = spans.layer_metrics(tracer.spans, traced_s)
        metrics["trace.items_per_s"] = n / traced_s
        metrics["trace.untraced_items_per_s"] = n / plain_s
        metrics["trace.speed_ratio"] = plain_s / traced_s
        metrics["trace.unattributed_share"] = metrics["trace.unattributed_s"] / traced_s
        if args.spans:
            with open(args.spans, "w") as fh:
                for row in tracer.spans:
                    fh.write(json.dumps(row) + "\n")
        out.update(attempted=2 * n, failed=len(failures),
                   failures=failures[:20], metrics=metrics)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
