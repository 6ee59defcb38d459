"""arrlog benchmark: one workload in one process, one closed-loop client.

    python3 perfbench/run.py --workload corpus-verify --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; arrlog is imported from its ``src``.
The run sets up in fresh interpreters several times (``setup_s`` is their
median), then runs whole passes of the workload's ops until ``--seconds``
have passed.  Every op's output is checked against the digest that
``record.py`` stored in ``reference.json`` and against known answers.  Op
and set-up times are scaled to a reference speed of the machine by the
probes of ``calibrate.py``.  With ``--trace 1`` it runs the first quarter of
a pass untraced, then the whole pass traced, and reports per-layer counts
and times from the outside-in tracer.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  No threads; subprocesses only for set-up timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
from tracer import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_REPEATS = 7

# metric name -> tracer stat key, where they differ
ALIASES = {"linalg.span_add": "linalg.SpanBuilder.add",
           "criteria.external_splitting": "criteria._external_splitting"}
CACHED = ("_ar_kernel", "_ar_quick_dim", "_dh_kernel", "_deriv_kernel",
          "_image_vectors", "classify", "jacobian", "intersection_points")
PER_LAYER = (
    ["poly.self_s", "poly.poly_mul.calls", "poly.compose2.calls",
     "poly.compose2.busy_s", "poly.substitute_line.calls",
     "poly.substitute_line.busy_s",
     "linalg.self_s", "linalg.rref.calls", "linalg.rref.busy_s",
     "linalg.kernel_basis.calls", "linalg.rank.calls",
     "linalg.solve_unique.calls", "linalg.span_add.calls", "linalg.cells",
     "linalg.max_cells", "linalg.max_bits",
     "multiarr.self_s", "multiarr.ziegler_restriction.calls",
     "multiarr.exponents.busy_s", "multiarr.basis.busy_s",
     "multiarr.deriv_dim.calls", "multiarr.deriv_dim.busy_s",
     "derivation.self_s", "derivation.classify.busy_s",
     "derivation.jacobian.busy_s", "derivation.relation_vectors.busy_s",
     "derivation.dh_basis.calls", "derivation.dh_basis.busy_s",
     "derivation.degree_reached", "derivation.cap_hit.count",
     "criteria.self_s", "criteria.ziegler_map.busy_s",
     "criteria.property_P.busy_s", "criteria.free_exponents_by_defect.busy_s",
     "criteria.external_splitting.calls", "criteria.external_splitting.busy_s",
     "arrangement.self_s", "arrangement.intersection_points.calls"]
    + [f"cache.{fn}.hit_ratio" for fn in CACHED]
    + ["trace_overhead_frac"])
UNITS = {"self_s": "s", "busy_s": "s", "calls": "count", "cells": "count",
         "max_cells": "count", "max_bits": "bits", "degree_reached": "degree",
         "count": "count", "hit_ratio": "ratio", "trace_overhead_frac": "ratio"}


def import_arrlog():
    """Import arrlog from this checkout's source tree, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "arrlog", "__init__.py")):
        sys.exit(f"perfbench: no arrlog source tree at {SRC}")
    sys.path.insert(0, SRC)
    import arrlog
    if os.path.dirname(os.path.abspath(arrlog.__file__)) != os.path.join(SRC, "arrlog"):
        sys.exit(f"perfbench: arrlog imported from {arrlog.__file__}, not {SRC}")


class Caches:
    """Every ``lru_cache`` bound to a name in an arrlog module, found by its
    ``cache_clear``, with hit and miss totals kept across clears."""

    def __init__(self):
        found = {}
        for name, mod in sorted(sys.modules.items()):
            if name == "arrlog" or name.startswith("arrlog."):
                for attr, val in vars(mod).items():
                    if callable(getattr(val, "cache_clear", None)):
                        found.setdefault(id(val), (attr, val))
        self.caches = list(found.values())
        self.totals: dict[str, list[int]] = {}

    def clear(self):
        for attr, cache in self.caches:
            info = cache.cache_info()
            tot = self.totals.setdefault(attr, [0, 0])
            tot[0] += info.hits
            tot[1] += info.misses
            cache.cache_clear()

    def hit_ratio(self, attr: str) -> float:
        hits, misses = self.totals.get(attr, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0


def run_pass(ops, caches: Caches, digests: dict | None,
             meter: calibrate.Meter) -> list[dict]:
    """Run ops in order; returns one record per op.

    Each record holds the op's wall time (``latency``) and that time at the
    machine's reference speed (``scaled``).  With ``digests`` None only the
    known answers are checked.
    """
    records = []
    for op in ops:
        if op.clear:
            caches.clear()
        rec = {"key": op.key, "group": op.group, "digest": None, "miss": None}
        with meter.op() as span:
            try:
                text, obj = op.run()
            except Exception as e:  # an op that raises is a failed op
                rec["miss"] = f"raised {type(e).__name__}: {e}"
        if rec["miss"] is None:
            rec["digest"] = hashlib.sha256(text.encode()).hexdigest()
            rec["miss"] = op.check(obj)
            if not rec["miss"] and digests is not None \
                    and rec["digest"] != digests.get(op.key):
                rec["miss"] = "output differs from the reference digest"
        rec.update(latency=span.latency, scaled=span.scaled)
        records.append(rec)
    return records


def measure_setup(workload: str, seed: int) -> float:
    """Median time of fresh interpreters that import arrlog and build the
    workload's inputs, each scaled by the probes run just before and after."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    # not Meter: a probe inside would run beside the child, on its cores
    times = []
    before = calibrate.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        after = calibrate.probe()
        times.append(elapsed * 2 * calibrate.REFERENCE_S / (before + after))
        before = after
    return statistics.median(times)


def tail(latencies: list[float]) -> str | None:
    """The highest percentile with at least ten samples beyond it, when that
    percentile lies above the median."""
    n = len(latencies)
    if n <= 20:
        return None
    value = sorted(latencies)[n - 11]
    return (f"op_tail_s p{100 * (n - 10) / n:.0f} = {value:.4f} s"
            f" ({n} samples, 10 beyond)")


def metric(name: str, value, unit: str) -> dict:
    print(f"{name} = {value} {unit}")
    return {"value": value, "unit": unit}


def report_failures(records: list[dict]):
    missed = [r for r in records if r["miss"]]
    for r in missed[:5]:
        print(f"FAILED {r['key']}: {r['miss']}", file=sys.stderr)
    print(f"failed_frac = {len(missed) / len(records):.4f}"
          f" ({len(missed)} of {len(records)} ops)")
    return len(missed)


def layer_metrics(tracer, caches: Caches, overhead: float, wall: float) -> dict:
    values = {"trace_overhead_frac": overhead,
              "linalg.cells": tracer.cells, "linalg.max_cells": tracer.max_cells,
              "linalg.max_bits": tracer.max_bits,
              "derivation.degree_reached": tracer.degree_reached,
              "derivation.cap_hit.count": tracer.cap_hits}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.self_s[layer]
        print(f"share {layer} = {tracer.self_s[layer] / wall:.3f} of traced time")
    for fn in CACHED:
        values[f"cache.{fn}.hit_ratio"] = caches.hit_ratio(fn)
    out = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name not in values:
            values[name] = getattr(tracer.stat(ALIASES.get(base, base)), field)
        out[name] = metric(name, values[name], UNITS[field])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_arrlog()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r};"
                 f" choose from {sorted(workloads.WORKLOADS)}")
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    workload = workloads.WORKLOADS[args.workload](args.seed, reference)
    workload.ops(0)
    if args.setup_only:
        return 0
    setup_s = measure_setup(args.workload, args.seed)
    caches = Caches()
    digests = reference["digests"]

    if not args.trace:
        records, p, start = [], 0, time.perf_counter()
        meter = calibrate.Meter()
        while time.perf_counter() - start < args.seconds:
            records += run_pass(workload.ops(p), caches, digests, meter)
            p += 1
        wall = sum(r["latency"] for r in records)
        scaled = [r["scaled"] for r in records]
        print(f"{args.workload}: {len(records)} ops in {p} passes,"
              f" {wall:.2f} s of ops, {sum(scaled):.2f} s at reference speed")
        print(f"wall_ops_per_s = {len(records) / wall} 1/s (not scaled)")
        print(tail(scaled) or "op_tail_s: 20 ops or fewer, no tail")
        failed = report_failures(records)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"ops_per_s": metric("ops_per_s", len(records) / sum(scaled), "1/s"),
                   "op_p50_s": metric("op_p50_s", statistics.median(scaled), "s"),
                   "peak_rss_mb": metric("peak_rss_mb", rss, "MB"),
                   "setup_s": metric("setup_s", setup_s, "s")}
    else:
        # the first quarter of the ops, untraced, prices the tracing
        meter = calibrate.Meter()
        ops = workload.ops(0)
        plain = run_pass(ops[:max(1, len(ops) // 4)], caches, digests, meter)
        tracer = Tracer(meter.clock)
        tracer.install()
        caches.clear()
        caches.totals.clear()
        traced = run_pass(workload.ops(0), caches, digests, meter)
        caches.clear()
        for a, b in zip(plain, traced):
            if a["digest"] != b["digest"]:
                b["miss"] = b["miss"] or "traced output differs from untraced"
        for r in traced:
            if r["group"]:
                print(f"op_p50_s {r['group']} = {r['scaled']:.4f} s (traced)")
        records = plain + traced
        overhead = (sum(r["scaled"] for r in traced[:len(plain)])
                    / sum(r["scaled"] for r in plain) - 1)
        traced_wall = sum(r["latency"] for r in traced)
        print(f"{args.workload}: {len(traced)} ops traced in {traced_wall:.2f} s,"
              f" the first {len(plain)} also untraced")
        failed = report_failures(records)
        metrics = layer_metrics(tracer, caches, overhead, traced_wall)

    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
