"""Write ``reference.json``: output digests, corpus op times and batches.

    python3 perfbench/record.py

Run once at the commit whose outputs are the reference; a later change that
alters any op's output must fail the benchmark, not re-record it.  Ladder and
line outputs do not depend on line order, so one pass with seed 0 covers
every seed.  Each corpus op is timed from empty caches, and the random
corpus is dealt into batches that hold one op from each band of ten ops of
similar time and cost about the same (see ``deal``).  Run it on an otherwise
idle machine.
"""

from __future__ import annotations

import json
import os
import platform
import sys

import calibrate
import run


def deal(seconds: dict[str, float], count: int) -> list[list[str]]:
    """Balanced batches with one op from each band of ``count`` ops.

    Ops are sorted by time; within each band the slowest op goes to the
    batch with the least time so far, the next to the next, and so on.
    """
    order = sorted(seconds, key=seconds.get, reverse=True)
    batches = [[] for _ in range(count)]
    totals = [0.0] * count
    for start in range(0, len(order), count):
        emptiest = sorted(range(count), key=totals.__getitem__)
        for key, b in zip(order[start:start + count], emptiest):
            batches[b].append(key)
            totals[b] += seconds[key]
    return batches


def main() -> int:
    run.import_arrlog()
    import workloads as wl

    caches = run.Caches()
    digests, seconds = {}, {}
    ops = [wl.verify_op(k, A, None, first=True)
           for k, A in wl.corpus_arrangements()]
    meter = calibrate.Meter()
    records = run.run_pass(ops, caches, None, meter)
    for cls in (wl.LadderClassify, wl.LineExponents):
        records += run.run_pass(cls(0, {}).ops(0), caches, None, meter)
    for r in records:
        if r["miss"]:
            sys.exit(f"record: {r['key']}: {r['miss']}")
        digests[r["key"]] = r["digest"]
        if r["key"].startswith("corpus/"):
            seconds[r["key"]] = round(r["latency"], 4)

    index = {k: i for i, (k, _) in enumerate(wl.corpus_arrangements())}
    batches = [sorted(b, key=index.get)
               for b in deal(seconds, wl.CORPUS_BATCHES)]
    doc = {"machine": {"nproc": os.cpu_count(),
                       "python": platform.python_version(),
                       "processes": 1, "threads": 1},
           "corpus_seconds": seconds, "corpus_batches": batches,
           "digests": digests}
    with open(run.REFERENCE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests and {len(batches)} corpus batches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
