"""Deterministic worker-pool helper.

Results always come back in input order, so a computation partitioned
across workers produces byte-identical reports to a serial run.  Threads
are used rather than processes, so contexts and tables are shared without
copying, and a pool never starts more threads than there are CPUs.
concurrent.futures, the pool's module, is imported only when a call
uses more than one worker, so a serial command never loads it.

Its one caller is cdiff.full_report(workers=), one verdict per orbit of
c, kept as library API for the benchmark's probe, which times the
analyze-odd report at one and two workers; no command starts a worker.
Two threads made no command faster.  On a 2-core machine, in ten
alternating pairs of fresh processes (medians at one -> two workers),
two workers won 4/10 pairs of `cdu analyze` on x^7 over F_{2^9}
(0.293 -> 0.319 s) and 1/10 on x^5 over F_{3^5} (0.236 -> 0.258 s), and
4/10 of `cdu monomial` on the F_{3^12} sweep of x^5 (0.357 -> 0.360 s)
and 5/10 on the F_{5^8} sweep of x^3 (0.370 -> 0.362 s), with identical
output bytes.  In process, full_report of x^59+x^12+x over F_{2^11} won
0/6, 2/6 and 5/6 alternating pairs in three sets of runs (1.70 -> 1.99,
1.58 -> 1.54 and 1.48 -> 1.35 s): the row kernel's gathers run in
parallel on two threads, np.bincount does not, and the spread is as
large as the difference.
"""

from __future__ import annotations

import os


def pmap(fn, items, workers: int = 1) -> list:
    items = list(items)
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
