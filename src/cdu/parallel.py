"""Deterministic worker-pool helper.

Results always come back in input order, so a computation partitioned
across workers produces byte-identical reports to a serial run.  Threads
are used rather than processes, so contexts and tables are shared without
copying, and a pool never starts more threads than there are CPUs.
concurrent.futures, the pool's module, is imported only when a call
uses more than one worker, so a serial command never loads it.

Two callers use it: cdiff.full_report, one verdict per orbit of c, and
monomial.exceptionality_sweep, one extension field per worker.  Threads
speed a report up by less than their number: the row kernel's gathers run
in parallel on two threads, np.bincount does not.  On a 2-core machine, in
ten alternating runs of full_report at one and two workers, two workers
were up to 1.6 times faster on reports that count thousands of rows, but
the gain ranged from none to that between runs taken minutes apart.  A
report that counts few rows is too small to share: x^4 over F_{3^5}, two
rows per orbit of c, took 2.8 ms at one worker and 4.2 ms at two.  The
same small work is why the verification suites run serially: on the
same machine, in five alternating pairs of runs, `cdu verify-theorems`
took a median of 1.39 s with its suites on two workers against 1.26 s on
one, slower in four pairs.  A sweep gains a few percent at most.  In two
sets of ten alternating pairs of fresh `cdu monomial` processes on 2 cores,
the x^5 sweep up to F_{3^12} (`--p 3 --h 3 --d 5 --c 7 --rmax 4`) was
faster on two workers in 7 and 8 pairs, at medians of 0.672 -> 0.663 s and
0.833 -> 0.802 s; the x^3 sweep up to F_{5^8} (`--p 5 --h 2 --d 3 --c 7
--rmax 4`) was faster in 3 and 5 pairs, at medians of 0.465 -> 0.467 s and
0.558 -> 0.556 s.
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
