"""Deterministic worker-pool helper.

Results always come back in input order, so a computation partitioned
across workers produces byte-identical reports to a serial run.  Threads
are used rather than processes, so contexts and tables are shared without
copying, and a pool never starts more threads than there are CPUs.

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
one, slower in four pairs.  A sweep gains little: the x^5 sweep of the
3^3 tower to r = 4, in eight alternating pairs of fresh processes, was
faster on two workers in five pairs, at a median of 0.405 s against
0.385 s on one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def pmap(fn, items, workers: int = 1) -> list:
    items = list(items)
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
