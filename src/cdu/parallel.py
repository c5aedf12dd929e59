"""Deterministic worker-pool helper.

Results always come back in input order, so a computation partitioned
across workers produces byte-identical reports to a serial run.  Threads
are used rather than processes, so contexts and tables are shared without
copying.  They speed a report up by less than their number: the row
kernel's gathers run in parallel on two threads, np.bincount does not.  On
a 2-core machine, in ten alternating runs of full_report at one and two
workers, two workers were up to 1.6 times faster on reports that count
thousands of rows, but the gain ranged from none to that between runs
taken minutes apart.  A report that counts few rows is too small to
share: x^4 over F_{3^5}, two rows per orbit of c, took 2.8 ms at one
worker and 4.2 ms at two.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def pmap(fn, items, workers: int = 1) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
