"""Deterministic worker-pool helper.

Results always come back in input order, so a computation partitioned
across workers produces byte-identical reports to a serial run.  Threads
are used rather than processes, so contexts and tables are shared without
copying.  They speed a report up by less than their number: the row
kernel's gathers run in parallel on two threads, np.bincount does not.  On
a 2-core machine, medians of ten alternating runs of full_report at one
and two workers were 0.52 and 0.39 s for x^4 over F_{3^5}, 0.26 and 0.22 s
for three multipliers over F_{3^7}, and 1.48 and 1.20 s for x^17 over
F_{2^9}.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def pmap(fn, items, workers: int = 1) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
