"""Deterministic worker-pool helper.

Results always come back in input order, so a computation partitioned
across workers produces byte-identical reports to a serial run.  Threads
are used rather than processes, so contexts and tables are shared without
copying.  They speed a report up by less than their number: the row
kernel's gathers run in parallel on two threads, np.bincount does not.  On
a 2-core machine, medians of ten alternating runs of full_report at one
and two workers were 0.23 and 0.17 s for g*x^20 + x^5 + x over F_{3^5}
(123 orbits of c), 0.18 and 0.11 s for the three multipliers of F_3
over F_{3^7}, and 0.45 and 0.40 s for the eight of F_8 over F_{2^12}.  A
monomial's report counts two rows per orbit, too few to share: x^4 over
F_{3^5} took 4 and 6 ms.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def pmap(fn, items, workers: int = 1) -> list:
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
