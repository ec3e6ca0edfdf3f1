"""How fast the host runs right now, from a fixed calibration kernel.

The benchmark shares a few cores of a busy host with other tenants, whose
load makes the same pure-Python work run up to ~1.8x slower from one
minute to the next.  Wall times of identical solves (one burst instance,
solved again and again) spread by 0.16-0.29 of their median between 40 s
windows; the calibration kernels below, timed in the same windows, slowed
down in step with the solves.  Dividing every timed interval by the
slowdown the kernels measured just before and just after it leaves the
cost of the program itself: on the same data that spread fell to
0.04-0.07.

:func:`slowdown` is 1.0 on the reference host -- a quiet 2-vCPU Xeon VM at
2.1 GHz running CPython 3.11, where :func:`_dict_churn` takes
:data:`DICT_CHURN_S` and :func:`_sort_records` takes
:data:`SORT_RECORDS_S` -- and 1.8 where the same kernels take 1.8x as
long.  A time divided by it is in seconds on the reference host.  The
kernels are benchmark code only, so no change to the program moves them.
"""

from __future__ import annotations

import gc
import math
import random
import time
from typing import Callable

#: Reference-host time of :func:`_dict_churn` (small working set).
DICT_CHURN_S = 0.013
#: Reference-host time of :func:`_sort_records` (a few MB of objects).
SORT_RECORDS_S = 0.045


def _dict_churn() -> int:
    """Integer dict updates on a cache-resident table."""
    table: dict = {}
    for i in range(100_000):
        key = i % 5003
        table[key] = table.get(key, 0) + i
    return sum(table.values())


def _sort_records() -> float:
    """Build, index and sort tens of thousands of small objects."""
    rng = random.Random(0)
    keys = [rng.random() for _ in range(30_000)]
    index = {key: (i, key * 2.0) for i, key in enumerate(keys)}
    total = 0.0
    for key in sorted(keys):
        total += index[key][1]
    records = [[key, str(i)] for i, key in enumerate(keys)]
    records.sort(key=lambda record: record[1])
    return total


def _timed(kernel: Callable[[], object]) -> float:
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def slowdown() -> float:
    """The host's slowdown against the reference host, right now: the
    geometric mean of both kernels' time over their reference time, each
    kernel timed twice and the faster time kept (about 0.12 s on the
    reference host).  The cyclic garbage collector is off meanwhile, since
    how long a collection takes depends on what the program left on the
    heap."""
    gc.disable()
    try:
        churn = min(_timed(_dict_churn), _timed(_dict_churn))
        records = min(_timed(_sort_records), _timed(_sort_records))
    finally:
        gc.enable()
    return math.sqrt((churn / DICT_CHURN_S) * (records / SORT_RECORDS_S))
