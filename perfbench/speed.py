"""Host-speed calibration: a fixed pure-Python kernel timed next to each measurement.

The virtual machine the benchmark was defined on runs at two or more
speeds that alternate every few seconds to minutes; the same `confhom`
operation takes 120 ms in one state and 230 ms in the other, with CPU
time equal to wall time.  Longer runs do not average that out.  So every
timed measurement is bracketed by timings of `kernel` (object creation,
tuple hashing, dict updates, a sort and string formatting, the same kinds
of work as `confhom`'s enumeration and rendering, and loading and running
a module body, as an import does) in the same process, and the benchmark
reports times scaled to a host on which the kernel takes `REFERENCE_S`:

    scaled = wall * REFERENCE_S / kernel_time

The kernel does not touch `confhom`, so a change to the program moves the
scaled times exactly as much as the wall times.  The wall times are
reported next to them.
"""

from __future__ import annotations

import marshal
from time import perf_counter

REFERENCE_S = 0.001
REPEATS = 3
# A module body for `kernel` to load and run, as an import does.
_MODULE = marshal.dumps(compile(
    "\n".join([f"def f{i}(a, b=1):\n    return [a, b, {i}]\n" for i in range(40)]
              + [f"class C{i}:\n    x = {i}\n\n    def m(self):\n        return self.x\n"
                 for i in range(10)]),
    "<kernel>", "exec"))


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def kernel() -> int:
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = (i % 17, i % 5, i // 7)
        pair = _Pair(key, i)
        table[key] = table.get(key, 0) + pair.value
        acc += hash(key) & 7
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    text = ",".join(f"x{i}^{i % 5}" for i in range(1000))
    namespace: dict = {}
    for _ in range(2):
        exec(marshal.loads(_MODULE), namespace)
    return acc + len(ordered) + len(text) + len(namespace)


def kernel_seconds() -> float:
    """The median of `REPEATS` timings of `kernel`: the host's current speed.

    Not the fastest: when the host flickers between speeds within
    milliseconds, the fastest timing overstates its speed."""
    times = []
    for _ in range(REPEATS):
        started = perf_counter()
        kernel()
        times.append(perf_counter() - started)
    return sorted(times)[REPEATS // 2]


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time, for a measurement made
    between two kernel timings."""
    return REFERENCE_S / ((before + after) / 2)
