"""Machine-speed reference for the end-to-end times.

On a shared machine, the speed at which Python runs can drift by half
over tens of seconds, which no run can average away.  So the run times
a fixed piece of pure-Python work, about 15 ms long, before and after
every operation.  The work never calls fountainkit.  It uses the
operations fountainkit's codecs spend their time in: byte-table lookups
through a generator, dict updates, and shifts, XOR and byte conversion
of big ints.  Each operation's times are then scaled to a machine on
which that work takes REFERENCE_S seconds.
"""

from __future__ import annotations

from time import perf_counter

#: Duration of `reference_work` on the machine the figures are scaled to.
REFERENCE_S = 0.015

_TABLE = bytes((i * 29 + 7) & 0xFF for i in range(256))


def reference_work() -> int:
    buf = bytes(range(256)) * 8
    acc = 0
    seen: dict[int, int] = {}
    for r in range(34):
        buf = bytes(_TABLE[b] ^ r for b in buf)
        acc ^= int.from_bytes(buf, "big")
        for j in range(0, len(buf), 3):
            key = buf[j] ^ r
            seen[key] = seen.get(key, 0) + 1
    # Shifts, XOR and byte conversion of a 16 KiB integer: without this
    # part, the loop above speeds up more than fountainkit does when the
    # machine speeds up.
    big = int.from_bytes(bytes(range(256)) * 64, "big")
    for i in range(300):
        acc ^= big >> (i & 7)
        acc.to_bytes(16400, "big")
    return acc ^ len(seen)


def reference_seconds() -> float:
    """Wall time of one `reference_work` call."""
    start = perf_counter()
    reference_work()
    return perf_counter() - start
