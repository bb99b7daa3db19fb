"""Serial OpenBLAS for the small dense layers.

The Gram, observability and control layers work on complex matrices
of order N <= ~200.  There a threaded OpenBLAS wakes its worker
threads on every zpotrf/zheevr/zgemv call and loses more than the second
thread gains (a moment+HUM control pair at N = 102 with cold caches:
about 16 ms at two threads, 2.8-4.2 ms at one, on a 2-core machine).
The dense eigensolve does gain from threads, so the count is pinned to
one only for the duration of a call and the count in effect on entry
is restored afterwards.
"""

from __future__ import annotations

import ctypes
import functools
import re
import threading

_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
            "openblas_{}_num_threads64_", "openblas_{}_num_threads")


@functools.cache
def _openblas():
    """(get, set) thread-count functions of every OpenBLAS mapped into the process.

    Looked up once, on the first serial call; numpy's and scipy.linalg's
    libraries are both loaded by then, since importing bischro loads them.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            paths = sorted({m.group(1) for line in maps
                            if (m := re.search(r"(/\S*openblas\S*\.so\S*)", line))})
    except OSError:
        return ()
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _SYMBOLS:
            get = getattr(lib, symbol.format("get"), None)
            set_ = getattr(lib, symbol.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
    return tuple(found)


class _SerialScope:
    """Re-entrant scope: the outermost entry pins one thread, its exit restores.

    The thread count is process-wide, so nested calls and calls from
    several Python threads share one depth count under a lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                libs = _openblas()
                self._saved = tuple(get() for get, _ in libs)
                for _, set_ in libs:
                    set_(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, set_), n in zip(_openblas(), self._saved):
                    set_(n)


_SERIAL = _SerialScope()


def serial_blas(fn):
    """Run ``fn`` with every loaded OpenBLAS pinned to one thread."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with _SERIAL:
            return fn(*args, **kwargs)
    return call
