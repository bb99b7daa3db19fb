"""One BLAS thread policy for the whole package.

Every public numeric entry point runs under :func:`serial_blas`, which
pins every loaded OpenBLAS to one thread for the duration of the call
and restores the counts in effect on entry.  The one exception is the
dense ``eigh`` inside :func:`bischro.spectrum.solve_spectrum`, which
gains from threads: it runs inside :func:`entry_threads`, at the counts
that were in effect when the outermost pinned call was entered.

The process loads two OpenBLAS libraries, numpy's and scipy.linalg's,
each with its own thread pool.  On the small matrices of the Gram,
observability and control layers (N <= ~200) a threaded call spends
more on waking its workers than the second thread gives back (a
moment+HUM control pair at N = 102 with cold caches: about 16 ms at two
threads, 2.8-4.2 ms at one, on a 2-core machine).  The larger cost is
across calls: after a threaded numpy call between two eigensolves, its
worker keeps a core busy that the next scipy ``eigh`` needs, so the
``eigh`` stalls (on a 2-core machine, median 194-203 ms against 147 ms
at 1022 dofs, 5.9 against 1.7 ms at 126 dofs).  Pinning numpy only
around the ``eigh`` does not help; the calls between eigensolves must
be serial too.
"""

from __future__ import annotations

import contextlib
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
    several Python threads share one depth count under a lock.  While
    any caller is inside :meth:`threaded`, the entry counts hold.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._threaded = 0
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

    @contextlib.contextmanager
    def threaded(self):
        """Run the body at the counts the outermost entry saved."""
        with self:
            with self._lock:
                if self._threaded == 0:
                    for (_, set_), n in zip(_openblas(), self._saved):
                        set_(n)
                self._threaded += 1
            try:
                yield
            finally:
                with self._lock:
                    self._threaded -= 1
                    if self._threaded == 0:
                        for _, set_ in _openblas():
                            set_(1)


_SERIAL = _SerialScope()
entry_threads = _SERIAL.threaded


def serial_blas(fn):
    """Run ``fn`` with every loaded OpenBLAS pinned to one thread."""
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with _SERIAL:
            return fn(*args, **kwargs)
    return call
