"""Keep BLAS on the calling thread.

OpenBLAS hands a large enough call (a complex product from m*n*k of
about 65,536, zgesv from 100 wide) to its own thread pool. There a call
can give other bits than on one thread, and on a machine with few CPUs
the pool's idle workers spin beside the package's own worker thread.
one_thread() sets every OpenBLAS build mapped into the process to one
thread for the length of a block, through the library's own exported
set/get functions, and gives each build its previous count back after.
Where the process maps no OpenBLAS (numpy built on another BLAS, or no
/proc/self/maps) it does nothing.
"""

import contextlib
import ctypes

# the names a build exports its thread-count functions under:
# scipy-openblas wheels (numpy's and scipy's, 64-bit integers or not) and
# plain OpenBLAS
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _function(lib, verb):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            try:
                return getattr(lib, f"{prefix}_{verb}_num_threads{suffix}")
            except AttributeError:
                continue
    return None


def controls():
    """(get, set) of the thread count of every OpenBLAS build mapped into
    this process, found by path in /proc/self/maps; [] where there is
    none."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        get, set_ = _function(lib, "get"), _function(lib, "set")
        if get is None or set_ is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return found


@contextlib.contextmanager
def one_thread():
    """Run the block with every mapped OpenBLAS build at one thread.

    The count is process-wide: threads the block starts run at one
    thread too, and so does any other thread of the process while the
    block runs. Blocks nest on one thread; blocks that overlap on two
    threads do not, since the first to end restores the counts."""
    held = [(set_, get()) for get, set_ in controls()]
    for set_, _ in held:
        set_(1)
    try:
        yield
    finally:
        for set_, count in held:
            set_(count)
