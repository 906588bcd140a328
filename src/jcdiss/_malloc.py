"""Keep a command's freed memory in the process.

glibc gives a freed block of M_MMAP_THRESHOLD bytes or more straight back
to the kernel, and trims the top of its heap once more than
M_TRIM_THRESHOLD bytes are free there. Both start at 128 KiB and rise as
larger blocks are freed, up to 32 MiB (DEFAULT_MMAP_THRESHOLD_MAX) and
twice that. Until they do, every stack-sized temporary a command frees
goes back to the kernel, and the next stack faults its pages in again.
keep_freed_memory() sets both at once to those largest values, so the
process is left in a state glibc's own dynamic mode can reach.

Set both or neither: raising the trim threshold alone, or padding the
top of the heap with M_TOP_PAD, fixes the mmap threshold where it stands,
and each stack is mapped and unmapped anew. A coherent_series pass (both
commands in one process) took 1.6M minor page faults with the trim
threshold alone and 0.77M with an 8 MiB top pad, against 117k with
neither and about 8k with both.

The settings are process-wide and are not restored. glibc has no getter
for them, and any mallopt call fixes the thresholds for good, so setting
the 128 KiB start values back would leave the process worse off than it
was. A process whose C library has no mallopt, or whose mallopt
refuses the mmap threshold (a 32-bit glibc caps it at 512 KiB), is left
as it is.
"""

import ctypes

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _libc():
    """The symbols the process links, the C library's among them."""
    return ctypes.CDLL(None)


def keep_freed_memory():
    """Set glibc's mmap and trim thresholds to MMAP_THRESHOLD and
    TRIM_THRESHOLD; True if mallopt took both. The mmap threshold goes
    first, since it is the one mallopt may refuse; the trim threshold
    is not set without it."""
    try:
        mallopt = _libc().mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return (
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
        and mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    )
