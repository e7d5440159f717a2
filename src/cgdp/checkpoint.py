"""The one checkpoint layout: a header line that starts with a magic word,
then for each named float array a line ``name dim...`` and one line of
its values, written with ``repr`` so that save and load round-trip
bit-exactly.  The reader names ``file:line`` for every fault it finds.
"""

import math

import numpy as np

__all__ = ["save_arrays", "read_header", "read_arrays"]


def save_arrays(path, header, arrays):
    """Write the line ``header``, then each array of the dict ``arrays``
    in order, as float64."""
    lines = [header]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=float)
        lines.append(" ".join([name, *map(str, arr.shape)]))
        lines.append(" ".join(map(repr, arr.ravel().tolist())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_header(path, magic):
    """The header tokens after ``magic`` and all lines of the file
    ``path``.  A first token other than ``magic`` raises ValueError
    naming ``path:1``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    head = (lines[0] if lines else "").split() or [""]
    if head[0] != magic:
        raise ValueError(f"{path}:1: unrecognized checkpoint header "
                         f"{head[0]!r}")
    return head[1:], lines


def read_arrays(path, lines, shapes):
    """The arrays ``{name: shape}``, in order, from the ``lines`` after
    the header.  A missing or mismatched array header, a values line
    without exactly the array's number of finite values, and text after
    the last array raise ValueError naming ``path:line``.  No array is
    allocated beyond the values the file holds."""
    arrays = {}
    line = 1   # index of the next array header in ``lines``
    for name, shape in shapes.items():
        head = " ".join([name, *map(str, shape)])
        if line >= len(lines) or lines[line].split() != head.split():
            raise ValueError(f"{path}:{line + 1}: expected array header "
                             f"{head!r}")
        text = lines[line + 1] if line + 1 < len(lines) else ""
        try:
            vals = np.array(text.split(), dtype=float)
        except ValueError:
            vals = np.array([np.nan])
        if vals.size != math.prod(shape) or not np.all(np.isfinite(vals)):
            raise ValueError(f"{path}:{line + 2}: array {name} needs "
                             f"{math.prod(shape)} finite values, got "
                             f"{text[:60]!r}")
        arrays[name] = vals.reshape(shape)
        line += 2
    if any(rest.strip() for rest in lines[line:]):
        raise ValueError(f"{path}:{line + 1}: text after the last array")
    return arrays
