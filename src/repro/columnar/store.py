"""Append-only row storage shared by the columnar game kernels.

:class:`RowArena` packs variable-length integer rows into one flat
``array`` buffer so backend views (``numpy.frombuffer``) and scalar slices
read the same memory.  The game kernels keep each worker's candidate
positions here.
"""

from __future__ import annotations

from array import array
from typing import List, Tuple


def default_store() -> bool:
    """Always False: there is no persistent column store.

    Kept because ``perfbench/run.py`` records it in its provenance block.
    """
    return False


class RowArena:
    """Append-only CSR rows over one flat ``array`` buffer.

    Callers :meth:`append` a row of integers and get back a slot whose
    :meth:`bounds` index the shared :attr:`data` buffer.  Rows are packed
    contiguously in append order and never moved or re-packed afterwards,
    so backend views (``numpy.frombuffer``) and scalar slices both read
    the same memory for the arena's lifetime.  The game kernels keep each
    worker's candidate positions here (packed once per allocation); the
    local-search columns pack rows lazily on first touch.
    """

    __slots__ = ("data", "_bounds")

    def __init__(self, typecode: str = "q") -> None:
        self.data = array(typecode)
        self._bounds: List[int] = [0]

    def append(self, values) -> int:
        """Pack one row; returns its slot for later :meth:`bounds` lookups."""
        self.data.extend(values)
        self._bounds.append(len(self.data))
        return len(self._bounds) - 2

    def bounds(self, slot: int) -> Tuple[int, int]:
        """``(start, end)`` of the slot's row within :attr:`data`."""
        return self._bounds[slot], self._bounds[slot + 1]

    def __len__(self) -> int:
        return len(self._bounds) - 1
