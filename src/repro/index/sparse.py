"""Sparse count matrices with named rows and columns.

The FCT- and IFE-indices of MIDAS store embedding counts in sparse
matrices (TG, TP and EG — paper, Section 5.1).  MIDAS keeps only the
non-zero entries as ``(row, column, value)`` triplets; this module
provides the equivalent structure as a dict-of-dicts keyed by arbitrary
hashable row/column identifiers, with O(1) updates and O(row) / O(col)
deletions (a column index is maintained alongside the row index).
"""

from __future__ import annotations

import sys
from collections.abc import Hashable, Iterator

RowKey = Hashable
ColKey = Hashable


class SparseCountMatrix:
    """A mutable sparse matrix of non-negative counts."""

    def __init__(self) -> None:
        self._rows: dict[RowKey, dict[ColKey, int]] = {}
        self._cols: dict[ColKey, set[RowKey]] = {}

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def get(self, row: RowKey, col: ColKey) -> int:
        return self._rows.get(row, {}).get(col, 0)

    def set(self, row: RowKey, col: ColKey, value: int) -> None:
        if value < 0:
            raise ValueError("counts must be non-negative")
        if value == 0:
            self.discard(row, col)
            return
        self._rows.setdefault(row, {})[col] = value
        self._cols.setdefault(col, set()).add(row)

    def increment(self, row: RowKey, col: ColKey, delta: int = 1) -> int:
        value = self.get(row, col) + delta
        self.set(row, col, value)
        return value

    def discard(self, row: RowKey, col: ColKey) -> None:
        row_data = self._rows.get(row)
        if row_data and col in row_data:
            del row_data[col]
            if not row_data:
                del self._rows[row]
            owners = self._cols.get(col)
            if owners is not None:
                owners.discard(row)
                if not owners:
                    del self._cols[col]

    # ------------------------------------------------------------------
    # row / column operations
    # ------------------------------------------------------------------
    def row(self, row: RowKey) -> dict[ColKey, int]:
        """Non-zero entries of *row* (copy)."""
        return dict(self._rows.get(row, {}))

    def column(self, col: ColKey) -> dict[RowKey, int]:
        """Non-zero entries of *col* (copy)."""
        return {
            row: self._rows[row][col] for row in self._cols.get(col, ())
        }

    def row_keys(self) -> list[RowKey]:
        return sorted(self._rows, key=repr)

    def column_keys(self) -> list[ColKey]:
        return sorted(self._cols, key=repr)

    def has_row(self, row: RowKey) -> bool:
        return row in self._rows

    def has_column(self, col: ColKey) -> bool:
        return col in self._cols

    def remove_row(self, row: RowKey) -> None:
        row_data = self._rows.pop(row, None)
        if not row_data:
            return
        for col in row_data:
            owners = self._cols.get(col)
            if owners is not None:
                owners.discard(row)
                if not owners:
                    del self._cols[col]

    def remove_column(self, col: ColKey) -> None:
        owners = self._cols.pop(col, None)
        if not owners:
            return
        for row in owners:
            row_data = self._rows.get(row)
            if row_data is not None:
                row_data.pop(col, None)
                if not row_data:
                    del self._rows[row]

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def triplets(self) -> Iterator[tuple[RowKey, ColKey, int]]:
        """Iterate entries as ``(row, col, value)`` — the paper's vectors."""
        for row, row_data in self._rows.items():
            for col, value in row_data.items():
                yield row, col, value

    def memory_bytes(self) -> int:
        """Rough resident-size estimate for the cost experiments."""
        total = sys.getsizeof(self._rows) + sys.getsizeof(self._cols)
        for row, row_data in self._rows.items():
            total += sys.getsizeof(row) + sys.getsizeof(row_data)
            total += sum(
                sys.getsizeof(col) + sys.getsizeof(value)
                for col, value in row_data.items()
            )
        for col, owners in self._cols.items():
            total += sys.getsizeof(col) + sys.getsizeof(owners)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SparseCountMatrix {len(self._rows)}x{len(self._cols)} "
            f"nnz={self.nnz()}>"
        )
