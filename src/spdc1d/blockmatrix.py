"""Labelled dense containers for the pipeline's operators.

Index spaces are ordered label lists (field, channel-1, channel-2, bin)
flattened into one axis; every matrix carries its row and column space,
which name its blocks and label its CSV dump.  Two channel conventions
appear: mode spaces label (direction, polarization) per field and
continuity-row spaces label (field class 'E'|'H', polarization).

The linear maps are computed per frequency bin as 2x2 arrays (see
``matrixcore``) and expanded into diagonal blocks here only on demand;
the pair-emission maps fill dense signal-idler blocks.  No algebra is
done on the dense form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIELDS = ("s", "i")  # 'i' entries carry idler creation-operator components
MODE_CHANNELS = (("F", "x"), ("B", "x"), ("F", "y"), ("B", "y"))
ROW_CHANNELS = (("E", "x"), ("E", "y"), ("H", "x"), ("H", "y"))


@dataclass(frozen=True)
class Space:
    """Ordered index space: fields x channels x bins."""

    name: str
    bins: int
    channels: tuple = MODE_CHANNELS

    @property
    def dim(self) -> int:
        return len(FIELDS) * len(self.channels) * self.bins

    def offset(self, field: str, c1: str, c2: str) -> slice:
        fi = FIELDS.index(field)
        ci = self.channels.index((c1, c2))
        start = (fi * len(self.channels) + ci) * self.bins
        return slice(start, start + self.bins)

    def labels(self):
        for f in FIELDS:
            for c1, c2 in self.channels:
                for k in range(self.bins):
                    yield (f, c1, c2, k)

    def compatible(self, other: "Space") -> bool:
        return self.bins == other.bins and self.channels == other.channels


def mode_space(name: str, bins: int) -> Space:
    return Space(name, bins, MODE_CHANNELS)


def row_space(name: str, bins: int) -> Space:
    return Space(name, bins, ROW_CHANNELS)


class BlockMatrix:
    """Complex matrix together with its row/column index spaces."""

    def __init__(self, row: Space, col: Space, data=None):
        self.row = row
        self.col = col
        if data is None:
            data = np.zeros((row.dim, col.dim), dtype=complex)
        data = np.asarray(data, dtype=complex)
        if data.shape != (row.dim, col.dim):
            raise ValueError(
                f"data shape {data.shape} does not match spaces "
                f"({row.dim}, {col.dim})"
            )
        self.data = data

    @classmethod
    def identity(cls, space: Space) -> "BlockMatrix":
        return cls(space, space, np.eye(space.dim, dtype=complex))

    def block(self, rlabel, clabel):
        return self.data[self.row.offset(*rlabel), self.col.offset(*clabel)]

    def set_block(self, rlabel, clabel, values):
        self.data[self.row.offset(*rlabel), self.col.offset(*clabel)] = values

    def add_block(self, rlabel, clabel, values):
        self.data[self.row.offset(*rlabel), self.col.offset(*clabel)] += values

    @classmethod
    def from_bins(cls, row: Space, col: Space, maps) -> "BlockMatrix":
        """Labelled dense form of per-bin 2x2 maps.

        maps[field] has shape (2, 2, bins) over (row kind, column kind,
        bin), kinds in channel order (F/B for modes, E/H for continuity
        rows).  Each (kind, kind) entry becomes a diagonal block, the
        same for every polarization; field sectors and polarizations do
        not mix.
        """
        out = cls(row, col)
        row_kinds = tuple(dict.fromkeys(c1 for c1, _ in row.channels))
        col_kinds = tuple(dict.fromkeys(c1 for c1, _ in col.channels))
        for f in FIELDS:
            for pol in dict.fromkeys(c2 for _, c2 in row.channels):
                for r, rk in enumerate(row_kinds):
                    for c, ck in enumerate(col_kinds):
                        out.set_block((f, rk, pol), (f, ck, pol),
                                      np.diag(maps[f][r, c]))
        return out

    def __add__(self, other: "BlockMatrix") -> "BlockMatrix":
        return BlockMatrix(self.row, self.col, self.data + other.data)

    def __sub__(self, other: "BlockMatrix") -> "BlockMatrix":
        return BlockMatrix(self.row, self.col, self.data - other.data)

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def copy(self) -> "BlockMatrix":
        return BlockMatrix(self.row, self.col, self.data.copy())

    def write_csv(self, path):
        """Dump with human-readable row/column labels."""
        rlabels = ["/".join(map(str, lab)) for lab in self.row.labels()]
        clabels = ["/".join(map(str, lab)) for lab in self.col.labels()]
        with open(path, "w", encoding="ascii") as fh:
            fh.write("row\\col," + ",".join(clabels) + "\n")
            for i, rl in enumerate(rlabels):
                vals = ",".join(
                    f"{v.real:.17g}{v.imag:+.17g}j" for v in self.data[i]
                )
                fh.write(rl + "," + vals + "\n")
