"""Labelled dense forms, for matrix dumps only.

Index spaces are ordered label lists (field, channel-1, channel-2, bin)
flattened into one axis; every matrix carries its row and column space,
which label its CSV dump.  Two channel conventions appear: mode spaces
label (direction, polarization) per field and continuity-row spaces
label (field class 'E'|'H', polarization).

The operators are computed and used as per-bin 2x2 maps and as pair
arrays (see ``matrixcore``); they are expanded here only to be written
out: ``from_bins`` into diagonal blocks, ``from_pairs`` into dense
signal-idler blocks, its idler rows conjugated from the stored signal
rows.  No module computes with the dense form.
"""

from __future__ import annotations

import itertools
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

    def _set_block(self, rlabel, clabel, values):
        self.data[self.row.offset(*rlabel), self.col.offset(*clabel)] = values

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
                        out._set_block((f, rk, pol), (f, ck, pol),
                                       np.diag(maps[f][r, c]))
        return out

    @classmethod
    def from_pairs(cls, row: Space, col: Space, pairs) -> "BlockMatrix":
        """Labelled dense form of a pair array (layout in ``matrixcore``):
        block (s, a, alpha), (i, b, beta) is pairs[a, alpha, b, beta] and
        block (i, a, beta), (s, b, alpha) its conjugate, added to the zero
        block so that no -0 appears; same-field blocks stay zero."""
        out = cls(row, col)
        dirs, pols = (tuple(dict.fromkeys(ch[i] for ch in MODE_CHANNELS))
                      for i in (0, 1))
        for (a, alpha), (b, beta) in itertools.product(MODE_CHANNELS,
                                                       MODE_CHANNELS):
            block = pairs[dirs.index(a), pols.index(alpha), dirs.index(b),
                          pols.index(beta)]
            out._set_block(("s", a, alpha), ("i", b, beta), block)
            out.data[row.offset("i", a, beta),
                     col.offset("s", b, alpha)] += np.conj(block)
        return out

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
