"""Labelled dense forms, for matrix dumps only.

A dense form is one complex array over (field, channel, bin) x (field,
channel, bin), flattened to 8K x 8K in C order.  The fields are 's'
(signal annihilation) and 'i' (idler creation).  A mode channel is
(pol, dir) in C order, listed as (dir, pol): F/x, B/x, F/y, B/y.  A
continuity-row channel is (kind, pol) in C order: E/x, E/y, H/x, H/y.
Columns are always mode channels; rows are mode or continuity-row
channels.  ``labels`` names each index as field/channel/bin.

The operators are computed and used as per-bin 2x2 maps and as pair
arrays (see ``matrixcore``); they are expanded here only to be written
out: ``from_bins`` onto block diagonals, ``from_pairs`` into dense
signal-idler blocks, its idler rows conjugated from the stored signal
rows.  No module computes with the dense form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FIELDS = ("s", "i")  # 'i' entries carry idler creation-operator components
MODE_CHANNELS = (("F", "x"), ("B", "x"), ("F", "y"), ("B", "y"))
ROW_CHANNELS = (("E", "x"), ("E", "y"), ("H", "x"), ("H", "y"))


def labels(channels, bins):
    """CSV labels field/c1/c2/bin in index order."""
    return [f"{f}/{c1}/{c2}/{k}" for f in FIELDS for c1, c2 in channels
            for k in range(bins)]


@dataclass(frozen=True)
class BlockMatrix:
    """Dense form: its row channels (``MODE_CHANNELS`` or
    ``ROW_CHANNELS``) and its 2-D (8K, 8K) array."""

    rows: tuple
    data: np.ndarray

    @classmethod
    def from_bins(cls, maps, rows=MODE_CHANNELS) -> "BlockMatrix":
        """Labelled dense form of per-bin 2x2 maps.

        maps[field] has shape (2, 2, bins) over (row kind, column kind,
        bin), kinds in channel order (F/B for modes, E/H for continuity
        rows).  Entry (kind, kind, bin) lands on the diagonal of its
        (kind, kind) block, the same for both polarizations; field
        sectors and polarizations do not mix.
        """
        k = maps["s"].shape[-1]
        # (field, pol, kind, bin) x (field, pol, kind, bin)
        out = np.zeros((2, 2, 2, k) * 2, dtype=complex)
        f, p, r, c, n = np.ix_(*map(range, (2, 2, 2, 2, k)))
        values = np.array([maps[field] for field in FIELDS])
        out[f, p, r, n, f, p, c, n] = values[:, None]
        if rows == ROW_CHANNELS:  # rows as (field, kind, pol, bin)
            out = out.swapaxes(1, 2)
        return cls(rows, out.reshape(8 * k, 8 * k))

    @classmethod
    def from_pairs(cls, pairs) -> "BlockMatrix":
        """Labelled dense form of a pair array (layout in ``matrixcore``)
        by two strided writes: block (s, a, alpha), (i, b, beta) is
        pairs[a, alpha, b, beta] and block (i, a, beta), (s, b, alpha)
        its conjugate, added to the zero block so that no -0 appears;
        same-field blocks stay zero."""
        k = pairs.shape[-1]
        # (field, pol, dir, bin) x (field, pol, dir, bin)
        out = np.zeros((2, 2, 2, k) * 2, dtype=complex)
        out[0, :, :, :, 1] = pairs.transpose(1, 0, 4, 3, 2, 5)
        out[1, :, :, :, 0] += np.conj(pairs).transpose(3, 0, 4, 1, 2, 5)
        return cls(MODE_CHANNELS, out.reshape(8 * k, 8 * k))

    def write_csv(self, path):
        """Dump with human-readable row/column labels."""
        bins = self.data.shape[1] // 8
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(",".join(["row\\col"] + labels(MODE_CHANNELS, bins))
                     + "\n")
            for label, row in zip(labels(self.rows, bins), self.data):
                fh.write(label + "," + ",".join(
                    f"{v.real:.17g}{v.imag:+.17g}j" for v in row) + "\n")
