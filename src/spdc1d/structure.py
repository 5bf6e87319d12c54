"""Layered-structure geometry.

Layers are indexed 0..N+1: 0 is the semi-infinite input medium, 1..N the
finite layers, N+1 the semi-infinite output medium.  Boundaries sit at
z_1..z_{N+1} with z_1 = 0.  Per-layer amplitudes are referenced at the
layer's left boundary (z_1 for the input medium, z_{N+1} for the output
medium).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .materials import MaterialModel


def _nonpositive(length) -> bool:
    """Whether a layer length, a number or an array over a geometry grid,
    has an entry <= 0."""
    if isinstance(length, np.ndarray):
        return bool(np.any(length <= 0.0))
    return length <= 0.0


@dataclass(frozen=True)
class StructureSpec:
    """Ordered stack of (material, length, poling sign) plus ambients.

    A length may be an array over a geometry grid (every entry positive,
    all lengths broadcasting together to the shape ``grid``).  The linear
    transfers, the pump, ``matrixcore.build_emission`` and the pair
    observables accept such a stack and carry the grid axes just before
    their frequency or bin axes; a stack of scalar lengths has grid ().
    """

    layers: tuple  # ((MaterialModel, length_m, poling), ...)
    ambient_in: MaterialModel
    ambient_out: MaterialModel

    def __post_init__(self):
        if len(self.layers) < 1:
            raise ConfigError("structure needs at least one layer")
        for mat, length, poling in self.layers:
            if _nonpositive(length):
                raise ConfigError(f"layer of {mat.name} has nonpositive length")
            if poling not in (-1, 1):
                raise ConfigError(f"poling sign must be +-1, got {poling}")
        for amb in (self.ambient_in, self.ambient_out):
            if not amb.is_linear():
                raise ConfigError(
                    f"ambient material {amb.name} must be linear (chi2 = 0)"
                )

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @cached_property
    def grid(self) -> tuple:
        """Geometry-grid shape G that the layer lengths broadcast to."""
        return np.broadcast_shapes(*(length.shape
                                     for _, length, _ in self.layers
                                     if isinstance(length, np.ndarray)))

    def material(self, l: int) -> MaterialModel:
        if l == 0:
            return self.ambient_in
        if l == self.n_layers + 1:
            return self.ambient_out
        return self.layers[l - 1][0]

    def length(self, l: int) -> float:
        if l in (0, self.n_layers + 1):
            return 0.0
        return self.layers[l - 1][1]

    def poling(self, l: int) -> int:
        if l in (0, self.n_layers + 1):
            return 1
        return self.layers[l - 1][2]

    def per_material(self, fn) -> list:
        """[fn(material(l)) for l in 0..N+1], calling fn once per distinct
        material object (never merged by name)."""
        done = {}
        out = []
        for l in range(self.n_layers + 2):
            mat = self.material(l)
            if id(mat) not in done:
                done[id(mat)] = fn(mat)
            out.append(done[id(mat)])
        return out

    def split_layer(self, l: int, fraction: float = 0.5) -> "StructureSpec":
        """Return a copy with finite layer l split at the given fraction."""
        if not 1 <= l <= self.n_layers:
            raise ConfigError(f"cannot split layer {l}")
        if not 0.0 < fraction < 1.0:
            raise ConfigError("split fraction must be in (0, 1)")
        mat, length, poling = self.layers[l - 1]
        front = self.layers[: l - 1]
        back = self.layers[l:]
        new = (
            (mat, length * fraction, poling),
            (mat, length * (1.0 - fraction), poling),
        )
        return StructureSpec(front + new + back, self.ambient_in, self.ambient_out)
