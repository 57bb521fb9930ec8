"""Flat float64 parameter vector with named contiguous slices."""

from __future__ import annotations

import math

import numpy as np


class ParamVector:
    """One flat array; each named slice is a reshaped view into it."""

    def __init__(self, shapes: dict[str, tuple[int, ...]]):
        self.shapes = dict(shapes)
        self.offsets: dict[str, tuple[int, int]] = {}
        off = 0
        for name, shape in self.shapes.items():
            size = math.prod(shape)
            self.offsets[name] = (off, off + size)
            off += size
        self.data = np.zeros(off)

    @property
    def size(self) -> int:
        return self.data.size

    def view(self, name: str) -> np.ndarray:
        lo, hi = self.offsets[name]
        return self.data[lo:hi].reshape(self.shapes[name])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.view(name)

    def __setitem__(self, name: str, value) -> None:
        view = self.view(name)
        if value is view:
            return
        value = np.asarray(value)
        if value.shape != view.shape:
            raise ValueError(f"parameter '{name}' has shape {value.shape}, "
                             f"expected {view.shape}")
        view[...] = value

    def set_data(self, flat: np.ndarray) -> None:
        if flat.shape != self.data.shape:
            raise ValueError("flat vector length mismatch")
        self.data[:] = flat

    def zeros_like(self) -> "ParamVector":
        other = ParamVector(self.shapes)
        return other

    def copy(self) -> "ParamVector":
        other = ParamVector(self.shapes)
        other.data[:] = self.data
        return other

    def slice_names(self) -> list[tuple[str, int, int]]:
        return [(name, lo, hi) for name, (lo, hi) in self.offsets.items()]

