"""Gridded field stacks, domain masks and bit-exact raw-float32 I/O.

On-disk format: a raw little-endian float32 data file (row-major within a
slice, slice-major across time) next to a JSON sidecar named
``<datafile>.json`` holding ``{"nx", "ny", "nt", "dx", "nodata", "unit"}``.
Nodata is an exact sentinel value, never NaN.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import StackFormatError
from .morphology import distance_transform_squared

DEFAULT_NODATA = -9999.0

_SIDECAR_KEYS = ("nx", "ny", "nt", "dx", "nodata")


@dataclass(frozen=True)
class DomainMask:
    """Pixels whose centers belong to the study domain (time invariant)."""

    inside: np.ndarray  # (ny, nx) bool, a read-only copy

    def __post_init__(self):
        inside = np.array(self.inside, dtype=bool)
        if inside.ndim != 2:
            raise ValueError(f"domain mask must be 2-d, got shape {inside.shape}")
        if not inside.any():
            raise ValueError("domain mask has no inside pixel")
        inside.flags.writeable = False
        object.__setattr__(self, "inside", inside)

    @functools.cached_property
    def distance2(self) -> np.ndarray:
        """Squared distance from each pixel center to the nearest center
        outside the domain, the region outside the grid counting as outside;
        computed on first use and kept, read-only."""
        d2 = distance_transform_squared(self.inside, edge_is_false=True)
        d2.flags.writeable = False
        return d2

    @property
    def n_pixels(self) -> int:
        return int(np.count_nonzero(self.inside))

    def area(self, dx: float) -> float:
        """Physical area covered by the domain pixels."""
        return self.n_pixels * dx * dx


@dataclass(frozen=True)
class RasterStack:
    """A stack of nt field slices on an ny-by-nx grid with spacing dx.

    ``values`` has shape (nt, ny, nx) and dtype float32 so that in-memory
    contents round-trip bit for bit through the raw file format. Pixels
    equal to ``nodata`` in every slice are outside the domain; the domain
    must be identical across slices.
    """

    values: np.ndarray
    dx: float = 1.0
    nodata: float = DEFAULT_NODATA
    unit: str = "px"
    _domain: DomainMask = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float32)
        if values.ndim != 3:
            raise ValueError(f"stack values must be 3-d (nt, ny, nx), got {values.shape}")
        if min(values.shape) < 1:
            raise ValueError(f"empty stack dimensions {values.shape}")
        if not self.dx > 0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if not np.isfinite(values).all():
            raise StackFormatError("stack contains NaN or an infinite value; nodata must "
                                   "use the sentinel value")
        inside = values[0] != np.float32(self.nodata)
        same = (values != np.float32(self.nodata)) == inside[None, :, :]
        if not same.all():
            t, y, x = np.argwhere(~same)[0]
            raise StackFormatError(
                f"pixel ({y},{x}) is nodata in some slices but not in slice {t}; "
                "the domain must be time invariant"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_domain", DomainMask(inside))

    @property
    def nt(self) -> int:
        return self.values.shape[0]

    @property
    def ny(self) -> int:
        return self.values.shape[1]

    @property
    def nx(self) -> int:
        return self.values.shape[2]

    def domain(self) -> DomainMask:
        """The non-nodata pixel set (identical for every slice)."""
        return self._domain

    def subset(self, t_indices) -> "RasterStack":
        """New stack containing the given slices (used by block resampling)."""
        idx = np.asarray(t_indices, dtype=int)
        if idx.size == 0:
            raise ValueError("subset needs at least one slice")
        return RasterStack(self.values[idx], dx=self.dx, nodata=self.nodata, unit=self.unit)


def _sidecar_path(data_path: Path) -> Path:
    return data_path.with_name(data_path.name + ".json")


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def save_stack(path, stack: RasterStack) -> None:
    """Write a stack as raw float32 LE plus its JSON sidecar (atomically)."""
    data_path = Path(path)
    data_path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "nx": stack.nx,
        "ny": stack.ny,
        "nt": stack.nt,
        "dx": stack.dx,
        "nodata": stack.nodata,
        "unit": stack.unit,
    }
    _atomic_write_bytes(data_path, stack.values.astype("<f4").tobytes())
    _atomic_write_bytes(
        _sidecar_path(data_path), (json.dumps(meta, sort_keys=True) + "\n").encode()
    )


def load_stack(path) -> RasterStack:
    """Load a stack written by :func:`save_stack`.

    Raises StackFormatError when the sidecar is missing or malformed (a
    dimension that is not an integer, a ``dx`` that is not finite and
    positive, a ``nodata`` that is not finite, a boolean ``dx`` or
    ``nodata``, a ``unit`` that is not a string), when the byte count
    disagrees with it, when every value is nodata or one is NaN or
    infinite, and when the nodata pattern differs between slices.
    """
    data_path = Path(path)
    if not data_path.exists():
        raise FileNotFoundError(f"no such stack file: {data_path}")
    sidecar = _sidecar_path(data_path)
    if not sidecar.exists():
        raise StackFormatError(f"missing sidecar {sidecar}")
    try:
        meta = json.loads(sidecar.read_text())
    except json.JSONDecodeError as exc:
        raise StackFormatError(f"unparseable sidecar {sidecar}: {exc}") from exc
    missing = [k for k in _SIDECAR_KEYS if k not in meta]
    if missing:
        raise StackFormatError(f"sidecar {sidecar} lacks keys {missing}")
    dims = [meta[k] for k in ("nx", "ny", "nt")]
    if any(isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()) for v in dims):
        raise StackFormatError(f"sidecar {sidecar} has dimensions {dims}; they must be integers")
    try:
        nx, ny, nt = (int(v) for v in dims)
        if isinstance(meta["dx"], bool) or isinstance(meta["nodata"], bool):
            raise TypeError("dx and nodata must be numbers, not booleans")
        dx, nodata = float(meta["dx"]), float(meta["nodata"])
    except (TypeError, ValueError) as exc:
        raise StackFormatError(f"sidecar {sidecar} holds a malformed number: {exc}") from exc
    unit = meta.get("unit", "px")
    if not isinstance(unit, str):
        raise StackFormatError(f"sidecar {sidecar} has unit {unit!r}; it must be a string")
    if min(nx, ny, nt) < 1:
        raise StackFormatError(f"sidecar {sidecar} has non-positive dimensions")
    if not 0.0 < dx < math.inf:
        raise StackFormatError(f"sidecar {sidecar} has dx {dx}; it must be finite and positive")
    if not math.isfinite(nodata):
        raise StackFormatError(f"sidecar {sidecar} has nodata {nodata}; it must be finite")
    raw = data_path.read_bytes()
    expected = nt * ny * nx * 4
    if len(raw) != expected:
        raise StackFormatError(
            f"{data_path}: {len(raw)} bytes but sidecar implies {expected} "
            f"(nt={nt}, ny={ny}, nx={nx})"
        )
    values = np.frombuffer(raw, dtype="<f4").reshape(nt, ny, nx)
    if not (values[0] != np.float32(nodata)).any() and (values == np.float32(nodata)).all():
        raise StackFormatError(f"{data_path}: every value is nodata, so the domain is empty")
    return RasterStack(values, dx=dx, nodata=nodata, unit=unit)


def save_map(path, grid: np.ndarray, dx: float = 1.0, nodata: float = DEFAULT_NODATA,
             unit: str = "px") -> None:
    """Write a single ny-by-nx map in the stack format with nt=1."""
    grid = np.asarray(grid, dtype=np.float32)
    if grid.ndim != 2:
        raise ValueError(f"map must be 2-d, got shape {grid.shape}")
    save_stack(path, RasterStack(grid[None, :, :], dx=dx, nodata=nodata, unit=unit))
