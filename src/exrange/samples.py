"""The pooled regression samples of the median-extremal-range fits.

A sample is one positive range observation (pixel, slice, level) and takes
12 bytes: an int32 (level, pixel) cell index and a float64 log range. Its
pixel, level covariate and block id follow from the cell and from small
tables: the covariate of each level index, the grid shape, and runs of
consecutive samples that share a block id, one run per (level, slice) in a
pool. ``SamplePool`` holds the samples of many levels in one copy, sized
before any range is computed; ``tailfit.collect_samples`` fills it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateFitError
from .raster import RasterStack
from .thresholds import BoundaryPolicy, exceedance_stack

# the largest (level, pixel) cell index an int32 cell holds
_CELL_MAX = np.iinfo(np.int32).max


def _check_cells(n_levels: int, shape: tuple[int, int]) -> None:
    if n_levels * shape[0] * shape[1] - 1 > _CELL_MAX:
        raise ValueError(f"{n_levels} levels of a {shape[0]}x{shape[1]} grid overflow "
                         "an int32 cell index")


class RangeSamples:
    """Regression samples, one per positive range observation, in 12 bytes
    each: ``cell``, the int32 index level * ny*nx + iy * nx + ix, and ``y``,
    the float64 log range (physical units).

    Level index k has covariate log(-log(1-p)) ``level_x[k]`` and
    ``level_n[k]`` samples. Run i, samples ``runs[i]:runs[i + 1]``, comes
    from slices of block ``run_block[i]``. ``pixel_y`` and ``pixel_x``
    (int32), ``x`` (float64) and ``block`` (int64) are computed from these
    on each access.

    ``RangeSamples(pixel_y, pixel_x, x, y, block)`` builds samples from one
    array per field, on the smallest grid that holds their pixels.
    """

    __slots__ = ("cell", "y", "shape", "level_x", "level_n", "runs", "run_block")

    def __init__(self, pixel_y, pixel_x, x, y, block):
        pixel_y, pixel_x, x, y, block = (np.asarray(a) for a in (pixel_y, pixel_x, x, y, block))
        n = y.shape[0]
        for a in (pixel_y, pixel_x, x, y, block):
            if a.shape != (n,):
                raise ValueError("sample arrays must share one length")
        if not all(np.issubdtype(a.dtype, np.integer) for a in (pixel_y, pixel_x, block)):
            raise ValueError("pixel indices and block ids must be integers")
        if not np.isfinite(x).all():
            raise ValueError("sample covariates and responses must be finite")
        if n and min(pixel_y.min(), pixel_x.min()) < 0:
            raise ValueError("pixel indices must be non-negative")
        shape = (int(pixel_y.max(initial=0)) + 1, int(pixel_x.max(initial=0)) + 1)
        level_x, level, level_n = np.unique(x, return_inverse=True, return_counts=True)
        _check_cells(level_x.size, shape)
        cell = (level * shape[0] + pixel_y) * shape[1] + pixel_x
        head = np.ones(n, dtype=bool)   # where a run of equal block ids starts
        np.not_equal(block[1:], block[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        self._set(cell.astype(np.int32), y.astype(np.float64, copy=False), shape, level_x,
                  level_n, np.append(heads, n), block[heads].astype(np.int64))

    @classmethod
    def _of(cls, cell, y, shape, level_x, level_n, runs, run_block) -> "RangeSamples":
        """Samples from their compact arrays, which are kept, not copied."""
        samples = cls.__new__(cls)
        samples._set(cell, y, shape, level_x, level_n, runs, run_block)
        return samples

    def _set(self, cell, y, shape, level_x, level_n, runs, run_block) -> None:
        if not np.isfinite(y).all():
            raise ValueError("sample covariates and responses must be finite")
        self.cell, self.y, self.shape = cell, y, shape
        self.level_x, self.level_n = level_x, level_n
        self.runs, self.run_block = runs, run_block

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def level(self) -> np.ndarray:
        """The level index of each sample."""
        return self.cell // (self.shape[0] * self.shape[1])

    @property
    def x(self) -> np.ndarray:
        """The covariate log(-log(1-p)) of each sample's level."""
        return self.level_x[self.level]

    @property
    def pixel_y(self) -> np.ndarray:
        return self.cell % (self.shape[0] * self.shape[1]) // self.shape[1]

    @property
    def pixel_x(self) -> np.ndarray:
        return self.cell % self.shape[1]

    @property
    def block(self) -> np.ndarray:
        """The block id of each sample's slice."""
        return np.repeat(self.run_block, np.diff(self.runs))

    def on_grid(self, shape: tuple[int, int]) -> "RangeSamples":
        """These samples as the fits read them: cells on the grid ``shape``,
        and level index k for the k-th smallest covariate that holds a
        sample. The samples themselves when they are so already, as a pool's
        are when its levels arrive in ascending order; else the cells are
        encoded anew."""
        shape = (int(shape[0]), int(shape[1]))
        used = self.level_n > 0
        if shape == self.shape and used.all() and (np.diff(self.level_x) > 0).all():
            return self
        pixel_y, pixel_x = self.pixel_y, self.pixel_x
        if self.n and (pixel_y.max() >= shape[0] or pixel_x.max() >= shape[1]):
            raise ValueError(f"samples lie outside the {shape[0]}x{shape[1]} grid")
        order = np.argsort(self.level_x[used])
        level_x = self.level_x[used][order]
        _check_cells(level_x.size, shape)
        level = np.searchsorted(level_x, self.level_x)[self.level]
        cell = (level * shape[0] + pixel_y) * shape[1] + pixel_x
        return RangeSamples._of(cell.astype(np.int32), self.y, shape, level_x,
                                self.level_n[used][order], self.runs, self.run_block)


class SamplePool:
    """Arrays sized once that ``tailfit.collect_samples`` fills level by
    level, so the pooled samples of many levels exist in one copy only, 12
    bytes each.

    A domain pixel has a positive range exactly where it exceeds the
    threshold, under either boundary policy, so before any ``min_range``
    cut a level has as many samples as in-domain exceedances:
    ``for_thresholds`` sizes a pool from the thresholds alone, before any
    range is computed. Levels get their indices in order of arrival.
    """

    def __init__(self, capacity: int, shape: tuple[int, int]):
        self.shape = (int(shape[0]), int(shape[1]))
        self._cell = np.empty(capacity, np.int32)
        self._y = np.empty(capacity)
        self._level_x: list[float] = []
        self._level_n: list[int] = []
        self._runs: list[np.ndarray] = []        # where each level's runs end
        self._run_block: list[np.ndarray] = []   # and their block ids
        self.n = 0

    @classmethod
    def for_thresholds(cls, stack: RasterStack, thrs) -> "SamplePool":
        """A pool for every sample of ``stack`` at the thresholds ``thrs``."""
        erode = BoundaryPolicy.ERODE
        return cls(sum(int(np.count_nonzero(exceedance_stack(stack, thr, erode)))
                       for thr in thrs), (stack.ny, stack.nx))

    def _add(self, x: float, entries, block: np.ndarray, min_range: float) -> None:
        """Write a level's ``RangeEntries`` after the samples so far, one run
        per slice, dropping log ranges below log(``min_range``) if positive."""
        n = entries.value.size
        if self.n + n > self._y.size:
            raise ValueError(f"{self.n + n} samples overflow a pool of {self._y.size}")
        if block.shape != (entries.shape[0],):
            raise ValueError(f"need one block id per slice, got {block.shape}")
        cell, y = self._cell[self.n:self.n + n], self._y[self.n:self.n + n]
        np.log(entries.value, out=y)
        cell[:] = entries.pixel
        runs = entries.bounds
        if min_range > 0:
            kept = np.flatnonzero(y >= math.log(min_range))
            runs = np.searchsorted(kept, runs)   # each slice's run after the cut
            n = kept.size
            y[:n], cell[:n] = y[kept], cell[kept]
        if n == 0:
            return
        if x not in self._level_x:
            _check_cells(len(self._level_x) + 1, self.shape)
            self._level_x.append(x)
            self._level_n.append(0)
        level = self._level_x.index(x)
        cell[:n] += level * self.shape[0] * self.shape[1]
        self._level_n[level] += n
        self._runs.append(self.n + runs[1:])
        self._run_block.append(block)
        self.n += n

    def _view(self, start: int, first_add: int, level_n) -> RangeSamples:
        """The samples from ``start`` on, which the ``_add`` calls from the
        ``first_add``-th on wrote, viewing the pool's arrays."""
        return RangeSamples._of(
            self._cell[start:self.n], self._y[start:self.n], self.shape,
            np.array(self._level_x), np.asarray(level_n, dtype=np.int64),
            np.concatenate([[start], *self._runs[first_add:]]) - start,
            np.concatenate([np.zeros(0, np.int64), *self._run_block[first_add:]]))

    def samples(self) -> RangeSamples:
        """The samples written so far, in order, viewing the pool's arrays."""
        if self.n == 0:
            raise DegenerateFitError("no positive range observations to fit")
        return self._view(0, 0, self._level_n)
