"""The pooled regression samples of the median-extremal-range fits.

A sample is one positive range observation (pixel, slice, level) and takes
12 bytes: an int32 (level, pixel) cell index and a float64 log range. Its
pixel, level covariate and block id follow from the cell and from small
tables: the ascending covariates of the levels, the grid shape, and runs of
consecutive samples that share a block id, one run per (level, slice) in a
pool. Only this module encodes cells. ``SamplePool`` is made with its levels
and sized before any range is computed; ``tailfit.collect_samples`` fills it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateFitError
from .raster import RasterStack
from .thresholds import distinct_order_statistics

# the largest (level, pixel) cell index an int32 cell holds
_CELL_MAX = np.iinfo(np.int32).max


def loglog_level(p: float) -> float:
    """The regression covariate log(-log(1-p))."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0,1), got {p}")
    return math.log(-math.log(1.0 - p))


def _check_cells(n_levels: int, shape: tuple[int, int]) -> None:
    if n_levels * shape[0] * shape[1] - 1 > _CELL_MAX:
        raise ValueError(f"{n_levels} levels of a {shape[0]}x{shape[1]} grid overflow "
                         "an int32 cell index")


class RangeSamples:
    """Regression samples, one per positive range observation, in 12 bytes
    each: ``cell``, the int32 index level * ny*nx + iy * nx + ix on the grid
    ``shape``, and ``y``, the float64 log range (physical units).

    Level index k has covariate log(-log(1-p)) ``level_x[k]``, ascending; a
    level may hold no sample. Run i, samples ``runs[i]:runs[i + 1]``, comes
    from slices of block ``run_block[i]``. ``level`` and ``pixel_y`` and
    ``pixel_x`` (integers), ``x`` (float64) and ``block`` (int64) are
    computed from these on each access. A cross-validation fold
    (``tailfit.choose_penalty``) holds its cells as intp, 16 bytes a sample,
    so that its fits index them without a copy.

    ``RangeSamples(pixel_y, pixel_x, x, y, block, shape=None)`` checks and
    builds samples from one array per field, on ``shape`` or the smallest
    grid holding them.
    """

    __slots__ = ("cell", "y", "shape", "level_x", "runs", "run_block")

    def __init__(self, pixel_y, pixel_x, x, y, block, shape=None):
        pixel_y, pixel_x, x, y, block = (np.asarray(a) for a in (pixel_y, pixel_x, x, y, block))
        n = y.shape[0]
        for a in (pixel_y, pixel_x, x, y, block):
            if a.shape != (n,):
                raise ValueError("sample arrays must share one length")
        if not all(np.issubdtype(a.dtype, np.integer) for a in (pixel_y, pixel_x, block)):
            raise ValueError("pixel indices and block ids must be integers")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("sample covariates and responses must be finite")
        if n and min(pixel_y.min(), pixel_x.min()) < 0:
            raise ValueError("pixel indices must be non-negative")
        last = (int(pixel_y.max(initial=0)), int(pixel_x.max(initial=0)))
        shape = (last[0] + 1, last[1] + 1) if shape is None else tuple(map(int, shape))
        if last[0] >= shape[0] or last[1] >= shape[1]:
            raise ValueError(f"samples lie outside the {shape[0]}x{shape[1]} grid")
        level_x, level = np.unique(x, return_inverse=True)
        _check_cells(level_x.size, shape)
        cell = (level * shape[0] + pixel_y) * shape[1] + pixel_x
        head = np.ones(n, dtype=bool)   # where a run of equal block ids starts
        np.not_equal(block[1:], block[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        self.cell, self.y = cell.astype(np.int32), y.astype(np.float64, copy=False)
        self.shape, self.level_x = shape, level_x
        self.runs, self.run_block = np.append(heads, n), block[heads].astype(np.int64)

    @classmethod
    def _of(cls, cell, y, shape, level_x, runs, run_block) -> "RangeSamples":
        """Samples from their compact arrays, kept, neither copied nor checked
        again: ``SamplePool.add`` checks the log ranges as they enter."""
        samples = cls.__new__(cls)
        samples.cell, samples.y, samples.shape, samples.level_x = cell, y, shape, level_x
        samples.runs, samples.run_block = runs, run_block
        return samples

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def level(self) -> np.ndarray:
        """The level index of each sample, in the narrowest dtype that holds
        every level."""
        return np.floor_divide(self.cell, self.shape[0] * self.shape[1], casting="unsafe",
                               out=np.empty(self.n, np.min_scalar_type(self.level_x.size - 1)))

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


class SamplePool:
    """Arrays sized once that ``tailfit.collect_samples`` fills level by
    level, so the pooled samples of many levels exist in one copy only, 12
    bytes each. The pool is made with the probabilities ``levels`` of all
    the levels it takes, so a sample's cell is final when written, whatever
    order the levels arrive in; a level may end up without a sample."""

    def __init__(self, capacity: int, shape: tuple[int, int], levels):
        self.shape = (int(shape[0]), int(shape[1]))
        self._level_x = np.array(sorted({loglog_level(p) for p in levels}))
        self._level_x.flags.writeable = False
        _check_cells(self._level_x.size, self.shape)
        self._index = {x: k for k, x in enumerate(self._level_x.tolist())}
        self._cell = np.empty(capacity, np.int32)
        self._y = np.empty(capacity)
        self._runs: list[np.ndarray] = []        # where each level's runs end
        self._run_block: list[np.ndarray] = []   # and their block ids
        self.n = 0

    @classmethod
    def for_levels(cls, stack: RasterStack, levels) -> "SamplePool":
        """A pool for every sample of ``stack`` at each p of ``levels``, sized
        before any threshold is sorted: a domain pixel exceeds its k-th smallest
        value in nt - k slices, fewer where a value ties it, and each exceedance
        is one positive range. Levels that share a k are refused."""
        per_pixel = sum(stack.nt - k for k in distinct_order_statistics(levels, stack.nt))
        return cls(stack.domain().n_pixels * per_pixel, (stack.ny, stack.nx), levels)

    def add(self, levels, blocks, min_range: float) -> RangeSamples:
        """Write the ``RangeEntries`` of each (p, entries) of ``levels`` after
        the samples so far, one run per slice, dropping log ranges below
        log(``min_range``) if positive; ``blocks`` gives each slice's block id
        (default: its index). Returns these samples, viewing the pool's arrays.
        The kept log ranges are checked here, as a caller's range may be +inf."""
        start, first_run = self.n, len(self._runs)
        for p, entries in levels:
            level = self._index.get(loglog_level(p))
            if level is None or entries.shape[1:] != self.shape:
                raise ValueError(f"level {p} on the grid {entries.shape[1:]} is not one of "
                                 f"the pool's levels on {self.shape}")
            block = np.arange(entries.shape[0]) if blocks is None else np.asarray(blocks)
            if block.shape != (entries.shape[0],):
                raise ValueError(f"need one block id per slice, got {block.shape}")
            n = entries.value.size
            if self.n + n > self._y.size:
                raise ValueError(f"{self.n + n} samples overflow a pool of {self._y.size}")
            cell, y = self._cell[self.n:self.n + n], self._y[self.n:self.n + n]
            np.log(entries.value, out=y)
            cell[:] = entries.pixel
            runs = entries.bounds
            if min_range > 0:
                kept = np.flatnonzero(y >= math.log(min_range))
                runs = np.searchsorted(kept, runs)   # each slice's run after the cut
                n = kept.size
                y[:n], cell[:n] = y[kept], cell[kept]
            if not np.isfinite(y[:n]).all():
                raise ValueError("sample covariates and responses must be finite")
            if n:
                cell[:n] += level * self.shape[0] * self.shape[1]
                self._runs.append(self.n + runs[1:])
                self._run_block.append(block.astype(np.int64, copy=False))
                self.n += n
        return self._view(start, first_run)

    def _view(self, start: int, first_run: int) -> RangeSamples:
        """The samples from ``start`` on, in the runs from ``first_run`` on."""
        return RangeSamples._of(
            self._cell[start:self.n], self._y[start:self.n], self.shape, self._level_x,
            np.concatenate([[start], *self._runs[first_run:]]) - start,
            np.concatenate([np.zeros(0, np.int64), *self._run_block[first_run:]]))

    def samples(self) -> RangeSamples:
        """The samples written so far, in order, viewing the pool's arrays."""
        if self.n == 0:
            raise DegenerateFitError("no positive range observations to fit")
        return self._view(0, 0)
