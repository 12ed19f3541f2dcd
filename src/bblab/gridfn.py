"""Grid-sampled nonnegative functions and their measure-theoretic primitives.

A GridFunction is a cell-centered sampling of a nonnegative function on a
uniform axis-aligned grid (dim 1 or 2, plus a bare-bones dim-3 carrier for
the fiber-projection demo).  Cell i spans [origin + i*h, origin + (i+1)*h]
per axis and carries the sample at its center.  All quadrature is midpoint
quadrature, which makes indicator integrals and staircase layer cakes exact.

Values are immutable after construction; operations return new instances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridFunction",
    "LevelSet",
    "GeometryMismatchError",
    "ZeroMassError",
    "integral",
    "l1_distance",
    "level_set",
    "layer_cake_integral",
    "translate",
    "cap",
    "normalize",
    "restrict",
    "common_grid",
    "load_gfn",
    "dump_gfn",
]


class GeometryMismatchError(ValueError):
    """Two grids cannot be aligned (spacing, dim, or origin offset)."""


class ZeroMassError(ValueError):
    """Operation needs strictly positive total mass."""


def _grid_origin(dim, origin, spacing, array: np.ndarray, name: str) -> tuple:
    """The origin as floats, once dim, spacing, array.ndim and origin fit a grid."""
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if not 0 < spacing < np.inf:
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    if array.ndim != dim:
        raise ValueError(f"{name} must be a {dim}-d array")
    origin = tuple(float(o) for o in np.atleast_1d(origin))
    if len(origin) != dim:
        raise ValueError("origin length must equal dim")
    if not np.isfinite(origin).all():
        raise ValueError(f"origin must be finite, got {origin}")
    return origin


@dataclass(frozen=True)
class GridFunction:
    dim: int
    origin: tuple
    spacing: float
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        origin = _grid_origin(self.dim, self.origin, self.spacing, vals, "values")
        if vals.size == 0 or min(vals.shape) < 1:
            raise ValueError("shape components must be >= 1")
        if not np.isfinite(vals).all():
            raise ValueError("values must be finite")
        if (vals < 0).any():
            raise ValueError("values must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "origin", origin)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.dim

    def axis_centers(self, axis: int = 0) -> np.ndarray:
        n = self.shape[axis]
        return self.origin[axis] + (np.arange(n) + 0.5) * self.spacing

    def max(self) -> float:
        return float(self.values.max())

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.dim, self.origin, self.spacing, values)


@dataclass(frozen=True)
class LevelSet:
    """A cell set as a mask on a grid: a strict super-level set {f > t}, or
    a set made from such sets."""

    dim: int
    mask: np.ndarray = field(repr=False)
    origin: tuple
    spacing: float

    def __post_init__(self):
        mask = np.ascontiguousarray(np.asarray(self.mask, dtype=bool))
        origin = _grid_origin(self.dim, self.origin, self.spacing, mask, "mask")
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "origin", origin)

    @functools.cached_property
    def cell_count(self) -> int:
        return int(self.mask.sum())

    @property
    def measure(self) -> float:
        return self.cell_count * self.spacing ** self.dim

    def intervals(self) -> list[tuple[int, int]]:
        """For dim 1: sorted disjoint half-open index intervals [a, b)."""
        if self.dim != 1:
            raise ValueError("intervals() is defined for dim 1 only")
        m = self.mask.astype(np.int8)
        d = np.diff(np.concatenate(([0], m, [0])))
        starts = np.flatnonzero(d == 1)
        ends = np.flatnonzero(d == -1)
        return list(zip(starts.tolist(), ends.tolist()))

    def indices(self) -> np.ndarray:
        """Integer cell indices of set cells, shape (k, dim)."""
        return np.argwhere(self.mask)


def integral(f: GridFunction) -> float:
    """Midpoint quadrature: sum of values times cell volume."""
    return float(f.values.sum()) * f.cell_volume


# slack in relative spacing and in cell offset within which two grids are one lattice
_ALIGN_TOL = 1e-9


def _offset_cells(f, g):
    """Integer cell offset of g's origin relative to f's, or raise.

    f and g are GridFunctions or LevelSets (anything with dim, origin and
    spacing).
    """
    if f.dim != g.dim:
        raise GeometryMismatchError(f"dim mismatch: {f.dim} vs {g.dim}")
    if abs(f.spacing - g.spacing) > _ALIGN_TOL * f.spacing:
        raise GeometryMismatchError(f"spacing mismatch: {f.spacing} vs {g.spacing}")
    off = []
    for a, b in zip(f.origin, g.origin):
        r = (b - a) / f.spacing
        k = round(r)
        if abs(r - k) > _ALIGN_TOL:
            raise GeometryMismatchError(
                f"origins differ by a non-integer number of cells ({r})"
            )
        off.append(int(k))
    return off


def _cell_centers(grid, cells: np.ndarray):
    """Center positions of integer cells of shape (k, dim): floats in 1-D,
    tuples otherwise."""
    pos = [(grid.origin[d] + (cells[:, d] + 0.5) * grid.spacing).tolist() for d in range(grid.dim)]
    return pos[0] if grid.dim == 1 else list(zip(*pos))


def common_grid(f: GridFunction, g: GridFunction):
    """Embed two commensurate functions into one bounding grid.

    Returns (values_f, values_g, origin, spacing) with both value arrays on
    the common grid, zero-padded.
    """
    off = _offset_cells(f, g)
    af, ag = f.values, g.values
    lo = [min(0, o) for o in off]
    hi = [max(sf, o + sg) for sf, sg, o in zip(af.shape, ag.shape, off)]
    shape = tuple(h - l for h, l in zip(hi, lo))
    vf = np.zeros(shape)
    vg = np.zeros(shape)
    sf = tuple(slice(-l, -l + s) for l, s in zip(lo, af.shape))
    sg = tuple(slice(o - l, o - l + s) for o, l, s in zip(off, lo, ag.shape))
    vf[sf] = af
    vg[sg] = ag
    origin = tuple(a + l * f.spacing for a, l in zip(f.origin, lo))
    return vf, vg, origin, f.spacing


def l1_distance(f: GridFunction, g: GridFunction) -> float:
    """Integral of |f - g| over the common grid (grids must be commensurate)."""
    vf, vg, _, h = common_grid(f, g)
    return float(np.abs(vf - vg).sum()) * h ** f.dim


def level_set(f: GridFunction, t: float) -> LevelSet:
    """Strict super-level set {f > t}."""
    if t < 0:
        raise ValueError("threshold must be nonnegative")
    return LevelSet(f.dim, f.values > t, f.origin, f.spacing)


def _count_above(values: np.ndarray, t: np.ndarray) -> np.ndarray:
    """#{values > t} for each threshold in t: one sort, one searchsorted."""
    v = np.sort(values, axis=None)
    return v.size - np.searchsorted(v, t, side="right")


def layer_cake_integral(f: GridFunction, n_heights: int | None = None) -> float:
    """Integral of t -> measure{f > t}.

    With integer n_heights, midpoint quadrature on [0, max f] (error at most
    max(f) * measure(supp f) / n_heights).  With n_heights=None, the exact
    staircase quadrature with knots at the distinct values of f.
    """
    if n_heights is not None and n_heights < 1:
        raise ValueError("n_heights must be >= 1")
    m = f.max()
    if m == 0.0:
        return 0.0
    cv = f.cell_volume
    vals = f.values.ravel()
    if n_heights is None:
        knots = np.unique(np.concatenate(([0.0], vals[vals > 0])))
        seg = np.diff(knots) * _count_above(vals, 0.5 * (knots[:-1] + knots[1:])) * cv
        return float(np.add.accumulate(seg)[-1])  # a running total, not pairwise
    ts = (np.arange(n_heights) + 0.5) * (m / n_heights)
    meas = _count_above(vals, ts) * cv
    return float(meas.sum() * (m / n_heights))


def translate(f: GridFunction, v) -> GridFunction:
    """Shift by an integer number of cells per axis (origin moves, values don't)."""
    v = np.atleast_1d(np.asarray(v))
    if v.shape != (f.dim,):
        raise ValueError(f"shift vector must have length {f.dim}")
    if not np.all(v == np.round(v)):
        raise ValueError("translation must be an integer cell vector")
    origin = tuple(o + int(k) * f.spacing for o, k in zip(f.origin, v))
    return GridFunction(f.dim, origin, f.spacing, f.values)


def cap(f: GridFunction, c: float) -> GridFunction:
    """Pointwise min(f, c)."""
    if c < 0:
        raise ValueError("cap level must be nonnegative")
    return f.with_values(np.minimum(f.values, c))


def normalize(f: GridFunction) -> GridFunction:
    """Scale to unit mass."""
    m = integral(f)
    if m <= 0.0:
        raise ZeroMassError("cannot normalize a zero-mass function")
    return f.with_values(f.values / m)


def restrict(f: GridFunction, s) -> GridFunction:
    """f * 1_S for a LevelSet or boolean mask on the same grid."""
    if isinstance(s, LevelSet):
        if any(_offset_cells(f, s)) or s.mask.shape != f.shape:
            raise GeometryMismatchError("level set does not match the grid")
        mask = s.mask
    else:
        mask = np.asarray(s, dtype=bool)
        if mask.shape != f.shape:
            raise GeometryMismatchError("mask shape does not match the grid")
    return f.with_values(np.where(mask, f.values, 0.0))


# ---------------------------------------------------------------------------
# GFN1 text format:  "gfn <dim> <spacing> <origin...> <shape...>" header,
# then values row-major, one grid row per line.

def dump_gfn(f: GridFunction, path) -> None:
    with open(path, "w") as fh:
        head = ["gfn", str(f.dim), repr(f.spacing)]
        head += [repr(o) for o in f.origin]
        head += [str(s) for s in f.shape]
        fh.write(" ".join(head) + "\n")
        rows = f.values.reshape(-1, f.shape[-1]).tolist()
        fh.writelines(" ".join(map(repr, row)) + "\n" for row in rows)


def load_gfn(path) -> GridFunction:
    with open(path) as fh:
        tokens = fh.readline().split()
        if not tokens or tokens[0] != "gfn":
            raise ValueError("not a GFN1 file (missing 'gfn' header)")
        if len(tokens) < 2:
            raise ValueError("malformed GFN1 header")
        dim = int(tokens[1])
        if dim not in (1, 2, 3):
            raise ValueError(f"unsupported dim {dim}")
        if len(tokens) != 2 + 1 + dim + dim:
            raise ValueError("malformed GFN1 header")
        spacing = float(tokens[2])
        origin = tuple(float(t) for t in tokens[3 : 3 + dim])
        shape = tuple(int(t) for t in tokens[3 + dim :])
        vals = np.array(fh.read().split(), dtype=float)
    expected = int(np.prod(shape))
    if vals.size != expected:
        raise ValueError(f"expected {expected} values, found {vals.size}")
    if (vals < 0).any():
        raise ValueError("GFN1 values must be nonnegative")
    return GridFunction(dim, origin, spacing, vals.reshape(shape))
