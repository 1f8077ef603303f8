"""MQAM constellations as precomputed tables, and minimum-distance detection.

Constellations are normalized to unit average power. Each point's decision
region is described per axis (I and Q) by either an equality constraint at
the point's component, or a one-sided inequality pointing away from the
origin when the point sits on the boundary of the lattice in that axis.
The point components (``coeffs``) and the lattice-edge mask (``free``) are
the only record of that rule; ``gather`` looks any table up per user for
rows of symbol indices, each of which ``check_symbols`` first holds to [0,
order). ``get_constellation`` hands out one cached, read-only spec per order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# (I levels, Q levels) of each order's rectangular lattice; 32QAM drops its corners
_LEVELS = {4: (2, 2), 8: (4, 2), 16: (4, 4), 32: (6, 6), 64: (8, 8)}
QAM_ORDERS = tuple(_LEVELS)

ALIASES = {
    "qpsk": 4, "4qam": 4, "8qam": 8, "16qam": 16, "32qam": 32, "64qam": 64,
}


@dataclass(frozen=True)
class ConstellationSpec:
    name: str
    order: int
    points: np.ndarray          # (M,) complex, unit average power
    lattice: np.ndarray         # (M, 2) odd integer I/Q coordinates
    rate: float                 # bits/symbol carried by one detection
    coeffs: np.ndarray          # (M, 2) I/Q components of each point
    free: np.ndarray            # (M, 2) bool: axis freed in relaxed mode (lattice-extreme)

    def __post_init__(self):
        for arr in (self.points, self.lattice, self.coeffs, self.free):
            arr.setflags(write=False)

    @property
    def scale(self) -> float:
        """Spacing factor mapping lattice coordinates to points."""
        return float(np.real(self.points[0]) / self.lattice[0, 0])

    @cached_property
    def _decision_table(self):
        """(max |I|, max |Q|), and point (a, b)'s index at [a + max |I|, b + max |Q|]."""
        levels = np.max(np.abs(self.lattice), axis=0)
        table = np.full(2 * levels + 1, -1, dtype=int)
        table[tuple((self.lattice + levels).T)] = np.arange(self.order)
        return levels, table


def _lattice_coords(order: int) -> np.ndarray:
    """Odd-integer I/Q coordinates, rows by increasing Q then increasing I."""
    if order not in _LEVELS:
        raise ValueError(f"unsupported QAM order {order}")
    n_i, n_q = _LEVELS[order]
    q, i = np.mgrid[1 - n_q:n_q:2, 1 - n_i:n_i:2]
    coords = np.column_stack([i.ravel(), q.ravel()])
    if order == 32:
        # cross shape: drop the four corner points of the 6x6 grid
        coords = coords[(np.abs(coords) != 5).any(axis=1)]
    return coords


def build_qam(order: int) -> ConstellationSpec:
    """Build the unit-average-power constellation for the given order."""
    lattice = _lattice_coords(order)
    raw = (lattice[:, 0] + 1j * lattice[:, 1]) / np.sqrt(2.0)
    norm = np.sqrt(np.mean(np.abs(raw) ** 2))
    points = raw / norm
    assert abs(np.mean(np.abs(points) ** 2) - 1.0) < 1e-12
    m = int(np.log2(order))
    name = "qpsk" if order == 4 else f"{order}qam"
    # a point is extreme on I when no point of its row (same Q) lies further
    # out, and on Q when none of its column (same I) does
    mag = np.abs(lattice)
    free = np.empty((order, 2), dtype=bool)
    for axis in (0, 1):
        same_line = lattice[:, 1 - axis][:, None] == lattice[:, 1 - axis][None, :]
        free[:, axis] = mag[:, axis] == np.max(np.where(same_line, mag[None, :, axis], 0), axis=1)
    return ConstellationSpec(name=name, order=order, points=points,
                             lattice=lattice, rate=float(m),
                             coeffs=np.column_stack([points.real, points.imag]),
                             free=free)


_SPECS = {order: build_qam(order) for order in QAM_ORDERS}


def get_constellation(name: str) -> ConstellationSpec:
    key = name.strip().lower()
    if key not in ALIASES:
        raise ValueError(f"unknown constellation {name!r}; expected one of {sorted(ALIASES)}")
    return _SPECS[ALIASES[key]]


def check_symbols(specs, symbols) -> np.ndarray:
    """symbols (K,) or (C, K) as an array; raises ValueError naming the first user, row by
    row, whose index is not an integer in [0, order) of its constellation specs[j]."""
    idx = np.asarray(symbols)
    if idx.dtype.kind in "iu" and ((idx >= 0) & (idx < [s.order for s in specs])).all():
        return idx
    for row in np.asarray(symbols, dtype=object).reshape(-1, len(specs)):
        for j, (spec, i) in enumerate(zip(specs, row)):
            if not (hasattr(i, "__index__") and 0 <= i < spec.order):
                raise ValueError(f"user {j + 1}: symbol index {i!r} is not an integer in"
                                 f" [0, {spec.order})")
    raise ValueError(f"symbol indices must be integers, got {idx.dtype}")


def gather(specs, symbols, table: str = "points") -> np.ndarray:
    """specs[j]'s table ('points', 'coeffs' or 'free') at symbols[..., j], stacked on axis K;
    check_symbols vets the indices first."""
    idx = check_symbols(specs, symbols)
    return np.stack([getattr(s, table)[idx[..., j]] for j, s in enumerate(specs)], idx.ndim - 1)


def _decide(spec: ConstellationSpec, x: np.ndarray) -> np.ndarray:
    """Decided odd lattice coordinates of lattice-unit samples x (2, ...): the nearest
    odd level per axis, midpoints to the lower one; a sample on a missing 32QAM corner
    goes to its nearer neighbour, on the exact diagonal to the lower-index row's."""
    levels = spec._decision_table[0].reshape((2,) + (1,) * (x.ndim - 1))
    d = 2.0 * np.ceil(x / 2.0) - 1.0
    np.minimum(np.maximum(d, -levels, out=d), levels, out=d)
    if spec.order == 32:
        bad = (np.abs(d[0]) == 5) & (np.abs(d[1]) == 5)
        if np.any(bad):
            ua, ub = np.abs(x[0][bad]), np.abs(x[1][bad])
            take1 = np.where(ua == ub, d[1][bad] > 0, ua > ub)   # resolve along I
            d[0][bad] = np.where(take1, 5.0, 3.0) * np.sign(d[0][bad])
            d[1][bad] = np.where(take1, 3.0, 5.0) * np.sign(d[1][bad])
    return d


def detect(spec: ConstellationSpec, received):
    """Index of the minimum-distance point; ties go to the smaller index.

    received is a complex scalar or array in unit-power constellation units.
    """
    vals = np.asarray(received, dtype=complex)
    scalar = vals.ndim == 0
    vals = np.atleast_1d(vals)
    a, b = _decide(spec, np.stack([vals.real, vals.imag]) / spec.scale).astype(int)
    levels, table = spec._decision_table
    idx = table[a + levels[0], b + levels[1]]
    return int(idx[0]) if scalar else idx
