"""MQAM constellations as precomputed tables, and minimum-distance detection.

Constellations are normalized to unit average power. Each point's decision
region is described per axis (I and Q) by either an equality constraint at
the point's component, or a one-sided inequality pointing away from the
origin when the point sits on the boundary of the lattice in that axis.
The point components (``coeffs``) and the lattice-edge mask (``free``) are
the only record of that rule: solver.make_problem reads them to assemble a
slot's constraints. ``get_constellation`` hands out one cached, read-only
spec per order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QAM_ORDERS = (4, 8, 16, 32, 64)

_ALIASES = {
    "qpsk": 4, "4qam": 4, "8qam": 8, "16qam": 16, "32qam": 32, "64qam": 64,
}


@dataclass(frozen=True)
class ConstellationSpec:
    name: str
    order: int
    points: np.ndarray          # (M,) complex, unit average power
    lattice: np.ndarray         # (M, 2) odd integer I/Q coordinates
    bits_per_symbol: int
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


def _lattice_coords(order: int) -> np.ndarray:
    """Odd-integer I/Q coordinates, rows by increasing Q then increasing I."""
    if order == 4:
        i_lv, q_lv = (-1, 1), (-1, 1)
    elif order == 8:
        i_lv, q_lv = (-3, -1, 1, 3), (-1, 1)
    elif order == 16:
        i_lv, q_lv = (-3, -1, 1, 3), (-3, -1, 1, 3)
    elif order == 32:
        i_lv, q_lv = (-5, -3, -1, 1, 3, 5), (-5, -3, -1, 1, 3, 5)
    elif order == 64:
        i_lv = q_lv = (-7, -5, -3, -1, 1, 3, 5, 7)
    else:
        raise ValueError(f"unsupported QAM order {order}")
    coords = [(a, b) for b in q_lv for a in i_lv]
    if order == 32:
        # cross shape: drop the four corner points of the 6x6 grid
        coords = [(a, b) for a, b in coords if not (abs(a) == 5 and abs(b) == 5)]
    return np.array(coords, dtype=int)


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
                             lattice=lattice, bits_per_symbol=m, rate=float(m),
                             coeffs=np.column_stack([points.real, points.imag]),
                             free=free)


_SPECS = {order: build_qam(order) for order in QAM_ORDERS}


def get_constellation(name: str) -> ConstellationSpec:
    key = name.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown constellation {name!r}; expected one of {sorted(_ALIASES)}")
    return _SPECS[_ALIASES[key]]


def _quantize(levels_max: int, x: np.ndarray) -> np.ndarray:
    """Nearest odd level; exact midpoints resolve to the lower level."""
    a = 2 * np.ceil(x / 2.0) - 1
    return np.clip(a, -levels_max, levels_max)


def detect(spec: ConstellationSpec, received):
    """Index of the minimum-distance point; ties go to the smaller index.

    received is a complex scalar or array in unit-power constellation units.
    """
    vals = np.asarray(received, dtype=complex)
    scalar = vals.ndim == 0
    vals = np.atleast_1d(vals)
    s = spec.scale
    amax = int(np.max(np.abs(spec.lattice[:, 0])))
    bmax = int(np.max(np.abs(spec.lattice[:, 1])))
    a = _quantize(amax, vals.real / s)
    b = _quantize(bmax, vals.imag / s)
    if spec.order == 32:
        bad = (np.abs(a) == 5) & (np.abs(b) == 5)
        if np.any(bad):
            sa, sb = np.sign(a[bad]), np.sign(b[bad])
            c1 = s * (5 * sa + 3j * sb)   # corner resolved along I
            c2 = s * (3 * sa + 5j * sb)   # corner resolved along Q
            d1 = np.abs(vals[bad] - c1)
            d2 = np.abs(vals[bad] - c2)
            # on the exact diagonal, prefer the point in the lower-index row
            take1 = np.where(d1 == d2, sb > 0, d1 < d2)
            a[bad] = np.where(take1, 5 * sa, 3 * sa)
            b[bad] = np.where(take1, 3 * sb, 5 * sb)
    key = ((b.astype(int) + bmax) // 2) * (amax + 1) + (a.astype(int) + amax) // 2
    table = np.full(((bmax + 1) * (amax + 1)), -1, dtype=int)
    pk = (spec.lattice[:, 1] + bmax) // 2 * (amax + 1) + (spec.lattice[:, 0] + amax) // 2
    table[pk] = np.arange(spec.order)
    idx = table[key]
    return int(idx[0]) if scalar else idx
