"""Adaptive modulation: rate targets -> modulation, SER budget, SINR target.

The pipeline runs in three steps. A rate target picks the lowest modulation
whose nominal rate covers it; the shortfall between target and nominal rate
becomes the tolerable symbol error rate; the SER maps to a SINR target either
through the closed-form MQAM approximation or by inverting a simulated
SER-vs-SNR curve. key_value_lines reads ladder files and the CLI's config files.
"""

import os
from dataclasses import dataclass

import numpy as np

from .channel import write_csv
from .constellation import _decide, get_constellation


def qfunc(x):
    """Gaussian tail function Q."""
    from scipy.special import erfc
    return float(0.5 * erfc(x / np.sqrt(2.0)))


def qfunc_inv(p):
    """Inverse of the Gaussian tail function Q."""
    from scipy.special import erfcinv
    if not 0.0 < p < 1.0:
        raise ValueError(f"Q^-1 argument must lie in (0, 1), got {p}")
    return float(np.sqrt(2.0) * erfcinv(2.0 * p))


def ser_from_goodput(r, rate):
    """Tolerable symbol error rate so that rate*(1 - SER) still meets r."""
    if not 0.0 < r <= rate:
        raise ValueError(f"target rate {r} outside (0, {rate}]")
    return 1.0 - r / rate


def effective_goodput(rate, ser):
    """Error-discounted throughput rate*(1 - SER) in bits/symbol."""
    if not 0.0 <= ser <= 1.0:
        raise ValueError(f"SER must lie in [0, 1], got {ser}")
    return rate * (1.0 - ser)


def sinr_from_ser(ser, rate):
    """Closed-form SINR (linear) required for a given SER on rate-R MQAM."""
    if not 0.0 < ser < 1.0:
        raise ValueError(f"SER must lie in (0, 1), got {ser}")
    return (2.0 ** rate - 1.0) / (3.0 * rate) * qfunc_inv(ser / 4.0) ** 2


def ser_from_sinr(zeta, rate):
    """Closed-form SER predicted at a linear SINR; inverse of sinr_from_ser."""
    if zeta <= 0.0:
        raise ValueError(f"SINR must be positive, got {zeta}")
    return 4.0 * qfunc(np.sqrt(3.0 * rate * zeta / (2.0 ** rate - 1.0)))


def energy_efficiency(goodputs, avg_power):
    """Total goodput per Watt of average transmit power."""
    if avg_power <= 0.0:
        raise ValueError("average power must be positive")
    return float(np.sum(goodputs)) / float(avg_power)


@dataclass(frozen=True)
class ModulationEntry:
    name: str
    rate: float
    sinr_min_db: float


# the ladder's constellations; the analytic ladder's rates are theirs, R(m) = m
_LADDER = ("qpsk", "8qam", "16qam", "32qam", "64qam")

# the SINR range allocate supports, as literals so that importing loads no scipy: floor at
# the loosest useful QPSK point, sinr_from_ser(0.1, 2.0), ceiling at sinr_from_ser(1e-4, 6.0)
ZETA0_DEFAULT = 1.920729410347064
ZETA_MAX_DEFAULT = 57.568385735028016


class ModulationTable:
    """Ordered modulation ladder with per-entry SINR thresholds."""

    def __init__(self, entries):
        entries = tuple(entries)
        if not entries:
            raise ValueError("modulation table is empty")
        if bad := [e.name for e in entries if not np.isfinite([e.rate, e.sinr_min_db]).all()]:
            raise ValueError(f"entry {bad[0]}: rate and threshold must be finite")
        rates = [e.rate for e in entries]
        if any(b <= a for a, b in zip(rates, rates[1:])):
            raise ValueError("entries must have strictly increasing rates")
        thr = [e.sinr_min_db for e in entries]
        if any(b < a for a, b in zip(thr, thr[1:])):
            raise ValueError("SINR thresholds must be nondecreasing")
        self.entries = entries

    @classmethod
    def analytic(cls, reference_ser=1e-2):
        """Thresholds from the closed-form SER formula at one reference SER."""
        rates = [get_constellation(n).rate for n in _LADDER]
        return cls(ModulationEntry(n, r, 10.0 * np.log10(sinr_from_ser(reference_ser, r)))
                   for n, r in zip(_LADDER, rates))

    @property
    def max_rate(self):
        return self.entries[-1].rate

    def modulation_for_sinr(self, sinr_db):
        """Highest-rate entry whose threshold is met, None below the ladder."""
        best = None
        for e in self.entries:
            if e.sinr_min_db <= sinr_db:
                best = e
        return best


def select_modulation(table, target_rate):
    """Lowest modulation whose nominal rate covers the target."""
    if target_rate <= 0.0:
        raise ValueError(f"target rate must be positive, got {target_rate}")
    for e in table.entries:
        if e.rate >= target_rate:
            return e
    raise ValueError(
        f"target rate {target_rate} exceeds the largest supported rate {table.max_rate}")


def key_value_lines(text):
    """(line number, key, value) of each non-blank 'key = value  # comment' line."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        if line := raw.split("#", 1)[0].strip():
            key, eq, value = line.partition("=")
            if not (eq and key.strip()):
                raise ValueError(f"line {ln}: expected 'key = value'")
            yield ln, key.strip(), value.strip()


def parse_table(text):
    """Table from 'name = rate, threshold_db' lines (key_value_lines' grammar)."""
    rows = []
    for ln, name, value in key_value_lines(text):
        try:
            rate, threshold = map(float, value.split(","))   # two numbers, else ValueError
            _LADDER.index(name.lower())                      # a ladder name, else ValueError
            ModulationTable([ModulationEntry(name, rate, threshold)])   # finite, else ValueError
        except ValueError:
            raise ValueError(f"line {ln}: expected 'name = rate, threshold_db'") from None
        rows.append(ModulationEntry(name.lower(), rate, threshold))
    return ModulationTable(sorted(rows, key=lambda e: e.rate))


def load_table(path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            return parse_table(fh.read())
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class SerCurve:
    """Simulated single-user AWGN SER curve for one constellation."""
    name: str
    snr_db: np.ndarray
    ser: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "snr_db", np.asarray(self.snr_db, dtype=float))
        object.__setattr__(self, "ser", np.asarray(self.ser, dtype=float))
        if self.snr_db.shape != self.ser.shape or self.snr_db.ndim != 1:
            raise ValueError("snr_db and ser must be matching 1-d arrays")
        if not (np.all(np.isfinite(self.snr_db)) and np.all(np.isfinite(self.ser))):
            raise ValueError(f"{self.name} SER curve holds non-finite values")
        if np.any(np.diff(self.snr_db) <= 0):
            raise ValueError("snr_db grid must be strictly increasing")

    def monotonized(self):
        """Least-squares nonincreasing fit (pool adjacent violators)."""
        from scipy.optimize import isotonic_regression
        return SerCurve(self.name, self.snr_db,
                        isotonic_regression(self.ser, increasing=False).x)

    def sinr_db_for_ser(self, target):
        """SNR in dB where the (monotonized) curve crosses the target SER.

        Interpolates linearly in (snr_db, log10 ser); zero estimates are
        floored to keep the logs finite.
        """
        if not 0.0 < target < 1.0:
            raise ValueError(f"target SER must lie in (0, 1), got {target}")
        ser = self.monotonized().ser
        floor = 1e-12
        logs = np.log10(np.maximum(ser, floor))
        lt = np.log10(target)
        if lt > logs[0]:
            raise ValueError(
                f"target SER {target} above the measured curve start {ser[0]:.3g}")
        if lt < logs[-1]:
            raise ValueError(
                f"target SER {target} below the measured curve floor {ser[-1]:.3g}")
        # on a plateau at the target, np.interp picks its lowest SNR
        return float(np.interp(lt, logs[::-1], self.snr_db[::-1]))

    def save_csv(self, path):
        write_csv(path, ["snr_db", "ser"], zip(self.snr_db, self.ser))

    @classmethod
    def load_csv(cls, name, path):
        with open(path, encoding="ascii") as fh:
            lines = [line.split(",") for line in fh.read().splitlines()[1:] if line.strip()]
        try:
            rows = np.array(lines, dtype=float)
            if rows.ndim != 2 or rows.shape[1] != 2:
                raise ValueError("expected 'snr_db,ser' data rows after the header")
            return cls(name, rows[:, 0], rows[:, 1])
        except ValueError as exc:
            raise ValueError(f"SER curve file {path}: {exc}") from None


def build_ser_curve(name, snr_db_grid=None, symbols_per_point=1_000_000, seed=0):
    """Monte-Carlo AWGN SER curve on a 0.5 dB grid, monotonized.

    Unit-energy symbols scaled by sqrt(snr); unit-variance complex noise, so
    the grid value is the symbol SNR Es/N0 in dB. Per point the stream is N
    symbol indices, then 2N standard normals (N real noise parts, N imaginary):
    the stream of earlier versions, so the SER caches they wrote stay valid.
    """
    if symbols_per_point < 1:
        raise ValueError(f"symbols_per_point must be >= 1, got {symbols_per_point}")
    spec = get_constellation(name)
    if snr_db_grid is None:
        snr_db_grid = np.arange(0.0, 28.0 + 1e-9, 0.5)
    snr_db_grid = np.asarray(snr_db_grid, dtype=float)
    rng = np.random.default_rng(seed)
    lattice = spec.lattice.T.astype(float)
    ser = np.empty(len(snr_db_grid))
    for i, sdb in enumerate(snr_db_grid):
        amp = np.sqrt(10.0 ** (sdb / 10.0))
        sent = np.take(lattice, rng.integers(0, spec.order, size=symbols_per_point), axis=1)
        x = rng.standard_normal((2, symbols_per_point))
        x *= 1.0 / (np.sqrt(2.0) * amp * spec.scale)
        x += sent
        wrong = _decide(spec, x) != sent
        ser[i] = np.count_nonzero(wrong[0] | wrong[1]) / symbols_per_point
    return SerCurve(name, snr_db_grid, ser).monotonized()


class AnalyticBackend:
    """SINR targets straight from the closed-form SER approximation."""

    def sinr_db_for(self, entry, ser):
        return 10.0 * np.log10(sinr_from_ser(ser, entry.rate))


class EmpiricalBackend:
    """SINR targets read off simulated SER curves; builds and caches lazily.

    cache_dir, when set, persists each curve as '<name>_ser.csv' so repeated
    runs skip the Monte-Carlo rebuild.
    """

    def __init__(self, cache_dir=None, symbols_per_point=1_000_000, seed=20_240_001):
        if symbols_per_point < 1:
            raise ValueError(f"symbols_per_point must be >= 1, got {symbols_per_point}")
        self.curves = {}
        self.cache_dir = cache_dir
        self.symbols_per_point = symbols_per_point
        self.seed = seed

    def curve_for(self, name):
        if name not in self.curves:
            path = None if self.cache_dir is None else os.path.join(self.cache_dir,
                                                                     f"{name}_ser.csv")
            if path is not None and os.path.exists(path):
                self.curves[name] = SerCurve.load_csv(name, path)
            else:
                self.curves[name] = build_ser_curve(name, symbols_per_point=self.symbols_per_point,
                                                    seed=self.seed)
                if path is not None:
                    os.makedirs(self.cache_dir, exist_ok=True)
                    self.curves[name].save_csv(path)
        return self.curves[name]

    def sinr_db_for(self, entry, ser):
        return self.curve_for(entry.name).sinr_db_for_ser(ser)


@dataclass(frozen=True)
class LinkAllocation:
    """Per-user outcome of the rate -> modulation -> SER -> SINR pipeline."""
    modulations: tuple
    ser: tuple
    sinr: tuple  # linear targets

    @property
    def sinr_db(self):
        return tuple(10.0 * np.log10(z) for z in self.sinr)


def allocate(table, target_rates, backend=None):
    """Run the full adaptation pipeline for a vector of per-user rates."""
    backend = backend or AnalyticBackend()
    entries = [select_modulation(table, float(r)) for r in target_rates]   # before any curve
    mods, sers, zetas = [], [], []
    for r, entry in zip(target_rates, entries):
        ser = ser_from_goodput(float(r), entry.rate)
        if ser == 0.0:
            # lossless target: no finite SINR makes SER exactly zero, report
            # the supported ceiling instead
            zeta = ZETA_MAX_DEFAULT
        else:
            zeta = 10.0 ** (backend.sinr_db_for(entry, ser) / 10.0)
        if not ZETA0_DEFAULT <= zeta <= ZETA_MAX_DEFAULT:
            raise ValueError(
                f"required SINR {10*np.log10(zeta):.2f} dB for rate {r} is outside "
                f"the supported range")
        mods.append(entry)
        sers.append(ser)
        zetas.append(zeta)
    return LinkAllocation(tuple(mods), tuple(sers), tuple(zetas))
