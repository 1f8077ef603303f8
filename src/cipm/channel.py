"""Rayleigh MISO channels and equivalent-channel statistics.

The per-symbol precoding problem can be rephrased on an "effective" channel
whose row j is rotated by the phase difference between the common reference
symbol and user j's symbol, and scaled by the inverse symbol amplitude; its
per-row power, the channel power over the symbol power, is a Gamma mixture
over the constellation's amplitude levels. as_entries is the one reader of
a channel argument: a ChannelMatrix, an array (K, Nt) or a stack (C, K, Nt).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import ConstellationSpec, gather

REFERENCE_SYMBOL = (1.0 + 1.0j) / np.sqrt(2.0)
_STATS_DECIMALS = 9     # levels closer than this are one amplitude level


@dataclass(frozen=True)
class FadingConfig:
    """I.i.d. Rayleigh fading; each entry is CN(0, 1/beta)."""

    beta: float
    n_antennas: int
    k_users: int

    def __post_init__(self):
        if not 0 < self.beta < float("inf"):
            raise ValueError(f"beta must be finite and positive, got {self.beta}")
        if self.n_antennas < 1 or self.k_users < 1:
            raise ValueError("n_antennas and k_users must be >= 1")


@dataclass(frozen=True)
class ChannelMatrix:
    """K x Nt complex channel; row j is user j's downlink channel."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=complex)      # a copy: the caller's array stays writeable
        if e.ndim != 2:
            raise ValueError("channel entries must be a 2-D array")
        object.__setattr__(self, "entries", e)
        e.setflags(write=False)

    @property
    def k_users(self) -> int:
        return self.entries.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.entries.shape[1]

    def save_text(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.k_users} {self.n_antennas}\n")
            for row in self.entries:
                fh.write(" ".join(f"{float(v.real)!r},{float(v.imag)!r}"
                                  for v in row) + "\n")

    @classmethod
    def load_text(cls, path) -> "ChannelMatrix":
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise ValueError("channel file must start with a 'K Nt' header line")
            k, nt = int(header[0]), int(header[1])
            rows = []
            for j in range(k):
                parts = fh.readline().split()
                if len(parts) != nt:
                    raise ValueError(f"channel row {j} has {len(parts)} entries, expected {nt}")
                try:
                    row = [complex(float(re), float(im))
                           for re, _, im in (p.partition(",") for p in parts)]
                except ValueError:
                    row = [np.nan]
                if not np.all(np.isfinite(row)):
                    raise ValueError(f"channel row {j} must hold finite 're,im' entries, "
                                     f"got {' '.join(parts)!r}")
                rows.append(row)
            extra = next((line for line in fh if line.strip()), None)
            if extra is not None:
                raise ValueError(f"channel file has rows beyond the K={k} in its header, "
                                 f"starting with {extra.strip()!r}")
        return cls(entries=np.array(rows, dtype=complex))


def write_csv(path, header, rows) -> None:
    """CSV file of header names and rows: str and int cells as str, other numbers repr(float)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) if isinstance(v, (str, int, np.integer)) else repr(float(v))
                              for v in row) + "\n")


def sample_rayleigh(cfg: FadingConfig, rng: np.random.Generator) -> ChannelMatrix:
    """Draw one channel realization with per-entry power 1/beta."""
    scale = np.sqrt(1.0 / (2.0 * cfg.beta))
    shape = (cfg.k_users, cfg.n_antennas)
    h = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return ChannelMatrix(entries=h)


def as_entries(channel) -> np.ndarray:
    """Complex entries of a ChannelMatrix, or of an array (K, Nt) or stack (..., K, Nt)."""
    return (channel.entries if isinstance(channel, ChannelMatrix)
            else np.asarray(channel, dtype=complex))


def effective_channel(channel, specs: list[ConstellationSpec], symbols) -> np.ndarray:
    """Rotate/scale each user row so all users share one reference target.

    Row j is multiplied by exp(i(angle(REFERENCE_SYMBOL) - angle(d_j))) / |d_j|, which
    maps the exact-constraint target for symbol d_j onto the common unit-modulus
    reference point. symbols is one index row (K,) or a stack (C, K), channel one
    (K, Nt) or one per row (C, K, Nt); a stack gives a stack (C, K, Nt).
    """
    d = gather(specs, symbols)
    kappa = np.abs(d)
    if np.any(kappa == 0):
        raise ValueError("symbol amplitude is zero; cannot form the effective channel")
    a = np.exp(1j * (np.angle(REFERENCE_SYMBOL) - np.angle(d))) / kappa
    return a[..., None] * as_entries(channel)


@dataclass(frozen=True)
class SymbolStats:
    """Amplitude-squared levels of a constellation with weights."""

    gamma: np.ndarray         # distinct |d|^2 levels, ascending
    gamma_probs: np.ndarray


def symbol_stats(spec: ConstellationSpec) -> SymbolStats:
    g = np.round(np.abs(spec.points) ** 2, _STATS_DECIMALS)
    gu, gc = np.unique(g, return_counts=True)
    return SymbolStats(gamma=gu, gamma_probs=gc / float(spec.order))


def _gamma_pdf(z: np.ndarray, shape: int, rate: float) -> np.ndarray:
    from scipy.special import gammaln
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    pos = z > 0
    zp = z[pos]
    log_pdf = shape * np.log(rate) + (shape - 1) * np.log(zp) - rate * zp - gammaln(shape)
    out[pos] = np.exp(log_pdf)
    return out


def eq_power_pdf(z, cfg: FadingConfig, stats: SymbolStats) -> np.ndarray:
    """Density of ||h||^2 / |d|^2: a Gamma(Nt, beta*gamma_k) mixture."""
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    for g, p in zip(stats.gamma, stats.gamma_probs):
        out += p * _gamma_pdf(z, cfg.n_antennas, cfg.beta * g)
    return out


def eq_power_cdf(z, cfg: FadingConfig, stats: SymbolStats) -> np.ndarray:
    """Mixture CDF via the regularized lower incomplete gamma function."""
    from scipy.special import gammainc
    z = np.asarray(z, dtype=float)
    out = np.zeros_like(z)
    zc = np.clip(z, 0.0, None)
    for g, p in zip(stats.gamma, stats.gamma_probs):
        out += p * gammainc(cfg.n_antennas, cfg.beta * g * zc)
    return out


def eq_power_mean(cfg: FadingConfig, stats: SymbolStats) -> float:
    """Mean of the mixture: (Nt/beta) * E[1/gamma]."""
    inv = float(np.sum(stats.gamma_probs / stats.gamma))
    return cfg.n_antennas / cfg.beta * inv

