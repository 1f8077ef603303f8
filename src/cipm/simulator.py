"""Frame-level Monte-Carlo engine.

One frame = one channel draw held fixed over N symbol slots. The engine
precodes every slot (one symbol-level solve per distinct symbol combination
of the frame, shared by the slots that carry it, or per-frame beams applied
to the slot's symbols), adds receiver noise, detects, and aggregates
power/SER/goodput statistics. Sweeps repeat frames over a grid of
targets or system sizes with per-frame derived seeds so runs are reproducible
and frames can be distributed across processes.
"""

import concurrent.futures
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from .baselines import ob_frame_power, solve_multicast_stack, solve_ob
from .channel import (ChannelMatrix, FadingConfig, effective_channel,
                      eq_power_cdf, eq_power_mean, eq_power_pdf,
                      sample_rayleigh, symbol_stats, write_csv)
from .constellation import detect, get_constellation
from .linkadapt import effective_goodput, energy_efficiency, ser_from_sinr
from .solver import SinrTargets, SolverError, _check_mode, solve_cipm_stack

PRECODERS = ("cipm", "ob", "multicast")

DEFAULT_ZETA_DB = 4.712  # per-user target used by the fixed-channel runs


@dataclass(frozen=True)
class FrameConfig:
    n_symbols: int = 100
    frames: int = 50
    n_antennas: int = 2
    k_users: int = 2
    sigma_h2_db: float = 0.0
    sigma_z2_db: float = 0.0
    zeta_db: object = DEFAULT_ZETA_DB     # scalar or per-user sequence
    modulations: object = "qpsk"          # name or per-user sequence of names
    mode: str = "relaxed"
    precoder: str = "cipm"
    seed: int = 0
    noiseless: bool = False               # skip receiver noise, keep targets
    multicast_restarts: int = 2

    def __post_init__(self):
        if self.n_symbols < 1 or self.frames < 1:
            raise ValueError("need n_symbols >= 1 and frames >= 1")
        if self.k_users < 1 or self.n_antennas < 1:
            raise ValueError("need k_users >= 1 and n_antennas >= 1")
        _check_mode(self.mode)
        if self.precoder not in PRECODERS:
            raise ValueError(f"precoder must be one of {PRECODERS}")
        if self.multicast_restarts < 0:
            raise ValueError("need multicast_restarts >= 0")

    @property
    def beta(self):
        return 1.0 / (10.0 ** (self.sigma_h2_db / 10.0))

    @property
    def sigma_z(self):
        return float(np.sqrt(10.0 ** (self.sigma_z2_db / 10.0)))

    def modulation_names(self):
        m = self.modulations
        names = [m] * self.k_users if isinstance(m, str) else list(m)
        if len(names) != self.k_users:
            raise ValueError("one modulation per user required")
        return names

    def constellations(self):
        return [get_constellation(n) for n in self.modulation_names()]

    def targets(self):
        z = np.atleast_1d(np.asarray(self.zeta_db, dtype=float))
        if z.size == 1:
            z = np.full(self.k_users, z[0])
        if z.size != self.k_users:
            raise ValueError("one target per user required")
        return SinrTargets(zeta=10.0 ** (z / 10.0), sigma_z=self.sigma_z)


@dataclass(frozen=True)
class FrameResult:
    powers: np.ndarray            # per-slot transmit power, Watts
    avg_power: float
    ser: tuple                    # per-user measured symbol error rate
    goodputs: tuple               # per-user R(m) * (1 - ser)
    eta: float
    cache_hits: int
    cache_entries: int

    @property
    def avg_power_dbw(self):
        return 10.0 * np.log10(self.avg_power)


def _frame_rng(seed, frame_index, stream):
    # split function: independent streams per (seed, frame, purpose) triple
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), int(frame_index), int(stream)]))


def draw_channel(cfg: FrameConfig, frame_index: int) -> ChannelMatrix:
    rng = _frame_rng(cfg.seed, frame_index, 0)
    fading = FadingConfig(beta=cfg.beta, n_antennas=cfg.n_antennas,
                          k_users=cfg.k_users)
    return sample_rayleigh(fading, rng=rng)


def _symbol_values(specs, symbols):
    """Complex symbol per row and user for index rows symbols (N, K)."""
    return np.column_stack([spec.points[symbols[:, j]]
                            for j, spec in enumerate(specs)])


def run_frame(cfg: FrameConfig, channel: ChannelMatrix, frame_index: int = 0
              ) -> FrameResult:
    """Simulate one frame on the given channel.

    Symbol-level precoders solve each distinct symbol combination of the
    frame once; OB applies its per-frame beams to every slot. Randomness
    (symbols, noise) comes from a stream derived from (cfg.seed, frame_index),
    independent of the channel draw.
    """
    specs = cfg.constellations()
    targets = cfg.targets()
    k = cfg.k_users
    h = channel.entries
    rng = _frame_rng(cfg.seed, frame_index, 1)
    symbols = np.column_stack([rng.integers(0, s.order, size=cfg.n_symbols)
                               for s in specs])
    mc_seed = int(rng.integers(0, 2 ** 31))
    try:
        if cfg.precoder == "ob":
            beams = solve_ob(h, targets)
            x = _symbol_values(specs, symbols) @ beams.w
            # user j detects against its own beam gain h_j w_j
            det_scale = np.diag(h @ beams.w.T)
            hits, entries = 0, 1
        else:
            combos, inverse = np.unique(symbols, axis=0, return_inverse=True)
            xs, _ = solve_cipm_stack(h, specs, combos, targets, cfg.mode)
            # receiver rescales by the constraint scaling before the slicer
            det_scale = np.sqrt(targets.zeta) * targets.sigma_z
            if cfg.precoder == "multicast":
                # bounds on the effective channels, warm started at each row's
                # CIPM point so none exceeds it; one seed for every row keeps
                # each row's bound independent of the others
                eff = effective_channel(channel, specs, combos).entries
                xs, _, feasible = solve_multicast_stack(
                    eff, targets, cfg.multicast_restarts, mc_seed, xs)
                if not feasible.all():
                    raise SolverError(f"combination {combos[~feasible][0].tolist()}: "
                                      "multicast bound infeasible despite warm start")
                det_scale = None
            # the inverse's shape changed across numpy 2.0.x; flatten it
            x = xs[inverse.ravel()]
            hits, entries = cfg.n_symbols - len(combos), len(combos)
    except SolverError as exc:
        raise SolverError(f"frame {frame_index}: {exc}") from exc

    powers = np.sum(np.abs(x) ** 2, axis=1)
    avg_power = float(np.mean(powers))

    if det_scale is None:
        # power bound only: no per-user symbol mapping to detect
        nan = float("nan")
        return FrameResult(powers, avg_power, (nan,) * k, (nan,) * k, nan,
                           hits, entries)

    received = x @ h.T  # received[i, j] = h_j x_i, noiseless
    if not cfg.noiseless:
        noise = (rng.standard_normal(received.shape)
                 + 1j * rng.standard_normal(received.shape)) / np.sqrt(2.0)
        received = received + cfg.sigma_z * noise
    sers, goodputs = [], []
    for j in range(k):
        decided = detect(specs[j], received[:, j] / det_scale[j])
        ser = float(np.mean(decided != symbols[:, j]))
        sers.append(ser)
        goodputs.append(effective_goodput(specs[j].rate, ser))
    eta = energy_efficiency(goodputs, avg_power)
    return FrameResult(powers, avg_power, tuple(sers), tuple(goodputs), eta,
                       hits, entries)


def _run_one_frame(cfg: FrameConfig, frame_index: int) -> FrameResult:
    return run_frame(cfg, draw_channel(cfg, frame_index), frame_index)


def run_frames(cfg: FrameConfig, threads: int = 1):
    """All frames of a config, channels drawn per frame, in frame order."""
    if threads <= 1:
        return [_run_one_frame(cfg, f) for f in range(cfg.frames)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        futs = [pool.submit(_run_one_frame, cfg, f) for f in range(cfg.frames)]
        return [f.result() for f in futs]


@dataclass(frozen=True)
class SweepRow:
    axis: str
    value: float
    precoder: str
    avg_power_dbw: float          # mean over frames of per-frame dBW
    avg_power_watts: float        # linear mean over frames
    ser: tuple
    goodputs: tuple
    eta: float
    frames: int


def aggregate(results, axis, value, precoder):
    k = len(results[0].ser)
    lin = float(np.mean([r.avg_power for r in results]))
    dbw = float(np.mean([r.avg_power_dbw for r in results]))
    ser = tuple(float(np.mean([r.ser[j] for r in results])) for j in range(k))
    gp = tuple(float(np.mean([r.goodputs[j] for r in results])) for j in range(k))
    eta = float(np.sum(gp) / lin) if np.all(np.isfinite(gp)) else float("nan")
    return SweepRow(axis, float(value), precoder, dbw, lin, ser, gp, eta,
                    len(results))


SWEEP_AXES = ("sinr", "size", "users")


def _config_at(base: FrameConfig, axis: str, value) -> FrameConfig:
    if axis == "sinr":
        return replace(base, zeta_db=float(value))
    if axis == "size":
        v = int(value)
        return replace(base, k_users=v, n_antennas=v)
    if axis == "users":
        return replace(base, k_users=int(value))
    raise ValueError(f"axis must be one of {SWEEP_AXES}")


def run_sweep(base_cfg: FrameConfig, grid, axis: str = "sinr",
              precoders=("cipm", "ob"), threads: int = 1):
    """Average frame results per (grid value, precoder).

    Channels and symbol draws depend only on (seed, frame index, grid value),
    never on the precoder, so precoders are compared on identical frames.
    """
    rows = []
    for gi, value in enumerate(grid):
        shaped = _config_at(base_cfg, axis, value)
        shaped = replace(shaped, seed=int(np.random.SeedSequence(
            [int(base_cfg.seed), 977, gi]).generate_state(1)[0]))
        for p in precoders:
            cfg = replace(shaped, precoder=p)
            rows.append(aggregate(run_frames(cfg, threads=threads),
                                  axis, value, p))
    return rows


def sweep_axis_column(axis):
    return {"sinr": "target_sinr_db", "size": "system_size",
            "users": "k_users"}[axis]


def write_sweep_csv(rows, path):
    k = len(rows[0].ser)
    cols = [sweep_axis_column(rows[0].axis), "precoder", "avg_power_dbw",
            "avg_power_watts"]
    cols += [f"ser_user{j+1}" for j in range(k)]
    cols += [f"goodput_user{j+1}" for j in range(k)]
    cols += ["eta"]
    write_csv(path, cols, ([r.value, r.precoder, r.avg_power_dbw, r.avg_power_watts,
                            *r.ser, *r.goodputs, r.eta] for r in rows))


def enumerate_combinations(orders):
    """All symbol-index combinations, user 1 most significant, ascending."""
    return np.indices(orders).reshape(len(orders), -1).T


@dataclass(frozen=True)
class CombinationTable:
    symbols: np.ndarray           # (ncombo, K) symbol indices
    cipm_power: np.ndarray        # Watts per combination
    ob_power: np.ndarray          # Watts per combination
    ob_long_term: float           # total beamformer power
    zeta_db: np.ndarray

    @property
    def gap_db(self):
        return 10.0 * np.log10(self.ob_power / self.cipm_power)

    @property
    def average_gap_db(self):
        return float(10.0 * np.log10(np.mean(self.ob_power)
                                     / np.mean(self.cipm_power)))


MAX_ENUMERATION = 4096


def fixed_channel_experiment(channel, cfg: FrameConfig) -> CombinationTable:
    """Exhaustive per-combination powers on one fixed channel."""
    ch = channel if isinstance(channel, ChannelMatrix) else ChannelMatrix(
        np.asarray(channel, dtype=complex))
    cfg = replace(cfg, k_users=ch.k_users, n_antennas=ch.n_antennas)
    specs = cfg.constellations()
    orders = [s.order for s in specs]
    total = int(np.prod(orders))
    if total > MAX_ENUMERATION:
        raise ValueError(
            f"enumeration of {total} combinations exceeds the "
            f"{MAX_ENUMERATION} limit")
    targets = cfg.targets()
    combos = enumerate_combinations(orders)
    _, cipm = solve_cipm_stack(ch.entries, specs, combos, targets, cfg.mode)
    beams = solve_ob(ch.entries, targets)
    ob, _, long_term = ob_frame_power(beams, _symbol_values(specs, combos))
    zdb = 10.0 * np.log10(targets.zeta)
    return CombinationTable(combos, cipm, ob, long_term, zdb)


def write_combination_csv(table: CombinationTable, path):
    k = table.symbols.shape[1]
    cols = ["combination"] + [f"symbol_user{j+1}" for j in range(k)]
    cols += ["cipm_power_dbw", "ob_power_dbw", "gap_db"]
    cipm, ob = 10.0 * np.log10(table.cipm_power), 10.0 * np.log10(table.ob_power)
    write_csv(path, cols, ([c, *table.symbols[c], cipm[c], ob[c], gap]
                           for c, gap in enumerate(table.gap_db)))


@dataclass(frozen=True)
class RegionPoint:
    zeta1_db: float
    zeta2_db: float
    modulation1: str
    modulation2: str
    avg_power_dbw: float
    eta: float


def region_maps(channel, grid_db, table, sigma_z2_db: float = 0.0,
                mode: str = "relaxed"):
    """Power and efficiency surfaces over a 2-user target-SINR grid.

    Each grid point adapts both users' modulation to its target (highest
    entry whose threshold is met; the lowest entry below the ladder), then
    averages the symbol-level power over the full combination enumeration.
    Efficiency discounts each user's rate by the closed-form SER at its
    target.
    """
    ch = channel if isinstance(channel, ChannelMatrix) else ChannelMatrix(
        np.asarray(channel, dtype=complex))
    if ch.k_users != 2:
        raise ValueError("region maps are defined for the 2-user case")
    sigma_z = float(np.sqrt(10.0 ** (sigma_z2_db / 10.0)))
    out = []
    for z1 in grid_db:
        for z2 in grid_db:
            entries = []
            for z in (z1, z2):
                e = table.modulation_for_sinr(float(z))
                entries.append(e if e is not None else table.entries[0])
            specs = [get_constellation(e.name) for e in entries]
            targets = SinrTargets(
                zeta=np.array([10.0 ** (z1 / 10.0), 10.0 ** (z2 / 10.0)]),
                sigma_z=sigma_z)
            combos = enumerate_combinations([s.order for s in specs])
            _, powers = solve_cipm_stack(ch.entries, specs, combos, targets, mode)
            power = float(np.mean(powers))
            gps = [effective_goodput(e.rate, ser_from_sinr(t, e.rate))
                   for e, t in zip(entries, targets.zeta)]
            out.append(RegionPoint(float(z1), float(z2), entries[0].name,
                                   entries[1].name,
                                   float(10.0 * np.log10(power)),
                                   energy_efficiency(gps, power)))
    return out


def write_region_csv(points, path):
    cols = ["zeta1_db", "zeta2_db", "modulation1", "modulation2", "avg_power_dbw", "eta"]
    write_csv(path, cols, ([p.zeta1_db, p.zeta2_db, p.modulation1, p.modulation2,
                            p.avg_power_dbw, p.eta] for p in points))


CURVE_POINTS = 200  # z-grid points of the exported density curves


@dataclass(frozen=True)
class DistributionReport:
    constellation: str
    samples: int
    bins: int
    l1: float
    ks_phase: float
    raw_power_mean: float
    raw_power_expected: float
    eq_power_mean: float
    eq_power_expected: float
    sufficient: bool
    # (z grid, analytic pdf, empirical density) from the same sample
    curves: tuple = field(compare=False, repr=False)


def validate_distribution(constellation: str = "16qam", n_antennas: int = 2,
                          beta: float = 1.0, samples: int = 100_000,
                          bins: int = 24, seed: int = 0) -> DistributionReport:
    """Monte-Carlo fit of the equivalent-channel power law.

    Draws per-user channel rows and symbols, forms the equivalent power
    z = |h|^2 / gamma, and compares the sample to the closed-form mixture:
    L1 distance over equal-probability bins of the analytic CDF, phase
    uniformity of the scaled entries by Kolmogorov-Smirnov, and the two
    first-moment checks (raw channel power against Nt/beta, equivalent power
    against the mixture mean). The report also carries the analytic and
    empirical density curves of the same sample for export.
    """
    spec = get_constellation(constellation)
    stats = symbol_stats(spec)
    cfg = FadingConfig(beta=beta, n_antennas=n_antennas, k_users=1)
    rng = np.random.default_rng(seed)
    rows = sample_rayleigh(replace(cfg, k_users=samples), rng).entries
    raw = np.sum(np.abs(rows) ** 2, axis=1)
    sym = rng.integers(0, spec.order, size=samples)
    pts = np.asarray(spec.points)[sym]
    gamma = np.abs(pts) ** 2
    z = raw / gamma

    # equal-probability bin edges from the analytic CDF
    lo, hi = 0.0, float(np.max(z)) * 2.0 + 10.0
    edges = [0.0]
    for q in np.arange(1, bins) / bins:
        edges.append(brentq(lambda v, q=q: eq_power_cdf(v, cfg, stats) - q,
                            lo, hi, xtol=1e-12))
    edges.append(np.inf)
    counts, _ = np.histogram(z, bins=edges)
    l1 = float(np.sum(np.abs(counts / samples - 1.0 / bins)))

    # phases of the equivalent entries: reference rotation times the entry
    ref_phase = np.angle((pts.conj() / np.abs(pts))[:, None] * rows)
    flat = np.sort(ref_phase.ravel())
    n = flat.size
    grid = (flat + np.pi) / (2.0 * np.pi)
    ks = float(np.max(np.maximum(np.arange(1, n + 1) / n - grid,
                                 grid - np.arange(0, n) / n)))

    curve_edges = np.linspace(0.0, float(np.quantile(z, 0.995)),
                              CURVE_POINTS + 1)
    density, _ = np.histogram(z, bins=curve_edges, density=True)
    centers = 0.5 * (curve_edges[:-1] + curve_edges[1:])

    return DistributionReport(
        constellation=constellation, samples=samples, bins=bins, l1=l1,
        ks_phase=ks,
        raw_power_mean=float(np.mean(raw)),
        raw_power_expected=n_antennas / beta,
        eq_power_mean=float(np.mean(z)),
        eq_power_expected=eq_power_mean(cfg, stats),
        sufficient=samples >= 100 * bins,
        curves=(centers, eq_power_pdf(centers, cfg, stats), density))


def write_distribution_csv(z_grid, analytic, empirical, path):
    write_csv(path, ["z", "analytic_pdf", "empirical_pdf"], zip(z_grid, analytic, empirical))
