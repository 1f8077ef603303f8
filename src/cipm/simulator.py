"""Frame-level Monte-Carlo engine.

One frame = one channel draw held fixed over N symbol slots. The engine
precodes every slot (one symbol-level solve per distinct symbol combination
of the frame, shared by the slots that carry it, or per-frame beams applied
to the slot's symbols), adds receiver noise, detects, and aggregates
power/SER/goodput statistics. Sweeps repeat frames over a grid of targets or
system sizes with per-frame derived seeds, so runs are reproducible. A
sweep, run_frames and run_frame share one stacked runner: a (grid value, frame)
job draws once for every precoder; batches of about _BATCH_SLOTS slots run in
turn or on worker processes, and in each the jobs of one shape share one CIPM
stack solve and one multicast SCA loop, the jobs still alive one OB loop.
A job's outcome is its results or the error it raises alone; batches are read
in order, and the first failing job is raised once every job before it is
solved. Both fixed-channel studies take a FrameConfig; a region map sets its
targets and constellations per grid point.
"""

import concurrent.futures
import contextlib
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import solve_multicast_stack, solve_ob, solve_ob_stack
from .channel import (ChannelMatrix, FadingConfig, as_entries, effective_channel,
                      eq_power_cdf, eq_power_mean, eq_power_pdf,
                      sample_rayleigh, symbol_stats, write_csv)
from .constellation import detect, gather, get_constellation
from .linkadapt import effective_goodput, energy_efficiency, ser_from_sinr
from .solver import SinrTargets, SolverError, _check_mode, _named, solve_cipm_stack

PRECODERS = ("cipm", "ob", "multicast")

DEFAULT_ZETA_DB = 4.712  # per-user target used by the fixed-channel runs
_BATCH_SLOTS = 2 ** 16   # slots per batch of jobs: its draws and stacks live at once


@dataclass(frozen=True)
class FrameConfig:
    n_symbols: int = 100
    frames: int = 50
    n_antennas: int = 2
    k_users: int = 2
    sigma_h2_db: float = 0.0
    sigma_z2_db: float = 0.0
    zeta_db: object = DEFAULT_ZETA_DB     # scalar or per-user sequence
    modulations: object = "qpsk"          # name, or per-user names (one name = every user)
    mode: str = "relaxed"
    precoder: str = "cipm"
    seed: int = 0
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
        if not np.abs([self.sigma_h2_db, self.sigma_z2_db]).max() <= 3000.0:   # 1e-300..1e300
            raise ValueError("sigma_h2_db and sigma_z2_db must be finite and within +-3000 dB")

    @property
    def beta(self):
        return 1.0 / (10.0 ** (self.sigma_h2_db / 10.0))

    @property
    def sigma_z(self):
        return float(np.sqrt(10.0 ** (self.sigma_z2_db / 10.0)))

    def _per_user(self, values, what):
        """values, one per user; a single value serves every user."""
        values = list(values) * (self.k_users if len(values) == 1 else 1)
        if len(values) != self.k_users:
            raise ValueError(f"one {what} per user required")
        return values

    def modulation_names(self):
        m = self.modulations
        return self._per_user([m] if isinstance(m, str) else m, "modulation")

    def constellations(self):
        return [get_constellation(n) for n in self.modulation_names()]

    def targets(self):
        z = np.array(self._per_user(np.atleast_1d(self.zeta_db), "target"), dtype=float)
        with np.errstate(over="ignore"):        # SinrTargets rejects the inf
            return SinrTargets(zeta=10.0 ** (z / 10.0), sigma_z=self.sigma_z)


@dataclass(frozen=True)
class FrameResult:
    avg_power: float              # mean per-slot transmit power, Watts
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
    return ChannelMatrix(sample_rayleigh(FadingConfig(cfg.beta, cfg.n_antennas), cfg.k_users,
                                         _frame_rng(cfg.seed, frame_index, 0)))


# one frame's draws, shared by every precoder
_Frame = namedtuple("_Frame", "cfg channel targets symbols mc_seed noise")


def _result(d: _Frame, x, det_scale, hits, entries) -> FrameResult:
    """Slot vectors x (N, Nt) detected at det_scale, or a power bound only if None."""
    avg_power, specs = float(np.mean(np.sum(np.abs(x) ** 2, axis=1))), d.cfg.constellations()
    sers = goodputs = (float("nan"),) * d.cfg.k_users
    if det_scale is not None:
        received = x @ d.channel.entries.T + d.noise  # received[i, j] = h_j x_i + noise
        sers = tuple(float(np.mean(detect(s, received[:, j] / det_scale[j]) != d.symbols[:, j]))
                     for j, s in enumerate(specs))
        goodputs = tuple(effective_goodput(s.rate, ser) for s, ser in zip(specs, sers))
    return FrameResult(avg_power, sers, goodputs,
                       energy_efficiency(goodputs, avg_power), hits, entries)


def _solve_shape(frames, precoders):
    """Per frame of a shape, {precoder: FrameResult} of cipm and multicast, or the error the
    frame raises alone: one CIPM stack, then one SCA loop on the frames whose rows all solved."""
    cfg, specs = frames[0].cfg, frames[0].cfg.constellations()
    combos, inverse = zip(*(np.unique(d.symbols, axis=0, return_inverse=True) for d in frames))
    row = np.repeat(np.arange(len(frames)), [len(c) for c in combos])    # frame of each row
    targets = SinrTargets(np.stack([d.targets.zeta for d in frames])[row], cfg.sigma_z)
    h, stacked = np.stack([d.channel.entries for d in frames])[row], np.concatenate(combos)
    x, _, errors = solve_cipm_stack(h, specs, stacked, targets, cfg.mode)
    xs, ok = {"cipm": x}, ~np.isin(row, row[list(errors)])    # rows of frames still alive
    if "multicast" in precoders and ok.any():
        # bounds on the effective channels (built per frame, as a lone frame's bits),
        # warm started at each row's CIPM point so none exceeds it, from its frame's seed
        eff = np.concatenate([effective_channel(d.channel, specs, c)
                              for d, c in zip(frames, combos)])
        xs["multicast"] = x.copy()
        xs["multicast"][ok], _, mc = solve_multicast_stack(
            eff[ok], SinrTargets(targets.zeta[ok], cfg.sigma_z), cfg.multicast_restarts,
            np.array([d.mc_seed for d in frames])[row[ok]], x[ok])
        errors.update({np.flatnonzero(ok)[i]: err for i, err in mc.items()})
    out = [None] * len(frames)
    for c in sorted(errors)[::-1]:      # rows in reverse: a frame's first failing row is last
        out[row[c]] = _named(errors[c], f"combination {stacked[c].tolist()}")
    for i, d in enumerate(frames):
        if out[i] is None:
            # the inverse's shape changed across numpy 2.0.x; flatten it
            take, c = np.flatnonzero(row == i)[inverse[i].ravel()], len(combos[i])
            # cipm receivers rescale by the constraint scaling before the slicer
            scale = {"cipm": np.sqrt(d.targets.zeta) * d.targets.sigma_z, "multicast": None}
            out[i] = {p: _result(d, xs[p][take], scale[p], d.cfg.n_symbols - c, c)
                      for p in xs if p in precoders}
    return out


def _solve_jobs(jobs, precoders):
    """Per job (cfg, frame index, channel or None), in job order, {precoder: FrameResult} or
    the error the job raises alone: its first failing CIPM row's, else multicast row's,
    else its OB frame's.

    A job draws its channel (unless given), then its symbols, multicast seed and noise,
    once for every precoder. The frames of one shape (K, Nt, modulations, mode, noise,
    restarts) share one _solve_shape, and the frames still alive one OB stack.
    """
    frames, shapes = [], {}
    for cfg, f, channel in jobs:
        channel = draw_channel(cfg, f) if channel is None else channel
        rng = _frame_rng(cfg.seed, f, 1)
        symbols = np.column_stack([rng.integers(0, s.order, size=cfg.n_symbols)
                                   for s in cfg.constellations()])
        mc_seed = int(rng.integers(0, 2 ** 31))
        noise = cfg.sigma_z * ((rng.standard_normal(symbols.shape)
                                + 1j * rng.standard_normal(symbols.shape)) / np.sqrt(2.0))
        shapes.setdefault((cfg.k_users, cfg.n_antennas, tuple(cfg.modulation_names()),
                           cfg.mode, cfg.sigma_z, cfg.multicast_restarts), []).append(len(frames))
        frames.append(_Frame(cfg, channel, cfg.targets(), symbols, mc_seed, noise))
    out = [{} for _ in frames]
    for idx in shapes.values() if {"cipm", "multicast"} & set(precoders) else ():
        for i, o in zip(idx, _solve_shape([frames[j] for j in idx], precoders)):
            out[i] = o
    ob = [i for i, o in enumerate(out) if "ob" in precoders and isinstance(o, dict)]
    beams = solve_ob_stack([frames[i].channel for i in ob], [frames[i].targets for i in ob])
    for i, d, b in zip(ob, [frames[i] for i in ob], beams):
        if isinstance(b, SolverError):
            out[i] = b
        else:           # user j detects against its own beam gain h_j w_j
            out[i]["ob"] = _result(d, gather(d.cfg.constellations(), d.symbols) @ b.w,
                                   np.diag(d.channel.entries @ b.w.T), 0, 1)
    return out


def _run_jobs(jobs, precoders, threads: int = 1):
    """_solve_jobs' results; raises the first failing job's error, named 'frame f: <error>'.

    Batch b of m >= n = min(threads, jobs), of about _BATCH_SLOTS slots, is jobs b, b + m, ...
    Batches arrive in order: once b has, jobs 0..b are solved, so the first failing one among
    them is raised before any later batch is read (with one process, before it is solved).
    """
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    n = min(threads, len(jobs))
    m = min(len(jobs), max(n, -(-sum(cfg.n_symbols for cfg, _, _ in jobs) // _BATCH_SLOTS)))
    out = [None] * len(jobs)
    with concurrent.futures.ProcessPoolExecutor(n) if n > 1 else contextlib.nullcontext() as pool:
        batches = (pool.map if pool else map)(_solve_jobs, [jobs[b::m] for b in range(m)],
                                              [precoders] * m)
        for b, part in enumerate(batches):
            out[b::m] = part
            for i in range(b, b + 1 if b < m - 1 else len(jobs)):  # the last batch: every job
                if isinstance(out[i], SolverError):
                    raise _named(out[i], f"frame {jobs[i][1]}")
    return out


def run_frame(cfg: FrameConfig, channel: ChannelMatrix, frame_index: int = 0) -> FrameResult:
    """Simulate one frame on the given channel: the stacked runner's one-job case.

    Randomness (symbols, noise) comes from a stream derived from (cfg.seed,
    frame_index), independent of the channel draw.
    """
    return _run_jobs([(cfg, frame_index, channel)], (cfg.precoder,))[0][cfg.precoder]


def run_frames(cfg: FrameConfig, threads: int = 1):
    """All frames of a config, channels drawn per frame, in frame order."""
    jobs = [(cfg, f, None) for f in range(cfg.frames)]
    return [r[cfg.precoder] for r in _run_jobs(jobs, (cfg.precoder,), threads)]


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
    return SweepRow(axis, float(value), precoder, dbw, lin, ser, gp,
                    energy_efficiency(gp, lin), len(results))


def _count(axis, v, *also):
    """FrameConfig fields k_users and *also at the axis' grid value v, a whole number."""
    if not float(v).is_integer():
        raise ValueError(f"the {axis} axis takes whole numbers, got {v:g}")
    return dict.fromkeys(("k_users", *also), int(v))


# per sweep axis: its CSV column, and config(c, v), the frame config c at grid value v
SweepAxis = namedtuple("SweepAxis", "column config")
SWEEP_AXIS_TABLE = {
    "sinr": SweepAxis("target_sinr_db", lambda c, v: replace(c, zeta_db=float(v))),
    "size": SweepAxis("system_size", lambda c, v: replace(c, **_count("size", v, "n_antennas"))),
    "users": SweepAxis("k_users", lambda c, v: replace(c, **_count("users", v))),
}
SWEEP_AXES = tuple(SWEEP_AXIS_TABLE)


def run_sweep(base_cfg: FrameConfig, grid, axis: str = "sinr",
              precoders=("cipm", "ob"), threads: int = 1):
    """Average frame results per (grid value, precoder), for each of precoders.

    precoders picks the compared precoders; base_cfg.precoder is not read.
    Channels and symbol draws depend only on (seed, frame index, grid value),
    never on the precoder, so precoders are compared on identical frames.
    """
    # FrameConfig rejects an unknown precoder name
    precoders = tuple(replace(base_cfg, precoder=p).precoder for p in precoders)
    if axis not in SWEEP_AXIS_TABLE:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    at = SWEEP_AXIS_TABLE[axis].config
    cfgs = [replace(at(base_cfg, value), seed=int(np.random.SeedSequence(
        [int(base_cfg.seed), 977, gi]).generate_state(1)[0])) for gi, value in enumerate(grid)]
    n = base_cfg.frames
    res = _run_jobs([(cfg, f, None) for cfg in cfgs for f in range(n)], precoders, threads)
    return [aggregate([r[p] for r in res[gi * n:(gi + 1) * n]], axis, value, p)
            for gi, value in enumerate(grid) for p in precoders]


def write_sweep_csv(rows, path):
    k = len(rows[0].ser)
    cols = [SWEEP_AXIS_TABLE[rows[0].axis].column, "precoder", "avg_power_dbw",
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

    @property
    def gap_db(self):
        return 10.0 * np.log10(self.ob_power / self.cipm_power)

    @property
    def average_gap_db(self):
        return float(10.0 * np.log10(np.mean(self.ob_power)
                                     / np.mean(self.cipm_power)))


MAX_ENUMERATION = 4096


def _combination_powers(h, cfg: FrameConfig):
    """Every symbol combination of cfg's constellations and its CIPM power on h (K, Nt)."""
    specs = cfg.constellations()
    orders = [s.order for s in specs]
    if (total := int(np.prod(orders))) > MAX_ENUMERATION:     # before anything is allocated
        raise ValueError(
            f"enumeration of {total} combinations exceeds the "
            f"{MAX_ENUMERATION} limit")
    combos = enumerate_combinations(orders)
    _, power, errors = solve_cipm_stack(h, specs, combos, cfg.targets(), cfg.mode)
    if errors:
        c = min(errors)
        raise _named(errors[c], f"combination {combos[c].tolist()}")
    return combos, power


def fixed_channel_experiment(channel, cfg: FrameConfig) -> CombinationTable:
    """Exhaustive per-combination powers on one fixed channel; its shape overrides cfg's."""
    ch = ChannelMatrix(as_entries(channel))
    cfg = replace(cfg, k_users=ch.k_users, n_antennas=ch.n_antennas)
    combos, cipm = _combination_powers(ch.entries, cfg)
    beams = solve_ob(ch.entries, cfg.targets())
    # each slot's OB power, as a frame pays it
    ob = np.sum(np.abs(gather(cfg.constellations(), combos) @ beams.w) ** 2, axis=1)
    return CombinationTable(combos, cipm, ob, beams.total_power)


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


def region_maps(channel, grid_db, table, cfg: FrameConfig = FrameConfig()):
    """Power and efficiency surfaces over a 2-user target-SINR grid.

    Each grid point adapts both users' modulation to its target (highest
    entry whose threshold is met; the lowest entry below the ladder), then
    averages the symbol-level power at cfg's noise and mode over the full
    combination enumeration. Efficiency discounts each user's rate by the
    closed-form SER at its target. The channel's shape overrides cfg's.
    """
    ch = ChannelMatrix(as_entries(channel))
    if ch.k_users != 2:
        raise ValueError("region maps are defined for the 2-user case")
    base = replace(cfg, k_users=ch.k_users, n_antennas=ch.n_antennas)
    out = []
    for z1 in grid_db:
        for z2 in grid_db:
            entries = [table.modulation_for_sinr(float(z)) or table.entries[0] for z in (z1, z2)]
            cfg = replace(base, zeta_db=(z1, z2), modulations=tuple(e.name for e in entries))
            power = float(np.mean(_combination_powers(ch.entries, cfg)[1]))
            gps = [effective_goodput(e.rate, ser_from_sinr(t, e.rate))
                   for e, t in zip(entries, cfg.targets().zeta)]
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
    l1: float
    ks_phase: float
    raw_power_mean: float
    raw_power_expected: float
    eq_power_mean: float
    eq_power_expected: float
    sufficient: bool
    # (z grid, analytic pdf, empirical density) from the same sample
    curves: tuple = field(compare=False, repr=False)


def _equal_probability_edges(cfg, stats, bins, hi):
    """Edges 0, ..., inf where the analytic CDF reaches 1/bins, 2/bins, ...;
    the interior ones bisected together on [0, hi] to 1e-12 plus 4 ulp."""
    q = np.arange(1, bins) / bins
    lo, hi = np.zeros(bins - 1), np.full(bins - 1, hi)
    while np.any(hi - lo > 1e-12 + 4.0 * np.finfo(float).eps * hi):
        mid = 0.5 * (lo + hi)
        below = eq_power_cdf(mid, cfg, stats) < q
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.concatenate([[0.0], 0.5 * (lo + hi), [np.inf]])


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
    if samples < 1 or bins < 1:
        raise ValueError(f"samples and bins must be >= 1, got samples={samples}, bins={bins}")
    spec = get_constellation(constellation)
    stats = symbol_stats(spec)
    cfg = FadingConfig(beta=beta, n_antennas=n_antennas)
    rng = np.random.default_rng(seed)
    rows = sample_rayleigh(cfg, samples, rng)
    raw = np.sum(np.abs(rows) ** 2, axis=1)
    sym = rng.integers(0, spec.order, size=samples)
    pts = np.asarray(spec.points)[sym]
    gamma = np.abs(pts) ** 2
    z = raw / gamma

    edges = _equal_probability_edges(cfg, stats, bins, float(np.max(z)) * 2.0 + 10.0)
    counts, _ = np.histogram(z, bins=edges)
    l1 = float(np.sum(np.abs(counts / samples - 1.0 / bins)))

    # phases of the equivalent entries: reference rotation times the entry
    ref_phase = np.angle((pts.conj() / np.abs(pts))[:, None] * rows)
    grid = np.sort(ref_phase.ravel())
    grid += np.pi
    grid /= 2.0 * np.pi
    n = grid.size
    grid -= np.arange(n) / n        # uniform CDF at each sorted phase minus i/n
    ks = float(max(1.0 / n - np.min(grid), np.max(grid)))

    curve_edges = np.linspace(0.0, float(np.quantile(z, 0.995)),
                              CURVE_POINTS + 1)
    density, _ = np.histogram(z, bins=curve_edges, density=True)
    centers = 0.5 * (curve_edges[:-1] + curve_edges[1:])

    return DistributionReport(
        l1=l1, ks_phase=ks,
        raw_power_mean=float(np.mean(raw)),
        raw_power_expected=n_antennas / beta,
        eq_power_mean=float(np.mean(z)),
        eq_power_expected=eq_power_mean(cfg, stats),
        sufficient=samples >= 100 * bins,
        curves=(centers, eq_power_pdf(centers, cfg, stats), density))


def write_distribution_csv(z_grid, analytic, empirical, path):
    write_csv(path, ["z", "analytic_pdf", "empirical_pdf"], zip(z_grid, analytic, empirical))
