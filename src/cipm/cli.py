"""Command-line front end: experiment subcommands emitting CSV artifacts.

Subcommands
    sweep     Monte-Carlo power/SER sweeps over SINR targets, system size,
              or user count, one CSV row per (grid value, precoder).
    fixed     deterministic single-channel studies: per-combination power
              table, or a per-user SINR region map.
    pdfcheck  goodness-of-fit check of the equivalent-channel power density
              against the analytic mixture.
    modmap    rate -> modulation -> SER -> SINR mapping with analytic and
              simulated-curve backends.

Exit codes: 0 success, 2 bad configuration or input, 3 solver failure,
4 validation failure.  Config files are ``key = value`` text, read by
key_value_lines; flags override file values.  Each option is declared once, in
``_SCHEMAS``, which generates its flag, config-file key and help text.  Its
parser is a ``_Domain``, the option's values (whole numbers in [lo, hi],
finite positive numbers, dB values within +-3000, a set of names, or comma
lists of one of these): flag and config text alike pass through it before
any command runs, and text outside it exits 2 with ``error: --flag: takes
<domain>, got '<text>'``.  A command checks only what joins two options.
"""

import argparse
import contextlib
import functools
import math
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from .channel import ChannelMatrix
from .constellation import ALIASES, get_constellation
from .linkadapt import (AnalyticBackend, EmpiricalBackend, ModulationTable,
                        allocate, key_value_lines, load_table)
from .simulator import (DEFAULT_ZETA_DB, PRECODERS, SWEEP_AXES,
                        FrameConfig, fixed_channel_experiment, region_maps,
                        run_sweep, validate_distribution,
                        write_combination_csv, write_distribution_csv,
                        write_region_csv, write_sweep_csv)
from .solver import MODES, SolverError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4

# every count sizes an allocation or a process pool, so each has a maximum
MAX_SIZE = 64   # users and antennas: a 100-slot frame's row and Gram stacks are ~13 MB each
MAX_REGION_POINTS = 100   # per target axis: a region map solves the square of this
MAX_FRAMES = MAX_SLOTS = MAX_BINS = 10_000   # slots are drawn per batch of frames (_BATCH_SLOTS)
MAX_SYMBOLS = 10_000_000   # modmap, per SER point: about 0.7 GB of draws at the maximum
MAX_SAMPLES = 1_000_000    # pdfcheck: (samples, antennas) complex channel draws
MAX_RESTARTS = MAX_THREADS = 64   # multicast starts per combination; worker processes

# deterministic 2x2 test channels for the fixed subcommand
PRESET_CHANNELS = {
    "combos": np.array([[0.1787 + 1.9179j, 0.9201 + 1.0048j],
                        [-2.1209 - 1.5455j, 1.5138 + 0.2250j]]),
    "regions": np.array([[1.3171 + 5.6483j, -1.8960 + 0.6877j],
                         [-0.6569 + 3.7018j, -2.5047 - 2.8110j]]),
}


def read_config(path):
    """Flat key = value file (key_value_lines' grammar); a key's '-' reads as '_'."""
    with open(path) as fh:
        try:
            return {key.replace("-", "_"): v for _, key, v in key_value_lines(fh.read())}
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


class _Domain(NamedTuple):
    """An option's parser: convert(text), if that succeeds and ok(value) holds; else
    ValueError(what), what naming the domain."""

    what: str
    convert: Callable = str
    ok: Callable = bool

    def __call__(self, text):
        with contextlib.suppress(ValueError, KeyError):
            if self.ok(value := self.convert(text)):
                return value
        raise ValueError(self.what)


def _whole(lo, hi=math.inf):
    span = f"from {lo} to {hi}" if hi < math.inf else f">= {lo}"
    return _Domain(f"a whole number {span}", int, lambda v: lo <= v <= hi)


def _one_of(names):
    return _Domain("one of " + ", ".join(names), str, lambda v: v in names)


def _list_of(item, distinct=False):
    """Comma lists of item's values, at least one; blank parts are skipped."""
    return _Domain(f"a comma list of {'distinct ' * distinct}values, each {item.what}",
                   lambda text: [item(p.strip()) for p in text.split(",") if p.strip()],
                   lambda v: len(v) > 0 and (not distinct or len(set(v)) == len(v)))


_BOOLS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(
    ("0", "false", "no", "off"), False)
_SWITCH = _Domain("yes or no", lambda text: _BOOLS[text.strip().lower()], lambda v: True)
_PATH = _Domain("a path")
_POSITIVE = _Domain("a finite positive number", float, lambda v: 0.0 < v < math.inf)
_DB = _Domain("a dB value from -3000 to 3000", float, lambda v: abs(v) <= 3000.0)  # 1e-300..1e300
_DB_LIST = _list_of(_DB)
_CONSTELLATION = _Domain("a constellation name (" + ", ".join(ALIASES) + ")", str,
                         lambda v: v.strip().lower() in ALIASES)


def _region_points(text):
    """A point count spread evenly over 4..14 dB, or a comma list of dB values."""
    try:
        int(text)
    except ValueError:
        return _DB_LIST(text)
    return list(np.linspace(4.0, 14.0, _whole(1, MAX_REGION_POINTS)(text)))   # bounded first


class _Opt(NamedTuple):
    """One option: its _Domain parser, default and help; a _SWITCH one is a bare flag."""

    parse: _Domain
    default: object
    help: str


# per-subcommand option schema: the one declaration of each option.  It generates the
# flags (key zeta_db is --zeta-db), the config-file keys, the hard defaults and the
# help text.  A subcommand lists only the options it reads.
_COMMON = {"out": _Opt(_PATH, ".", "output directory (default: .)")}
_SEEDED = dict(_COMMON, seed=_Opt(_whole(0), 0, "base RNG seed"))

_SCHEMAS = {
    "sweep": dict(_SEEDED, **{
        "threads": _Opt(_whole(0, MAX_THREADS), 0, "worker processes; 0 = all cores"),
        "frames": _Opt(_whole(1, MAX_FRAMES), 50, "Monte-Carlo frames"),
        "symbols": _Opt(_whole(1, MAX_SLOTS), 100, "symbol slots per frame"),
        "axis": _Opt(_one_of(SWEEP_AXES), "sinr", "sweep variable (default: sinr)"),
        "grid": _Opt(_DB_LIST, [4.0, 8.0, 12.0],
                     f"grid values (size, users: whole numbers from 1 to {MAX_SIZE})"),
        "precoders": _Opt(_list_of(_one_of(PRECODERS), distinct=True), ["cipm", "ob"],
                          "precoders compared on the same frames"),
        "modulations": _Opt(_list_of(_CONSTELLATION), ["qpsk"],
                            "per-user constellation names (single name = all users)"),
        "mode": _Opt(_one_of(MODES), "relaxed", "constraint mode"),
        "antennas": _Opt(_whole(1, MAX_SIZE), 2, "transmit antennas"),
        "users": _Opt(_whole(1, MAX_SIZE), 2, "number of users"),
        "zeta_db": _Opt(_DB, DEFAULT_ZETA_DB, "target SINR in dB (fixed axes)"),
        "sigma_h2_db": _Opt(_DB, 0.0, "channel variance in dB"),
        "sigma_z2_db": _Opt(_DB, 0.0, "noise variance in dB"),
        "restarts": _Opt(_whole(0, MAX_RESTARTS), 2, "multicast bound restarts per combination"),
        "summary": _Opt(_SWITCH, False, "print headline numbers"),
    }),
    "fixed": dict(_COMMON, **{
        "preset": _Opt(_one_of(tuple(PRESET_CHANNELS)), None, "built-in 2x2 channel: 'combos'"
                       " for the per-combination table, 'regions' for the SINR region map"),
        "channel": _Opt(_PATH, None, "channel file (K Nt header + rows)"),
        "grid": _Opt(_Domain(f"a point count from 1 to {MAX_REGION_POINTS} or {_DB_LIST.what}",
                             _region_points), None, "region grid (default: 6 points)"),
        "modulations": _Opt(_list_of(_CONSTELLATION), None,
                            "per-user constellation names (default qpsk; not regions)"),
        "mode": _Opt(_one_of(MODES), "relaxed", "constraint mode"),
        "zeta_db": _Opt(_DB, None, f"target SINR in dB (default {DEFAULT_ZETA_DB:g}; not regions)"),
        "sigma_z2_db": _Opt(_DB, 0.0, "noise variance in dB"),
        "table": _Opt(_PATH, None, "modulation table file for region maps"),
        "summary": _Opt(_SWITCH, False, "print headline numbers"),
    }),
    "pdfcheck": dict(_SEEDED, **{
        "constellation": _Opt(_CONSTELLATION, "16qam", "constellation name (default 16qam)"),
        "samples": _Opt(_whole(1, MAX_SAMPLES), 100_000, "Monte-Carlo draws"),
        "bins": _Opt(_whole(1, MAX_BINS), None, "equal-probability bins (default 24, qpsk 12)"),
        "antennas": _Opt(_whole(1, MAX_SIZE), 2, "transmit antennas"),
        "beta": _Opt(_POSITIVE, 1.0, "fading rate parameter"),
        "threshold": _Opt(_POSITIVE, None, "L1 pass threshold (default 0.02, qpsk 0.01)"),
    }),
    "modmap": dict(_SEEDED, **{
        "symbols": _Opt(_whole(1, MAX_SYMBOLS), 1_000_000, "symbols per SER curve point"),
        "rates": _Opt(_list_of(_POSITIVE), None, "per-user goodput targets"),
        "backend": _Opt(_one_of(("analytic", "empirical", "both")), "both",
                        "SINR lookup backend (default: both)"),
        "table": _Opt(_PATH, None, "modulation table file"),
        "reference_ser": _Opt(_Domain("a number between 0 and 1", float, lambda v: 0.0 < v < 1.0),
                              1e-2, "SER defining analytic ladder thresholds"),
    }),
}


@functools.cache
def build_parser():
    """The one parser of every subcommand, built once per process.

    It holds no per-call state: every flag stores its text and defaults to
    None, and resolve_options parses the text and applies the real defaults.
    """
    parser = argparse.ArgumentParser(
        prog="cipm",
        description="symbol-level precoding experiments (CSV artifacts)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        p = sub.add_parser(name, help=_COMMANDS[name].__doc__)
        p.add_argument("--config", help="flat key=value config file")
        for key, opt in schema.items():
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, **(
                dict(action="store_const", const="yes", help=opt.help) if opt.parse is _SWITCH
                else dict(help=f"{opt.help}; takes {opt.parse.what}")))
    return parser


def resolve_options(args):
    """Hard defaults < config file < explicit flags; each given text goes through its
    option's parser, and a value outside its domain raises ValueError naming the flag."""
    schema = _SCHEMAS[args.subcommand]
    texts = read_config(args.config) if args.config is not None else {}
    if unknown := [key for key in texts if key not in schema]:
        raise ValueError(f"unknown config key {unknown[0]!r} for '{args.subcommand}'")
    texts.update((key, getattr(args, key)) for key in schema if getattr(args, key) is not None)
    opts = {key: opt.default for key, opt in schema.items()}
    for key, text in texts.items():
        try:
            opts[key] = schema[key].parse(text)
        except ValueError as exc:
            raise ValueError(f"--{key.replace('_', '-')}: takes {exc}, got '{text}'") from None
    return opts


def _outdir(opts):
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _check_modulations(mods, users):
    """A given --modulations list holds one name, or one per user at each count in users."""
    if mods and (bad := [k for k in users if len(mods) not in (1, k)]):
        raise ValueError(f"--modulations: takes one name, or one per user ({bad[0]} users), "
                         f"got '{','.join(mods)}'")


def cmd_sweep(opts):
    """Monte-Carlo sweep, one CSV row per (grid value, precoder)"""
    grid, mods = opts["grid"], opts["modulations"]
    if opts["axis"] != "sinr" and not all(1 <= v <= MAX_SIZE and v.is_integer() for v in grid):
        raise ValueError(f"--grid: takes whole numbers from 1 to {MAX_SIZE} on the "
                         f"{opts['axis']} axis, got '{','.join(f'{v:g}' for v in grid)}'")
    _check_modulations(mods, [opts["users"]] if opts["axis"] == "sinr" else map(int, grid))
    cfg = FrameConfig(
        n_symbols=opts["symbols"], frames=opts["frames"],
        n_antennas=opts["antennas"], k_users=opts["users"],
        sigma_h2_db=opts["sigma_h2_db"], sigma_z2_db=opts["sigma_z2_db"], zeta_db=opts["zeta_db"],
        modulations=tuple(mods), mode=opts["mode"], seed=opts["seed"],
        multicast_restarts=opts["restarts"])
    rows = run_sweep(cfg, grid, axis=opts["axis"], precoders=tuple(opts["precoders"]),
                     threads=opts["threads"] or os.cpu_count() or 1)
    path = os.path.join(_outdir(opts), "sweep.csv")
    write_sweep_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    if opts["summary"]:
        for row in rows:
            print(f"  {opts['axis']}={row.value:g} {row.precoder}: "
                  f"{row.avg_power_dbw:.3f} dBW, eta={row.eta:.3f}")
    return EXIT_OK


def _ladder(opts, **analytic):
    """The modulation ladder of the --table file, else the analytic one."""
    return (load_table(opts["table"]) if opts["table"] is not None
            else ModulationTable.analytic(**analytic))


def cmd_fixed(opts):
    """deterministic single-channel studies"""
    if (opts["preset"] is None) == (opts["channel"] is None):
        raise ValueError("exactly one of --preset or --channel is required")
    regions = opts["preset"] == "regions"
    given = [key for key in ("grid", "table", "modulations", "zeta_db") if opts[key] is not None]
    if stray := [f"--{key}" for key in given if (key in ("grid", "table")) != regions]:
        raise ValueError(f"{' and '.join(stray).replace('_', '-')}: --grid and --table only apply"
                         " with --preset regions, --modulations and --zeta-db only without it")
    if opts["preset"] is not None:
        channel = ChannelMatrix(PRESET_CHANNELS[opts["preset"]])
    else:
        channel = ChannelMatrix.load_text(opts["channel"])
    _check_modulations(opts["modulations"], [channel.k_users])
    cfg = FrameConfig(sigma_z2_db=opts["sigma_z2_db"], mode=opts["mode"],
                      **{key: opts[key] for key in given if key in ("modulations", "zeta_db")})

    if regions:
        points = region_maps(channel.entries, opts["grid"] or _region_points("6"),
                             _ladder(opts), cfg)
        path = os.path.join(_outdir(opts), "regions.csv")
        write_region_csv(points, path)
        print(f"wrote {path} ({len(points)} grid points)")
        if opts["summary"]:
            powers = [p.avg_power_dbw for p in points]
            print(f"  power range {min(powers):.3f} .. {max(powers):.3f} dBW")
        return EXIT_OK

    table = fixed_channel_experiment(channel.entries, cfg)
    path = os.path.join(_outdir(opts), "combinations.csv")
    write_combination_csv(table, path)
    print(f"wrote {path} ({len(table.cipm_power)} combinations)")
    if opts["summary"]:
        print(f"  average OB-CIPM gap {table.average_gap_db:.3f} dB, "
              f"per-combination max {table.gap_db.max():.3f} dB, "
              f"min {table.gap_db.min():.3f} dB")
    return EXIT_OK


def cmd_pdfcheck(opts):
    """equivalent-channel density fit check"""
    name = opts["constellation"]
    qpsk = get_constellation(name).order == 4
    bins = opts["bins"] or (12 if qpsk else 24)          # neither option can be 0
    threshold = opts["threshold"] or (0.01 if qpsk else 0.02)
    report = validate_distribution(
        constellation=name, n_antennas=opts["antennas"], beta=opts["beta"],
        samples=opts["samples"], bins=bins, seed=opts["seed"])
    path = os.path.join(_outdir(opts), "distribution.csv")
    write_distribution_csv(*report.curves, path)
    print(f"wrote {path}")
    print(f"L1 distance      {report.l1:.6f} (threshold {threshold:g})")
    print(f"phase KS         {report.ks_phase:.6f}")
    print(f"raw power mean   {report.raw_power_mean:.6f} "
          f"(expected {report.raw_power_expected:.6f})")
    print(f"eq power mean    {report.eq_power_mean:.6f} "
          f"(expected {report.eq_power_expected:.6f})")
    if not report.sufficient:
        print(f"warning: {opts['samples']} samples are too few for "
              f"{bins} bins; fit not judged", file=sys.stderr)
        return EXIT_OK
    if report.l1 >= threshold:
        print(f"FAIL: L1 {report.l1:.6f} >= {threshold:g}", file=sys.stderr)
        return EXIT_VALIDATION
    print("PASS")
    return EXIT_OK


def cmd_modmap(opts):
    """rate -> modulation/SER/SINR mapping"""
    if opts["rates"] is None:
        raise ValueError("--rates is required")
    table = _ladder(opts, reference_ser=opts["reference_ser"])
    if max(opts["rates"]) > table.max_rate:
        raise ValueError(f"--rates: takes rates up to {table.max_rate:g}, the ladder's largest, "
                         f"got '{','.join(f'{r:g}' for r in opts['rates'])}'")
    backends = []
    if opts["backend"] in ("analytic", "both"):
        backends.append(("analytic", AnalyticBackend()))
    if opts["backend"] in ("empirical", "both"):
        backends.append(("empirical", EmpiricalBackend(
            cache_dir=os.path.join(opts["out"], "ser_cache"),
            symbols_per_point=opts["symbols"], seed=opts["seed"])))
    for label, backend in backends:
        alloc = allocate(table, opts["rates"], backend=backend)
        print(f"[{label}]")
        for j, (entry, ser, snr_db) in enumerate(
                zip(alloc.modulations, alloc.ser, alloc.sinr_db), start=1):
            print(f"  user {j}: rate {opts['rates'][j - 1]:g} -> "
                  f"{entry.name} (R={entry.rate:g}), SER {ser:.6g}, "
                  f"SINR {snr_db:.3f} dB")
    return EXIT_OK


_COMMANDS = {
    "sweep": cmd_sweep,
    "fixed": cmd_fixed,
    "pdfcheck": cmd_pdfcheck,
    "modmap": cmd_modmap,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = resolve_options(args)
        return _COMMANDS[args.subcommand](opts)
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
