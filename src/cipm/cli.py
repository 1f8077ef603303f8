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
4 validation failure.  Config files are flat ``key = value`` text; command
line flags override file values.  Each option is declared once, in
``_SCHEMAS``, which generates both its flag and its config-file key.
"""

import argparse
import contextlib
import functools
import os
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .channel import ChannelMatrix
from .constellation import get_constellation
from .linkadapt import (AnalyticBackend, EmpiricalBackend, ModulationTable,
                        allocate, load_table)
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

# deterministic 2x2 test channels for the fixed subcommand
PRESET_CHANNELS = {
    "combos": np.array([[0.1787 + 1.9179j, 0.9201 + 1.0048j],
                        [-2.1209 - 1.5455j, 1.5138 + 0.2250j]]),
    "regions": np.array([[1.3171 + 5.6483j, -1.8960 + 0.6877j],
                         [-0.6569 + 3.7018j, -2.5047 - 2.8110j]]),
}


def read_config(path):
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            values[key] = val.strip()
    return values


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def float_list(text):
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return [float(p) for p in parts]


def name_list(text):
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of names")
    return parts


class _Opt(NamedTuple):
    """One option: parses a flag or config value; a _parse_bool one is a bare flag."""

    parse: Callable
    default: object
    help: str
    choices: tuple | None = None


# per-subcommand option schema: the one declaration of each option.  It
# generates the flags (key zeta_db is --zeta-db), the accepted config-file
# keys and the hard defaults.  A subcommand lists only the options it reads.
_COMMON = {"out": _Opt(str, ".", "output directory (default: .)")}
_SEEDED = dict(_COMMON, seed=_Opt(int, 0, "base RNG seed"))

_SCHEMAS = {
    "sweep": dict(_SEEDED, **{
        "threads": _Opt(int, 0, "worker processes; 0 = all cores"),
        "frames": _Opt(int, 50, "Monte-Carlo frames"),
        "symbols": _Opt(int, 100, "symbol slots per frame"),
        "axis": _Opt(str, "sinr", "sweep variable (default: sinr)", SWEEP_AXES),
        "grid": _Opt(float_list, [4.0, 8.0, 12.0], "comma-separated grid values"),
        "precoders": _Opt(name_list, ["cipm", "ob"],
                          "comma list from {%s}" % ",".join(PRECODERS)),
        "modulations": _Opt(name_list, ["qpsk"],
                            "per-user constellation names (single name = all users)"),
        "mode": _Opt(str, "relaxed", "constraint mode", MODES),
        "antennas": _Opt(int, 2, "transmit antennas"),
        "users": _Opt(int, 2, "number of users"),
        "zeta_db": _Opt(float, DEFAULT_ZETA_DB, "target SINR in dB (fixed axes)"),
        "sigma_h2_db": _Opt(float, 0.0, "channel variance in dB"),
        "sigma_z2_db": _Opt(float, 0.0, "noise variance in dB"),
        "restarts": _Opt(int, 2, "multicast bound restarts per combination"),
        "summary": _Opt(_parse_bool, False, "print headline numbers"),
    }),
    "fixed": dict(_COMMON, **{
        "preset": _Opt(str, None, "built-in 2x2 channel: 'combos' for the per-combination "
                       "table, 'regions' for the SINR region map", tuple(PRESET_CHANNELS)),
        "channel": _Opt(str, None, "channel file (K Nt header + rows)"),
        "grid": _Opt(str, None, "region grid: point count or comma dB list"),
        "modulations": _Opt(name_list, ["qpsk"], "per-user constellation names"),
        "mode": _Opt(str, "relaxed", "constraint mode", MODES),
        "zeta_db": _Opt(float, DEFAULT_ZETA_DB, "per-user target SINR in dB"),
        "sigma_z2_db": _Opt(float, 0.0, "noise variance in dB"),
        "table": _Opt(str, None, "modulation table file for region maps"),
        "summary": _Opt(_parse_bool, False, "print headline numbers"),
    }),
    "pdfcheck": dict(_SEEDED, **{
        "constellation": _Opt(str, "16qam", "constellation name (default 16qam)"),
        "samples": _Opt(int, 100_000, "Monte-Carlo draws"),
        "bins": _Opt(int, None, "equal-probability bins (default 24, qpsk 12)"),
        "antennas": _Opt(int, 2, "transmit antennas"),
        "beta": _Opt(float, 1.0, "fading rate parameter"),
        "threshold": _Opt(float, None, "L1 pass threshold (default 0.02, qpsk 0.01)"),
    }),
    "modmap": dict(_SEEDED, **{
        "symbols": _Opt(int, 1_000_000, "symbols per SER curve point"),
        "rates": _Opt(float_list, None, "comma list of per-user goodput targets"),
        "backend": _Opt(str, "both", "SINR lookup backend (default: both)",
                        ("analytic", "empirical", "both")),
        "table": _Opt(str, None, "modulation table file"),
        "reference_ser": _Opt(float, 1e-2, "SER defining analytic ladder thresholds"),
    }),
}


@functools.cache
def build_parser():
    """The one parser of every subcommand, built once per process.

    It holds no per-call state: every flag defaults to None, and
    resolve_options applies the real defaults.
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
            if opt.parse is _parse_bool:
                p.add_argument(flag, dest=key, action="store_const", const=True,
                               help=opt.help)
            else:
                p.add_argument(flag, dest=key, type=opt.parse, choices=opt.choices,
                               help=opt.help)
    return parser


def resolve_options(args):
    """Hard defaults < config file < explicit flags."""
    schema = _SCHEMAS[args.subcommand]
    opts = {key: opt.default for key, opt in schema.items()}
    if args.config is not None:
        for key, text in read_config(args.config).items():
            if key not in schema:
                raise ValueError(f"unknown config key {key!r} for "
                                 f"'{args.subcommand}'")
            opt = schema[key]
            opts[key] = opt.parse(text)
            if opt.choices is not None and opts[key] not in opt.choices:
                raise ValueError(f"config key {key!r} must be one of "
                                 f"{opt.choices}, got {opts[key]!r}")
    for key in schema:
        flag = getattr(args, key)
        if flag is not None:
            opts[key] = flag
    return opts


def _check_targets(cfg, flags):
    """Each (flag, value) as cfg's zeta_db must give valid targets; an error names the flag."""
    for flag, value in flags:
        try:
            replace(cfg, zeta_db=value).targets()
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None


def _outdir(opts):
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_sweep(opts):
    """Monte-Carlo sweep, one CSV row per (grid value, precoder)"""
    if opts["threads"] < 0:
        raise ValueError(f"--threads must be >= 0 (0 = all cores), got {opts['threads']}")
    if len(set(opts["precoders"])) < len(opts["precoders"]):
        raise ValueError(f"--precoders names a precoder twice: {','.join(opts['precoders'])}")
    if opts["axis"] != "sinr" and not all(v >= 1 and v.is_integer() for v in opts["grid"]):
        raise ValueError(f"--grid: {opts['axis']} takes whole numbers >= 1, got {opts['grid']}")
    cfg = FrameConfig(
        n_symbols=opts["symbols"], frames=opts["frames"],
        n_antennas=opts["antennas"], k_users=opts["users"],
        sigma_h2_db=opts["sigma_h2_db"], sigma_z2_db=opts["sigma_z2_db"],
        zeta_db=opts["zeta_db"],
        modulations=tuple(opts["modulations"]), mode=opts["mode"], seed=opts["seed"],
        multicast_restarts=opts["restarts"])
    sinr_grid = opts["grid"] if opts["axis"] == "sinr" else []
    # --zeta-db on every axis, though only fixed axes read it
    _check_targets(cfg, [("--zeta-db", opts["zeta_db"])] + [("--grid", v) for v in sinr_grid])
    rows = run_sweep(cfg, opts["grid"], axis=opts["axis"],
                     precoders=tuple(opts["precoders"]),
                     threads=opts["threads"] if opts["threads"] > 0 else os.cpu_count() or 1)
    path = os.path.join(_outdir(opts), "sweep.csv")
    write_sweep_csv(rows, path)
    print(f"wrote {path} ({len(rows)} rows)")
    if opts["summary"]:
        for row in rows:
            print(f"  {opts['axis']}={row.value:g} {row.precoder}: "
                  f"{row.avg_power_dbw:.3f} dBW, eta={row.eta:.3f}")
    return EXIT_OK


def _parse_region_grid(text):
    if text is None:
        return list(np.linspace(4.0, 14.0, 6))
    with contextlib.suppress(ValueError):
        grid = (float_list(text) if "," in text or "." in text
                else list(np.linspace(4.0, 14.0, int(text))))
        if grid and np.isfinite(grid).all():
            return grid
    raise ValueError(f"--grid must be a point count >= 1 or a comma list of finite dB values,"
                     f" got {text!r}")


def _ladder(opts, **analytic):
    """The modulation ladder of the --table file, else the analytic one."""
    return (load_table(opts["table"]) if opts["table"] is not None
            else ModulationTable.analytic(**analytic))


def cmd_fixed(opts):
    """deterministic single-channel studies"""
    if (opts["preset"] is None) == (opts["channel"] is None):
        raise ValueError("exactly one of --preset or --channel is required")
    if opts["preset"] is not None:
        channel = ChannelMatrix(PRESET_CHANNELS[opts["preset"]])
    else:
        channel = ChannelMatrix.load_text(opts["channel"])
    stray = [f"--{key}" for key in ("grid", "table") if opts[key] is not None]
    if stray and opts["preset"] != "regions":
        raise ValueError(f"{' and '.join(stray)} only apply with --preset regions")
    cfg = FrameConfig(sigma_z2_db=opts["sigma_z2_db"], zeta_db=opts["zeta_db"],
                      modulations=tuple(opts["modulations"]), mode=opts["mode"])
    grid = _parse_region_grid(opts["grid"]) if opts["preset"] == "regions" else None
    _check_targets(cfg, [("--zeta-db", opts["zeta_db"])] if grid is None
                   else [("--grid", v) for v in grid])
    out = _outdir(opts)

    if grid is not None:
        points = region_maps(channel.entries, grid, _ladder(opts),
                             sigma_z2_db=opts["sigma_z2_db"],
                             mode=opts["mode"])
        path = os.path.join(out, "regions.csv")
        write_region_csv(points, path)
        print(f"wrote {path} ({len(points)} grid points)")
        if opts["summary"]:
            powers = [p.avg_power_dbw for p in points]
            print(f"  power range {min(powers):.3f} .. {max(powers):.3f} dBW")
        return EXIT_OK

    table = fixed_channel_experiment(channel.entries, cfg)
    path = os.path.join(out, "combinations.csv")
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
    bins = opts["bins"]
    if bins is None:
        bins = 12 if qpsk else 24
    threshold = opts["threshold"]
    if threshold is None:
        threshold = 0.01 if qpsk else 0.02
    if not 0.0 < threshold < float("inf"):
        raise ValueError(f"--threshold must be finite and positive, got {threshold}")
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
        print(f"warning: {report.samples} samples are too few for "
              f"{report.bins} bins; fit not judged", file=sys.stderr)
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
