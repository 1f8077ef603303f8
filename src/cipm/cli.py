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
line flags override file values.
"""

import argparse
import os
import sys

import numpy as np

from .channel import ChannelMatrix
from .linkadapt import (AnalyticBackend, EmpiricalBackend, ModulationTable,
                        allocate, load_table)
from .simulator import (DEFAULT_ZETA_DB, MODES, PRECODERS, SWEEP_AXES,
                        FrameConfig, fixed_channel_experiment, region_maps,
                        run_sweep, validate_distribution,
                        write_combination_csv, write_distribution_csv,
                        write_region_csv, write_sweep_csv)
from .solver import SolverError

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


def _parse_float_list(text):
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return [float(p) for p in parts]


def _parse_str_list(text):
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of names")
    return parts


# per-subcommand option schema: name -> (parser, default).  Drives both the
# config-file merge and the hard defaults, so file keys and flags stay in sync.
_COMMON = {
    "out": (str, "."),
    "seed": (int, 0),
    "threads": (int, 0),  # 0 = all available cores
    "frames": (int, 50),
    "symbols": (int, 100),
}

_SCHEMAS = {
    "sweep": dict(_COMMON, **{
        "axis": (str, "sinr"),
        "grid": (_parse_float_list, [4.0, 8.0, 12.0]),
        "precoders": (_parse_str_list, ["cipm", "ob"]),
        "modulations": (_parse_str_list, ["qpsk"]),
        "mode": (str, "relaxed"),
        "antennas": (int, 2),
        "users": (int, 2),
        "zeta_db": (float, DEFAULT_ZETA_DB),
        "sigma_h2_db": (float, 0.0),
        "sigma_z2_db": (float, 0.0),
        "restarts": (int, 2),
        "summary": (_parse_bool, False),
    }),
    "fixed": dict(_COMMON, **{
        "preset": (str, None),
        "channel": (str, None),
        "grid": (str, None),  # region grid: count or comma list of dB values
        "modulations": (_parse_str_list, ["qpsk"]),
        "mode": (str, "relaxed"),
        "zeta_db": (float, DEFAULT_ZETA_DB),
        "sigma_z2_db": (float, 0.0),
        "table": (str, None),
        "summary": (_parse_bool, False),
    }),
    "pdfcheck": dict(_COMMON, **{
        "constellation": (str, "16qam"),
        "samples": (int, 100_000),
        "bins": (int, None),
        "antennas": (int, 2),
        "beta": (float, 1.0),
        "threshold": (float, None),
    }),
    "modmap": dict(_COMMON, **{
        "symbols": (int, 1_000_000),  # per SER-curve point, not per frame
        "rates": (_parse_float_list, None),
        "backend": (str, "both"),
        "table": (str, None),
        "reference_ser": (float, 1e-2),
    }),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cipm",
        description="symbol-level precoding experiments (CSV artifacts)")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--out", help="output directory (default: .)")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--threads", type=int,
                       help="worker processes; 0 = all cores")
        p.add_argument("--frames", type=int, help="Monte-Carlo frames")
        p.add_argument("--symbols", type=int,
                       help="symbol slots per frame (modmap: symbols per "
                            "SER curve point)")

    p = sub.add_parser("sweep", help="Monte-Carlo sweep, one CSV row per "
                                     "(grid value, precoder)")
    common(p)
    p.add_argument("--axis", choices=SWEEP_AXES,
                   help="sweep variable (default: sinr)")
    p.add_argument("--grid", help="comma-separated grid values")
    p.add_argument("--precoders",
                   help="comma list from {%s}" % ",".join(PRECODERS))
    p.add_argument("--modulations",
                   help="per-user constellation names (single name = all users)")
    p.add_argument("--mode", choices=MODES, help="constraint mode")
    p.add_argument("--antennas", type=int, help="transmit antennas")
    p.add_argument("--users", type=int, help="number of users")
    p.add_argument("--zeta-db", type=float, dest="zeta_db",
                   help="target SINR in dB (fixed axes)")
    p.add_argument("--sigma-h2-db", type=float, dest="sigma_h2_db",
                   help="channel variance in dB")
    p.add_argument("--sigma-z2-db", type=float, dest="sigma_z2_db",
                   help="noise variance in dB")
    p.add_argument("--restarts", type=int,
                   help="multicast bound restarts per combination")
    p.add_argument("--summary", action="store_const", const=True,
                   help="print headline numbers")

    p = sub.add_parser("fixed", help="deterministic single-channel studies")
    common(p)
    p.add_argument("--preset", choices=sorted(PRESET_CHANNELS),
                   help="built-in 2x2 channel: 'combos' for the "
                        "per-combination table, 'regions' for the SINR "
                        "region map")
    p.add_argument("--channel", help="channel file (K Nt header + rows)")
    p.add_argument("--grid",
                   help="region grid: point count or comma dB list")
    p.add_argument("--modulations", help="per-user constellation names")
    p.add_argument("--mode", choices=MODES, help="constraint mode")
    p.add_argument("--zeta-db", type=float, dest="zeta_db",
                   help="per-user target SINR in dB")
    p.add_argument("--sigma-z2-db", type=float, dest="sigma_z2_db",
                   help="noise variance in dB")
    p.add_argument("--table", help="modulation table file for region maps")
    p.add_argument("--summary", action="store_const", const=True,
                   help="print headline numbers")

    p = sub.add_parser("pdfcheck", help="equivalent-channel density fit check")
    common(p)
    p.add_argument("--constellation", help="constellation name (default 16qam)")
    p.add_argument("--samples", type=int, help="Monte-Carlo draws")
    p.add_argument("--bins", type=int, help="equal-probability bins")
    p.add_argument("--antennas", type=int, help="transmit antennas")
    p.add_argument("--beta", type=float, help="fading rate parameter")
    p.add_argument("--threshold", type=float,
                   help="L1 pass threshold (default 0.02, qpsk 0.01)")

    p = sub.add_parser("modmap", help="rate -> modulation/SER/SINR mapping")
    common(p)
    p.add_argument("--rates", help="comma list of per-user goodput targets")
    p.add_argument("--backend", choices=("analytic", "empirical", "both"),
                   help="SINR lookup backend (default: both)")
    p.add_argument("--table", help="modulation table file")
    p.add_argument("--reference-ser", type=float, dest="reference_ser",
                   help="SER defining analytic ladder thresholds")

    return parser


def resolve_options(args):
    """Hard defaults < config file < explicit flags."""
    schema = _SCHEMAS[args.subcommand]
    opts = {key: default for key, (_, default) in schema.items()}
    if args.config is not None:
        for key, text in read_config(args.config).items():
            if key not in schema:
                raise ValueError(f"unknown config key {key!r} for "
                                 f"'{args.subcommand}'")
            parse, _ = schema[key]
            opts[key] = parse(text)
    for key in schema:
        flag = getattr(args, key, None)
        if flag is not None:
            parse, _ = schema[key]
            # argparse already typed scalar flags; list-valued ones arrive
            # as raw comma strings
            opts[key] = parse(flag) if isinstance(flag, str) else flag
    return opts


def _outdir(opts):
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _threads(opts):
    n = opts["threads"]
    return os.cpu_count() or 1 if n <= 0 else n


def cmd_sweep(opts):
    mods = opts["modulations"]
    cfg = FrameConfig(
        n_symbols=opts["symbols"], frames=opts["frames"],
        n_antennas=opts["antennas"], k_users=opts["users"],
        sigma_h2_db=opts["sigma_h2_db"], sigma_z2_db=opts["sigma_z2_db"],
        zeta_db=opts["zeta_db"],
        modulations=mods[0] if len(mods) == 1 else tuple(mods),
        mode=opts["mode"], seed=opts["seed"],
        multicast_restarts=opts["restarts"])
    rows = run_sweep(cfg, opts["grid"], axis=opts["axis"],
                     precoders=tuple(opts["precoders"]),
                     threads=_threads(opts))
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
    if "," in text or "." in text:
        return _parse_float_list(text)
    return list(np.linspace(4.0, 14.0, int(text)))


def cmd_fixed(opts):
    if (opts["preset"] is None) == (opts["channel"] is None):
        raise ValueError("exactly one of --preset or --channel is required")
    if opts["preset"] is not None:
        entries = PRESET_CHANNELS[opts["preset"]]
        channel = ChannelMatrix(entries)
    else:
        channel = ChannelMatrix.load_text(opts["channel"])
    out = _outdir(opts)

    if opts["preset"] == "regions":
        if opts["table"] is not None:
            table = load_table(opts["table"])
        else:
            table = ModulationTable.analytic()
        grid = _parse_region_grid(opts["grid"])
        points = region_maps(channel.entries, grid, table,
                             sigma_z2_db=opts["sigma_z2_db"],
                             mode=opts["mode"])
        path = os.path.join(out, "regions.csv")
        write_region_csv(points, path)
        print(f"wrote {path} ({len(points)} grid points)")
        if opts["summary"]:
            powers = [p.avg_power_dbw for p in points]
            print(f"  power range {min(powers):.3f} .. {max(powers):.3f} dBW")
        return EXIT_OK

    mods = opts["modulations"]
    if len(mods) == 1:
        mods = mods * channel.k_users
    cfg = FrameConfig(
        n_symbols=opts["symbols"], frames=1,
        n_antennas=channel.n_antennas, k_users=channel.k_users,
        sigma_z2_db=opts["sigma_z2_db"], zeta_db=opts["zeta_db"],
        modulations=tuple(mods), mode=opts["mode"], seed=opts["seed"])
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
    name = opts["constellation"]
    bins = opts["bins"]
    if bins is None:
        bins = 12 if name == "qpsk" else 24
    threshold = opts["threshold"]
    if threshold is None:
        threshold = 0.01 if name == "qpsk" else 0.02
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
    if opts["rates"] is None:
        raise ValueError("--rates is required")
    if opts["table"] is not None:
        table = load_table(opts["table"])
    else:
        table = ModulationTable.analytic(reference_ser=opts["reference_ser"])
    backends = []
    if opts["backend"] in ("analytic", "both"):
        backends.append(("analytic", AnalyticBackend()))
    if opts["backend"] in ("empirical", "both"):
        cache = os.path.join(_outdir(opts), "ser_cache")
        os.makedirs(cache, exist_ok=True)
        backends.append(("empirical", EmpiricalBackend(
            cache_dir=cache, symbols_per_point=opts["symbols"],
            seed=opts["seed"])))
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
