"""CLI tests: option resolution, artifacts, exit codes."""

import argparse
import importlib.util
import json
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cipm
from cipm.channel import ChannelMatrix
from cipm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    _COMMANDS,
    _SCHEMAS,
    _parse_region_grid,
    build_parser,
    main,
    read_config,
    resolve_options,
)

SWEEP_HEADER = ("target_sinr_db,precoder,avg_power_dbw,avg_power_watts,"
                "ser_user1,ser_user2,goodput_user1,goodput_user2,eta")


def _read(path):
    return path.read_text(encoding="ascii").splitlines()


def _child_env(**extra):
    """This process's environment for a child Python, with the package's source on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cipm.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **extra)


# ------------------------------------------------------------ option plumbing

def test_read_config_parses_flat_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nframes = 7\n\nzeta-db = 9.5  # inline\n",
                    encoding="ascii")
    assert read_config(path) == {"frames": "7", "zeta_db": "9.5"}
    path.write_text("frames 7\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_config(path)


def test_option_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frames = 7\nzeta-db = 9.5\ngrid = 3,5\n", encoding="ascii")
    args = build_parser().parse_args(
        ["sweep", "--config", str(cfg), "--frames", "3"])
    opts = resolve_options(args)
    assert opts["frames"] == 3          # flag beats file
    assert opts["zeta_db"] == 9.5       # file beats default
    assert opts["grid"] == [3.0, 5.0]   # file value parsed like a flag
    assert opts["symbols"] == 100       # untouched default


def test_unknown_config_key_exits_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n", encoding="ascii")
    code = main(["sweep", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err
    # a config value outside its flag's choices is rejected like the flag
    cfg.write_text("backend = y\n", encoding="ascii")
    assert main(["modmap", "--rates", "2", "--config", str(cfg)]) == EXIT_CONFIG
    assert "'backend'" in capsys.readouterr().err


_COMMON_FLAGS = [("--config", "config"), ("--out", "out")]
_SEEDED_FLAGS = _COMMON_FLAGS + [("--seed", "seed")]

# every subcommand's (flag, dest) pairs, in parser order
CLI_SURFACE = {
    "sweep": _SEEDED_FLAGS + [
        ("--threads", "threads"), ("--frames", "frames"), ("--symbols", "symbols"),
        ("--axis", "axis"), ("--grid", "grid"), ("--precoders", "precoders"),
        ("--modulations", "modulations"), ("--mode", "mode"), ("--antennas", "antennas"),
        ("--users", "users"), ("--zeta-db", "zeta_db"), ("--sigma-h2-db", "sigma_h2_db"),
        ("--sigma-z2-db", "sigma_z2_db"), ("--restarts", "restarts"), ("--summary", "summary")],
    "fixed": _COMMON_FLAGS + [
        ("--preset", "preset"), ("--channel", "channel"), ("--grid", "grid"),
        ("--modulations", "modulations"), ("--mode", "mode"), ("--zeta-db", "zeta_db"),
        ("--sigma-z2-db", "sigma_z2_db"), ("--table", "table"), ("--summary", "summary")],
    "pdfcheck": _SEEDED_FLAGS + [
        ("--constellation", "constellation"), ("--samples", "samples"), ("--bins", "bins"),
        ("--antennas", "antennas"), ("--beta", "beta"), ("--threshold", "threshold")],
    "modmap": _SEEDED_FLAGS + [
        ("--symbols", "symbols"), ("--rates", "rates"), ("--backend", "backend"),
        ("--table", "table"), ("--reference-ser", "reference_ser")],
}


def _subparsers():
    actions = build_parser()._actions
    return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices


def test_cli_surface_is_pinned():
    subs = _subparsers()
    assert list(subs) == list(CLI_SURFACE)
    for name, sub in subs.items():
        got = [(opt, a.dest) for a in sub._actions if a.dest != "help"
               for opt in a.option_strings]
        assert got == CLI_SURFACE[name], name
        # every config-file key is also a flag
        assert {dest for _, dest in got} >= set(_SCHEMAS[name]), name
    summary = next(a for a in subs["sweep"]._actions if a.dest == "summary")
    assert summary.nargs == 0 and summary.const is True


class _ReadLog(dict):
    """Options that record every key a command reads."""

    def __init__(self, opts):
        super().__init__(opts)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def test_every_option_is_read(tmp_path, capsys):
    # over these runs (both fixed branches, both modmap backends) each command
    # reads every key of its schema: no flag is accepted and then ignored
    runs = {"sweep": [["--frames", "1", "--symbols", "5", "--grid", "4",
                       "--precoders", "cipm", "--threads", "1"]],
            "fixed": [["--preset", "combos"], ["--preset", "regions", "--grid", "2"]],
            "pdfcheck": [["--samples", "2000"]],
            "modmap": [["--backend", "both", "--rates", "1.9", "--symbols", "200"]]}
    for name, argvs in runs.items():
        read = set()
        for argv in argvs:
            args = build_parser().parse_args([name, *argv, "--out", str(tmp_path / name)])
            opts = _ReadLog(resolve_options(args))
            assert _COMMANDS[name](opts) == EXIT_OK, capsys.readouterr().err
            read |= opts.read
        assert read == set(_SCHEMAS[name]), name
    capsys.readouterr()


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_argvs_parse(tmp_path, monkeypatch):
    # every argv the benchmark hands to cli.main, its warm-ups included, parses
    wl = _bench_workloads()
    argvs = []
    monkeypatch.setattr(wl, "cli_call", argvs.append)
    for name in ("sweep_full_load", "sweep_qpsk_bound"):
        argvs.append(wl.WORKLOADS[name](wl.DEFAULT_SEED, str(tmp_path)).prepare(0))
        wl.warm_up(name, str(tmp_path))
    argvs.extend(wl.ModmapPdfcheck(wl.DEFAULT_SEED, str(tmp_path)).prepare(0))
    wl.warm_up("modmap_pdfcheck", str(tmp_path))
    assert len(argvs) == 8
    for argv in argvs:
        assert build_parser().parse_args(argv).subcommand == argv[0]


def test_modmap_pdfcheck_operations_pass_the_benchmark_check(tmp_path):
    # the benchmark's own prepare, run and check on a few of its operations
    wl = _bench_workloads()
    for seed in (0, 1, 2):
        workload = wl.ModmapPdfcheck(seed, str(tmp_path))
        for index in (0, 1):
            inputs = workload.prepare(index)
            assert workload.check(index, inputs, workload.run(inputs)) == [], (seed, index)


@pytest.mark.parametrize("name", ["sweep_full_load", "sweep_qpsk_bound"])
def test_sweep_operations_pass_the_benchmark_check(tmp_path, name):
    # the benchmark's own prepare, run and check; seed 0, operation 0 also
    # compares the sweep.csv with the stored reference within 1e-12
    wl = _bench_workloads()
    for seed in (0, 1, 2):
        workload = wl.WORKLOADS[name](seed, str(tmp_path))
        for index in (0, 1):
            argv = workload.prepare(index)
            assert workload.check(index, argv, workload.run(argv)) == [], (seed, index)


def test_slot_stream_operations_pass_the_benchmark_check(tmp_path):
    # operation 0 of each seed is also checked against the QP oracle
    wl = _bench_workloads()
    for seed in (0, 1, 2):
        workload = wl.SlotStream(seed, str(tmp_path))
        for index in (0, 1, 2):
            inputs = workload.prepare(index)
            assert workload.check(index, inputs, workload.run(inputs)) == [], (seed, index)


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--mode", "loose"], "--mode"),
    (["sweep", "--axis", "foo"], "--axis"),
    (["fixed", "--preset", "x"], "--preset"),
    (["modmap", "--backend", "y"], "--backend"),
    (["sweep", "--frames", "abc"], "--frames"),
])
def test_bad_flag_values_exit_config_naming_the_option(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert f"argument {flag}" in capsys.readouterr().err


_TARGETS = "SINR targets and sigma_z must be finite and positive"
_NOISE = "sigma_h2_db and sigma_z2_db must be finite"


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--grid", "nan"], _TARGETS),
    (["sweep", "--grid", "inf"], _TARGETS),
    (["sweep", "--axis", "size", "--grid", "2", "--zeta-db", "nan"], _TARGETS),
    (["sweep", "--axis", "size", "--grid", "2", "--zeta-db", "inf"], _TARGETS),
    (["sweep", "--sigma-z2-db", "nan"], _NOISE),
    (["sweep", "--sigma-h2-db", "nan"], _NOISE),
    (["sweep", "--sigma-h2-db=-inf"], _NOISE),
    (["fixed", "--preset", "combos", "--zeta-db", "nan"], _TARGETS),
    (["pdfcheck", "--beta", "nan"], "beta must be finite and positive"),
    (["sweep", "--zeta-db", "nan"], "--zeta-db"),      # read on fixed axes only
    (["pdfcheck", "--threshold", "nan"], "--threshold"),
    (["fixed", "--preset", "regions", "--grid", "4,1e308"], _TARGETS),   # overflows
    (["sweep", "--sigma-z2-db", "1e308"], _NOISE),    # its linear power overflows
    (["sweep", "--sigma-h2-db", "1e308"], _NOISE),
])
def test_non_finite_values_exit_config_saying_what_is_wrong(tmp_path, argv, message, capsys):
    if argv[0] == "sweep":
        argv = argv + ["--frames", "1", "--symbols", "10", "--threads", "1"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--axis", "size", "--grid", "2.5"], "--grid"),
    (["sweep", "--axis", "users", "--grid", "2,2.7"], "--grid"),
    (["sweep", "--axis", "size", "--grid", "0"], "--grid"),
    (["sweep", "--threads", "-3"], "--threads"),
    (["sweep", "--precoders", "cipm,ob,cipm"], "--precoders"),
    (["pdfcheck", "--threshold", "0"], "--threshold"),
    (["pdfcheck", "--threshold=-0.5"], "--threshold"),
    (["sweep", "--axis", "sinr", "--grid", "4,nan"], "--grid"),
    (["sweep", "--grid", "1e308"], "--grid"),      # overflows to an infinite target
    (["sweep", "--grid", "8,-1e308"], "--grid"),    # underflows to a zero target
])
@pytest.mark.filterwarnings("error")
def test_out_of_range_values_exit_config_naming_the_option(tmp_path, argv, flag, capsys):
    # rejected before any frame or sample is drawn, with no warning: no CSV is written
    if argv[0] == "sweep":
        argv = argv + ["--frames", "1", "--symbols", "5"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# each count sizes an allocation: without its check, these ask for 8 GB (the region
# grid) to EiB (the size axis) before anything fails
_HUGE_COUNTS = [
    (["sweep", "--axis", "size", "--grid", "1e9"], "--grid"),
    (["sweep", "--axis", "users", "--grid", "1e9", "--antennas", "2"], "--grid"),
    (["sweep", "--axis", "size", "--grid", "2,65"], "--grid"),
    (["sweep", "--users", "1000000000"], "--users"),
    (["sweep", "--users", "65"], "--users"),
    (["sweep", "--antennas", "1000000000"], "--antennas"),
    (["fixed", "--preset", "regions", "--grid", "1000000000"], "--grid"),
    (["fixed", "--preset", "regions", "--grid", "101"], "--grid"),
    (["pdfcheck", "--antennas", "1000000000"], "--antennas"),
    (["pdfcheck", "--antennas", "65"], "--antennas"),
]
_CAPPED_CHILD = """
import contextlib, io, json, sys
from cipm.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        results.append([main(argv), err.getvalue()])
print(json.dumps(results))
"""


def test_huge_counts_exit_config_naming_the_option_under_a_memory_cap(tmp_path):
    # one child runs every argv with its address space capped at 1 GiB, so a count
    # that reaches an allocation raises MemoryError there rather than filling memory
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argvs = [argv + ["--out", str(tmp_path / f"out{i}")]
             + (["--threads", "1"] if argv[0] == "sweep" else [])
             for i, (argv, _) in enumerate(_HUGE_COUNTS)]
    child = subprocess.run([sys.executable, "-c", _CAPPED_CHILD, json.dumps(argvs)],
                           env=_child_env(OPENBLAS_NUM_THREADS="1"),
                           preexec_fn=cap_address_space, capture_output=True, text=True,
                           timeout=120)
    assert child.returncode == 0, child.stderr
    for (argv, flag), (code, err) in zip(_HUGE_COUNTS, json.loads(child.stdout), strict=True):
        assert code == EXIT_CONFIG and err.startswith(f"error: {flag}"), (argv, err)
        assert "Traceback" not in err, argv
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,flag", [
    (["--preset", "regions", "--grid", "4,1e308"], "--grid"),
    (["--preset", "combos", "--zeta-db", "1e308"], "--zeta-db"),
])
def test_fixed_out_of_range_targets_exit_config_naming_the_option(tmp_path, argv, flag, capsys):
    # the targets are probed per flag, as sweep does, before the output directory is made
    out = tmp_path / "out"
    assert main(["fixed", *argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and "Traceback" not in err
    assert not out.exists()


def test_import_loads_no_scipy_stats():
    # importing scipy.stats costs about half a second, which every CLI run would pay
    env = _child_env()
    code = "import sys, cipm; print([m for m in sys.modules if m.startswith('scipy.stats')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("grid", ["nan", "0", "-2", "4,nan", "x"])
def test_bad_region_grid_exits_config_naming_grid(tmp_path, grid, capsys):
    assert main(["fixed", "--preset", "regions", "--grid", grid,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "--grid" in capsys.readouterr().err
    assert not (tmp_path / "regions.csv").exists()


def test_parse_region_grid_forms():
    assert _parse_region_grid(None) == pytest.approx(np.linspace(4.0, 14.0, 6))
    assert _parse_region_grid("5") == pytest.approx(np.linspace(4.0, 14.0, 5))
    assert _parse_region_grid("4,10") == [4.0, 10.0]
    assert _parse_region_grid("4.5") == [4.5]


# -------------------------------------------------------------------- sweeps

def test_sweep_writes_csv_and_is_deterministic(tmp_path, capsys):
    common = ["sweep", "--frames", "1", "--symbols", "10", "--grid", "4.0",
              "--precoders", "cipm", "--threads", "1"]
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(common + ["--out", str(out1)]) == EXIT_OK
    assert main(common + ["--out", str(out2)]) == EXIT_OK
    assert main(common + ["--out", str(out3), "--seed", "1"]) == EXIT_OK
    rows1 = _read(out1 / "sweep.csv")
    assert rows1[0] == SWEEP_HEADER
    assert len(rows1) == 2
    assert rows1 == _read(out2 / "sweep.csv")
    assert rows1 != _read(out3 / "sweep.csv")
    assert "wrote" in capsys.readouterr().out


def test_sweep_summary_prints_rows(tmp_path, capsys):
    code = main(["sweep", "--frames", "1", "--symbols", "10", "--grid", "4.0",
                 "--precoders", "cipm", "--threads", "1", "--summary",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "sinr=4" in out and "dBW" in out


def test_main_calls_in_one_process_match_separate_runs(tmp_path, capsys):
    # main reuses one parser per process: flags of one call (here --mode,
    # --seed, --summary and the grid) must not carry over to the next
    runs = [["sweep", "--frames", "1", "--symbols", "10", "--grid", "4.0,8.0",
             "--precoders", "cipm,ob", "--threads", "1", "--mode", "strict",
             "--seed", "3", "--summary"],
            ["sweep", "--frames", "1", "--symbols", "10", "--grid", "6.0",
             "--precoders", "cipm", "--threads", "1"]]
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"same{i}")]) == EXIT_OK
    capsys.readouterr()
    env = _child_env()
    for i, argv in enumerate(runs):
        subprocess.run([sys.executable, "-m", "cipm.cli", *argv,
                        "--out", str(tmp_path / f"own{i}")],
                       env=env, check=True, capture_output=True, timeout=120)
        assert (_read(tmp_path / f"same{i}" / "sweep.csv")
                == _read(tmp_path / f"own{i}" / "sweep.csv"))


# ------------------------------------------------------------- fixed channel

def test_fixed_preset_combination_table(tmp_path, capsys):
    code = main(["fixed", "--preset", "combos", "--summary",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = _read(tmp_path / "combinations.csv")
    assert lines[0] == ("combination,symbol_user1,symbol_user2,"
                        "cipm_power_dbw,ob_power_dbw,gap_db")
    assert len(lines) == 17            # 4x4 QPSK combinations
    assert "gap" in capsys.readouterr().out


def test_fixed_region_map(tmp_path):
    code = main(["fixed", "--preset", "regions", "--grid", "4,10",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = _read(tmp_path / "regions.csv")
    assert lines[0] == "zeta1_db,zeta2_db,modulation1,modulation2,avg_power_dbw,eta"
    assert len(lines) == 5


def test_fixed_channel_file_single_user(tmp_path):
    ch = tmp_path / "ch.txt"
    ChannelMatrix(np.array([[1.3 + 0.7j]])).save_text(ch)
    code = main(["fixed", "--channel", str(ch), "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = _read(tmp_path / "combinations.csv")
    assert lines[0] == "combination,symbol_user1,cipm_power_dbw,ob_power_dbw,gap_db"
    gaps = [float(line.split(",")[-1]) for line in lines[1:]]
    assert gaps == pytest.approx([0.0] * 4, abs=1e-9)


def test_fixed_requires_one_channel_source(tmp_path, capsys):
    ch = tmp_path / "ch.txt"
    ChannelMatrix(np.array([[1.0 + 0.0j]])).save_text(ch)
    assert main(["fixed", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["fixed", "--preset", "combos", "--channel", str(ch),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert main(["fixed", "--channel", str(tmp_path / "missing.txt"),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    capsys.readouterr()


def test_fixed_region_flags_need_region_preset(tmp_path, capsys):
    ch = tmp_path / "ch.txt"
    ChannelMatrix(np.array([[1.0 + 0.0j]])).save_text(ch)
    out = tmp_path / "out"
    for argv in (["--preset", "combos", "--grid", "abc", "--table", "nothere"],
                 ["--preset", "combos", "--grid", "6"],
                 ["--channel", str(ch), "--table", "nothere"]):
        assert main(["fixed", *argv, "--out", str(out)]) == EXIT_CONFIG
        assert "only apply with --preset regions" in capsys.readouterr().err
        assert not (out / "combinations.csv").exists()


def test_fixed_malformed_channel_file_exits_config(tmp_path, capsys):
    ch = tmp_path / "ch.txt"
    for row in ("1.0 0.5,0.2", "nan,0 1.0,0.0"):
        ch.write_text(f"1 2\n{row}\n", encoding="ascii")
        assert main(["fixed", "--channel", str(ch), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "channel row 0" in capsys.readouterr().err


def test_fixed_conflicting_users_exit_solver(tmp_path, capsys):
    # identical rows: any combination with distinct symbols is infeasible
    ch = tmp_path / "ch.txt"
    ChannelMatrix(np.array([[1.0 + 0.0j, 0.5 + 0.0j],
                            [1.0 + 0.0j, 0.5 + 0.0j]])).save_text(ch)
    code = main(["fixed", "--channel", str(ch), "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err


def test_sweep_infeasible_slot_exits_solver_naming_frame_and_combination(tmp_path, capsys):
    # K=3 users on Nt=2 antennas: some QPSK slot has no feasible point
    code = main(["sweep", "--axis", "users", "--grid", "2,3", "--antennas", "2",
                 "--precoders", "cipm,ob", "--frames", "2", "--symbols", "20",
                 "--threads", "1", "--out", str(tmp_path)])
    assert code == EXIT_SOLVER
    assert re.search(r"solver error: frame \d+: combination \[\d+, \d+, \d+\]: infeasible",
                     capsys.readouterr().err)


# ------------------------------------------------------------------ pdfcheck

def test_pdfcheck_passes_at_scale(tmp_path, capsys):
    code = main(["pdfcheck", "--constellation", "qpsk",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out
    lines = _read(tmp_path / "distribution.csv")
    assert lines[0] == "z,analytic_pdf,empirical_pdf"
    assert len(lines) == 201


def test_pdfcheck_defaults_follow_aliases(tmp_path, capsys):
    # 4qam is qpsk: same bins, same threshold, same verdict
    runs = []
    for name in ("qpsk", "4qam", "QPSK"):
        out = tmp_path / name
        code = main(["pdfcheck", "--constellation", name, "--samples", "20000",
                     "--out", str(out)])
        captured = capsys.readouterr()
        runs.append((code, (out / "distribution.csv").read_bytes(),
                     captured.out.replace(str(out), ""), captured.err))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_pdfcheck_fails_undersampled(tmp_path, capsys):
    # 3000 draws over 24 bins: binomial noise alone exceeds the threshold
    code = main(["pdfcheck", "--samples", "3000", "--out", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().err


def test_pdfcheck_insufficient_samples_warns(tmp_path, capsys):
    code = main(["pdfcheck", "--samples", "100", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert "too few" in capsys.readouterr().err


# -------------------------------------------------------------------- modmap

def test_modmap_analytic_output(capsys):
    code = main(["modmap", "--rates", "3.6,1.998", "--backend", "analytic"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "[analytic]" in out
    assert "16qam" in out and "qpsk" in out
    assert "SER 0.1," in out


def test_sweep_rejects_negative_restarts(tmp_path, capsys):
    assert main(["sweep", "--restarts", "-3", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "multicast_restarts" in capsys.readouterr().err


def test_modmap_rejects_bad_ser_curves(tmp_path, capsys):
    # a header-only cache file
    cache = tmp_path / "ser_cache"
    cache.mkdir()
    (cache / "qpsk_ser.csv").write_text("snr_db,ser\n", encoding="ascii")
    argv = ["modmap", "--backend", "empirical", "--rates", "1.9"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    assert "qpsk_ser.csv" in capsys.readouterr().err


@pytest.mark.parametrize("argv,name", [
    (["modmap", "--backend", "empirical", "--rates", "1.9", "--symbols", "0"],
     "symbols_per_point"),
    (["modmap", "--backend", "both", "--rates", "1.9", "--symbols", "-5"],
     "symbols_per_point"),
    (["pdfcheck", "--samples", "0"], "samples=0"),
    (["pdfcheck", "--bins", "0"], "bins=0"),
])
def test_bad_sample_counts_exit_config_naming_the_option(tmp_path, argv, name, capsys):
    # rejected up front: no numpy warning, no traceback, no curve written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert name in captured.err and "must be >= 1" in captured.err
    assert captured.out == ""
    cache = tmp_path / "ser_cache"
    assert not cache.exists() or list(cache.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["--backend", "empirical", "--rates", "nan"],
    ["--backend", "empirical", "--rates", "1.9,nan"],
    ["--backend", "both", "--rates", "1.9", "--symbols", "0"],
])
def test_modmap_checks_its_input_before_it_writes(tmp_path, argv, capsys):
    # a bad rate or symbol count exits 2 with the output directory left empty:
    # no ser_cache, and no curve built for the rates before a bad one
    out = tmp_path / "out"
    out.mkdir()
    assert main(["modmap", *argv, "--out", str(out)]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_modmap_requires_rates(capsys):
    assert main(["modmap", "--backend", "analytic"]) == EXIT_CONFIG
    assert "--rates" in capsys.readouterr().err


def test_modmap_unsupported_rate(capsys):
    assert main(["modmap", "--rates", "7.0",
                 "--backend", "analytic"]) == EXIT_CONFIG
    capsys.readouterr()
