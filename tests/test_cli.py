"""CLI tests: option resolution, artifacts, exit codes."""

import argparse
import contextlib
import importlib.util
import io
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
from hypothesis import given, settings, strategies as st

import cipm
from cipm.channel import ChannelMatrix
from cipm.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    _COMMANDS,
    _SCHEMAS,
    build_parser,
    main,
    read_config,
    resolve_options,
)
from cipm.linkadapt import parse_table

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


def _read_config_text(tmp_path, text):
    (path := tmp_path / "run.cfg").write_text(text, encoding="ascii")
    return read_config(path)


def _read_ladder_text(tmp_path, text):
    return [(e.name, e.rate, e.sinr_min_db) for e in parse_table(text).entries]


@pytest.mark.parametrize("read,line,want,also_bad", [
    # a config value is the text after the first '='; a ladder value must be two numbers
    (_read_config_text, "zeta-db = 9.5 = 2", {"zeta_db": "9.5 = 2"}, []),
    (_read_ladder_text, "8QAM = 3, 8.2", [("8qam", 3.0, 8.2)], ["qpsk = 2, 6.1 = 9"]),
], ids=["config", "ladder"])
def test_config_files_and_ladder_tables_read_one_line_grammar(tmp_path, read, line, want,
                                                              also_bad):
    # comments and blank lines are skipped and the first '=' splits; a line without '='
    # or with an empty key raises naming its number, a config file's path in front
    assert read(tmp_path, f"# header\n\n  {line}  # inline = comment\n\n") == want
    for bad in ["frames 7", " = 7", "=", *also_bad]:
        with pytest.raises(ValueError, match=r"^(.*run\.cfg: )?line 3: expected '"):
            read(tmp_path, f"# header\n\n{bad}  # x = y\n8qam = 3, 8.2\n")


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
    assert capsys.readouterr().err.startswith("error: --backend: takes one of ")


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
    assert summary.nargs == 0 and summary.const == "yes"


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
    # every argv the benchmark hands to cli.main, its warm-ups included, parses and
    # lies in every option's domain
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
        args = build_parser().parse_args(argv)
        assert args.subcommand == argv[0]
        resolve_options(args)


def test_every_default_lies_in_its_domain():
    for name, schema in _SCHEMAS.items():
        for key, opt in schema.items():
            if opt.default is not None:
                d = opt.default
                text = ",".join(map(str, d)) if isinstance(d, list) else str(d)
                assert opt.parse(text) == d, (name, key)


def _run_as_the_benchmark(name, workdir, seeds, operations):
    """What bench/run.py does for a workload, per seed: warm up in workdir, then run one
    instance through operations 0, 1, ... in order, each passing its check and doing
    work > 0 (the benchmark calls work() outside its failure guard)."""
    wl = _bench_workloads()
    wl.warm_up(name, workdir)
    for seed in seeds:
        workload = wl.WORKLOADS[name](seed, workdir)
        for index in range(operations):
            inputs = workload.prepare(index)
            output = workload.run(inputs)
            assert workload.check(index, inputs, output) == [], (seed, index)
            assert workload.work(inputs, output) > 0, (seed, index)


def test_modmap_pdfcheck_operations_pass_the_benchmark_check(tmp_path):
    # the benchmark's own warm-up, prepare, run, check and work on a few of its operations
    _run_as_the_benchmark("modmap_pdfcheck", str(tmp_path), (0, 1, 2), 2)


@pytest.mark.parametrize("name", ["sweep_full_load", "sweep_qpsk_bound"])
def test_sweep_operations_pass_the_benchmark_check(tmp_path, name):
    # seed 0, operation 0 also compares the sweep.csv with the stored reference within 1e-12
    _run_as_the_benchmark(name, str(tmp_path), (0, 1, 2), 2)


def test_slot_stream_operations_pass_the_benchmark_check(tmp_path):
    # operation 0 of each seed is also checked against the QP oracle
    _run_as_the_benchmark("slot_stream", str(tmp_path), (0, 1, 2), 3)


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--mode", "loose"], "--mode"),
    (["sweep", "--axis", "foo"], "--axis"),
    (["fixed", "--preset", "x"], "--preset"),
    (["modmap", "--backend", "y"], "--backend"),
    (["sweep", "--frames", "abc"], "--frames"),
])
def test_bad_flag_values_exit_config_naming_the_option(argv, flag, capsys):
    # a bad choice or number is an error of main, not of argparse
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {flag}: takes ")


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
    (["sweep", "--axis", "size", "--grid", "2", "--zeta-db", "3050"], _TARGETS),   # 1e305
])
def test_non_finite_values_exit_config_saying_what_is_wrong(tmp_path, argv, message, capsys):
    # the last flag's domain rejects its value and says so, before the library check
    # whose message is `message` (or a flag's own) sees the value
    flag, text = argv[-1].split("=", 1) if "=" in argv[-1] else argv[-2:]
    if argv[0] == "sweep":
        argv = argv + ["--frames", "1", "--symbols", "10", "--threads", "1"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: takes ") and err.endswith(f", got '{text}'\n")
    assert message == flag or message not in err


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
    (["sweep", "--threads", "65", "--grid", "4"], "--threads"),   # one job: no pool either way
])
@pytest.mark.filterwarnings("error")
def test_out_of_range_values_exit_config_naming_the_option(tmp_path, argv, flag, capsys):
    # rejected before any frame or sample is drawn, with no warning: no CSV is written
    if argv[0] == "sweep":
        argv = argv + ["--frames", "1", "--symbols", "5"]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {flag}: takes ")
    assert list(tmp_path.iterdir()) == []


# each count sizes an allocation: without its check, these ask for 7 GB (sweep
# slots) to EiB (the size axis) before anything fails
_HUGE_COUNTS = [
    (["sweep", "--symbols", "1000000000"], "--symbols"),
    (["sweep", "--frames", "1000000000", "--symbols", "1"], "--frames"),
    (["sweep", "--restarts", "1000000000", "--precoders", "cipm,multicast"], "--restarts"),
    (["pdfcheck", "--samples", "1000000000"], "--samples"),
    (["pdfcheck", "--bins", "1000000000"], "--bins"),
    (["modmap", "--backend", "empirical", "--rates", "1.9", "--symbols", "1000000000"],
     "--symbols"),
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


def _run_capped(code, *args, cwd=None):
    """Run code in a child Python whose address space is capped at 1 GiB, so a value that
    reaches an allocation raises MemoryError there rather than filling memory."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=_child_env(OPENBLAS_NUM_THREADS="1"),
                          preexec_fn=cap_address_space, capture_output=True, text=True,
                          timeout=300)


def test_huge_counts_exit_config_naming_the_option_under_a_memory_cap(tmp_path):
    # one capped child runs every argv
    argvs = [argv + ["--out", str(tmp_path / f"out{i}")]
             + (["--threads", "1"] if argv[0] == "sweep" else [])
             for i, (argv, _) in enumerate(_HUGE_COUNTS)]
    child = _run_capped(_CAPPED_CHILD, json.dumps(argvs))
    assert child.returncode == 0, child.stderr
    for (argv, flag), (code, err) in zip(_HUGE_COUNTS, json.loads(child.stdout), strict=True):
        assert code == EXIT_CONFIG and err.startswith(f"error: {flag}: takes "), (argv, err)
        assert "Traceback" not in err, argv
    assert list(tmp_path.iterdir()) == []


def _texts(*values):
    return st.sampled_from(values)


_NO_NUMBER = _texts("nan", "x", "")
_NO_NAME = _texts("x", "", "nan", "0", "-1", "1e308")


def _not_whole(lo, hi=None):
    """Text that is no whole number from lo to hi."""
    ints = st.integers(max_value=lo - 1)
    if hi is not None:
        ints |= st.integers(min_value=hi + 1)
    return ints.map(str) | _texts("2.5", "1e3", "inf", "-inf") | _NO_NUMBER


def _floats_outside(below, above, exclude=False):
    """Text of floats up to below or from above (infinities included), nan, or no number."""
    return (st.floats(max_value=below, exclude_max=exclude)
            | st.floats(min_value=above, exclude_min=exclude)).map(str) | _NO_NUMBER


def _not_list(good, bad):
    """Comma lists with no item, or with an item from bad, alone or after good."""
    bad = bad.filter(bool)      # a blank item is skipped, so it is no bad item
    return bad | bad.map(lambda b: f"{good},{b}") | _texts("", ",", ",,")


_DB_OUT = _floats_outside(-3000.0, 3000.0, exclude=True)
_POSITIVE_OUT = _floats_outside(0.0, float("inf"))
# text outside each option's domain as the README states it, by option or by
# "subcommand option" where two subcommands' domains differ
_OUTSIDE = {
    "out": _texts(""), "channel": _texts(""), "table": _texts(""),
    "summary": _texts("maybe", "2", ""),
    "seed": _not_whole(0), "threads": _not_whole(0, 64), "frames": _not_whole(1, 10_000),
    "sweep symbols": _not_whole(1, 10_000), "modmap symbols": _not_whole(1, 10_000_000),
    "samples": _not_whole(1, 1_000_000), "bins": _not_whole(1, 10_000),
    "antennas": _not_whole(1, 64), "users": _not_whole(1, 64), "restarts": _not_whole(0, 64),
    "axis": _NO_NAME, "mode": _NO_NAME, "preset": _NO_NAME, "backend": _NO_NAME,
    "constellation": _NO_NAME | _texts("256qam"),
    "modulations": _not_list("qpsk", _NO_NAME | _texts("256qam")),
    "precoders": _not_list("cipm", _NO_NAME) | _texts("cipm,cipm", "ob,cipm,ob"),
    "zeta_db": _DB_OUT, "sigma_h2_db": _DB_OUT, "sigma_z2_db": _DB_OUT,
    "sweep grid": _not_list("4", _DB_OUT),
    "fixed grid": (st.integers(max_value=0) | st.integers(min_value=101)).map(str)
    | _not_list("4", _DB_OUT),
    "beta": _POSITIVE_OUT, "threshold": _POSITIVE_OUT, "rates": _not_list("1.9", _POSITIVE_OUT),
    "reference_ser": _floats_outside(0.0, 1.0),
}


def _check_outside_values_exit_config(root):
    """Each (subcommand, option) pair, fed text outside its domain by flag or config key,
    exits 2 naming the flag, with no traceback, no warning and no output directory."""
    for name, schema in _SCHEMAS.items():
        for key in schema:
            outside = _OUTSIDE.get(f"{name} {key}", _OUTSIDE.get(key))
            assert outside is not None, (name, key)

            @settings(derandomize=True, max_examples=25, deadline=None, database=None)
            @given(text=outside, by_config=st.booleans())
            def prop(text, by_config):
                flag, out = "--" + key.replace("_", "-"), os.path.join(root, "out")
                argv = [name] + ([] if key == "out" else ["--out", out])
                if by_config or key == "summary":    # a bare flag carries no text
                    cfg = os.path.join(root, "run.cfg")
                    Path(cfg).write_text(f"{key} = {text}\n", encoding="ascii")
                    argv += ["--config", cfg]
                else:
                    argv.append(f"{flag}={text}")
                err = io.StringIO()
                with (warnings.catch_warnings(record=True) as caught,
                      contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
                    warnings.simplefilter("always")
                    code = main(argv)
                err = err.getvalue()
                assert code == EXIT_CONFIG, (argv, err)
                assert err.startswith(f"error: {flag}: takes ") and "Traceback" not in err, err
                assert err.endswith(f", got '{text}'\n"), err
                assert caught == [] and not os.path.exists(out), argv

            prop()


def test_values_outside_each_domain_exit_config_under_a_memory_cap(tmp_path):
    # the property runs in one capped child, so a value that slips through to an
    # allocation fails there with MemoryError
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_cli;"
            " test_cli._check_outside_values_exit_config(sys.argv[2])")
    child = _run_capped(code, str(Path(__file__).parent), str(tmp_path), cwd=tmp_path)
    assert child.returncode == 0, child.stdout + child.stderr


@pytest.mark.parametrize("argv,flag", [
    (["--preset", "regions", "--grid", "4,1e308"], "--grid"),
    (["--preset", "combos", "--zeta-db", "1e308"], "--zeta-db"),
])
def test_fixed_out_of_range_targets_exit_config_naming_the_option(tmp_path, argv, flag, capsys):
    # each target's dB value is checked, as sweep's are, before the output directory is made
    out = tmp_path / "out"
    assert main(["fixed", *argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and "Traceback" not in err
    assert not out.exists()


def test_import_loads_no_scipy():
    # scipy.special and scipy.optimize cost about 0.4 s to import, which every process would
    # pay before its first slot; each scipy function is imported where it is called
    env = _child_env()
    code = ("import sys, cipm, cipm.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("grid", ["nan", "0", "-2", "4,nan", "x"])
def test_bad_region_grid_exits_config_naming_grid(tmp_path, grid, capsys):
    assert main(["fixed", "--preset", "regions", "--grid", grid,
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "--grid" in capsys.readouterr().err
    assert not (tmp_path / "regions.csv").exists()


def test_parse_region_grid_forms(tmp_path, capsys):
    parse = _SCHEMAS["fixed"]["grid"].parse
    assert parse("5") == pytest.approx(np.linspace(4.0, 14.0, 5))
    assert parse("4,10") == [4.0, 10.0]
    assert parse("4.5") == [4.5]
    # with no --grid, a region map spans six points
    assert main(["fixed", "--preset", "regions", "--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    zeta1 = {line.split(",")[0] for line in _read(tmp_path / "regions.csv")[1:]}
    assert sorted(map(float, zeta1)) == pytest.approx(np.linspace(4.0, 14.0, 6))


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


def test_fixed_region_map(tmp_path, capsys):
    code = main(["fixed", "--preset", "regions", "--grid", "4,10",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    lines = _read(tmp_path / "regions.csv")
    assert lines[0] == "zeta1_db,zeta2_db,modulation1,modulation2,avg_power_dbw,eta"
    assert len(lines) == 5
    capsys.readouterr()
    code = main(["fixed", "--preset", "regions", "--grid", "3", "--summary",
                 "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == "  power range -2.688 .. 7.396 dBW"


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
    for argv in (["--preset", "combos", "--grid", "4,10", "--table", "nothere"],
                 ["--preset", "combos", "--grid", "6"],
                 ["--channel", str(ch), "--table", "nothere"]):
        assert main(["fixed", *argv, "--out", str(out)]) == EXIT_CONFIG
        assert "only apply with --preset regions" in capsys.readouterr().err
        assert not (out / "combinations.csv").exists()


@pytest.mark.parametrize("argv,config,flags", [
    (["--preset", "regions", "--grid", "3", "--zeta-db", "20", "--modulations", "64qam"], "",
     "--modulations and --zeta-db"),
    (["--preset", "regions"], "zeta-db = 20\n", "--zeta-db"),
    (["--preset", "combos"], "grid = 3\nmodulations = 16qam\n", "--grid"),
], ids=["regions flags", "regions config", "combos config"])
def test_fixed_rejects_options_its_study_ignores(tmp_path, argv, config, flags, capsys):
    # a region map sets each point's targets and constellations from its grid and ladder,
    # so a given --zeta-db or --modulations, from a flag or the config file, is an error
    (cfg := tmp_path / "run.cfg").write_text(config, encoding="ascii")
    out = tmp_path / "out"
    assert main(["fixed", *argv, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {flags}: ")
    assert not out.exists()


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
    out = tmp_path / "out"
    code = main(["fixed", "--channel", str(ch), "--out", str(out)])
    assert code == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err
    assert not out.exists()        # made only once the table is computed


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
    # the default sample count puts QPSK's 0.01 bound about 6 sd above the L1
    # statistic's mean, so the true law passes at seeds 1, 2 and 5 too
    for seed in ("0", "1", "2", "5"):
        code = main(["pdfcheck", "--constellation", "qpsk", "--seed", seed,
                     "--out", str(tmp_path)])
        assert code == EXIT_OK, seed
        out = capsys.readouterr().out
        assert "PASS" in out, seed
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


@pytest.mark.parametrize("ladder,line", [
    ("qpsk = 2, x\n", 1),
    ("qpsk = 2, 6\n16qam = 4, nan\n64qam = 6, 14\n", 2),   # a nan threshold, never chosen
], ids=["not a number", "not finite"])
@pytest.mark.parametrize("argv", [
    ["modmap", "--rates", "1.9", "--backend", "analytic"],
    ["fixed", "--preset", "regions", "--grid", "4,10,16"],
], ids=["modmap", "fixed"])
def test_ladder_file_errors_name_the_file(tmp_path, ladder, line, argv, capsys):
    # as a config file's errors do: '<path>: line N: ...'
    (table := tmp_path / "t.txt").write_text(ladder, encoding="ascii")
    out = tmp_path / "out"
    assert main([*argv, "--table", str(table), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"error: {table}: line {line}: expected 'name = rate, threshold_db'\n"
    assert not out.exists()


def test_sweep_rejects_negative_restarts(tmp_path, capsys):
    assert main(["sweep", "--restarts", "-3", "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: --restarts: takes a whole number from 0")


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
    # rejected up front by the flag's domain, before the library check that names
    # `name`: no numpy warning, no traceback, no curve written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {argv[-2]}: takes a whole number from 1 to ")
    assert name not in captured.err
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


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--modulations", "qpsk,16qam,8qam", "--frames", "1", "--symbols", "5",
      "--threads", "1"], "--modulations"),
    (["sweep", "--axis", "users", "--grid", "2,3", "--modulations", "qpsk,16qam"],
     "--modulations"),        # K is 3 at grid value 3
    (["modmap", "--rates", "7", "--backend", "analytic"], "--rates"),
    (["fixed", "--preset", "combos", "--modulations", "qpsk,qpsk,qpsk"], "--modulations"),
])
def test_values_that_join_two_options_exit_config_naming_the_flag(tmp_path, argv, flag, capsys):
    # a modulation list that fits no user count, or a rate above the ladder, is
    # rejected by the command before anything is drawn or written
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")
    assert not out.exists()


def test_modmap_unsupported_rate(capsys):
    assert main(["modmap", "--rates", "7.0",
                 "--backend", "analytic"]) == EXIT_CONFIG
    capsys.readouterr()
