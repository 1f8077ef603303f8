"""Frozen-seed CLI outputs against committed golden CSVs.

Each case runs one command in-process through ``cli.main`` into a fresh
directory and compares its exit code and every CSV it writes (ser_cache
included) with ``tests/golden/<case>/``: floats within 1e-12 relative,
strings exactly, NaN equal to NaN.

Regenerate the golden files after an intended output change with
``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import math
import shutil
import sys
from pathlib import Path

import pytest

from cipm.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

CASES = {
    "sweep_sinr": ["sweep", "--axis", "sinr", "--grid", "4,12", "--precoders",
                   "cipm,ob,multicast", "--restarts", "0", "--frames", "2",
                   "--symbols", "30", "--seed", "3"],
    # multicast with random restarts: the restart draws and their scaling
    "sweep_sinr_restarts": ["sweep", "--axis", "sinr", "--grid", "10,14",
                            "--modulations", "8qam", "--users", "3", "--antennas", "3",
                            "--precoders", "cipm,multicast", "--restarts", "2",
                            "--frames", "2", "--symbols", "30", "--seed", "7"],
    # The header row here is the one write_sweep_csv writes today: it is sized
    # for the first grid value's K only, so the K=3 rows are wider. The header
    # fix is a benchmark change; it updates this file and
    # bench/reference/sweep_full_load.csv together.
    "sweep_size": ["sweep", "--axis", "size", "--grid", "2,3", "--modulations",
                   "16qam", "--frames", "2", "--symbols", "30", "--seed", "5"],
    "sweep_strict_mixed": ["sweep", "--mode", "strict", "--modulations",
                           "qpsk,16qam", "--grid", "6,10", "--frames", "2",
                           "--symbols", "40", "--seed", "11"],
    "fixed_combos": ["fixed", "--preset", "combos"],
    "fixed_regions": ["fixed", "--preset", "regions", "--grid", "3"],
    "pdfcheck": ["pdfcheck", "--constellation", "16qam", "--samples", "60000",
                 "--seed", "4"],
    "modmap": ["modmap", "--backend", "empirical", "--symbols", "2000",
               "--rates", "1.9,3.8", "--seed", "1"],
}


def _run(case, out):
    threads = ["--threads", "1"] if CASES[case][0] == "sweep" else []
    return main(CASES[case] + threads + ["--out", str(out)])


def _csvs(root):
    return sorted(p.relative_to(root) for p in root.rglob("*.csv"))


def _cell_equal(want, got):
    try:
        a, b = float(want), float(got)
    except ValueError:
        return want == got
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, tmp_path, capsys):
    assert _run(case, tmp_path) == EXIT_OK, capsys.readouterr().err
    golden = GOLDEN / case
    assert _csvs(tmp_path) == _csvs(golden)
    for rel in _csvs(golden):
        want = (golden / rel).read_text(encoding="ascii").splitlines()
        got = (tmp_path / rel).read_text(encoding="ascii").splitlines()
        assert len(got) == len(want), rel
        for line, (w, g) in enumerate(zip(want, got), start=1):
            wc, gc = w.split(","), g.split(",")
            assert len(gc) == len(wc), f"{rel}:{line}"
            bad = [(x, y) for x, y in zip(wc, gc) if not _cell_equal(x, y)]
            assert not bad, f"{rel}:{line}: {bad}"


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(CASES):
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        if _run(name, GOLDEN / name) != EXIT_OK:
            sys.exit(f"{name}: nonzero exit")
