"""Tests for the rate -> modulation -> SER -> SINR adaptation pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cipm.linkadapt import (
    ZETA0_DEFAULT,
    ZETA_MAX_DEFAULT,
    AnalyticBackend,
    EmpiricalBackend,
    ModulationEntry,
    ModulationTable,
    SerCurve,
    allocate,
    build_ser_curve,
    effective_goodput,
    energy_efficiency,
    load_table,
    parse_table,
    qfunc,
    qfunc_inv,
    select_modulation,
    ser_from_goodput,
    ser_from_sinr,
    sinr_from_ser,
)

from oracles import (_isotonic_nonincreasing, build_ser_curve_oracle, q_inv_oracle, q_oracle,
                     sinr_db_for_ser_oracle, sinr_from_ser_oracle)


# ---------------------------------------------------------------- scalar maps

def test_qfunc_matches_quadrature_oracle():
    # quadrature accuracy bottoms out near 1e-10 relative in the far tail
    for x in (0.1, 0.5236, 1.2816, 2.3263, 3.719):
        assert qfunc(x) == pytest.approx(q_oracle(x), rel=1e-9, abs=1e-14)


def test_qfunc_inv_matches_bisection_oracle():
    for p in (0.3, 0.1, 0.01, 1e-4):
        assert qfunc_inv(p) == pytest.approx(q_inv_oracle(p), abs=1e-9)
        # and the two directions compose to the identity
        assert qfunc(qfunc_inv(p)) == pytest.approx(p, rel=1e-12)


def test_qfunc_inv_rejects_out_of_range():
    for p in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            qfunc_inv(p)


def test_ser_from_goodput_exact_values():
    assert ser_from_goodput(3.6, 4.0) == pytest.approx(0.1, abs=1e-15)
    assert ser_from_goodput(1.998, 2.0) == pytest.approx(0.001, abs=1e-15)
    assert ser_from_goodput(4.0, 4.0) == 0.0


def test_ser_from_goodput_rejects_bad_targets():
    with pytest.raises(ValueError):
        ser_from_goodput(0.0, 4.0)
    with pytest.raises(ValueError):
        ser_from_goodput(4.1, 4.0)


def test_sinr_from_ser_frozen_values():
    # bisection-oracle values, frozen
    assert sinr_from_ser(0.1, 4.0) == pytest.approx(4.801823525867334, rel=1e-12)
    assert sinr_from_ser(1e-3, 2.0) == pytest.approx(6.0578325731985885, rel=1e-12)
    for ser, rate in ((0.1, 4.0), (1e-3, 2.0), (0.02, 6.0)):
        assert sinr_from_ser(ser, rate) == pytest.approx(
            sinr_from_ser_oracle(ser, rate), rel=1e-9)


def test_ser_sinr_round_trips():
    for rate in (2.0, 3.0, 4.0, 5.0, 6.0):
        for ser in (0.2, 0.01, 1e-4):
            z = sinr_from_ser(ser, rate)
            assert ser_from_sinr(z, rate) == pytest.approx(ser, rel=1e-10)
    with pytest.raises(ValueError):
        sinr_from_ser(0.0, 2.0)
    with pytest.raises(ValueError):
        sinr_from_ser(1.0, 2.0)
    with pytest.raises(ValueError):
        ser_from_sinr(0.0, 2.0)


def test_effective_goodput_and_efficiency():
    assert effective_goodput(4.0, 0.1) == pytest.approx(3.6, abs=1e-15)
    assert effective_goodput(2.0, 0.0) == 2.0
    with pytest.raises(ValueError):
        effective_goodput(4.0, 1.0001)
    assert energy_efficiency([3.6, 1.998], 2.0) == pytest.approx(2.799, abs=1e-12)
    with pytest.raises(ValueError):
        energy_efficiency([1.0], 0.0)


# ------------------------------------------------------------ ladder / table

def test_default_sinr_range_frozen():
    assert ZETA0_DEFAULT == pytest.approx(1.920729410347064, rel=1e-12)
    assert ZETA_MAX_DEFAULT == pytest.approx(57.568385735028016, rel=1e-12)
    assert ZETA0_DEFAULT == pytest.approx(sinr_from_ser_oracle(0.1, 2.0), rel=1e-9)
    assert ZETA_MAX_DEFAULT == pytest.approx(sinr_from_ser_oracle(1e-4, 6.0), rel=1e-9)


def test_analytic_table_thresholds_frozen():
    table = ModulationTable.analytic()
    names = [e.name for e in table.entries]
    assert names == ["qpsk", "8qam", "16qam", "32qam", "64qam"]
    assert [e.rate for e in table.entries] == [2.0, 3.0, 4.0, 5.0, 6.0]
    frozen_db = [5.9546527870868395, 7.87350804947597, 9.934052873807214,
                 12.117657091512566, 14.405633187229407]
    for entry, expect in zip(table.entries, frozen_db):
        assert entry.sinr_min_db == pytest.approx(expect, rel=1e-12)
        assert entry.sinr_min_db == pytest.approx(
            10.0 * np.log10(sinr_from_ser_oracle(1e-2, entry.rate)), abs=1e-8)
        assert entry.sinr_min == pytest.approx(10.0 ** (expect / 10.0), rel=1e-12)
    assert table.max_rate == 6.0


def test_table_validation():
    good = ModulationTable.analytic().entries
    with pytest.raises(ValueError):
        ModulationTable(())
    with pytest.raises(ValueError):
        ModulationTable([good[1], good[0]])  # rates must increase
    bad_thr = [good[0], ModulationEntry("8qam", 3, 3.0, good[0].sinr_min_db - 1.0)]
    with pytest.raises(ValueError):
        ModulationTable(bad_thr)
    with pytest.raises(KeyError):
        ModulationTable.analytic().by_name("256qam")


def test_select_modulation_boundaries():
    table = ModulationTable.analytic()
    assert select_modulation(table, 2.0).name == "qpsk"
    assert select_modulation(table, 2.0001).name == "8qam"
    assert select_modulation(table, 3.7).name == "16qam"
    assert select_modulation(table, 6.0).name == "64qam"
    with pytest.raises(ValueError):
        select_modulation(table, 6.01)
    with pytest.raises(ValueError):
        select_modulation(table, 0.0)


def test_modulation_for_sinr():
    table = ModulationTable.analytic()
    assert table.modulation_for_sinr(5.0) is None
    assert table.modulation_for_sinr(table.entries[0].sinr_min_db).name == "qpsk"
    assert table.modulation_for_sinr(8.0).name == "8qam"
    assert table.modulation_for_sinr(30.0).name == "64qam"


def test_parse_table_round_trip(tmp_path):
    text = """\
# custom thresholds
qpsk  = 2, 6.1
8qam  = 3, 8.2   # inline comment
16qam = 4, 10.3

64qam = 6, 15.0
"""
    table = parse_table(text)
    assert [e.name for e in table.entries] == ["qpsk", "8qam", "16qam", "64qam"]
    assert table.by_name("8qam").sinr_min_db == 8.2
    assert table.by_name("8qam").bits == 3
    path = tmp_path / "ladder.txt"
    path.write_text(text, encoding="ascii")
    loaded = load_table(path)
    assert [(e.name, e.rate, e.sinr_min_db) for e in loaded.entries] == \
        [(e.name, e.rate, e.sinr_min_db) for e in table.entries]


def test_parse_table_rejects_malformed():
    with pytest.raises(ValueError):
        parse_table("qpsk 2, 6.1")        # no '='
    with pytest.raises(ValueError):
        parse_table("bpsk = 1, 3.0")      # unknown name
    with pytest.raises(ValueError):
        parse_table("qpsk = 2, 6.1, 9")   # wrong arity
    with pytest.raises(ValueError):
        parse_table("")                   # empty table


# ------------------------------------------------------------------ SER curve

def test_ser_curve_validation():
    with pytest.raises(ValueError):
        SerCurve("qpsk", [0.0, 1.0], [0.1])
    with pytest.raises(ValueError):
        SerCurve("qpsk", [0.0, 0.0, 1.0], [0.1, 0.05, 0.01])
    for snr, ser in (([0.0, 1.0], [0.1, np.nan]), ([0.0, np.inf], [0.1, 0.05])):
        with pytest.raises(ValueError, match="non-finite"):
            SerCurve("qpsk", snr, ser)


@st.composite
def _ser_curves(draw):
    """Noisy, tied, all-zero-tail and already-monotone SER curves."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["noisy", "tied", "zero_tail", "monotone"]))
    ser = np.sort(rng.uniform(1e-5, 0.7, size=n))[::-1]
    if kind == "noisy":
        ser = np.abs(ser + rng.normal(0.0, 0.02, n))
    elif kind == "tied":
        ser = np.round(ser + rng.normal(0.0, 0.01, n), 2)
    elif kind == "zero_tail":
        ser[draw(st.integers(0, n - 1)):] = 0.0
    return ser


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_ser_curves())
def test_monotonized_matches_pav_oracle(ser):
    fit = SerCurve("16qam", np.arange(len(ser), dtype=float), ser).monotonized().ser
    want = _isotonic_nonincreasing(ser)
    assert np.allclose(fit, want, rtol=1e-12, atol=0.0)
    assert np.all(np.diff(fit) <= 0.0)
    assert np.sum(fit) == pytest.approx(np.sum(ser), rel=1e-12, abs=1e-15)
    if np.all(np.diff(ser) < 0.0):
        assert np.array_equal(fit, ser)


def test_monotonized_pools_adjacent_violators():
    curve = SerCurve("qpsk", [0.0, 1.0, 2.0], [0.1, 0.12, 0.05])
    fit = curve.monotonized()
    assert fit.ser == pytest.approx([0.11, 0.11, 0.05], abs=1e-15)
    # pooling preserves the total mass and enforces the ordering
    rng = np.random.default_rng(7)
    noisy = np.sort(rng.uniform(1e-4, 0.5, size=40))[::-1] + rng.normal(0, 0.01, 40)
    fit2 = SerCurve("16qam", np.arange(40.0), noisy).monotonized()
    assert np.all(np.diff(fit2.ser) <= 1e-12)
    assert np.sum(fit2.ser) == pytest.approx(np.sum(noisy), rel=1e-12)


def _inverse_or_error(invert, curve, target):
    try:
        return invert(curve, target)
    except ValueError:
        return "out of range"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_ser_curves(), st.lists(st.floats(0.0, 1.0), max_size=8))
def test_curve_inversion_matches_hand_interpolation_oracle(ser, fractions):
    # np.interp on the reversed curve against the hand-written bracket search:
    # every grid value (plateaus and the 1e-12 floor included) hits exactly,
    # and points between grid values agree within 1e-9 dB
    curve = SerCurve("16qam", 0.5 * np.arange(len(ser)), ser)
    levels = np.maximum(curve.monotonized().ser, 1e-12)
    for target in levels[levels < 1.0]:
        assert curve.sinr_db_for_ser(target) == sinr_db_for_ser_oracle(curve, target)
    lo, hi = np.log10(levels[-1]), np.log10(levels[0])
    for f in fractions:
        target = 10.0 ** (lo + f * (hi - lo))
        got = _inverse_or_error(SerCurve.sinr_db_for_ser, curve, target)
        want = _inverse_or_error(sinr_db_for_ser_oracle, curve, target)
        assert got == want if isinstance(want, str) else abs(got - want) <= 1e-9


def test_curve_inversion_log_linear():
    curve = SerCurve("qpsk", [0.0, 1.0, 2.0], [1e-1, 1e-2, 1e-3])
    assert curve.sinr_db_for_ser(1e-2) == pytest.approx(1.0, abs=1e-12)
    assert curve.sinr_db_for_ser(10.0 ** -1.5) == pytest.approx(0.5, abs=1e-12)
    assert curve.sinr_db_for_ser(1e-1) == 0.0
    with pytest.raises(ValueError):
        curve.sinr_db_for_ser(0.5)    # above the measured start
    with pytest.raises(ValueError):
        curve.sinr_db_for_ser(1e-9)   # below the measured floor
    with pytest.raises(ValueError):
        curve.sinr_db_for_ser(0.0)


def test_curve_csv_round_trip(tmp_path):
    curve = SerCurve("16qam", [0.0, 0.5, 1.0], [0.3217, 0.0123456789012345, 1e-6])
    path = tmp_path / "c.csv"
    curve.save_csv(path)
    back = SerCurve.load_csv("16qam", path)
    assert np.array_equal(back.snr_db, curve.snr_db)
    assert np.array_equal(back.ser, curve.ser)


@pytest.mark.parametrize("body,match", [("", "data rows"),
                                        ("0.0,0.1\n0.5,x\n", "could not convert"),
                                        ("0.0,0.1\n0.5,nan\n", "non-finite")])
def test_curve_csv_load_rejects_bad_files(tmp_path, body, match):
    path = tmp_path / "qpsk_ser.csv"
    path.write_text("snr_db,ser\n" + body, encoding="ascii")
    with pytest.raises(ValueError, match=match) as exc:
        SerCurve.load_csv("qpsk", path)
    assert str(path) in str(exc.value)


def test_build_ser_curve_matches_exact_qpsk():
    # exact QPSK symbol error rate at symbol SNR z is 2q - q^2, q = Q(sqrt(z))
    target = 0.01
    q = 1.0 - np.sqrt(1.0 - target)
    expect_db = 10.0 * np.log10(q_inv_oracle(q) ** 2)
    curve = build_ser_curve("qpsk", snr_db_grid=np.arange(4.0, 11.6, 0.5),
                            symbols_per_point=40_000, seed=3)
    assert curve.name == "qpsk"
    assert np.all(np.diff(curve.ser) <= 1e-12)
    assert curve.sinr_db_for_ser(target) == pytest.approx(expect_db, abs=0.35)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(["qpsk", "8qam", "16qam", "32qam", "64qam"]),
       seed=st.integers(0, 2**32 - 1), symbols=st.integers(1, 3000),
       grid=st.lists(st.floats(-20.0, 60.0), min_size=1, max_size=8, unique=True).map(sorted))
def test_build_ser_curve_matches_complex_detect_oracle(name, seed, symbols, grid):
    # per-axis error counts on the same stream give the SER of a full detect
    got = build_ser_curve(name, snr_db_grid=grid, symbols_per_point=symbols, seed=seed)
    want = build_ser_curve_oracle(name, snr_db_grid=grid, symbols_per_point=symbols, seed=seed)
    assert np.array_equal(got.snr_db, want.snr_db)
    assert np.array_equal(got.ser, want.ser)


@pytest.mark.parametrize("symbols", [0, -5])
def test_ser_curve_rejects_bad_symbol_counts(symbols):
    with pytest.raises(ValueError, match="symbols_per_point must be >= 1"):
        build_ser_curve("qpsk", symbols_per_point=symbols)
    with pytest.raises(ValueError, match="symbols_per_point must be >= 1"):
        EmpiricalBackend(symbols_per_point=symbols)


# ------------------------------------------------------------------- backends

def test_empirical_backend_prefers_injected_curve():
    snr = np.arange(0.0, 21.0, 1.0)
    fake = SerCurve("16qam", snr, 10.0 ** (-snr / 5.0))
    backend = EmpiricalBackend(curves={"16qam": fake})
    entry = ModulationTable.analytic().by_name("16qam")
    assert backend.sinr_db_for(entry, 1e-2) == pytest.approx(10.0, abs=1e-12)


def test_empirical_backend_disk_cache(tmp_path, monkeypatch):
    backend = EmpiricalBackend(cache_dir=str(tmp_path), symbols_per_point=2_000,
                               seed=11)
    entry = ModulationTable.analytic().by_name("qpsk")
    first = backend.sinr_db_for(entry, 0.05)
    cache = tmp_path / "qpsk_ser.csv"
    assert cache.exists()
    # a fresh backend must reload from disk, not rebuild
    import cipm.linkadapt as mod

    def boom(*a, **kw):
        raise AssertionError("cache miss triggered a rebuild")

    monkeypatch.setattr(mod, "build_ser_curve", boom)
    again = EmpiricalBackend(cache_dir=str(tmp_path))
    assert again.sinr_db_for(entry, 0.05) == first


# ------------------------------------------------------------------- allocate

def test_allocate_analytic_pipeline():
    table = ModulationTable.analytic()
    alloc = allocate(table, [3.6, 1.998])
    assert [e.name for e in alloc.modulations] == ["16qam", "qpsk"]
    assert alloc.ser == pytest.approx((0.1, 0.001), abs=1e-15)
    assert alloc.sinr[0] == pytest.approx(4.801823525867334, rel=1e-12)
    assert alloc.sinr[1] == pytest.approx(6.0578325731985885, rel=1e-12)
    assert alloc.sinr_db[0] == pytest.approx(10 * np.log10(alloc.sinr[0]), rel=1e-12)


def test_allocate_lossless_target_uses_ceiling():
    table = ModulationTable.analytic()
    alloc = allocate(table, [2.0])
    assert alloc.ser == (0.0,)
    assert alloc.sinr[0] == ZETA_MAX_DEFAULT


def test_allocate_rejects_unsupported_rates():
    table = ModulationTable.analytic()
    with pytest.raises(ValueError):
        allocate(table, [6.5])
    # a steep SER budget needs 18.42 dB, above the 17.60 dB ceiling; rate 1.5 on
    # qpsk tolerates SER 0.25 at 0.71 dB, below the 2.83 dB floor
    for rate in (5.9999, 1.5):
        with pytest.raises(ValueError, match="outside the supported range"):
            allocate(table, [rate])
    alloc = allocate(table, [5.97])  # SER 0.005 stays inside the ceiling
    assert ZETA0_DEFAULT <= alloc.sinr[0] <= ZETA_MAX_DEFAULT
