"""End-to-end acceptance checks.

Each test prints one 'criterion NN: PASS/FAIL' line (visible with -s or in
failure output) and then asserts, so a plain pytest run reports the same
verdicts. Monte-Carlo configurations and tolerances are frozen; seeds are
part of the contract.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from cipm.baselines import solve_ob_stack
from cipm.channel import ChannelMatrix
from cipm.cli import PRESET_CHANNELS
from cipm.constellation import detect, get_constellation
from cipm.linkadapt import (AnalyticBackend, EmpiricalBackend, ModulationTable,
                            allocate)
from cipm.simulator import (FrameConfig, draw_channel, enumerate_combinations,
                            fixed_channel_experiment, run_frame, run_frames,
                            validate_distribution)
from cipm.solver import SinrTargets, SolverError, make_problem, solve_cipm

from oracles import qp_oracle, seeded_instances, sinr_from_ser_oracle, embed_constraints


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _dbw_mean(results):
    return float(np.mean([r.avg_power_dbw for r in results]))


def _ob_dbw_mean(cfg):
    """Design-average OB power per frame (sum of beam powers), dB-averaged."""
    beams = solve_ob_stack([draw_channel(cfg, f) for f in range(cfg.frames)],
                           [cfg.targets()] * cfg.frames)
    for b in beams:
        if isinstance(b, SolverError):
            raise b
    return float(np.mean([10.0 * np.log10(np.sum(np.abs(b.w) ** 2)) for b in beams]))


def test_criterion_01_fixed_channel_gaps():
    cfg = FrameConfig(modulations="qpsk", zeta_db=4.712, sigma_z2_db=0.0)
    t0 = time.perf_counter()
    table = fixed_channel_experiment(PRESET_CHANNELS["combos"], cfg)
    elapsed = time.perf_counter() - t0
    avg = table.average_gap_db
    hi = float(np.max(table.gap_db))
    lo = float(np.min(table.gap_db))
    ok = (abs(avg - 2.2) <= 0.3 and abs(hi - 4.1) <= 0.3
          and abs(lo - 0.4) <= 0.2 and elapsed < 1.0)
    _verdict(1, ok, f"avg {avg:+.4f} dB (want 2.2+-0.3), "
                    f"max {hi:+.4f} (want 4.1+-0.3), "
                    f"min {lo:+.4f} (want 0.4+-0.2), {elapsed:.2f} s")
    assert elapsed < 1.0
    assert abs(avg - 2.2) <= 0.3, \
        f"average OB-CIPM gap {avg:+.4f} dB outside 2.2+-0.3 dB"
    assert abs(hi - 4.1) <= 0.3, \
        f"largest per-combination gap {hi:+.4f} dB outside 4.1+-0.3 dB"
    assert abs(lo - 0.4) <= 0.2, \
        f"smallest per-combination gap {lo:+.4f} dB outside 0.4+-0.2 dB"


def test_criterion_02_ordering_across_regimes():
    regimes = (("qpsk", 12.0), ("8qam", 14.0), ("16qam", 17.0))
    rows = []
    for mod, zdb in regimes:
        for k in (2, 3, 4):
            frames = 150 if k == 2 else 60
            cfg = FrameConfig(n_symbols=100, frames=frames, n_antennas=k,
                              k_users=k, zeta_db=zdb, modulations=mod, seed=0)
            cipm = run_frames(cfg)
            cipm_db = _dbw_mean(cipm)
            ob_db = _ob_dbw_mean(cfg)
            mc = run_frames(replace(cfg, frames=50, precoder="multicast",
                                    multicast_restarts=0))
            mc_db = _dbw_mean(mc)
            prefix_db = _dbw_mean(cipm[:50])
            rows.append((mod, k, mc_db, prefix_db, cipm_db, ob_db))
    bad = [r for r in rows if not (r[4] < r[5] and r[2] <= r[3])]
    worst = min(min(r[5] - r[4], r[3] - r[2]) for r in rows)
    _verdict(2, not bad, f"9 regimes, worst ordering margin {worst:+.4f} dB")
    assert not bad, "ordering multicast <= CIPM < OB violated in: " + "; ".join(
        f"{m} K={k}: mc {a:.3f}, cipm[:50] {b:.3f}, cipm {c:.3f}, ob {d:.3f} dBW"
        for m, k, a, b, c, d in bad)


def test_criterion_03_power_vs_system_size():
    sizes = (2, 3, 4, 5)
    cipm_db, ob_db = [], []
    t0 = time.perf_counter()
    for k in sizes:
        cfg = FrameConfig(n_symbols=100, frames=150, n_antennas=k, k_users=k,
                          zeta_db=18.0, modulations="16qam", seed=0)
        cipm_db.append(_dbw_mean(run_frames(cfg)))
        ob_db.append(_ob_dbw_mean(cfg))
    elapsed = time.perf_counter() - t0
    gaps = [o - c for o, c in zip(ob_db, cipm_db)]
    nonincreasing = all(b <= a + 1e-9 for a, b in zip(cipm_db, cipm_db[1:]))
    nondecreasing = all(b >= a - 1e-9 for a, b in zip(ob_db, ob_db[1:]))
    widening = all(b > a for a, b in zip(gaps, gaps[1:]))
    ok = nonincreasing and nondecreasing and widening and elapsed < 300.0
    _verdict(3, ok,
             "cipm " + "/".join(f"{v:.3f}" for v in cipm_db)
             + " dBW, ob " + "/".join(f"{v:.3f}" for v in ob_db)
             + ", gaps " + "/".join(f"{g:+.4f}" for g in gaps)
             + f", {elapsed:.1f} s")
    assert elapsed < 300.0
    assert nondecreasing, f"OB power not nondecreasing with K=Nt: {ob_db}"
    assert widening, f"OB-CIPM gap not widening with K=Nt: {gaps}"
    assert nonincreasing, \
        f"CIPM power not nonincreasing with K=Nt: {cipm_db} dBW"


def test_criterion_04_gap_grows_with_load():
    gaps = []
    for k in (1, 2, 3, 4):
        cfg = FrameConfig(n_symbols=100, frames=150, n_antennas=4, k_users=k,
                          zeta_db=15.0, modulations="16qam", seed=0)
        gaps.append(_ob_dbw_mean(cfg) - _dbw_mean(run_frames(cfg)))
    ok = gaps[3] > 0 and max(gaps[0], gaps[1]) <= gaps[3] / 2.0
    _verdict(4, ok, "gaps K=1..4: " + "/".join(f"{g:+.4f}" for g in gaps) + " dB")
    assert gaps[3] > 0, f"no full-load gain: gaps {gaps}"
    assert max(gaps[0], gaps[1]) <= gaps[3] / 2.0, \
        f"low-load gaps {gaps[0]:+.4f}/{gaps[1]:+.4f} not below half of {gaps[3]:+.4f}"


def test_criterion_05_equivalent_channel_distribution():
    t0 = time.perf_counter()
    rep = validate_distribution("16qam", n_antennas=2, beta=1.0,
                                samples=100_000, bins=24, seed=0)
    repq = validate_distribution("qpsk", n_antennas=2, beta=1.0,
                                 samples=100_000, bins=12, seed=0)
    elapsed = time.perf_counter() - t0
    ok = (rep.sufficient and rep.l1 < 0.02 and rep.ks_phase < 0.01
          and abs(rep.raw_power_mean - rep.raw_power_expected)
          <= 0.01 * rep.raw_power_expected
          and abs(rep.eq_power_mean - rep.eq_power_expected)
          <= 0.01 * rep.eq_power_expected
          and repq.l1 < 0.01 and elapsed < 30.0)
    _verdict(5, ok, f"16qam L1 {rep.l1:.6f} (<0.02), KS {rep.ks_phase:.6f} "
                    f"(<0.01), qpsk L1 {repq.l1:.6f} (<0.01), {elapsed:.1f} s")
    assert elapsed < 30.0
    assert rep.sufficient
    assert rep.l1 < 0.02, f"16qam mixture L1 {rep.l1:.6f} >= 0.02"
    assert rep.ks_phase < 0.01, f"phase KS {rep.ks_phase:.6f} >= 0.01"
    assert abs(rep.raw_power_mean - rep.raw_power_expected) <= \
        0.01 * rep.raw_power_expected
    assert abs(rep.eq_power_mean - rep.eq_power_expected) <= \
        0.01 * rep.eq_power_expected
    assert repq.l1 < 0.01, f"qpsk mixture L1 {repq.l1:.6f} >= 0.01"


def test_criterion_06_adaptive_modulation(ser_cache_dir):
    table = ModulationTable.analytic()
    alloc = allocate(table, [3.6, 1.998], backend=AnalyticBackend())
    names = [e.name for e in alloc.modulations]
    an_ok = (names == ["16qam", "qpsk"]
             and alloc.ser == pytest.approx((0.1, 0.001), abs=1e-12)
             and alloc.sinr[0] == pytest.approx(
                 sinr_from_ser_oracle(0.1, 4.0), rel=1e-9)
             and alloc.sinr[1] == pytest.approx(
                 sinr_from_ser_oracle(1e-3, 2.0), rel=1e-9))
    backend = EmpiricalBackend(cache_dir=str(ser_cache_dir),
                               symbols_per_point=1_000_000)
    emp = allocate(table, [3.6, 1.998], backend=backend)
    db16, dbq = emp.sinr_db
    t0 = time.perf_counter()
    warm = allocate(table, [3.6, 1.998],
                    backend=EmpiricalBackend(cache_dir=str(ser_cache_dir)))
    warm_s = time.perf_counter() - t0
    emp_ok = (abs(db16 - 13.0) <= 1.5 and abs(dbq - 10.0) <= 1.5
              and warm.sinr == emp.sinr and warm_s < 1.0)
    _verdict(6, an_ok and emp_ok,
             f"analytic exact, empirical 16qam {db16:.3f} dB (13+-1.5) / "
             f"qpsk {dbq:.3f} dB (10+-1.5), warm reload {warm_s:.2f} s")
    assert an_ok, f"analytic mapping wrong: {names}, ser {alloc.ser}"
    assert abs(db16 - 13.0) <= 1.5, f"empirical 16qam target {db16:.3f} dB"
    assert abs(dbq - 10.0) <= 1.5, f"empirical qpsk target {dbq:.3f} dB"
    assert warm.sinr == emp.sinr
    assert warm_s < 1.0, f"cache reload took {warm_s:.2f} s"


def test_criterion_07_solver_against_oracle():
    t0 = time.perf_counter()
    worst_rel = worst_kkt = worst_viol = 0.0
    for h, spec, symbols, zeta in seeded_instances(100):
        k = h.shape[0]
        targets = SinrTargets(zeta=zeta, sigma_z=1.0)
        sig, rep = solve_cipm(make_problem(h, [spec] * k, symbols, targets,
                                           "relaxed"))
        rows, rhs, is_eq = embed_constraints(h, [spec] * k, symbols, zeta,
                                             1.0, "relaxed")
        _, p_ref, _ = qp_oracle(rows, rhs, is_eq)
        worst_rel = max(worst_rel, abs(sig.power - p_ref) / max(p_ref, 1e-12))
        worst_kkt = max(worst_kkt, rep.stationarity_residual)
        worst_viol = max(worst_viol, rep.max_constraint_violation)
    elapsed = time.perf_counter() - t0
    ok = (worst_rel <= 1e-6 and worst_kkt < 1e-8 and worst_viol < 1e-9
          and elapsed < 60.0)
    _verdict(7, ok, f"100 instances: rel power {worst_rel:.3e} (<=1e-6), "
                    f"KKT {worst_kkt:.3e} (<1e-8), violation {worst_viol:.3e} "
                    f"(<1e-9), {elapsed:.1f} s")
    assert elapsed < 60.0
    assert worst_rel <= 1e-6
    assert worst_kkt < 1e-8
    assert worst_viol < 1e-9


def test_criterion_08_relaxation_gain_shrinks_with_order():
    gaps = {}
    for mod in ("qpsk", "8qam", "16qam"):
        base = FrameConfig(n_symbols=100, frames=80, n_antennas=4, k_users=4,
                           zeta_db=10.0, modulations=mod, seed=0)
        rel = run_frames(base)
        strict = run_frames(replace(base, mode="strict"))
        assert all(a.avg_power <= b.avg_power * (1 + 1e-9)
                   for a, b in zip(rel, strict)), \
            f"{mod}: a relaxed frame beat its strict twin"
        gaps[mod] = _dbw_mean(strict) - _dbw_mean(rel)
    ok = gaps["qpsk"] >= gaps["8qam"] >= gaps["16qam"] > 0
    _verdict(8, ok, "strict-relaxed gap qpsk "
                    f"{gaps['qpsk']:+.4f} >= 8qam {gaps['8qam']:+.4f} "
                    f">= 16qam {gaps['16qam']:+.4f} dB")
    assert gaps["qpsk"] >= gaps["8qam"] >= gaps["16qam"] > 0, f"gaps {gaps}"


def test_criterion_09_noiseless_detection_consistency():
    cfg = FrameConfig(n_antennas=2, k_users=2, modulations="16qam", seed=0)
    h = draw_channel(cfg, 0).entries
    spec = get_constellation("16qam")
    targets = cfg.targets()
    root = np.sqrt(targets.zeta) * targets.sigma_z
    misses = 0
    for mode in ("relaxed", "strict"):
        for combo in enumerate_combinations([16, 16]):
            sig, _ = solve_cipm(make_problem(h, [spec, spec], combo, targets,
                                             mode))
            rx = h @ sig.x
            for j in (0, 1):
                misses += int(detect(spec, rx[j] / root[j]) != combo[j])
    _verdict(9, misses == 0,
             f"512 noiseless detections over both modes, {misses} misses")
    assert misses == 0


def test_criterion_10_cache_bounds():
    cfgq = FrameConfig(n_symbols=100, modulations="qpsk", seed=0)
    rq = run_frame(cfgq, draw_channel(cfgq, 0), 0)
    cfg16 = FrameConfig(n_symbols=100, modulations="16qam", seed=0)
    r16 = run_frame(cfg16, draw_channel(cfg16, 0), 0)
    ok = (rq.cache_entries == 16
          and rq.cache_hits == 100 - 16
          and 0 < r16.cache_entries <= 100
          and r16.cache_hits == 100 - r16.cache_entries)
    _verdict(10, ok, f"qpsk frame: {rq.cache_entries} distinct solves "
                     f"(bound 16), 16qam frame: {r16.cache_entries} "
                     f"(bound 100)")
    assert rq.cache_entries == 16
    assert rq.cache_hits == 100 - 16
    assert 0 < r16.cache_entries <= 100
    assert r16.cache_hits == 100 - r16.cache_entries
