"""Tests for the frame-level Monte-Carlo engine."""

import json
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cipm import baselines, simulator, solver
from cipm.simulator import (
    MAX_ENUMERATION,
    PRECODERS,
    CombinationTable,
    FrameConfig,
    FrameResult,
    RegionPoint,
    _equal_probability_edges,
    _frame_rng,
    _run_jobs,
    aggregate,
    draw_channel,
    enumerate_combinations,
    fixed_channel_experiment,
    region_maps,
    run_frame,
    run_frames,
    run_sweep,
    validate_distribution,
    write_combination_csv,
    write_region_csv,
    write_sweep_csv,
)
from cipm.baselines import solve_multicast_bound, solve_multicast_stack, solve_ob
from cipm.channel import ChannelMatrix, FadingConfig, effective_channel, symbol_stats
from cipm.constellation import get_constellation
from cipm.linkadapt import ModulationTable
from cipm.solver import (InfeasibleConstraintsError, SolverError, make_problem,
                         solve_cipm, solve_cipm_stack)
from oracles import brentq_edges_oracle, validate_distribution_oracle


# ----------------------------------------------------- distinct combinations

def _slot_vectors(monkeypatch):
    """The list that gets the (N, Nt) slot vectors of each FrameResult the runner builds."""
    seen, result = [], simulator._result

    def spy(d, x, *rest):
        seen.append(x.copy())
        return result(d, x, *rest)

    monkeypatch.setattr(simulator, "_result", spy)
    return seen


def _slot_powers(x):
    return np.sum(np.abs(x) ** 2, axis=1)


def _frame_symbols(cfg, specs):
    """The symbol rows and multicast seed run_frame draws for frame 0."""
    rng = _frame_rng(cfg.seed, 0, 1)
    symbols = np.column_stack([rng.integers(0, s.order, size=cfg.n_symbols)
                               for s in specs])
    return symbols, int(rng.integers(0, 2 ** 31))


@pytest.mark.parametrize("precoder,mode,mods", [
    ("cipm", "relaxed", "16qam"),
    ("cipm", "strict", "16qam"),
    ("cipm", "relaxed", ("qpsk", "16qam")),
    ("multicast", "relaxed", "qpsk"),
])
def test_frame_slots_map_to_their_combination(precoder, mode, mods, monkeypatch):
    # bit-exact: every slot carries the batched solution of its own row; the
    # multicast bound is one stacked call on the frame's combinations, warm
    # started at their CIPM points, with the frame's one seed for every row
    cfg = FrameConfig(n_symbols=40, frames=1, precoder=precoder, mode=mode,
                      modulations=mods, zeta_db=8.0, seed=6,
                      multicast_restarts=1)
    ch, slots = draw_channel(cfg, 0), _slot_vectors(monkeypatch)
    r = run_frame(cfg, ch, 0)
    specs, targets = cfg.constellations(), cfg.targets()
    symbols, mc_seed = _frame_symbols(cfg, specs)
    combos, inverse = np.unique(symbols, axis=0, return_inverse=True)
    xs, _, _ = solve_cipm_stack(ch.entries, specs, combos, targets, mode)
    if precoder == "multicast":
        eff = np.stack([effective_channel(ch, specs, combo) for combo in combos])
        xs, _, errors = solve_multicast_stack(eff, targets, 1, mc_seed, xs)
        # every row's bound meets every user's target
        got = np.abs(np.einsum("ckn,cn->ck", eff, xs)) ** 2
        assert errors == {} and np.all(got >= targets.zeta * targets.sigma_z ** 2 - 1e-9)
    assert len(combos) < cfg.n_symbols
    assert r.cache_entries == len(combos)
    assert r.cache_hits == cfg.n_symbols - len(combos)
    (x,) = slots
    assert np.array_equal(x, xs[inverse.ravel()])
    assert r.avg_power == float(np.mean(_slot_powers(x)))


@pytest.mark.parametrize("precoder,mode,mods", [
    ("cipm", "relaxed", "16qam"),
    ("cipm", "strict", "16qam"),
    ("cipm", "relaxed", ("qpsk", "16qam")),
    ("multicast", "relaxed", "qpsk"),
    ("ob", "relaxed", ("qpsk", "16qam")),
])
def test_frame_slots_match_direct_per_slot_solves(precoder, mode, mods, monkeypatch):
    # the batched frame path against one scalar solve per slot; the two
    # arithmetic paths agree to the 1e-12 output contract, not bit for bit
    cfg = FrameConfig(n_symbols=40, frames=1, precoder=precoder, mode=mode,
                      modulations=mods, zeta_db=8.0, seed=6,
                      multicast_restarts=1)
    ch, slots = draw_channel(cfg, 0), _slot_vectors(monkeypatch)
    r = run_frame(cfg, ch, 0)
    specs, targets = cfg.constellations(), cfg.targets()
    symbols, mc_seed = _frame_symbols(cfg, specs)
    if precoder == "ob":
        w = solve_ob(ch.entries, targets).w
        x = [w.T @ np.array([s.points[i] for s, i in zip(specs, row)])
             for row in symbols]
        assert (r.cache_entries, r.cache_hits) == (1, 0)
    else:
        x = []
        for row in symbols:
            sig, _ = solve_cipm(make_problem(ch.entries, specs, row, targets,
                                             mode))
            if precoder == "multicast":
                eff = effective_channel(ch, specs, row)
                sig = solve_multicast_bound(eff, targets, restarts=1,
                                            seed=mc_seed, warm_start=sig.x)
            x.append(sig.x)
    (got,) = slots
    assert r.avg_power == float(np.mean(_slot_powers(got)))
    assert np.allclose(_slot_powers(got), _slot_powers(np.array(x)), rtol=1e-12, atol=0.0)


def test_frame_solver_error_names_a_replayable_symbol_row():
    # identical users: every combination with distinct symbols is
    # infeasible; the batched error names one such row, and a direct solve
    # of that row fails the same way
    h = np.array([[1.0 + 0.5j, 0.3 - 0.2j], [1.0 + 0.5j, 0.3 - 0.2j]])
    cfg = FrameConfig(modulations="qpsk", n_symbols=20)
    rows = []
    for call in (lambda: fixed_channel_experiment(h, cfg),
                 lambda: run_frame(cfg, ChannelMatrix(h), 0)):
        with pytest.raises(SolverError) as err:
            call()
        row = json.loads(re.search(r"combination (\[[0-9, ]*\])",
                                   str(err.value)).group(1))
        with pytest.raises(InfeasibleConstraintsError):
            solve_cipm(make_problem(h, cfg.constellations(), row,
                                    cfg.targets()))
        rows.append(row)
    assert rows[0] == [0, 1]     # the first distinct-symbol row enumerated


def test_cipm_stack_returns_each_failing_rows_own_error():
    # the twin users above: the stack raises for no row, and returns exactly the
    # distinct-symbol rows' errors, unprefixed, with nan in those rows and every
    # other row bit for bit a stack of the feasible rows alone
    h = np.array([[1.0 + 0.5j, 0.3 - 0.2j], [1.0 + 0.5j, 0.3 - 0.2j]])
    cfg = FrameConfig(modulations="qpsk")
    specs, targets = cfg.constellations(), cfg.targets()
    combos = enumerate_combinations([4, 4])
    x, power, errors = solve_cipm_stack(h, specs, combos, targets, cfg.mode)
    twins = combos[:, 0] == combos[:, 1]
    assert list(errors) == np.flatnonzero(~twins).tolist()
    for c, err in errors.items():
        assert type(err) is InfeasibleConstraintsError and "combination" not in str(err)
    assert np.isnan(x[~twins]).all() and np.isnan(power[~twins]).all()
    x_ok, power_ok, errors_ok = solve_cipm_stack(h, specs, combos[twins], targets, cfg.mode)
    assert errors_ok == {}
    assert x[twins].tobytes() == x_ok.tobytes() and power[twins].tobytes() == power_ok.tobytes()


def test_enumerate_combinations_order():
    got = enumerate_combinations([2, 3])
    assert got.tolist() == [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
    full = enumerate_combinations([4, 4])
    assert full.shape == (16, 2)
    assert full[0].tolist() == [0, 0] and full[-1].tolist() == [3, 3]
    # user 1 is the most significant digit
    assert full[4].tolist() == [1, 0]


# ------------------------------------------------------------------- configs

def test_frame_config_validation():
    for kw in ({"n_symbols": 0}, {"frames": 0}, {"k_users": 0},
               {"n_antennas": 0}, {"mode": "loose"}, {"precoder": "zf"},
               {"multicast_restarts": -1}):
        with pytest.raises(ValueError):
            FrameConfig(**kw)


def test_frame_config_conversions():
    cfg = FrameConfig(sigma_h2_db=3.0, sigma_z2_db=6.0)
    assert cfg.beta == pytest.approx(10.0 ** -0.3, rel=1e-12)
    assert cfg.sigma_z == pytest.approx(10.0 ** 0.3, rel=1e-12)
    for one_name in ("16qam", ("16qam",), ["16qam"]):     # one name serves every user
        assert FrameConfig(k_users=3, modulations=one_name).modulation_names() == ["16qam"] * 3
    cfg = FrameConfig(k_users=2, modulations=("qpsk", "8qam"), zeta_db=(4.0, 8.0))
    t = cfg.targets()
    assert t.zeta == pytest.approx([10.0 ** 0.4, 10.0 ** 0.8], rel=1e-12)
    with pytest.raises(ValueError):
        FrameConfig(k_users=3, modulations=("qpsk", "8qam")).modulation_names()
    with pytest.raises(ValueError):
        FrameConfig(k_users=3, zeta_db=(4.0, 8.0)).targets()


def test_draw_channel_streams():
    cfg = FrameConfig(n_antennas=3, k_users=2, seed=5)
    a = draw_channel(cfg, 0).entries
    b = draw_channel(cfg, 0).entries
    c = draw_channel(cfg, 1).entries
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # the channel stream ignores precoder and modulation settings
    from dataclasses import replace
    other = replace(cfg, precoder="ob", modulations="16qam", zeta_db=12.0)
    assert np.array_equal(draw_channel(other, 0).entries, a)


# -------------------------------------------------------------------- frames

def test_run_frame_deterministic(monkeypatch):
    cfg = FrameConfig(n_symbols=40, frames=1, seed=3)
    ch, slots = draw_channel(cfg, 0), _slot_vectors(monkeypatch)
    r1 = run_frame(cfg, ch, 0)
    r2 = run_frame(cfg, ch, 0)
    assert np.array_equal(slots[0], slots[1])
    assert r1 == r2
    assert r1.avg_power == float(np.mean(_slot_powers(slots[0])))
    assert r1.avg_power_dbw == pytest.approx(10 * np.log10(r1.avg_power), rel=1e-12)


def test_cache_accounting_inside_frame():
    cfg = FrameConfig(n_symbols=100, frames=1, modulations="qpsk", seed=0)
    r = run_frame(cfg, draw_channel(cfg, 0), 0)
    assert r.cache_entries <= 16
    assert r.cache_hits == cfg.n_symbols - r.cache_entries


def test_noiseless_frame_decodes_clean():
    cfg = FrameConfig(n_symbols=60, frames=1, noiseless=True,
                      modulations=("qpsk", "16qam"), zeta_db=8.0, seed=1)
    r = run_frame(cfg, draw_channel(cfg, 0), 0)
    assert r.ser == (0.0, 0.0)
    assert r.goodputs == (2.0, 4.0)
    assert r.eta == pytest.approx(6.0 / r.avg_power, rel=1e-12)


def test_ser_falls_with_target():
    low = FrameConfig(n_symbols=200, frames=3, zeta_db=4.0, seed=9)
    high = FrameConfig(n_symbols=200, frames=3, zeta_db=12.0, seed=9)
    ser_low = np.mean([np.mean(r.ser) for r in run_frames(low)])
    ser_high = np.mean([np.mean(r.ser) for r in run_frames(high)])
    assert ser_high < ser_low
    assert ser_high <= 0.005


def test_ob_frame_uses_one_beam_solve(monkeypatch):
    cfg = FrameConfig(n_symbols=50, frames=1, precoder="ob",
                      modulations="16qam", zeta_db=10.0, seed=2)
    slots = _slot_vectors(monkeypatch)
    r = run_frame(cfg, draw_channel(cfg, 0), 0)
    assert r.cache_entries == 1 and r.cache_hits == 0
    # symbol-dependent superposition: slot powers are not all equal
    assert np.std(_slot_powers(slots[0])) > 1e-6
    assert np.all(np.isfinite(r.ser))


def test_multicast_bound_below_cipm_on_same_frame(monkeypatch):
    cfg = FrameConfig(n_symbols=40, frames=1, seed=4, multicast_restarts=1)
    ch, slots = draw_channel(cfg, 0), _slot_vectors(monkeypatch)
    run_frame(cfg, ch, 0)
    mc = run_frame(replace(cfg, precoder="multicast"), ch, 0)
    # identical symbol stream, so the bound holds slot by slot
    assert np.all(_slot_powers(slots[1]) <= _slot_powers(slots[0]) + 1e-9)
    assert all(np.isnan(s) for s in mc.ser)
    assert np.isnan(mc.eta)


def test_run_frames_parallel_matches_serial():
    cfg = FrameConfig(n_symbols=30, frames=4, seed=6)
    serial = run_frames(cfg, threads=1)
    parallel = run_frames(cfg, threads=2)
    assert len(serial) == len(parallel) == 4
    assert parallel == serial       # every field bit for bit


# ------------------------------------------------------------ stacked runner

def _assert_same_result(got, want):
    """Bit-equal FrameResults (NaN equal to NaN, as for multicast rows)."""
    for a, b in ((got.avg_power, want.avg_power), (got.eta, want.eta),
                 *zip(got.ser + got.goodputs, want.ser + want.goodputs)):
        assert a == b or (np.isnan(a) and np.isnan(b)), (a, b)
    assert (got.cache_hits, got.cache_entries) == (want.cache_hits, want.cache_entries)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 31), mode=st.sampled_from(["relaxed", "strict"]),
       precoders=st.lists(st.sampled_from(PRECODERS), min_size=1, max_size=3, unique=True),
       restarts=st.integers(0, 2), frames=st.integers(1, 4), noiseless=st.booleans(),
       grid=st.lists(st.floats(0.0, 14.0), min_size=1, max_size=3))
def test_stacked_runner_matches_the_per_frame_oracle(data, seed, mode, precoders, restarts,
                                                     frames, noiseless, grid):
    # jobs of one or two shapes, interleaved, over 1-3 targets each: every
    # frame of every precoder is what the per-frame path gives it, bit for bit
    cfgs = []
    for _ in range(data.draw(st.integers(1, 2), label="shapes")):
        nt = data.draw(st.integers(1, 3), label="nt")
        k = data.draw(st.integers(1, nt), label="k")
        mods = data.draw(st.lists(st.sampled_from(["qpsk", "8qam", "16qam"]), min_size=k,
                                  max_size=k), label="modulations")
        cfgs += [FrameConfig(n_symbols=data.draw(st.integers(1, 12), label="symbols"),
                             frames=frames, n_antennas=nt, k_users=k, zeta_db=z,
                             modulations=tuple(mods), mode=mode, seed=seed + g,
                             noiseless=noiseless, multicast_restarts=restarts)
                 for g, z in enumerate(grid)]
    jobs = [(cfg, f, None) for f in range(frames) for cfg in cfgs]
    try:
        want = [{p: oracles.run_frame(replace(cfg, precoder=p), draw_channel(cfg, f), f)
                 for p in precoders} for cfg, f, _ in jobs]
    except SolverError:
        with pytest.raises(SolverError):
            _run_jobs(jobs, tuple(precoders))
        return
    got = _run_jobs(jobs, tuple(precoders))
    for g, w in zip(got, want):
        assert sorted(g) == sorted(precoders)
        for p in precoders:
            _assert_same_result(g[p], w[p])


def test_sweep_rows_match_the_per_frame_oracle():
    # the multicast rows start at restarts drawn per frame, from each frame's seed
    cfg = FrameConfig(n_symbols=30, frames=3, k_users=3, n_antennas=3, modulations="8qam",
                      multicast_restarts=2, seed=7)
    got = run_sweep(cfg, [10.0, 14.0], precoders=PRECODERS)
    want = oracles.run_sweep(cfg, [10.0, 14.0], precoders=PRECODERS)
    assert [repr(r) for r in got] == [repr(r) for r in want]


@pytest.mark.parametrize("batch_slots", [1, simulator._BATCH_SLOTS],
                         ids=["job_batches", "default_batches"])
def test_sweep_csv_is_the_same_on_two_workers(tmp_path, monkeypatch, batch_slots):
    # one job per batch, or every job in one batch per worker: the per-frame oracle's bytes
    monkeypatch.setattr(simulator, "_BATCH_SLOTS", batch_slots)
    cfg = FrameConfig(n_symbols=20, frames=3, seed=2, multicast_restarts=1)
    want = tmp_path / "want.csv"
    write_sweep_csv(oracles.run_sweep(cfg, [4.0, 10.0], precoders=PRECODERS), want)
    for threads in (1, 2):
        rows = run_sweep(cfg, [4.0, 10.0], axis="sinr", precoders=PRECODERS, threads=threads)
        write_sweep_csv(rows, tmp_path / f"{threads}.csv")
        assert (tmp_path / f"{threads}.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("batch_slots", [1, simulator._BATCH_SLOTS],
                         ids=["job_batches", "default_batches"])
def test_size_sweep_csv_is_the_same_on_two_workers(tmp_path, monkeypatch, batch_slots):
    # OB frames of sizes 2, 3 and 4 share one lock-step stack per batch: the rows
    # are the per-frame oracle's on one worker and on two, one job per batch or all
    monkeypatch.setattr(simulator, "_BATCH_SLOTS", batch_slots)
    cfg = FrameConfig(n_symbols=20, frames=3, seed=5, modulations="16qam", zeta_db=12.0)
    want = oracles.run_sweep(cfg, [2, 3, 4], axis="size", precoders=("cipm", "ob"))
    for threads in (1, 2):
        rows = run_sweep(cfg, [2, 3, 4], axis="size", precoders=("cipm", "ob"), threads=threads)
        assert [repr(r) for r in rows] == [repr(r) for r in want]
        write_sweep_csv(rows, tmp_path / f"{threads}.csv")
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()


@pytest.mark.parametrize("threads", [0, -1])
def test_runner_needs_at_least_one_thread(threads):
    # -1 once read the jobs back to front, and 0 divided by zero
    cfg = FrameConfig(n_symbols=20, frames=2, seed=1)
    with pytest.raises(ValueError, match=f"^need threads >= 1, got {threads}$"):
        run_sweep(cfg, [4.0, 12.0], precoders=("cipm",), threads=threads)
    with pytest.raises(ValueError, match=f"^need threads >= 1, got {threads}$"):
        run_frames(cfg, threads=threads)


def test_sweep_memory_is_bounded_by_a_batch(monkeypatch):
    # batches of five 2000-slot frames: 8x the frames keep 8x the small FrameResults,
    # not 8x the slots' draws and vectors
    monkeypatch.setattr(simulator, "_BATCH_SLOTS", 10_000)
    run_sweep(FrameConfig(n_symbols=10, frames=1), [4.0])     # lazy imports, untraced
    peaks = []
    for frames in (5, 40):
        tracemalloc.start()
        try:
            run_sweep(FrameConfig(n_symbols=2000, frames=frames, seed=0), [4.0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_infeasible_ob_frame_names_its_frame():
    # K=3 on Nt=2: 0 dB targets can be met, 4 dB ones cannot; the stacked OB
    # fails, and the error is the first failing frame's own, in the words of
    # the one-frame OB oracle
    cfg = FrameConfig(n_symbols=10, frames=2, n_antennas=2, k_users=3, seed=1)
    with pytest.raises(SolverError) as want:
        oracles.run_sweep(cfg, [0.0, 4.0, 0.0], precoders=("ob",))
    with pytest.raises(SolverError) as got:
        run_sweep(cfg, [0.0, 4.0, 0.0], precoders=("ob",))
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("frame 0: uplink power iteration did not converge")
    cfg = replace(cfg, zeta_db=4.0, precoder="ob")
    with pytest.raises(SolverError) as want:
        oracles.run_frames(cfg)
    with pytest.raises(SolverError) as got:
        run_frames(cfg)
    assert str(got.value) == str(want.value)


def test_infeasible_slot_names_its_frame_and_combination():
    # K=3 on Nt=2: the stacked solve fails, and the error is the first
    # failing frame's own, as the per-frame path raises it
    cfg = FrameConfig(n_symbols=20, frames=4, n_antennas=2, k_users=3, seed=0)
    with pytest.raises(SolverError) as want:
        oracles.run_frames(cfg)
    with pytest.raises(SolverError) as got:
        run_frames(cfg)
    assert str(got.value) == str(want.value)
    assert re.match(r"frame \d+: combination \[\d+, \d+, \d+\]: infeasible", str(got.value))


def test_pooled_run_names_the_same_failing_frame():
    # workers return their jobs' outcomes and the parent raises the first failing job, so
    # the frame named does not depend on how the jobs were split among processes
    cfg = FrameConfig(n_symbols=6, frames=6, n_antennas=2, k_users=3, seed=1, zeta_db=2.0)
    with pytest.raises(SolverError) as want:
        oracles.run_frames(cfg)
    assert str(want.value).startswith("frame 1: combination [2, 2, 1]: infeasible")
    for threads in (1, 2, 3):
        with pytest.raises(SolverError) as got:
            run_frames(cfg, threads=threads)
        assert str(got.value) == str(want.value), threads


def test_failing_runs_solve_each_job_once(monkeypatch):
    # one pass finds the failing job: the QP core sees each frame's combinations once,
    # and an infeasible OB run iterates its uplink loop once
    rows, uplinks, ldp, uplink = [], [], solver.min_norm_ldp, baselines._uplink_powers

    def counting_ldp(a, b, is_eq, work=None):
        rows.append(len(a))
        return ldp(a, b, is_eq, work)

    def counting_uplink(frames):
        uplinks.append(len(frames))
        return uplink(frames)

    monkeypatch.setattr(solver, "min_norm_ldp", counting_ldp)
    monkeypatch.setattr(baselines, "_uplink_powers", counting_uplink)
    cfg = FrameConfig(n_symbols=6, frames=6, n_antennas=2, k_users=3, seed=1, zeta_db=2.0)
    with pytest.raises(SolverError, match="frame 1: combination"):
        run_frames(cfg)
    distinct = 0
    for f in range(cfg.frames):
        rng = _frame_rng(cfg.seed, f, 1)
        symbols = np.column_stack([rng.integers(0, 4, size=cfg.n_symbols) for _ in range(3)])
        distinct += len(np.unique(symbols, axis=0))
    assert rows == [distinct]
    with pytest.raises(SolverError, match="frame 0: uplink power iteration did not converge"):
        run_frames(replace(cfg, n_symbols=10, frames=2, zeta_db=6.0, precoder="ob"))
    assert uplinks == [2]


def test_failing_multicast_row_names_its_frame_and_combination(monkeypatch):
    # a multicast row whose QP fails: the frame's error names the row's combination
    cfg = FrameConfig(n_symbols=20, frames=2, seed=4, precoder="multicast", multicast_restarts=0)
    ldp = baselines.min_norm_ldp

    def failing(rows, rhs, is_eq, work=None):
        u, nu, errors = ldp(rows, rhs, is_eq, work)
        if work is None:                # round 1: frame 1's last combination comes last
            u[-1] = nu[-1] = np.nan
            errors[len(rows) - 1] = solver.ActiveSetLimitError("NNLS stopped: test")
        return u, nu, errors

    monkeypatch.setattr(baselines, "min_norm_ldp", failing)
    rng = _frame_rng(cfg.seed, 1, 1)
    symbols = np.column_stack([rng.integers(0, 4, size=cfg.n_symbols) for _ in range(2)])
    last = np.unique(symbols, axis=0)[-1].tolist()
    with pytest.raises(SolverError) as err:
        run_frames(cfg)
    assert str(err.value) == f"frame 1: combination {last}: NNLS stopped: test"


def test_ob_run_of_infeasible_frames_raises_with_no_warning():
    # K=3 on Nt=2 at 6 dB: q overflows on its way to the iteration cap, which the
    # one-frame oracle reports with numpy warnings; the runner's error is the same text
    cfg = FrameConfig(n_symbols=10, frames=2, n_antennas=2, k_users=3, seed=1, zeta_db=6.0,
                      precoder="ob")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SolverError) as want:
            oracles.run_frames(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError) as got:
            run_frames(cfg)
    assert str(got.value) == str(want.value) == (
        "frame 0: uplink power iteration did not converge in 10000 iterations"
        " (targets may be infeasible)")


# -------------------------------------------------------------------- sweeps

def _fake_result(power, ser):
    gp = tuple(2.0 * (1.0 - s) for s in ser)
    return FrameResult(avg_power=power, ser=ser, goodputs=gp, eta=sum(gp) / power,
                       cache_hits=0, cache_entries=1)


def test_aggregate_db_mean_convention():
    rows = [_fake_result(1.0, (0.1, 0.0)), _fake_result(4.0, (0.0, 0.2))]
    agg = aggregate(rows, "sinr", 8.0, "cipm")
    assert agg.avg_power_watts == pytest.approx(2.5, rel=1e-12)
    # dB average of 0 dBW and ~6.02 dBW, not 10*log10(2.5)
    assert agg.avg_power_dbw == pytest.approx(5.0 * np.log10(4.0), rel=1e-12)
    assert agg.ser == pytest.approx((0.05, 0.1), abs=1e-15)
    assert agg.eta == pytest.approx((1.9 + 1.8) / 2.5, rel=1e-12)
    assert (agg.axis, agg.value, agg.precoder, agg.frames) == ("sinr", 8.0, "cipm", 2)


def test_run_sweep_rows_and_csv(tmp_path):
    cfg = FrameConfig(n_symbols=25, frames=2, seed=0)
    rows = run_sweep(cfg, [4.0, 8.0], axis="sinr", precoders=("cipm", "ob"))
    assert [(r.value, r.precoder) for r in rows] == \
        [(4.0, "cipm"), (4.0, "ob"), (8.0, "cipm"), (8.0, "ob")]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == ("target_sinr_db,precoder,avg_power_dbw,avg_power_watts,"
                        "ser_user1,ser_user2,goodput_user1,goodput_user2,eta")
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 4.0 and first[1] == "cipm"
    assert float(first[2]) == rows[0].avg_power_dbw  # repr round trip


def test_sweep_axis_columns(tmp_path):
    # the header write_sweep_csv writes names the axis in its first column
    for axis, column in [("sinr", "target_sinr_db"), ("size", "system_size"),
                         ("users", "k_users")]:
        rows = [aggregate([_fake_result(1.0, (0.0, 0.1))], axis, 2.0, "cipm")]
        write_sweep_csv(rows, tmp_path / "sweep.csv")
        header = (tmp_path / "sweep.csv").read_text(encoding="ascii").splitlines()[0]
        assert header == (f"{column},precoder,avg_power_dbw,avg_power_watts,"
                          "ser_user1,ser_user2,goodput_user1,goodput_user2,eta"), axis


def test_run_sweep_size_axis_reshapes():
    cfg = FrameConfig(n_symbols=10, frames=1, seed=0)
    rows = run_sweep(cfg, [2, 3], axis="size", precoders=("cipm",))
    assert [r.value for r in rows] == [2.0, 3.0]
    with pytest.raises(ValueError):
        run_sweep(cfg, [2], axis="taps")


@pytest.mark.parametrize("axis", ["size", "users"])
@pytest.mark.parametrize("value", [2.7, float("nan"), float("inf")])
def test_count_axes_reject_a_grid_value_that_is_not_whole(axis, value):
    # a truncated count would solve K = 2 and label the row 2.7
    with pytest.raises(ValueError, match=f"^the {axis} axis takes whole numbers, got {value:g}$"):
        run_sweep(FrameConfig(frames=1, n_symbols=5), [2.0, value], axis=axis,
                  precoders=("cipm",))


# ------------------------------------------------------------- fixed channel

def test_single_user_gap_is_zero(tmp_path):
    table = fixed_channel_experiment([[1.3 + 0.7j]], FrameConfig())
    assert table.symbols.shape == (4, 1)
    assert np.allclose(table.gap_db, 0.0, atol=1e-9)
    assert table.average_gap_db == pytest.approx(0.0, abs=1e-9)
    path = tmp_path / "combos.csv"
    write_combination_csv(table, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "combination,symbol_user1,cipm_power_dbw,ob_power_dbw,gap_db"
    assert len(lines) == 5


def test_ob_enumeration_mean_matches_long_term():
    rng = np.random.default_rng(12)
    h = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    for mods in ("qpsk", "16qam"):
        table = fixed_channel_experiment(h, FrameConfig(modulations=mods,
                                                        zeta_db=8.0))
        # uniform unit-power symbols make the cross terms vanish
        assert np.mean(table.ob_power) == pytest.approx(table.ob_long_term,
                                                        abs=1e-12)


def test_enumeration_overflow_guard():
    h = np.eye(3, dtype=complex)
    cfg = FrameConfig(k_users=3, n_antennas=3, modulations="64qam")
    with pytest.raises(ValueError, match=str(MAX_ENUMERATION)):
        fixed_channel_experiment(h, cfg)


def test_enumeration_limit_checked_before_enumerating(monkeypatch):
    # 64^6 combinations would take terabytes: the limit must fire before any allocation
    def enumerate_nothing(orders):
        raise AssertionError(f"enumerated {orders}")

    monkeypatch.setattr(simulator, "enumerate_combinations", enumerate_nothing)
    with pytest.raises(ValueError, match=f"{64 ** 6} combinations exceeds the {MAX_ENUMERATION}"):
        fixed_channel_experiment(np.eye(6, dtype=complex), FrameConfig(modulations="64qam"))


# --------------------------------------------------------------- region maps

def test_region_maps_selects_modulations(tmp_path):
    table = ModulationTable.analytic()
    h = np.array([[0.3 + 1.2j, -0.5 + 0.4j], [1.1 - 0.2j, 0.6 + 0.9j]])
    pts = region_maps(h, [4.0, 10.0], table)
    assert len(pts) == 4
    by_grid = {(p.zeta1_db, p.zeta2_db): p for p in pts}
    assert by_grid[(4.0, 4.0)].modulation1 == "qpsk"       # below the ladder
    assert by_grid[(4.0, 10.0)].modulation2 == "16qam"
    assert by_grid[(10.0, 10.0)].modulation1 == "16qam"
    assert by_grid[(10.0, 10.0)].avg_power_dbw > by_grid[(4.0, 4.0)].avg_power_dbw
    assert all(p.eta > 0 for p in pts)
    path = tmp_path / "regions.csv"
    write_region_csv(pts, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == "zeta1_db,zeta2_db,modulation1,modulation2,avg_power_dbw,eta"
    assert len(lines) == 5
    assert lines[1].split(",")[2] == "qpsk"


@pytest.mark.parametrize("sigma_z2_db,mode", [(0.0, "relaxed"), (1.3, "relaxed"),
                                               (-2.0, "strict")])
def test_region_point_power_is_its_combination_table_mean(sigma_z2_db, mode):
    # 4 dB lies below the analytic ladder (qpsk by default), 9 and 15 dB pick 8qam and 64qam
    h = np.array([[0.3 + 1.2j, -0.5 + 0.4j], [1.1 - 0.2j, 0.6 + 0.9j]])
    pts = region_maps(h, [4.0, 9.0, 15.0], ModulationTable.analytic(),
                      FrameConfig(sigma_z2_db=sigma_z2_db, mode=mode))
    assert {p.modulation1 for p in pts} == {"qpsk", "8qam", "64qam"}
    for p in pts:
        cfg = FrameConfig(zeta_db=(p.zeta1_db, p.zeta2_db), sigma_z2_db=sigma_z2_db,
                          modulations=(p.modulation1, p.modulation2), mode=mode)
        table = fixed_channel_experiment(h, cfg)
        assert p.avg_power_dbw == 10.0 * np.log10(np.mean(table.cipm_power))


def test_region_maps_set_targets_modulations_and_shape_per_point():
    # only cfg's noise and mode reach a region map: the grid sets each point's
    # targets and modulations, and the channel its shape
    h = np.array([[0.3 + 1.2j, -0.5 + 0.4j], [1.1 - 0.2j, 0.6 + 0.9j]])
    cfg = FrameConfig(n_symbols=7, frames=3, n_antennas=5, k_users=4, zeta_db=20.0,
                      modulations="64qam", precoder="ob", seed=9)
    table = ModulationTable.analytic()
    assert region_maps(h, [4.0, 12.0], table, cfg) == region_maps(h, [4.0, 12.0], table)


def test_region_maps_need_two_users():
    with pytest.raises(ValueError):
        region_maps(np.ones((3, 2), dtype=complex), [4.0],
                    ModulationTable.analytic())


@pytest.mark.parametrize("mode", ["loose", "Relaxed"])
def test_region_maps_reject_unknown_mode(mode):
    h = np.array([[0.3 + 1.2j, -0.5 + 0.4j], [1.1 - 0.2j, 0.6 + 0.9j]])
    with pytest.raises(ValueError, match="mode"):
        region_maps(h, [4.0], ModulationTable.analytic(), FrameConfig(mode=mode))


# -------------------------------------------------------------- distribution

def test_validate_distribution_quick():
    rep = validate_distribution("16qam", samples=3000, bins=12, seed=0)
    assert rep.sufficient
    assert rep.l1 < 0.2
    assert rep.ks_phase < 0.05
    assert rep.raw_power_mean == pytest.approx(rep.raw_power_expected, rel=0.1)
    assert rep.eq_power_mean == pytest.approx(rep.eq_power_expected, rel=0.25)
    small = validate_distribution("16qam", samples=500, bins=12, seed=0)
    assert not small.sufficient


@pytest.mark.parametrize("name", ["qpsk", "16qam"])
@pytest.mark.parametrize("nt", [1, 2, 3, 4])
@pytest.mark.parametrize("beta", [0.25, 1.0, 4.0])
def test_distribution_fit_matches_brentq_oracle(name, nt, beta):
    bins = 12 if name == "qpsk" else 24
    cfg, stats = FadingConfig(beta, nt, 1), symbol_stats(get_constellation(name))
    for hi in (20.0 * nt / beta + 10.0, 400.0 * nt / beta):
        got = _equal_probability_edges(cfg, stats, bins, hi)
        want = brentq_edges_oracle(cfg, stats, bins, hi)
        assert got[0] == 0.0 and got[-1] == np.inf and len(got) == bins + 1
        assert np.max(np.abs(got[1:-1] - want[1:-1])) <= 1e-12
    for seed in (0, 1, 2):
        rep = validate_distribution(name, nt, beta, samples=4000, bins=bins, seed=seed)
        l1, ks, curves = validate_distribution_oracle(name, nt, beta, 4000, bins, seed)
        assert rep.l1 == l1
        assert abs(rep.ks_phase - ks) <= 1e-15
        for a, b in zip(rep.curves, curves):
            assert np.array_equal(a, b)


def test_distribution_edges_end_at_large_scales():
    # edges near 1e5 are spaced wider than 1e-12: the relative term ends the bisection
    cfg, stats = FadingConfig(1e-4, 4, 1), symbol_stats(get_constellation("64qam"))
    got = _equal_probability_edges(cfg, stats, 24, 2e6)
    assert np.all(np.diff(got) > 0)
    assert validate_distribution("64qam", 4, 1e-4, samples=3000, seed=0).sufficient
    assert _equal_probability_edges(cfg, stats, 1, 10.0).tolist() == [0.0, np.inf]


@pytest.mark.parametrize("kw", [{"samples": 0}, {"samples": -3}, {"bins": 0}])
def test_validate_distribution_rejects_bad_counts(kw):
    with pytest.raises(ValueError, match=f"{next(iter(kw))}={next(iter(kw.values()))}"):
        validate_distribution("16qam", **kw)
