import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.optimize
from scipy.optimize import linprog

import oracles
from cipm import baselines, solver
from cipm.channel import ChannelMatrix, effective_channel
from cipm.constellation import QAM_ORDERS, detect, get_constellation
from cipm.simulator import FrameConfig, draw_channel, run_frame
from cipm.solver import (ActiveSetLimitError, InfeasibleConstraintsError,
                         SinrTargets, SolverError, _assemble, _polish, _row_labels,
                         kkt_residual, make_problem, min_norm_ldp,
                         solve_cipm, solve_cipm_stack, solve_strict_equivalent)
from oracles import embed_constraints, min_norm_qp, seeded_instances, solve_reference

ORACLE_MAX_ITER = 300_000    # oracles.qp_oracle's iteration cap


def _random_instance(seed, k=2, nt=2, name="16qam", zeta_db=8.0):
    rng = np.random.default_rng(seed)
    spec = get_constellation(name)
    h = (rng.standard_normal((k, nt)) + 1j * rng.standard_normal((k, nt))) / np.sqrt(2)
    symbols = [int(rng.integers(0, spec.order)) for _ in range(k)]
    targets = SinrTargets(zeta=np.full(k, 10.0 ** (zeta_db / 10.0)), sigma_z=1.0)
    return h, spec, symbols, targets


def test_sinr_targets_validation():
    with pytest.raises(ValueError):
        SinrTargets(zeta=[1.0, -2.0], sigma_z=1.0)
    with pytest.raises(ValueError):
        SinrTargets(zeta=[1.0], sigma_z=0.0)
    for zeta, sigma_z in (([np.nan], 1.0), ([np.inf], 1.0), ([1.0], np.nan), ([1.0], np.inf)):
        with pytest.raises(ValueError, match="finite and positive"):
            SinrTargets(zeta=zeta, sigma_z=sigma_z)
    t = SinrTargets(zeta=2.5, sigma_z=1.0)
    assert t.zeta.shape == (1,)


def test_make_problem_scales_rhs_by_target():
    h, spec, _, _ = _random_instance(0, k=1, nt=1, name="qpsk")
    zeta = np.array([4.0])
    targets = SinrTargets(zeta=zeta, sigma_z=3.0)
    prob = make_problem(h, [spec], [3], targets, "relaxed")
    s = np.sqrt(4.0) * 3.0
    assert prob.flips * prob.rhs == pytest.approx(
        [s * spec.points[3].real, s * spec.points[3].imag], rel=1e-15)
    assert not prob.is_eq.any()  # every qpsk point is a corner


def test_make_problem_validates_lengths():
    h, spec, symbols, targets = _random_instance(1, k=2)
    with pytest.raises(ValueError):
        make_problem(h, [spec], symbols, targets)
    with pytest.raises(ValueError):
        make_problem(h, [spec, spec], symbols[:1], targets)


def test_make_problem_accepts_channel_matrix_wrapper():
    h, spec, symbols, targets = _random_instance(2, k=2)
    a = make_problem(h, [spec, spec], symbols, targets)
    b = make_problem(ChannelMatrix(h), [spec, spec], symbols, targets)
    assert np.array_equal(a.channel, b.channel)


def test_single_user_power_closed_form():
    # one user: the cheapest point of any decision region is the nominal
    # point itself, so power = zeta * sigma^2 * |d|^2 / ||h||^2
    h, spec, _, _ = _random_instance(3, k=1, nt=3)
    zeta, sigma = 6.0, 1.5
    targets = SinrTargets(zeta=np.array([zeta]), sigma_z=sigma)
    for idx in range(spec.order):
        prob = make_problem(h, [spec], [idx], targets, "relaxed")
        sig, _ = solve_cipm(prob)
        expected = zeta * sigma ** 2 * abs(spec.points[idx]) ** 2 / np.sum(np.abs(h) ** 2)
        assert sig.power == pytest.approx(expected, rel=1e-12)


def test_power_matches_projected_gradient_oracle():
    for h, spec, symbols, zeta in seeded_instances(40):
        k = h.shape[0]
        targets = SinrTargets(zeta=zeta, sigma_z=1.0)
        prob = make_problem(h, [spec] * k, symbols, targets, "relaxed")
        sig, _ = solve_cipm(prob)
        _, p_ref, _ = solve_reference(h, [spec] * k, symbols, zeta, 1.0, "relaxed")
        assert sig.power == pytest.approx(p_ref, rel=1e-8, abs=1e-12)


def test_kkt_report_certifies_optimality():
    h, spec, symbols, targets = _random_instance(4, k=3, nt=3)
    prob = make_problem(h, [spec] * 3, symbols, targets, "relaxed")
    sig, rep = solve_cipm(prob)
    assert rep.stationarity_residual < 1e-8
    assert rep.max_constraint_violation < 1e-9
    assert sig.power == pytest.approx(np.sum(np.abs(sig.x) ** 2), rel=1e-12)


def test_relaxed_never_beats_strict_and_sometimes_wins():
    strictly_better = 0
    for i in range(30):
        h, spec, symbols, targets = _random_instance(100 + i, k=2, nt=2)
        relaxed = make_problem(h, [spec, spec], symbols, targets, "relaxed")
        strict = make_problem(h, [spec, spec], symbols, targets, "strict")
        p_rel = solve_cipm(relaxed)[0].power
        p_str = solve_cipm(strict)[0].power
        assert p_rel <= p_str * (1 + 1e-10)
        if p_rel < p_str * (1 - 1e-6):
            strictly_better += 1
    assert strictly_better > 0


def test_strict_full_load_qpsk_is_channel_inversion():
    h, spec, symbols, targets = _random_instance(5, k=2, nt=2, name="qpsk")
    prob = make_problem(h, [spec, spec], symbols, targets, "strict")
    sig, _ = solve_cipm(prob)
    y = np.array([np.sqrt(targets.zeta[j]) * targets.sigma_z * spec.points[symbols[j]]
                  for j in range(2)])
    x_zf = np.linalg.solve(h, y)
    assert np.allclose(sig.x, x_zf, atol=1e-9)
    assert sig.power == pytest.approx(np.sum(np.abs(x_zf) ** 2), rel=1e-10)


def test_power_scales_linearly_with_targets():
    h, spec, symbols, _ = _random_instance(6, k=2, nt=3)
    c = 7.3
    for mode in ("relaxed", "strict"):
        t1 = SinrTargets(zeta=np.array([2.0, 5.0]), sigma_z=1.0)
        t2 = SinrTargets(zeta=c * np.array([2.0, 5.0]), sigma_z=1.0)
        p1 = solve_cipm(make_problem(h, [spec, spec], symbols, t1, mode))[0].power
        p2 = solve_cipm(make_problem(h, [spec, spec], symbols, t2, mode))[0].power
        assert p2 == pytest.approx(c * p1, rel=1e-10)


def test_strict_equivalent_channel_reformulation_matches():
    for i in range(10):
        h, spec, symbols, targets = _random_instance(200 + i, k=2, nt=3,
                                                     name="8qam")
        prob = make_problem(h, [spec, spec], symbols, targets, "strict")
        direct = solve_cipm(prob)[0].power
        equiv = solve_strict_equivalent(h, [spec, spec], symbols, targets)[0].power
        assert equiv == pytest.approx(direct, rel=1e-9)


def _assert_farkas(z, rows, rhs, is_eq):
    """z certifies that no u has rows u == rhs on is_eq rows and >= on the rest.

    rows.T z ~ 0 (relative to the rows-to-rhs scale of the problem),
    rhs @ z == 1 and z >= 0 on inequality rows: then 1 = rhs @ z <=
    (rows u) @ z = 0 for any feasible u, a contradiction. rhs @ z == 1 holds up
    to the rounding of its terms, 1e-12 |rhs| @ |z|: its sum can cancel.
    """
    assert abs(rhs @ z - 1.0) <= 1e-12 * (np.abs(rhs) @ np.abs(z))
    assert np.all(z[~is_eq] >= 0.0)
    assert np.linalg.norm(rows.T @ z) <= 1e-9 * np.abs(rows).max() / np.abs(rhs).max()


def _assert_lone_failures(errors, u, oracle, rows, rhs, is_eq, work=None):
    """The core's per-problem errors are the errors oracle raises on each problem alone:
    the same type, message and Farkas certificate, with nan in the problem's row of u."""
    for c in range(len(rows)):
        try:
            oracle(rows[c:c + 1], rhs[c:c + 1], is_eq[c:c + 1], None,
                   *(() if work is None else (work[c:c + 1],)))
        except SolverError as ref:
            assert (type(errors[c]), str(errors[c])) == (type(ref), str(ref)), c
            assert np.isnan(u[c]).all()
            if isinstance(ref, InfeasibleConstraintsError):
                assert np.array_equal(errors[c].farkas, ref.farkas), c
            continue
        assert c not in errors, c


def test_conflicting_users_raise_infeasible():
    # identical rows, opposite corner symbols: no x satisfies both regions
    h = np.array([[1.0 + 0.5j, 0.3 - 0.2j],
                  [1.0 + 0.5j, 0.3 - 0.2j]])
    spec = get_constellation("qpsk")
    targets = SinrTargets(zeta=np.array([4.0, 4.0]), sigma_z=1.0)
    prob = make_problem(h, [spec, spec], [0, 3], targets, "relaxed")
    with pytest.raises(InfeasibleConstraintsError) as err:
        solve_cipm(prob)
    # the conflicting rows are the support of the NNLS Farkas certificate
    z = err.value.farkas
    _assert_farkas(z, prob.rows, prob.rhs, prob.is_eq)
    assert err.value.conflicts == tuple(_row_labels(4)[i] for i in np.flatnonzero(z))
    assert "user" in str(err.value)


def test_iteration_budget_error_is_raised_when_capped(monkeypatch):
    # NNLS reports an exhausted iteration budget with a RuntimeError; the
    # core turns it into the dedicated error, which the stack returns in its row
    def capped(a, b):
        raise RuntimeError("Maximum number of iterations reached.")

    h, spec, _, targets = _random_instance(14, k=2, nt=2)
    h = np.stack([h, h[[0, 0]]])     # row 1's users are twins: [3, 7] asks one point for two
    combos = np.array([[0, 1], [3, 7]])
    # no active-set step certifies an infeasible problem, so [3, 7] reaches
    # NNLS, alone or in a stack
    with pytest.raises(InfeasibleConstraintsError):
        solve_cipm(make_problem(h[1], [spec, spec], combos[1], targets))
    monkeypatch.setattr(scipy.optimize, "nnls", capped)     # _ldp_nnls imports it per call
    x, power, errors = solve_cipm_stack(h, [spec, spec], combos, targets, "relaxed")
    assert list(errors) == [1] and type(errors[1]) is ActiveSetLimitError
    assert str(errors[1]).startswith("NNLS stopped: Maximum number of iterations")
    assert np.isnan(x[1]).all() and np.isnan(power[1])
    with pytest.raises(ActiveSetLimitError, match="Maximum number of iterations"):
        solve_cipm(make_problem(h[1], [spec, spec], combos[1], targets))
    # the feasible row is certified without NNLS, bit for bit its lone solve, power included
    sig, _ = solve_cipm(make_problem(h[0], [spec, spec], combos[0], targets))
    assert x[0].tobytes() == sig.x.tobytes() and power[0] == sig.power


def test_solver_is_deterministic():
    h, spec, symbols, targets = _random_instance(8, k=3, nt=3)
    prob = make_problem(h, [spec] * 3, symbols, targets, "relaxed")
    a = solve_cipm(prob)[0]
    b = solve_cipm(prob)[0]
    assert np.array_equal(a.x, b.x)
    assert a.power == b.power


def test_relaxed_outer_symbols_exploit_interference():
    # two users on strongly aligned channels, both asked for outermost
    # points: the relaxed solve rides the shared direction and lands
    # strictly below the strict solve
    h = np.array([[1.0 + 0.2j, 0.8 - 0.1j],
                  [0.9 + 0.3j, 0.85 + 0.0j]])
    spec = get_constellation("16qam")
    outer = np.flatnonzero(spec.free.all(axis=1))
    symbols = [outer[3], outer[3]]
    targets = SinrTargets(zeta=np.array([10.0, 10.0]), sigma_z=1.0)
    p_rel = solve_cipm(make_problem(h, [spec] * 2, symbols, targets, "relaxed"))[0].power
    p_str = solve_cipm(make_problem(h, [spec] * 2, symbols, targets, "strict"))[0].power
    assert p_rel < 0.9 * p_str


def _assert_matches_oracle(prob, h, specs, symbols, targets, mode):
    """make_problem's system equals the oracle's; flips undo its sign normalization."""
    for got, want in zip((prob.rows, prob.rhs, prob.is_eq),
                         embed_constraints(h, specs, symbols, targets.zeta,
                                           targets.sigma_z, mode)):
        assert np.array_equal(got, want)
    points = np.array([spec.points[sym] for spec, sym in zip(specs, symbols)])
    s = np.sqrt(targets.zeta) * targets.sigma_z
    assert np.array_equal(prob.flips * prob.rhs,
                          np.column_stack([s * points.real, s * points.imag]).ravel())


@pytest.mark.parametrize("mode", ["relaxed", "strict"])
@pytest.mark.parametrize("order", QAM_ORDERS)
def test_make_problem_tables_match_row_by_row_assembly(order, mode):
    # one user per constellation point, so every relaxed edge of every order
    # (including the 8QAM, 32QAM cross and 64QAM ones) is assembled
    spec = get_constellation(f"{order}qam")
    rng = np.random.default_rng(order)
    h = rng.standard_normal((order, 3)) + 1j * rng.standard_normal((order, 3))
    targets = SinrTargets(zeta=10.0 ** rng.uniform(0.0, 2.0, size=order), sigma_z=0.7)
    symbols = rng.permutation(order)
    prob = make_problem(h, [spec] * order, symbols, targets, mode)
    _assert_matches_oracle(prob, h, [spec] * order, symbols, targets, mode)


def test_make_problem_mixed_constellations_and_bad_mode():
    specs = [get_constellation(n) for n in ("qpsk", "32qam", "64qam")]
    h, _, _, _ = _random_instance(9, k=3, nt=3)
    targets = SinrTargets(zeta=np.array([2.0, 30.0, 90.0]), sigma_z=1.0)
    symbols = [1, 5, 62]
    prob = make_problem(h, specs, symbols, targets, "relaxed")
    _assert_matches_oracle(prob, h, specs, symbols, targets, "relaxed")
    with pytest.raises(ValueError):
        make_problem(h, specs, symbols, targets, "loose")


def test_kkt_report_fields_match_direct_formulas():
    for seed in range(12):
        k = 1 + seed % 3
        h, spec, symbols, targets = _random_instance(300 + seed, k=k, nt=3,
                                                     name=("qpsk", "16qam", "64qam")[seed % 3])
        prob = make_problem(h, [spec] * k, symbols, targets, ("relaxed", "strict")[seed % 2])
        sig, rep = solve_cipm(prob)
        rows, rhs, is_eq = prob.rows, prob.rhs, prob.is_eq
        u = np.concatenate([sig.x.real, sig.x.imag])
        slack = rows @ u - rhs
        assert rep.stationarity_residual == kkt_residual(prob, sig.x, rep.lam, rep.mu)
        assert rep.max_constraint_violation == float(np.max(
            np.where(is_eq, np.abs(slack), np.maximum(0.0, -slack))))


def test_kkt_residual_matches_unit_direction_form():
    # the direct sum against the old form that normalized each row and scaled it
    # back; off the optimum the gap is O(1), so the two agree to rounding
    rng = np.random.default_rng(9)
    for seed in range(8):
        h, spec, symbols, targets = _random_instance(400 + seed, k=3, nt=3)
        prob = make_problem(h, [spec] * 3, symbols, targets)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lam, mu = rng.standard_normal(3), rng.standard_normal(3)
        assert kkt_residual(prob, x, lam, mu) == pytest.approx(
            oracles.kkt_residual_oracle(prob, x, lam, mu), rel=1e-12)
    # an all-zero row, which the old form divided by, contributes nothing
    prob = make_problem(np.array([[1.0, 0.0], [0.0, 0.0]]), [spec] * 2, [0, 0],
                        SinrTargets(np.ones(2), 1.0))
    assert kkt_residual(prob, np.array([0.5, 0.0]), np.array([-1.0, 0.0]),
                        np.array([0.0, 3.0])) == 0.0


@pytest.mark.parametrize("shape,rank", [((4, 6), 4), ((6, 6), 6), ((5, 8), 3), ((3, 2), 2)])
def test_least_norm_matches_lstsq_pair(shape, rank):
    # the polish's one-SVD factorization gives what the pair of lstsq solves
    # gives, also when rows are dependent (rank below the row count); rows off
    # the working set take no part
    rng = np.random.default_rng(rank)
    a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    b = rng.standard_normal(shape[0])
    u_ref = np.linalg.lstsq(a, b, rcond=1e-12)[0]
    nu_ref = np.linalg.lstsq(a.T, u_ref, rcond=1e-12)[0]
    extra = rng.standard_normal((2, shape[1]))
    work = np.arange(shape[0] + 2) < shape[0]
    u, nu = _polish(np.vstack([a, extra])[None], np.concatenate([b, [5.0, -5.0]])[None],
                    work[None])
    assert np.allclose(u[0], u_ref, rtol=1e-10, atol=1e-12)
    assert np.allclose(nu[0, :shape[0]], nu_ref, rtol=1e-10, atol=1e-12)
    assert np.array_equal(nu[0, shape[0]:], [0.0, 0.0])
    assert np.linalg.norm(a @ u[0] - b) == pytest.approx(np.linalg.norm(a @ u_ref - b),
                                                         rel=1e-8, abs=1e-12)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(nt=st.integers(1, 4), data=st.data(), mode=st.sampled_from(["relaxed", "strict"]),
       log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
def test_solver_properties(nt, data, mode, log_scale, seed):
    k = data.draw(st.integers(1, nt), label="k")
    specs = [get_constellation(f"{o}qam")
             for o in data.draw(st.lists(st.sampled_from(QAM_ORDERS), min_size=k, max_size=k),
                                label="orders")]
    zeta_db = np.array(data.draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k),
                                 label="zeta_db"))
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((k, nt)) + 1j * rng.standard_normal((k, nt))) / np.sqrt(2)
    symbols = [int(rng.integers(0, s.order)) for s in specs]
    targets = SinrTargets(zeta=10.0 ** (zeta_db / 10.0), sigma_z=1.0)
    c = 10.0 ** log_scale
    prob = make_problem(c * h, specs, symbols, targets, mode)
    sig, _ = solve_cipm(prob)

    # power scales as 1/c^2; the first-order oracle's stopping rule is
    # absolute, so it is consulted at unit scale
    _, p_ref, iters = solve_reference(h, specs, symbols, targets.zeta, 1.0, mode)
    if iters < ORACLE_MAX_ITER:
        assert sig.power * c ** 2 == pytest.approx(p_ref, rel=1e-8)

    rows, rhs, is_eq = prob.rows, prob.rhs, prob.is_eq
    (u,), (nu,), errors = min_norm_ldp(rows[None], rhs[None], is_eq[None])
    assert errors == {}
    assert np.array_equal(u, np.concatenate([sig.x.real, sig.x.imag]))
    tol = 1e-9 * (1.0 + np.max(np.abs(rhs)))       # the core's feasibility tolerance
    slack = rows @ u - rhs
    assert np.all(np.abs(slack[is_eq]) <= tol)
    assert np.all(slack[~is_eq] >= -tol)
    assert np.allclose(rows.T @ nu, u, rtol=1e-9, atol=1e-12 * np.linalg.norm(u))
    assert np.all(nu[~is_eq] >= -1e-10)
    assert np.all(nu[~is_eq & (slack > tol)] == 0.0)


def _lp_feasible(rows, rhs, is_eq):
    """linprog's verdict on rows u == rhs (is_eq rows) and >= rhs (the rest).

    Asked on unit rows and a unit-max rhs, so that its absolute tolerances
    mean the same at every channel and target scale.
    """
    norms = np.linalg.norm(rows, axis=1)
    a, b, ineq = rows / norms[:, None], rhs / norms, ~is_eq
    b = b / np.max(np.abs(b))
    lp = linprog(np.zeros(rows.shape[1]), A_ub=-a[ineq] if ineq.any() else None,
                 b_ub=-b[ineq] if ineq.any() else None,
                 A_eq=a[is_eq] if is_eq.any() else None, b_eq=b[is_eq] if is_eq.any() else None,
                 bounds=[(None, None)] * rows.shape[1], method="highs")
    assert lp.status in (0, 2), lp.message
    return lp.status == 0


def _draw_stack(data, nt, k_min, mode, log_scale, seed, n_combos, collinear=False):
    """Per-combination problems on one channel, and their stacked arrays."""
    k = nt - data.draw(st.integers(0, nt - k_min), label="nt - k")   # full load first
    specs = [get_constellation(f"{o}qam")
             for o in data.draw(st.lists(st.sampled_from(QAM_ORDERS), min_size=k, max_size=k),
                                label="orders")]
    zeta_db = np.array(data.draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k),
                                 label="zeta_db"))
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((k, nt)) + 1j * rng.standard_normal((k, nt))) / np.sqrt(2)
    if collinear:
        # identical users: only combinations that send every user the same
        # symbol are feasible
        specs, zeta_db, h = specs[:1] * k, np.full(k, zeta_db[0]), np.tile(h[0], (k, 1))
    combos = np.column_stack([rng.integers(0, s.order, size=n_combos) for s in specs])
    if collinear:
        same = rng.random(n_combos) < 0.5
        combos[same] = combos[same, :1]
    targets = SinrTargets(zeta=10.0 ** (zeta_db / 10.0), sigma_z=1.0)
    probs = [make_problem(10.0 ** log_scale * h, specs, row, targets, mode) for row in combos]
    stack = tuple(np.stack([getattr(p, f) for p in probs]) for f in ("rows", "rhs", "is_eq"))
    return combos, probs, stack, 20 * k + 20, (specs, targets)


_STACKS = dict(nt=st.integers(1, 4), data=st.data(), mode=st.sampled_from(["relaxed", "strict"]),
               log_scale=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1),
               n_combos=st.integers(1, 12))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(**_STACKS)
def test_batched_core_matches_scalar_core(nt, data, mode, log_scale, seed, n_combos):
    # the least-distance core against the replaced scalar active-set loop
    combos, probs, (rows, rhs, is_eq), cap, (specs, targets) = _draw_stack(
        data, nt, 1, mode, log_scale, seed, n_combos)
    u, nu, errors = min_norm_ldp(rows, rhs, is_eq)
    assert errors == {}
    # the frame path assembles the same stack in one call, bit for bit, and sums each
    # row's power as a lone solve does
    _, powers, _ = solve_cipm_stack(probs[0].channel, specs, combos, targets, mode)
    assert np.array_equal(powers, [uc @ uc for uc in u])
    for c, p in enumerate(probs):
        u_ref, _ = min_norm_qp(p.rows, p.rhs, p.is_eq, max_iter=cap)
        assert u[c] @ u[c] == pytest.approx(u_ref @ u_ref, rel=1e-12)
    assert np.allclose(np.einsum("cmn,cm->cn", rows, nu), u, rtol=1e-9,
                       atol=1e-12 * np.max(np.linalg.norm(u, axis=1)))
    assert np.all(nu[~is_eq] >= -1e-10)
    slack = np.einsum("cmn,cn->cm", rows, u) - rhs
    tol = 1e-9 * (1.0 + np.max(np.abs(rhs), axis=1, keepdims=True))
    assert np.all(nu[~is_eq & (slack > tol)] == 0.0)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**{**_STACKS, "nt": st.integers(2, 4)})
def test_batched_core_reports_each_infeasible_collinear_combination(nt, data, mode, log_scale,
                                                                    seed, n_combos):
    # every combination linprog rejects, and only those, fails with a certificate and
    # the error its lone NNLS-only oracle run raises; the others are the scalar loop's
    combos, probs, (rows, rhs, is_eq), cap, _ = _draw_stack(
        data, nt, 2, mode, log_scale, seed, n_combos, collinear=True)
    u, _, errors = min_norm_ldp(rows, rhs, is_eq)
    for c, p in enumerate(probs):
        if _lp_feasible(p.rows, p.rhs, p.is_eq):
            assert c not in errors
            u_ref, _ = min_norm_qp(p.rows, p.rhs, p.is_eq, max_iter=cap)
            assert u[c] @ u[c] == pytest.approx(u_ref @ u_ref, rel=1e-12)
            continue
        assert isinstance(errors[c], InfeasibleConstraintsError)
        _assert_farkas(errors[c].farkas, rows[c], rhs[c], is_eq[c])
    _assert_lone_failures(errors, u, oracles.min_norm_ldp, rows, rhs, is_eq)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(nt=st.integers(1, 3), data=st.data(), collinear=st.booleans(),
       log_channel=st.floats(-6.0, 6.0), log_target=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_overloaded_and_collinear_slots(nt, data, collinear, log_channel, log_target, seed):
    # more users than antennas, or users sharing one channel direction with
    # their own gain and phase (some of them twins of user 1: same channel,
    # constellation, symbol and target), at channel and target scales 1e-6..1e6
    k = data.draw(st.integers(2 if collinear else nt + 1, nt + 2), label="k")
    specs = [get_constellation(n) for n in
             data.draw(st.lists(st.sampled_from(["qpsk", "16qam"]), min_size=k, max_size=k),
                       label="constellations")]
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((k, nt)) + 1j * rng.standard_normal((k, nt))) / np.sqrt(2)
    symbols = [int(rng.integers(0, s.order)) for s in specs]
    zeta = 10.0 ** rng.uniform(0.0, 2.0, k)
    if collinear:
        twins = np.flatnonzero(rng.random(k) < 0.5)
        gains = rng.uniform(0.5, 2.0, k) * np.exp(2j * np.pi * rng.random(k))
        gains[twins] = 1.0
        h = gains[:, None] * h[0]
        for j in twins:
            specs[j], symbols[j], zeta[j], h[j] = specs[0], symbols[0], zeta[0], h[0]
    h *= 10.0 ** log_channel
    targets = SinrTargets(zeta=zeta, sigma_z=10.0 ** log_target)
    prob = make_problem(h, specs, symbols, targets, "relaxed")
    rows, rhs, is_eq = prob.rows, prob.rhs, prob.is_eq

    powers = {}
    for mode, eq in (("relaxed", is_eq), ("strict", np.ones_like(is_eq))):
        (u,), (nu,), errors = min_norm_ldp(rows[None], rhs[None], eq[None])
        if errors:
            assert isinstance(errors[0], InfeasibleConstraintsError)
            assert not _lp_feasible(rows, rhs, eq)
            _assert_farkas(errors[0].farkas, rows, rhs, eq)
            continue
        assert _lp_feasible(rows, rhs, eq)
        # KKT: feasible, rows.T nu = u, nu >= 0 on inequalities and 0 off the
        # binding ones, so u is the optimum
        slack = rows @ u - rhs
        tol = 1e-9 * (1.0 + np.max(np.abs(rhs)))
        assert np.all(np.abs(slack[eq]) <= tol) and np.all(slack[~eq] >= -tol)
        assert np.allclose(rows.T @ nu, u, rtol=1e-9, atol=1e-12 * np.linalg.norm(u))
        assert np.all(nu[~eq] >= -1e-10)
        assert np.all(nu[~eq & (slack > tol)] == 0.0)
        powers[mode] = u @ u
    if "strict" in powers:
        assert powers["relaxed"] <= powers["strict"] * (1 + 1e-10)
    if "relaxed" in powers:
        sig, _ = solve_cipm(prob)
        assert sig.power == powers["relaxed"]
        received = (h @ sig.x) / (np.sqrt(targets.zeta) * targets.sigma_z)
        assert [detect(s, r) for s, r in zip(specs, received)] == symbols


def _certify_first_stack(load, stack, nt, data, log_channel, log_target, seed, n_combos):
    """(rows, rhs, is_eq) of C stacked problems on one channel.

    load: 'loaded' (K <= Nt), 'overloaded' (K > Nt) or 'collinear' (users on
    one direction with their own gain and phase, twins of user 1 among them).
    stack: 'relaxed' or 'strict' symbol combinations of QPSK and 16QAM users,
    or 'sca': all-inequality tangent rows of |h_j x|^2 >= zeta_j sigma_z^2 at
    C random points scaled onto that set, as a multicast SCA round builds them.
    """
    k_min, k_max = {"loaded": (1, nt), "overloaded": (nt + 1, nt + 2),
                    "collinear": (2, nt + 2)}[load]
    k = data.draw(st.integers(k_min, k_max), label="k")
    rng = np.random.default_rng(seed)
    h = (rng.standard_normal((k, nt)) + 1j * rng.standard_normal((k, nt))) / np.sqrt(2)
    zeta = 10.0 ** rng.uniform(0.0, 2.0, k)
    specs = [get_constellation(n) for n in
             data.draw(st.lists(st.sampled_from(["qpsk", "16qam"]), min_size=k, max_size=k),
                       label="constellations")]
    twins = np.zeros(k, dtype=bool)
    if load == "collinear":
        twins[1:] = rng.random(k - 1) < 0.5
        gains = np.where(twins, 1.0, rng.uniform(0.5, 2.0, k) * np.exp(2j * np.pi * rng.random(k)))
        h = gains[:, None] * h[0]
        zeta[twins] = zeta[0]
        specs = [specs[0] if t else s for s, t in zip(specs, twins)]
    h *= 10.0 ** log_channel
    targets = SinrTargets(zeta=zeta, sigma_z=10.0 ** log_target)
    if stack == "sca":
        x = rng.standard_normal((n_combos, nt)) + 1j * rng.standard_normal((n_combos, nt))
        rhs_abs2 = targets.zeta * targets.sigma_z ** 2
        x *= np.sqrt(np.max(rhs_abs2 / np.abs(x @ h.T) ** 2, axis=1))[:, None]
        rows, rhs = baselines._tangent_rows(np.broadcast_to(h, (n_combos, k, nt)), x, rhs_abs2)
        return rows, rhs, np.zeros(rhs.shape, dtype=bool)
    combos = np.column_stack([rng.integers(0, s.order, size=n_combos) for s in specs])
    combos[:, twins] = combos[:, :1]
    coeffs = np.stack([s.coeffs[combos[:, j]] for j, s in enumerate(specs)], 1)
    free = np.stack([s.free[combos[:, j]] for j, s in enumerate(specs)], 1) & (stack == "relaxed")
    return _assemble(h, coeffs, free, targets)[:3]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(load=st.sampled_from(["loaded", "overloaded", "collinear"]),
       stack=st.sampled_from(["relaxed", "strict", "sca"]), nt=st.integers(1, 3),
       data=st.data(), log_channel=st.floats(-6.0, 6.0), log_target=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2 ** 32 - 1), n_combos=st.integers(2, 10))
def test_certify_first_stack_matches_nnls_core(load, stack, nt, data, log_channel, log_target,
                                               seed, n_combos):
    # the active-set steps certify what they can and NNLS takes the rest;
    # outputs and errors must be those of the NNLS-only core
    rows, rhs, is_eq = _certify_first_stack(load, stack, nt, data, log_channel, log_target,
                                            seed, n_combos)
    with mock.patch.object(solver, "_ldp_nnls", wraps=solver._ldp_nnls) as fallback:
        u, nu, errors = min_norm_ldp(rows, rhs, is_eq)
    try:
        u_ref, nu_ref = oracles.min_norm_ldp(rows, rhs, is_eq)
    except SolverError:
        _assert_lone_failures(errors, u, oracles.min_norm_ldp, rows, rhs, is_eq)
        for c, err in errors.items():
            if isinstance(err, InfeasibleConstraintsError):
                _assert_farkas(err.farkas, rows[c], rhs[c], is_eq[c])
        return
    assert errors == {}
    norms = np.linalg.norm(u_ref, axis=1)
    assert np.all(np.linalg.norm(u - u_ref, axis=1) <= 1e-12 * norms)
    assert np.einsum("cn,cn->c", u, u) == pytest.approx(norms ** 2, rel=1e-12)
    # a row sent to NNLS is bit for bit the oracle's, unless the active-set step
    # from the oracle's support certifies it: then it is that step's point, as on
    # any path to that support
    sent = [r for call in fallback.call_args_list for r in call.args[0]]
    for c in [c for c in range(len(rows)) if any(np.array_equal(rows[c], r) for r in sent)]:
        support = is_eq[c:c + 1] | (nu_ref[c:c + 1] > 0.0)
        x, v, _, _ = solver._pdas_step(
            solver._invariants(rows[c:c + 1], rhs[c:c + 1], is_eq[c:c + 1]), support)
        assert ((np.array_equal(u[c], u_ref[c]) and np.array_equal(nu[c], nu_ref[c]))
                or (np.array_equal(u[c], x[0]) and np.array_equal(nu[c], v[0]))), c


def test_gram_solve_keeps_a_singular_slice_to_its_own_row():
    # np.linalg.solve raises for a whole stack when one slice is singular; a step
    # calls its LAPACK gufunc directly, which gives that problem nan, with no
    # warning even where the caller raises on every floating-point error, and
    # every other problem the bits of np.linalg.solve, on its own and in a stack
    # (the guard on the private gufunc: a numpy that changes it fails here)
    rng = np.random.default_rng(1)
    rows, rhs = rng.standard_normal((9, 4, 6)), rng.standard_normal((9, 4))
    rows[3], rows[7] = rows[3, 0], 0.0          # Gram systems of rank 1 and 0
    is_eq = np.ones(rhs.shape, dtype=bool)      # every row stays in the working set
    stack = solver._invariants(rows, rhs, is_eq)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        u, nu, _, done = solver._pdas_step(stack, is_eq)
    assert np.isnan(nu[[3, 7]]).all() and np.isnan(u[[3, 7]]).all()
    ok = np.array([c not in (3, 7) for c in range(9)])
    assert done[ok].all()                       # so the refinement solve ran too
    gram = stack[0]
    assert np.array_equal(nu[ok], np.linalg.solve(gram[ok], rhs[ok][..., None])[..., 0])
    for c in np.flatnonzero(ok):
        assert np.array_equal(nu[c], np.linalg.solve(gram[c], rhs[c]))


def _mixed_stack(stack, nt, data, log_channel, log_target, seed, n_combos):
    """(rows, rhs, is_eq) of C problems of K users (loaded or overloaded), each
    on its own channel: independent users, users on one direction with their own gain
    and phase (twins of user 1 among them, some with its constellation and symbol,
    others making the problem infeasible where their rows are equalities), or users a
    relative 1e-6..1e-2 off one direction (near-collinear); stack as in
    _certify_first_stack. Closer to collinear, the replaced core can take a
    least-squares compromise of two near-twin rows that misses one by up to its
    feasibility tolerance, 1e-9 max|rhs|, so it is no 1e-12 reference there."""
    k = data.draw(st.integers(1, nt + 2), label="k")
    specs = [get_constellation(n) for n in
             data.draw(st.lists(st.sampled_from(["qpsk", "16qam"]), min_size=k, max_size=k),
                       label="constellations")]
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 3, (n_combos, 1, 1))     # independent, collinear, near-collinear
    h = (rng.standard_normal((n_combos, k, nt)) + 1j * rng.standard_normal((n_combos, k, nt)))
    twins = (rng.random((n_combos, k)) < 0.5) & (kind[:, 0] > 0)
    twins[:, 0] = True
    gains = np.where(twins, 1.0, rng.uniform(0.5, 2.0, twins.shape)
                     * np.exp(2j * np.pi * rng.random(twins.shape)))
    off = 10.0 ** rng.uniform(-6.0, -2.0, kind.shape) * (kind == 2) * h
    h = 10.0 ** log_channel * np.where(kind == 0, h, gains[..., None] * h[:, :1] + off)
    zeta = 10.0 ** rng.uniform(0.0, 2.0, twins.shape)
    targets = SinrTargets(zeta=np.where(twins, zeta[:, :1], zeta), sigma_z=10.0 ** log_target)
    if stack == "sca":
        x = rng.standard_normal((n_combos, nt)) + 1j * rng.standard_normal((n_combos, nt))
        rhs_abs2 = targets.zeta * targets.sigma_z ** 2
        x *= np.sqrt(np.max(rhs_abs2 / np.abs(np.einsum("ckn,cn->ck", h, x)) ** 2,
                            axis=1))[:, None]
        rows, rhs = baselines._tangent_rows(h, x, rhs_abs2)
        return rows, rhs, np.zeros(rhs.shape, dtype=bool)
    combos = np.column_stack([rng.integers(0, s.order, size=n_combos) for s in specs])
    same = (twins & (kind[:, 0] > 0) & (rng.random(twins.shape) < 0.5)
            & np.array([spec is specs[0] for spec in specs]))
    combos[same] = np.broadcast_to(combos[:, :1], combos.shape)[same]
    coeffs = np.stack([s.coeffs[combos[:, j]] for j, s in enumerate(specs)], 1)
    free = np.stack([s.free[combos[:, j]] for j, s in enumerate(specs)], 1) & (stack == "relaxed")
    return _assemble(h, coeffs, free, targets)[:3]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stack=st.sampled_from(["relaxed", "strict", "sca"]), nt=st.integers(1, 3),
       data=st.data(), log_channel=st.floats(-6.0, 6.0), log_target=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2 ** 32 - 1), n_combos=st.integers(1, 10),
       guess=st.sampled_from(["none", "random"]))
def test_gram_core_matches_certify_first_core(stack, nt, data, log_channel, log_target, seed,
                                              n_combos, guess):
    # the active-set steps on the Gram system against the core they replaced
    # (a guessed working set, then NNLS): the same optimum within 1e-12, or, for
    # each failing problem, the error it raises alone there, with its Farkas certificate
    rows, rhs, is_eq = _mixed_stack(stack, nt, data, log_channel, log_target, seed, n_combos)
    work = (np.random.default_rng(seed).random(rhs.shape) < 0.5) if guess == "random" else None
    u, _, errors = min_norm_ldp(rows, rhs, is_eq, work)
    try:
        u_ref, _ = oracles.certify_first_ldp(rows, rhs, is_eq, None, work)
    except SolverError:
        _assert_lone_failures(errors, u, oracles.certify_first_ldp, rows, rhs, is_eq, work)
        for c, err in errors.items():
            if isinstance(err, InfeasibleConstraintsError):
                _assert_farkas(err.farkas, rows[c], rhs[c], is_eq[c])
        return
    assert errors == {}
    assert np.all(np.linalg.norm(u - u_ref, axis=1) <= 1e-12 * np.linalg.norm(u_ref, axis=1))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(stack=st.sampled_from(["relaxed", "strict", "sca"]), nt=st.integers(1, 3),
       data=st.data(), log_channel=st.floats(-6.0, 6.0), log_target=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2 ** 32 - 1), n_combos=st.integers(1, 10),
       guess=st.sampled_from(["none", "random"]))
def test_core_is_bit_for_bit_the_linalg_solve_core(stack, nt, data, log_channel, log_target,
                                                   seed, n_combos, guess):
    # the direct gesv gufunc and the per-stack invariants change the cost, not one
    # bit: u, nu and every error (type, message, Farkas vector) are the old core's
    rows, rhs, is_eq = _mixed_stack(stack, nt, data, log_channel, log_target, seed, n_combos)
    work = (np.random.default_rng(seed).random(rhs.shape) < 0.5) if guess == "random" else None
    u, nu, errors = min_norm_ldp(rows, rhs, is_eq, work)
    u_ref, nu_ref, errors_ref = oracles.linalg_solve_ldp(rows, rhs, is_eq, work)
    assert u.tobytes() == u_ref.tobytes() and nu.tobytes() == nu_ref.tobytes()
    assert list(errors) == list(errors_ref)
    for c, err in errors.items():
        ref = errors_ref[c]
        assert (type(err), str(err)) == (type(ref), str(ref)), c
        if isinstance(ref, InfeasibleConstraintsError):
            assert err.farkas.tobytes() == ref.farkas.tobytes(), c


@pytest.mark.parametrize("symbols, user", [([-1, 0], 1), ([0, 16], 2), ([2.7, 0], 1),
                                           ([0, np.float64(3.0)], 2), (["1", 0], 1)])
def test_symbol_indices_outside_the_constellation_are_rejected(symbols, user):
    # a negative index once wrapped to the last point, a float was truncated and
    # an index past the end raised a bare IndexError; each entry names the user
    h, spec, _, targets = _random_instance(5)
    match = f"user {user}: symbol index .* is not an integer in \\[0, 16\\)"
    with pytest.raises(ValueError, match=match):
        make_problem(h, [spec, spec], symbols, targets)
    with pytest.raises(ValueError, match=match):
        solve_strict_equivalent(h, [spec, spec], symbols, targets)
    with pytest.raises(ValueError, match=match):
        effective_channel(ChannelMatrix(h), [spec, spec], symbols)
    # an integer stack takes the vectorized test; any other the per-entry scan
    ints = all(isinstance(i, int) for i in symbols)
    combos = np.array([[0, 1], symbols], dtype=None if ints else object)
    with pytest.raises(ValueError, match=match):
        solve_cipm_stack(h, [spec, spec], combos, targets, "relaxed")


def _kkt_failures(rows, rhs, is_eq, u, tol=1e-8):
    """The benchmark's KKT certificate (bench/workloads.kkt_failures) on u itself.

    u is optimal when it is feasible and 2u = rows_A^T nu on the equality and
    binding rows A, with nu >= 0 on the binding inequalities.
    """
    scale = 1.0 + float(np.max(np.abs(rhs)))
    slack = rows @ u - rhs
    viol = max(float(np.max(np.abs(slack[is_eq]), initial=0.0)),
               float(np.max(-slack[~is_eq], initial=0.0)))
    if viol > 1e-9 * scale:
        return [f"KKT: constraint violation {viol:.2e}"]
    active = is_eq | (slack <= 1e-9 * scale)
    nu = np.linalg.lstsq(rows[active].T, 2.0 * u, rcond=None)[0]
    resid = float(np.linalg.norm(rows[active].T @ nu - 2.0 * u))
    fails = []
    if resid > tol * (1.0 + float(np.linalg.norm(u))):
        fails.append(f"KKT: stationarity residual {resid:.2e}")
    worst = float(np.min(nu[~is_eq[active]], initial=0.0))
    if worst < -tol * max(1.0, float(np.max(np.abs(nu)))):
        fails.append(f"KKT: negative inequality multiplier {worst:.2e}")
    return fails


@settings(derandomize=True, max_examples=200, deadline=None)
@given(load=st.sampled_from(["loaded", "overloaded", "collinear"]),
       stack=st.sampled_from(["relaxed", "strict", "sca"]), nt=st.integers(1, 3),
       data=st.data(), log_channel=st.floats(-6.0, 6.0), log_target=st.floats(-6.0, 6.0),
       seed=st.integers(0, 2 ** 32 - 1), n_combos=st.integers(1, 10),
       guess=st.sampled_from(["none", "random", "all"]))
def test_first_working_set_changes_cost_not_answer(load, stack, nt, data, log_channel,
                                                   log_target, seed, n_combos, guess):
    # a first working set (stacks of one included) is only a guess: the point,
    # the multipliers and the errors are those of the core without one
    rows, rhs, is_eq = _certify_first_stack(load, stack, nt, data, log_channel, log_target,
                                            seed, n_combos)
    rng = np.random.default_rng(seed)
    work = {"none": np.zeros(rhs.shape, dtype=bool), "all": np.ones(rhs.shape, dtype=bool),
            "random": rng.random(rhs.shape) < 0.5}[guess]
    u_ref, nu_ref, want = min_norm_ldp(rows, rhs, is_eq)
    u, nu, errors = min_norm_ldp(rows, rhs, is_eq, work)
    assert [(c, type(e), str(e)) for c, e in errors.items()] == [
        (c, type(e), str(e)) for c, e in want.items()]
    for c, err in errors.items():
        assert np.isnan(u[c]).all() and np.isnan(nu[c]).all()
        if isinstance(err, InfeasibleConstraintsError):
            _assert_farkas(err.farkas, rows[c], rhs[c], is_eq[c])
    ok = [c for c in range(len(rows)) if c not in errors]
    u, nu, u_ref, nu_ref, rows = u[ok], nu[ok], u_ref[ok], nu_ref[ok], rows[ok]
    rhs, is_eq = rhs[ok], is_eq[ok]
    assert np.all(np.linalg.norm(u - u_ref, axis=1) <= 1e-12 * np.linalg.norm(u_ref, axis=1))
    assert np.allclose(np.einsum("cmn,cm->cn", rows, nu), u, rtol=1e-9,
                       atol=1e-12 * np.max(np.linalg.norm(u, axis=1), initial=0.0))
    for c in range(len(rows)):
        assert _kkt_failures(rows[c], rhs[c], is_eq[c], u[c]) == [], c
        # the multipliers are unique where the rows they weight are linearly
        # independent; collinear users' twin rows may share them either way
        held = is_eq[c] | (nu[c] != 0.0) | (nu_ref[c] != 0.0)
        if np.linalg.matrix_rank(rows[c, held]) == held.sum():
            assert np.all(np.abs(nu[c] - nu_ref[c]) <= 1e-12 * np.abs(nu_ref[c]).max()), c


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12])
def test_guessed_point_is_checked_relative_to_the_rhs(scale):
    # two parallel rows with different rhs (collinear users) and a third one:
    # the all-active guess is their least-squares compromise and an empty
    # guess is u = 0. Both miss a row by a fixed share of max|rhs|, which an
    # absolute tolerance of 1e-9 would forgive once the rhs is that small.
    rows = np.array([[[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]] * 2)
    rhs = scale * np.array([[2.0, 2.0, 1.0], [2.0, 6.0, 1.0]])
    is_eq = np.zeros(rhs.shape, dtype=bool)
    u_ref, _ = oracles.min_norm_ldp(rows, rhs, is_eq)
    for work in (None, is_eq, ~is_eq):
        u, nu, _ = min_norm_ldp(rows, rhs, is_eq, work)
        assert np.allclose(u, u_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(u, scale * np.array([[2.0, 1.0], [3.0, 1.0]]), rtol=1e-12, atol=0.0)


def test_certified_stack_rows_skip_nnls(monkeypatch):
    # the active-set steps certify every row of these frames' stacks, and a
    # lone problem, with no NNLS. Seed 0, frame 0: the 128 multicast-frame rows
    # (CIPM warm start and SCA rounds) and the 99 4x4 16QAM rows (the
    # certify-first core sent 8 and 70 of them to NNLS, and every lone problem)
    counts = {"nnls": 0, "stacked": 0, "stacked_nnls": 0}
    core, ldp = scipy.optimize.nnls, solver.min_norm_ldp

    def counting_nnls(a, b):
        counts["nnls"] += 1
        return core(a, b)

    def counting_ldp(rows, rhs, is_eq, work=None):
        before = counts["nnls"]
        out = ldp(rows, rhs, is_eq, work)
        if len(rows) > 1:
            counts["stacked"] += len(rows)
            counts["stacked_nnls"] += counts["nnls"] - before
        return out

    monkeypatch.setattr(scipy.optimize, "nnls", counting_nnls)
    monkeypatch.setattr(solver, "min_norm_ldp", counting_ldp)
    monkeypatch.setattr(baselines, "min_norm_ldp", counting_ldp)
    for cfg in (FrameConfig(n_symbols=100, frames=1, modulations="qpsk", precoder="multicast",
                            multicast_restarts=0, seed=0),
                FrameConfig(n_symbols=100, frames=1, n_antennas=4, k_users=4, zeta_db=17.0,
                            modulations="16qam", seed=0)):
        run_frame(cfg, draw_channel(cfg, 0), 0)
    assert counts["stacked"] == 128 + 99
    assert counts["stacked_nnls"] == 0
    h, spec, symbols, targets = _random_instance(11, k=2, nt=2)
    solve_cipm(make_problem(h, [spec, spec], symbols, targets))
    assert counts["nnls"] == 0
    # the count sees NNLS: twin users at [3, 7] are infeasible, which no step certifies
    h, spec, _, targets = _random_instance(14, k=2, nt=2)
    with pytest.raises(InfeasibleConstraintsError):
        solve_cipm(make_problem(h[[0, 0]], [spec, spec], [3, 7], targets))
    assert counts["nnls"] == 1

