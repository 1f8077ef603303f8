import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cipm.channel import ChannelMatrix
from cipm.constellation import QAM_ORDERS, get_constellation
from cipm.solver import (ActiveSetLimitError, InfeasibleConstraintsError,
                         SinrTargets, _least_norm,
                         kkt_residual, make_problem, min_norm_qp, min_norm_qp_batch,
                         solve_cipm, solve_cipm_stack, solve_strict,
                         solve_strict_equivalent)
from oracles import embed_constraints, seeded_instances, solve_reference

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
    # correlation matrix: Hermitian with unit diagonal
    assert np.allclose(np.diag(rep.rho), 1.0)
    assert np.allclose(rep.rho, rep.rho.conj().T)
    assert all(i < 2 * prob.k_users for i in rep.active_set)


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


def test_strict_solve_ignores_mode_relaxations():
    h, spec, symbols, targets = _random_instance(7, k=2, nt=2)
    relaxed = make_problem(h, [spec, spec], symbols, targets, "relaxed")
    strict = make_problem(h, [spec, spec], symbols, targets, "strict")
    assert solve_strict(relaxed)[0].power == pytest.approx(
        solve_cipm(strict)[0].power, rel=1e-12)


def test_strict_equivalent_channel_reformulation_matches():
    for i in range(10):
        h, spec, symbols, targets = _random_instance(200 + i, k=2, nt=3,
                                                     name="8qam")
        prob = make_problem(h, [spec, spec], symbols, targets, "strict")
        direct = solve_cipm(prob)[0].power
        equiv = solve_strict_equivalent(h, [spec, spec], symbols, targets)[0].power
        assert equiv == pytest.approx(direct, rel=1e-9)


def test_conflicting_users_raise_infeasible():
    # identical rows, opposite corner symbols: no x satisfies both regions
    h = np.array([[1.0 + 0.5j, 0.3 - 0.2j],
                  [1.0 + 0.5j, 0.3 - 0.2j]])
    spec = get_constellation("qpsk")
    targets = SinrTargets(zeta=np.array([4.0, 4.0]), sigma_z=1.0)
    prob = make_problem(h, [spec, spec], [0, 3], targets, "relaxed")
    with pytest.raises(InfeasibleConstraintsError) as err:
        solve_cipm(prob)
    assert err.value.conflicts
    assert "user" in str(err.value)


def test_iteration_budget_error_is_raised_when_capped():
    # with a one-iteration budget some instances cannot finish their
    # release/re-block passes; the failure must be the dedicated error
    hits = 0
    for h, spec, symbols, zeta in seeded_instances(50):
        k = h.shape[0]
        targets = SinrTargets(zeta=zeta, sigma_z=1.0)
        prob = make_problem(h, [spec] * k, symbols, targets, "relaxed")
        rows, rhs, is_eq = prob.rows, prob.rhs, prob.is_eq
        try:
            min_norm_qp(rows, rhs, is_eq, max_iter=1)
        except ActiveSetLimitError:
            hits += 1
    assert hits > 0


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
        for solve in (solve_cipm, solve_strict):
            sig, rep = solve(prob)
            rows, rhs, is_eq = prob.rows, prob.rhs, prob.is_eq
            if solve is solve_strict:
                is_eq = np.ones_like(is_eq)
            u = np.concatenate([sig.x.real, sig.x.imag])
            slack = rows @ u - rhs
            assert rep.stationarity_residual == kkt_residual(prob, sig.x, rep.lam, rep.mu)
            assert rep.max_constraint_violation == float(np.max(
                np.where(is_eq, np.abs(slack), np.maximum(0.0, -slack))))
            assert rep.active_set == tuple(i for i in range(len(rhs))
                                           if not is_eq[i] and abs(slack[i]) < 1e-9)
            norms = np.linalg.norm(h, axis=1)
            assert np.array_equal(rep.rho, (h @ h.conj().T) / np.outer(norms, norms))


@pytest.mark.parametrize("shape,rank", [((4, 6), 4), ((6, 6), 6), ((5, 8), 3), ((3, 2), 2)])
def test_least_norm_matches_lstsq_pair(shape, rank):
    # the one-SVD factorization gives what the pair of lstsq solves gave,
    # also when rows are dependent (rank below the row count)
    rng = np.random.default_rng(rank)
    a = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
    b = rng.standard_normal(shape[0])
    u, nu, resid = _least_norm(a, b)
    u_ref = np.linalg.lstsq(a, b, rcond=1e-12)[0]
    nu_ref = np.linalg.lstsq(a.T, u_ref, rcond=1e-12)[0]
    assert np.allclose(u, u_ref, rtol=1e-10, atol=1e-12)
    assert np.allclose(nu, nu_ref, rtol=1e-10, atol=1e-12)
    assert resid == pytest.approx(np.linalg.norm(a @ u_ref - b), rel=1e-8, abs=1e-12)


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
    u, nu = min_norm_qp(rows, rhs, is_eq, max_iter=20 * k + 20)
    assert np.array_equal(u, np.concatenate([sig.x.real, sig.x.imag]))
    tol = 1e-9 * (1.0 + np.max(np.abs(rhs)))       # min_norm_qp's feasibility tolerance
    slack = rows @ u - rhs
    assert np.all(np.abs(slack[is_eq]) <= tol)
    assert np.all(slack[~is_eq] >= -tol)
    assert np.allclose(rows.T @ nu, u, rtol=1e-9, atol=1e-12 * np.linalg.norm(u))
    assert np.all(nu[~is_eq] >= -1e-10)
    assert np.all(nu[~is_eq & (slack > tol)] == 0.0)


def _scalar_passes(rows, rhs, is_eq, cap):
    """Fewest passes min_norm_qp needs, or None when it reports infeasibility."""
    for passes in range(cap + 1):
        try:
            min_norm_qp(rows, rhs, is_eq, max_iter=passes)
            return passes
        except ActiveSetLimitError:
            continue
        except InfeasibleConstraintsError:
            return None
    raise AssertionError("scalar core needs more passes than its cap")


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
        # symbol have a consistent all-equality start
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
    combos, probs, (rows, rhs, is_eq), cap, (specs, targets) = _draw_stack(
        data, nt, 1, mode, log_scale, seed, n_combos)
    passes = [_scalar_passes(p.rows, p.rhs, p.is_eq, cap) for p in probs]
    u, nu = min_norm_qp_batch(rows, rhs, is_eq, max_iter=max(passes), keys=combos)
    # the frame path assembles the same stack in one call, bit for bit
    _, powers = solve_cipm_stack(probs[0].channel, specs, combos, targets, mode)
    assert np.array_equal(powers, np.einsum("cn,cn->c", u, u))
    for c, p in enumerate(probs):
        u_ref, _ = min_norm_qp(p.rows, p.rhs, p.is_eq, max_iter=cap)
        assert u[c] @ u[c] == pytest.approx(u_ref @ u_ref, rel=1e-12)
    assert np.allclose(np.einsum("cmn,cm->cn", rows, nu), u, rtol=1e-9,
                       atol=1e-12 * np.max(np.linalg.norm(u, axis=1)))
    assert np.all(nu[~is_eq] >= -1e-10)
    slack = np.einsum("cmn,cn->cm", rows, u) - rhs
    tol = 1e-9 * (1.0 + np.max(np.abs(rhs), axis=1, keepdims=True))
    assert np.all(nu[~is_eq & (slack > tol)] == 0.0)
    # lock-step: the stack needs as many passes as its slowest member, and
    # one fewer names the lowest combination still running
    slowest = combos[passes.index(max(passes))].tolist()
    with pytest.raises(ActiveSetLimitError, match=re.escape(f"combination {slowest}:")):
        min_norm_qp_batch(rows, rhs, is_eq, max_iter=max(passes) - 1, keys=combos)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(**{**_STACKS, "nt": st.integers(2, 4)})
def test_batched_core_rejects_collinear_users_like_scalar(nt, data, mode, log_scale, seed,
                                                         n_combos):
    combos, probs, (rows, rhs, is_eq), cap, _ = _draw_stack(
        data, nt, 2, mode, log_scale, seed, n_combos, collinear=True)
    passes = [_scalar_passes(p.rows, p.rhs, p.is_eq, cap) for p in probs]
    if None not in passes:
        min_norm_qp_batch(rows, rhs, is_eq, max_iter=cap, keys=combos)
        return
    # the lowest combination the scalar core rejects is the one named
    with pytest.raises(InfeasibleConstraintsError,
                       match=re.escape(f"combination {combos[passes.index(None)].tolist()}:")):
        min_norm_qp_batch(rows, rhs, is_eq, max_iter=cap, keys=combos)
