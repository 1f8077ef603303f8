import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import scipy.linalg.lapack
from scipy.optimize import minimize

from cipm import baselines, solver
from cipm.baselines import (BeamformerSet, BeamformingConvergenceError,
                            achieved_sinrs, solve_multicast_bound,
                            solve_multicast_stack, solve_ob, solve_ob_stack)
from cipm.constellation import get_constellation
from cipm.simulator import FrameConfig, fixed_channel_experiment
from cipm.solver import (ActiveSetLimitError, InfeasibleConstraintsError, SinrTargets,
                         SolverError, make_problem, solve_cipm)

from oracles import multicast_oracle, multicast_stack_oracle, ob_fixed_point_oracle
from oracles import solve_ob as solve_ob_oracle


def _channel(seed, k, nt):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((k, nt)) + 1j * rng.standard_normal((k, nt))) / np.sqrt(2)


def test_ob_single_user_is_matched_filter():
    h = _channel(0, 1, 3)
    zeta, sigma = 5.0, 2.0
    beams = solve_ob(h, SinrTargets(zeta=np.array([zeta]), sigma_z=sigma))
    assert beams.total_power == pytest.approx(
        zeta * sigma ** 2 / np.sum(np.abs(h) ** 2), rel=1e-9)
    # beam aligned with the conjugate channel
    corr = abs(np.vdot(beams.w[0], h[0].conj())) / (
        np.linalg.norm(beams.w[0]) * np.linalg.norm(h[0]))
    assert corr == pytest.approx(1.0, abs=1e-9)


def test_ob_orthogonal_users_decouple():
    h = np.array([[2.0 + 0.0j, 0.0], [0.0, 1.0 + 1.0j]])
    zeta = np.array([3.0, 4.0])
    beams = solve_ob(h, SinrTargets(zeta=zeta, sigma_z=1.0))
    expected = np.sum(zeta / np.sum(np.abs(h) ** 2, axis=1))
    assert beams.total_power == pytest.approx(expected, rel=1e-9)


def test_ob_meets_targets_with_equality():
    for seed, k, nt in ((1, 2, 2), (2, 3, 4), (3, 4, 4)):
        h = _channel(seed, k, nt)
        zeta = 10.0 ** (np.linspace(2.0, 8.0, k) / 10.0)
        targets = SinrTargets(zeta=zeta, sigma_z=1.0)
        beams = solve_ob(h, targets)
        sinrs = achieved_sinrs(h, beams, 1.0)
        assert np.allclose(sinrs, zeta, rtol=1e-7)


def test_ob_power_is_monotone_in_targets():
    h = _channel(4, 3, 3)
    base = np.array([2.0, 3.0, 4.0])
    p0 = solve_ob(h, SinrTargets(zeta=base, sigma_z=1.0)).total_power
    for j in range(3):
        up = base.copy()
        up[j] *= 1.5
        p1 = solve_ob(h, SinrTargets(zeta=up, sigma_z=1.0)).total_power
        assert p1 > p0


def test_ob_matches_general_purpose_solver():
    # cross-check the duality fixed point against direct nonlinear
    # minimization over the stacked real beam coefficients
    k, nt = 2, 2
    h = _channel(5, k, nt)
    zeta = np.array([3.0, 5.0])
    targets = SinrTargets(zeta=zeta, sigma_z=1.0)
    beams = solve_ob(h, targets)

    def unpack(v):
        w = v.reshape(2, k, nt)
        return w[0] + 1j * w[1]

    def power(v):
        return np.sum(v ** 2)

    cons = []
    for j in range(k):
        def sinr_slack(v, j=j):
            w = unpack(v)
            g = np.abs(h[j] @ w.T) ** 2
            return g[j] - zeta[j] * (np.sum(g) - g[j] + 1.0)
        cons.append({"type": "ineq", "fun": sinr_slack})

    best = np.inf
    rng = np.random.default_rng(6)
    for trial in range(4):
        v0 = (np.stack([beams.w.real, beams.w.imag]).ravel()
              if trial == 0 else rng.standard_normal(2 * k * nt))
        res = minimize(power, v0, constraints=cons, method="SLSQP",
                       options={"maxiter": 500, "ftol": 1e-12})
        if res.success:
            best = min(best, res.fun)
    assert beams.total_power == pytest.approx(best, rel=1e-6)


def test_ob_combination_powers_average_to_long_term():
    # over the full symbol enumeration the cross terms cancel exactly
    h = _channel(7, 2, 2)
    for name in ("qpsk", "16qam"):
        cfg = FrameConfig(zeta_db=tuple(10.0 * np.log10([2.0, 3.0])), modulations=name)
        table = fixed_channel_experiment(h, cfg)
        assert len(table.ob_power) == get_constellation(name).order ** 2
        assert np.mean(table.ob_power) == pytest.approx(table.ob_long_term, abs=1e-12)
        assert table.ob_long_term == solve_ob(h, cfg.targets()).total_power


def test_ob_infeasible_targets_raise():
    # two identical rows cannot both get high SINR from one array; the
    # uplink powers diverge until the covariance is numerically singular,
    # which ends the iteration long before its cap
    targets = SinrTargets(zeta=np.array([10.0, 10.0]), sigma_z=1.0)
    for h in (np.array([[1.0 + 0.0j, 0.5], [1.0 + 0.0j, 0.5]]), np.array([[1, 1j], [1, 1j]])):
        with pytest.raises(BeamformingConvergenceError,
                           match="targets may be infeasible") as exc:
            solve_ob(h, targets)
        assert exc.value.iterations < 100
    # a user with an all-zero channel row cannot be served at any power; it
    # is named before the first iteration instead of iterating on NaN
    with pytest.raises(InfeasibleConstraintsError, match="all-zero channel row") as err:
        solve_ob(np.array([[1.0, 0.0], [0.0, 0.0]]), SinrTargets(zeta=np.ones(2), sigma_z=1.0))
    assert err.value.conflicts == ("user2",)


def _meets_targets(h, x, targets):
    """|h_j x|^2 >= zeta_j sigma_z^2 for every user j, within the stack's 1e-9."""
    return bool(np.all(np.abs(h @ x) ** 2 >= targets.zeta * targets.sigma_z ** 2 - 1e-9))


def test_multicast_single_user_is_matched_filter():
    h = _channel(8, 1, 3)
    zeta, sigma = 4.0, 1.5
    targets = SinrTargets(zeta=np.array([zeta]), sigma_z=sigma)
    sol = solve_multicast_bound(h, targets, restarts=4, seed=0)
    assert _meets_targets(h, sol.x, targets)
    assert sol.power == pytest.approx(zeta * sigma ** 2 / np.sum(np.abs(h) ** 2),
                                      rel=1e-8)


def test_multicast_identical_rows_cost_single_constraint():
    h = np.array([[1.0 + 1.0j, 0.5 - 0.2j],
                  [1.0 + 1.0j, 0.5 - 0.2j]])
    zeta = np.array([2.0, 6.0])
    targets = SinrTargets(zeta=zeta, sigma_z=1.0)
    sol = solve_multicast_bound(h, targets, restarts=4, seed=0)
    assert _meets_targets(h, sol.x, targets)
    assert sol.power == pytest.approx(np.max(zeta) / np.sum(np.abs(h[0]) ** 2),
                                      rel=1e-8)


def test_multicast_certificate_and_warm_start_dominance():
    spec = get_constellation("16qam")
    for i in range(20):
        h = _channel(300 + i, 2, 2)
        rng = np.random.default_rng(i)
        symbols = [int(rng.integers(0, 16)) for _ in range(2)]
        targets = SinrTargets(zeta=np.array([5.0, 5.0]), sigma_z=1.0)
        prob = make_problem(h, [spec, spec], symbols, targets, "relaxed")
        sig, _ = solve_cipm(prob)
        from cipm.channel import ChannelMatrix, effective_channel
        eff = effective_channel(ChannelMatrix(h), [spec, spec], symbols)
        sol = solve_multicast_bound(eff, targets, restarts=0, seed=0,
                                    warm_start=sig.x)
        # warm-started descent can only go downhill from the precoder point
        assert sol.power <= sig.power * (1 + 1e-9)
        rhs = targets.zeta * targets.sigma_z ** 2
        assert np.all(np.abs(eff @ sol.x) ** 2 >= rhs - 1e-8)


def test_multicast_restarts_only_improve():
    h = _channel(9, 3, 3)
    targets = SinrTargets(zeta=np.array([3.0, 4.0, 5.0]), sigma_z=1.0)
    p1 = solve_multicast_bound(h, targets, restarts=1, seed=0).power
    p8 = solve_multicast_bound(h, targets, restarts=8, seed=0).power
    assert p8 <= p1 * (1 + 1e-12)


def test_multicast_without_a_usable_start_raises():
    h = _channel(10, 2, 2)
    targets = SinrTargets(zeta=np.array([2.0, 3.0]), sigma_z=1.0)
    with pytest.raises(ValueError, match="start"):
        solve_multicast_bound(h, targets, restarts=0)
    with pytest.raises(ValueError, match="restarts"):
        solve_multicast_stack(h[None], targets, -1, 0, np.ones((1, 2), dtype=complex))
    # a warm start orthogonal to user 1's channel reaches nobody there
    warm = np.array([h[0, 1], -h[0, 0]])
    with pytest.raises(ValueError, match="no usable start"):
        solve_multicast_bound(h, targets, restarts=0, warm_start=warm)
    # an all-zero channel row: every draw is skipped, and no point can serve it
    h[1] = 0.0
    with pytest.raises(InfeasibleConstraintsError) as err:
        solve_multicast_bound(h, targets, restarts=4)
    assert err.value.conflicts == ("user2",)


def _multicast_stack_instance(nt, data, log_scale, seed):
    """(h, targets, restarts, warm, rng): 1-8 rows of K <= Nt users at scale
    10^log_scale, 20% of later users collinear with an earlier one, 0-3
    restarts and a warm start (always without restarts, else half the time)."""
    k = data.draw(st.integers(1, nt), label="k")
    n_rows = data.draw(st.integers(1, 8), label="rows")
    restarts = data.draw(st.integers(0, 3), label="restarts")
    zeta_db = np.array(data.draw(st.lists(st.floats(0.0, 20.0), min_size=k, max_size=k),
                                 label="zeta_db"))
    rng = np.random.default_rng(seed)
    h = 10.0 ** log_scale * (rng.standard_normal((n_rows, k, nt))
                             + 1j * rng.standard_normal((n_rows, k, nt))) / np.sqrt(2)
    for c, j in itertools.product(range(n_rows), range(1, k)):
        if rng.random() < 0.2:      # user j shares an earlier user's direction
            h[c, j] = h[c, rng.integers(j)] * rng.uniform(0.5, 2.0) * np.exp(2j * rng.random())
    warm = None
    if restarts == 0 or rng.random() < 0.5:
        warm = rng.standard_normal((n_rows, nt)) + 1j * rng.standard_normal((n_rows, nt))
    targets = SinrTargets(zeta=10.0 ** (zeta_db / 10.0), sigma_z=1.0)
    return h, targets, restarts, warm, rng


_MULTICAST_STACKS = dict(nt=st.integers(1, 4), data=st.data(), log_scale=st.floats(-3.0, 3.0),
                         seed=st.integers(0, 2 ** 32 - 1))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(**_MULTICAST_STACKS)
def test_multicast_stack_matches_scalar_oracle(nt, data, log_scale, seed):
    h, targets, restarts, warm, rng = _multicast_stack_instance(nt, data, log_scale, seed)
    n_rows, rhs = len(h), targets.zeta
    x, power, errors = solve_multicast_stack(h, targets, restarts, seed, warm)
    assert errors == {}

    # the certificate is direct evaluation, and it holds
    got = np.abs(np.einsum("ckn,cn->ck", h, x)) ** 2
    assert np.all(got >= rhs - 1e-9)
    assert np.allclose(power, np.sum(np.abs(x) ** 2, axis=1), rtol=1e-12, atol=0.0)
    for c in range(n_rows):
        _, p_ref = multicast_oracle(h[c], rhs, restarts, seed,
                                    None if warm is None else warm[c])
        assert power[c] == pytest.approx(p_ref, rel=1e-12, abs=0.0)
        if warm is not None:    # never above the warm start, scaled onto the feasible set
            y2 = np.abs(h[c] @ warm[c]) ** 2
            p_warm = np.sum(np.abs(warm[c]) ** 2) * max(1.0, np.max(rhs / y2))
            assert power[c] <= p_warm * (1 + 1e-12)
    perm = rng.permutation(n_rows)
    _, p_perm, _ = solve_multicast_stack(h[perm], targets, restarts, seed,
                                         None if warm is None else warm[perm])
    assert np.allclose(p_perm, power[perm], rtol=1e-12, atol=0.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(**_MULTICAST_STACKS)
def test_multicast_stack_matches_all_active_rounds_bit_for_bit(nt, data, log_scale, seed):
    # each SCA round starting from the previous round's support certifies the
    # same optimum on the same working set as the all-active guess did
    h, targets, restarts, warm, _ = _multicast_stack_instance(nt, data, log_scale, seed)
    *got, errors = solve_multicast_stack(h, targets, restarts, seed, warm)
    *want, feasible = multicast_stack_oracle(h, targets, restarts, seed, warm)
    assert errors == {} and feasible.all()
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(**_MULTICAST_STACKS)
def test_multicast_stack_rows_take_their_own_targets_and_seeds(nt, data, log_scale, seed):
    # one target row and one seed per row (some rows sharing a seed): each
    # row gets what a stack of that row alone gives it, bit for bit
    h, targets, restarts, warm, rng = _multicast_stack_instance(nt, data, log_scale, seed)
    zeta = targets.zeta * 10.0 ** rng.uniform(-1.0, 1.0, (len(h), 1))
    seeds = rng.integers(0, 3, size=len(h))
    *got, errors = solve_multicast_stack(h, SinrTargets(zeta, 1.0), restarts, seeds, warm)
    assert errors == {}
    for c in range(len(h)):
        *want, _ = solve_multicast_stack(h[c:c + 1], SinrTargets(zeta[c], 1.0), restarts,
                                         int(seeds[c]), None if warm is None else warm[c:c + 1])
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g[c], w[0]), c


def test_multicast_stack_reports_a_failed_row(monkeypatch):
    # a start whose QP fails stops there: its row reports the error, with nan, and the
    # other rows keep their bits; the one-row entry raises the error
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    targets = SinrTargets(zeta=np.array([2.0, 3.0]), sigma_z=1.0)
    want = solve_multicast_stack(h, targets, 1, 0, None)
    ldp = baselines.min_norm_ldp

    def failing(rows, rhs, is_eq, work=None):
        u, nu, errors = ldp(rows, rhs, is_eq, work)
        if work is None:                # round 1: the last start, row 2's one start
            u[-1] = nu[-1] = np.nan
            errors[len(rows) - 1] = ActiveSetLimitError("NNLS stopped: test")
        return u, nu, errors

    monkeypatch.setattr(baselines, "min_norm_ldp", failing)
    x, power, errors = solve_multicast_stack(h, targets, 1, 0, None)
    assert list(errors) == [2] and str(errors[2]) == "NNLS stopped: test"
    assert np.isnan(x[2]).all() and np.isnan(power[2])
    for c in (0, 1):
        assert np.array_equal(x[c], want[0][c]) and power[c] == want[1][c]
    with pytest.raises(ActiveSetLimitError, match="^NNLS stopped: test$"):
        solve_multicast_bound(h[0], targets, restarts=1, seed=0)


def test_multicast_stack_reports_a_row_that_misses_its_targets(monkeypatch):
    # a row whose kept point fails the evaluation |h_j x|^2 >= zeta_j sigma_z^2 is
    # that row's own SolverError, with nan; the other rows keep their bits, and the
    # one-row entry raises the error
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    targets = SinrTargets(zeta=np.array([2.0, 3.0]), sigma_z=1.0)
    want = solve_multicast_stack(h, targets, 1, 0, None)
    ldp = baselines.min_norm_ldp

    def shrinking(rows, rhs, is_eq, work=None):
        u, nu, errors = ldp(rows, rhs, is_eq, work)
        if work is None:                # round 1: halve the last start, row 2's one start
            u[-1] *= 0.5
        return u, nu, errors

    monkeypatch.setattr(baselines, "min_norm_ldp", shrinking)
    x, power, errors = solve_multicast_stack(h, targets, 1, 0, None)
    assert list(errors) == [2] and type(errors[2]) is SolverError
    assert str(errors[2]) == "multicast bound misses its targets on evaluation"
    assert np.isnan(x[2]).all() and np.isnan(power[2])
    for c in (0, 1):
        assert np.array_equal(x[c], want[0][c]) and power[c] == want[1][c]
    with pytest.raises(SolverError, match="^multicast bound misses its targets"):
        solve_multicast_bound(h[0], targets, restarts=1, seed=0)


def test_frozen_reference_instance():
    # deterministic 2x2 instance pinned as a regression anchor
    h = np.array([[0.1787 + 1.9179j, 0.9201 + 1.0048j],
                  [-2.1209 - 1.5455j, 1.5138 + 0.2250j]])
    zeta = 10.0 ** (4.712 / 10.0)
    targets = SinrTargets(zeta=np.array([zeta, zeta]), sigma_z=1.0)
    beams = solve_ob(h, targets)
    assert beams.total_power == pytest.approx(0.9879630517141018, rel=1e-10)
    assert np.allclose(achieved_sinrs(h, beams, 1.0), zeta, rtol=1e-8)


def test_ob_fixed_point_frozen_4x4():
    # pins the fixed-point arithmetic itself: iteration count and power are
    # exact values, so any reordering of the loop's floating-point work shows
    h = _channel(2024, 4, 4)
    targets = SinrTargets(zeta=np.full(4, 10.0 ** 1.7), sigma_z=1.0)
    beams = solve_ob(h, targets)
    assert beams.iterations == 987
    assert beams.total_power == 215.61203544165733


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("zeta_db", [0.0, 10.0, 20.0])
@pytest.mark.parametrize("k,nt", [(k, k) for k in range(2, 9)]
                         + [(1, 2), (2, 3), (2, 4), (3, 5), (4, 6)])
def test_ob_matches_inverse_fixed_point_oracle(k, nt, zeta_db, scale):
    # the Cholesky iteration runs the oracle's iterates: the same stop
    # iteration, and beams equal up to rounding amplified by the fixed point
    h = scale * _channel(10 * k + nt, k, nt)
    targets = SinrTargets(zeta=np.full(k, 10.0 ** (zeta_db / 10.0)), sigma_z=1.0)
    beams, ref = solve_ob(h, targets), ob_fixed_point_oracle(h, targets)
    assert beams.iterations == ref.iterations
    assert beams.total_power == pytest.approx(ref.total_power, rel=1e-12, abs=0.0)
    assert np.linalg.norm(beams.w - ref.w) <= 1e-12 * np.linalg.norm(ref.w)


def _ob_outcome(solve, h, targets):
    """solve(h, targets) as (w, total_power, iterations), or its error message."""
    try:
        beams = solve(h, targets)
    except BeamformingConvergenceError as exc:
        return str(exc)
    return beams.w, beams.total_power, beams.iterations


def _assert_stack_is_each_lone_oracle(hs, targets):
    # every frame ends as its lone run does, beams or error, whatever the others do
    want = [_ob_outcome(solve_ob_oracle, h, t) for h, t in zip(hs, targets)]
    got = solve_ob_stack(hs, targets)
    for f, (beams, w) in enumerate(zip(got, want, strict=True)):
        if isinstance(w, str):
            assert isinstance(beams, BeamformingConvergenceError) and str(beams) == w, f
            continue
        assert np.array_equal(beams.w, w[0]), f
        assert beams.total_power == w[1], f
        assert beams.iterations == w[2], f
    return want


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10), st.integers(0, 9), st.integers(0, 2 ** 32 - 1),
                          st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=1, max_size=6))
@example([(9, 8, 1, 0.0, 0.0), (3, 2, 2, 0.0, 0.0), (10, 9, 3, 1.0, -1.0), (5, 4, 4, 0.0, 0.0)])
@example([(8, 2, 5, -3.0, 3.0), (2, 1, 6, 3.0, -3.0), (8, 7, 7, 0.0, 0.0), (1, 0, 8, 0.0, 0.0)])
def test_ob_stack_is_bit_for_bit_the_lone_oracle(frames):
    # frames of mixed (K, Nt), K <= Nt <= 10 (Nt >= 8 next to smaller ones
    # included), per-user targets 0-20 dB, sigma_z and channel scale over
    # 1e-3..1e3: every frame's beams, power and iteration count are those of
    # the verbatim one-frame oracle run alone, bit for bit
    hs, targets = [], []
    for nt, k, seed, log_scale, log_sigma in frames:
        rng = np.random.default_rng(seed)
        k = k % nt + 1
        hs.append(10.0 ** log_scale * (rng.standard_normal((k, nt))
                                       + 1j * rng.standard_normal((k, nt))))
        targets.append(SinrTargets(zeta=10.0 ** (rng.uniform(0.0, 20.0, k) / 10.0),
                                   sigma_z=10.0 ** log_sigma))
    _assert_stack_is_each_lone_oracle(hs, targets)


def test_ob_stack_stops_on_block_edges_bit_for_bit():
    # frames that stop at iterations 0 and 1 mod _OB_BLOCK, at Nt = 2, 4 and 9:
    # the first and the last row of a block both give a frame's stop
    shapes = [((2, 2), 20), ((2, 2), 28), ((3, 4), 16), ((3, 4), 0), ((2, 9), 8), ((2, 9), 16)]
    hs = [_channel(seed, k, nt) for (k, nt), seed in shapes]
    targets = [SinrTargets(zeta=np.full(len(h), 10.0 ** 1.2), sigma_z=1.0) for h in hs]
    for stack in (hs[:4], hs, hs[::-1]):
        want = _assert_stack_is_each_lone_oracle(stack, targets[:len(stack)])
    assert baselines._OB_BLOCK == 16
    assert sorted(w[2] % 16 for w in want) == [0, 0, 0, 1, 1, 1]


def test_ob_stack_raises_the_failing_frames_own_error():
    # a collinear frame between feasible ones gets its lone error in its slot, at
    # the iteration the oracle names, and solve_ob raises it; so does a frame at
    # the iteration cap
    targets = SinrTargets(zeta=np.array([10.0, 10.0]), sigma_z=1.0)
    good, collinear = _channel(3, 2, 2), np.array([[1.0 + 0.0j, 0.5], [1.0 + 0.0j, 0.5]])
    # K=3 on Nt=2 at 4 dB: no powers meet the targets, and the iteration runs out
    over = SinrTargets(zeta=np.full(3, 10.0 ** 0.4), sigma_z=1.0)
    cases = [([good, collinear, _channel(4, 2, 3)], [targets] * 3, 1, "not positive definite"),
             ([_channel(5, 3, 2), good], [over, targets], 0,
              "did not converge in 10000 iterations")]
    for hs, ts, f, message in cases:
        want = _ob_outcome(solve_ob_oracle, hs[f], ts[f])
        assert message in want
        got = solve_ob_stack(hs, ts)
        assert isinstance(got[f], BeamformingConvergenceError) and str(got[f]) == want
        assert [isinstance(b, BeamformerSet) for b in got] == [g != f for g in range(len(hs))]
        with pytest.raises(BeamformingConvergenceError) as exc:
            solve_ob(hs[f], ts[f])
        assert str(exc.value) == want
    with pytest.raises(ValueError, match="shorter"):
        solve_ob_stack([good, good], [targets])      # one SinrTargets per channel


def test_ob_stack_ends_each_frame_as_its_lone_run():
    # a collinear frame fails mid-block and a K=3, Nt=2 frame at the cap; each stops with
    # its lone error, and the frames around them run on to their lone beams
    targets = SinrTargets(zeta=np.array([10.0, 10.0]), sigma_z=1.0)
    over = SinrTargets(zeta=np.full(3, 10.0 ** 0.4), sigma_z=1.0)
    hs = [_channel(3, 2, 2), np.array([[1.0 + 0.0j, 0.5], [1.0 + 0.0j, 0.5]]),
          _channel(5, 3, 2), _channel(4, 2, 3)]
    want = _assert_stack_is_each_lone_oracle(hs, [targets, targets, over, targets])
    assert [isinstance(w, str) for w in want] == [False, True, True, False]


def test_ob_stack_ignores_a_failure_past_a_frames_own_stop(monkeypatch):
    # the stop test runs once per block, so a frame iterates past its own
    # stop; a Cholesky failure there (NaN solutions) must not raise for it,
    # nor reach the other frame
    targets = [SinrTargets(zeta=np.full(2, 10.0 ** z), sigma_z=1.0) for z in (1.2, 1.7)]
    hs = [_channel(7, 2, 2), _channel(8, 2, 3)]
    want = [solve_ob_oracle(h, t) for h, t in zip(hs, targets)]
    stop = want[0].iterations
    assert stop % 16 not in (0, 15) and stop < want[1].iterations
    hh, calls, real = np.asfortranarray(hs[0].conj().T), [0], scipy.linalg.lapack.zposv

    def failing_zposv(a, b):
        out = real(a, b)
        if b.shape == hh.shape and np.array_equal(b, hh):
            calls[0] += 1
            if stop < calls[0] <= edge:     # the rows past the stop, in its block
                return out[0], np.full_like(out[1], np.nan), 1
        return out

    edge = -(-stop // 16) * 16
    monkeypatch.setattr(scipy.linalg.lapack, "zposv", failing_zposv)   # imported per call
    got = solve_ob_stack(hs, targets)
    assert calls[0] == edge + 1             # the block's rows, then the beams
    for beams, ref in zip(got, want):
        assert np.array_equal(beams.w, ref.w) and beams.iterations == ref.iterations


def test_solver_errors_survive_pickling_and_naming():
    # pool workers return raw errors, and a failing row's error is renamed with its
    # combination: each comes back with its type, message and every field
    errors = [InfeasibleConstraintsError("m1", ["user1/I"], np.array([1.0, 0.5])),
              ActiveSetLimitError("m2"), BeamformingConvergenceError("m3", 3)]
    for err in errors:
        for back, message in ((pickle.loads(pickle.dumps(err)), str(err)),
                              (solver._in_combination(err, np.array([1, 2])),
                               f"combination [1, 2]: {err}")):
            assert type(back) is type(err) and str(back) == message
            assert vars(back).keys() == vars(err).keys()
            for key, value in vars(err).items():
                assert np.array_equal(getattr(back, key), value), key
