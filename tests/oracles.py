"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch against the problem
definitions, not by calling into the implementations under test: the QP
oracle is an accelerated projected-gradient method on the dual, the Q
function comes from numerical quadrature, and detection is brute-force
nearest point. Each point's free (lattice-edge) axes are found by searching
its lattice row and column, not read from the constellation's tables. The
multicast oracle is the scalar SCA loop (one descent per start on the scalar
QP core), against which the lock-step stack is checked. The OB oracle is the
uplink fixed point with an explicit inverse of the covariance per iteration,
against which the Cholesky iteration of solve_ob is checked; after it comes
solve_ob as it was before a stack of frames iterated in lock-step (one
frame, its stop test on Python floats after every iteration), which every
frame of solve_ob_stack must match bit for bit. The QP core that the
solver's least-distance core replaced, a scalar active-set loop (min_norm_qp),
is kept verbatim at the end as a reference for it, followed by that core as it
was before it certified a stack's all-active points (min_norm_ldp: one NNLS per
problem), the reference for the certify-first step, and that certify-first
core as it was before primal-dual active-set steps on the Gram system
replaced its guess (certify_first_ldp: one SVD polish of a guessed working
set, then NNLS), the reference for the Gram core, and the Gram core as it was
before it called LAPACK's gesv gufunc directly (linalg_solve_ldp), which the
core must match bit for bit. Last comes the
hand-written pool-adjacent-violators fit (_isotonic_nonincreasing) that
SerCurve.monotonized used before it called scipy's isotonic_regression.
After it come detect and build_ser_curve as they were before the SER curve
counted errors per lattice axis (detect_oracle, build_ser_curve_oracle), and
the equivalent-channel fit as it was before its bin edges were bisected
together (brentq_edges_oracle, validate_distribution_oracle). Then comes
solve_multicast_stack as it was before each SCA round started its QP from
the previous round's support (multicast_stack_oracle: every round guesses
all rows active), which the warm working set must match bit for bit, and
the frame and sweep path as it was before a sweep ran as one stack
(run_frame, run_frames and run_sweep: one frame at a time, per grid value
and precoder, with the simulator's old per-user symbol lookup, _symbol_values,
and the one-frame solve_ob above),
which the stacked runner must match bit for bit. After them come three pieces
of hand code that a table or a library call replaced: the per-order lattice
coordinates (lattice_coords_oracle), the SER curve's inverse interpolation
(sinr_db_for_ser_oracle) and the unit-direction form of the KKT residual
(kkt_residual_oracle).
"""

import concurrent.futures
from dataclasses import replace

import numpy as np
from scipy.integrate import quad
from scipy.linalg.lapack import zposv
from scipy.optimize import brentq, nnls

from cipm import solver
from cipm.baselines import (BeamformerSet, BeamformingConvergenceError, _reject_zero_rows,
                            _tangent_rows, achieved_sinrs, solve_multicast_stack)
from cipm.channel import (ChannelMatrix, FadingConfig, as_entries, effective_channel,
                          eq_power_cdf, eq_power_pdf, sample_rayleigh, symbol_stats)
from cipm.constellation import detect, get_constellation
from cipm.linkadapt import SerCurve, effective_goodput, energy_efficiency
from cipm.simulator import (SWEEP_AXIS_TABLE, FrameConfig, FrameResult, _frame_rng,
                            aggregate, draw_channel)
from cipm.solver import (_LDP_TOL, _REFINE_TOL, _STEPS, ActiveSetLimitError,
                         InfeasibleConstraintsError, SinrTargets, SolverError, _polish,
                         _named, _row_labels, solve_cipm_stack)


def free_axes(spec, index):
    """(I free, Q free) of a point: no point of its row (same Q) lies further
    out along I, and none of its column (same I) further out along Q."""
    lattice = np.asarray(spec.lattice)
    a, b = lattice[index]
    row_i = lattice[lattice[:, 1] == b, 0]
    col_q = lattice[lattice[:, 0] == a, 1]
    return (not np.any(np.sign(a) * row_i > abs(a)),
            not np.any(np.sign(b) * col_q > abs(b)))


def embed_constraints(h, specs, symbols, zeta, sigma_z, mode):
    """Real-embedded constraint system for u = [Re x; Im x].

    Re(h x) = [Re h, -Im h] u and Im(h x) = [Im h, Re h] u; one I row and
    one Q row per user, scaled by sqrt(zeta_j) * sigma_z.  Mode 'strict'
    pins both components; mode 'relaxed' turns each free axis into an
    inequality, sign-normalized so that it reads row . u >= rhs.
    """
    if mode not in ("relaxed", "strict"):
        raise ValueError(f"unknown mode {mode!r}")
    h = np.asarray(h, dtype=complex)
    rows, rhs, is_eq = [], [], []
    for j, (spec, sym) in enumerate(zip(specs, symbols)):
        re, im = h[j].real, h[j].imag
        point = spec.points[sym]
        free = free_axes(spec, sym) if mode == "relaxed" else (False, False)
        s = np.sqrt(zeta[j]) * sigma_z
        for row, c, is_free in zip((np.concatenate([re, -im]), np.concatenate([im, re])),
                                   (point.real, point.imag), free):
            b = s * c
            sg = -1.0 if is_free and b < 0 else 1.0
            rows.append(sg * row)
            rhs.append(sg * b)
            is_eq.append(not is_free)
    return np.array(rows), np.array(rhs), np.array(is_eq, dtype=bool)


def qp_oracle(rows, rhs, is_eq, tol=1e-10, max_iter=300_000):
    """min ||u||^2 s.t. equality rows hold and inequality rows are >=.

    Accelerated projected gradient on the dual
        maximize -0.25 v' G G' v + b' v,  v >= 0 on inequality components,
    with primal recovery u = G' v / 2.  Stops when primal feasibility and
    the duality gap both clear `tol`; returns (u, power, iterations).
    """
    G = np.asarray(rows, dtype=float)
    b = np.asarray(rhs, dtype=float)
    is_eq = np.asarray(is_eq, dtype=bool)
    ineq = ~is_eq
    Q = G @ G.T
    L = max(np.linalg.eigvalsh(Q).max(), 1e-12) / 2.0
    v = np.zeros(len(b))
    y = v.copy()
    t = 1.0
    u = np.zeros(G.shape[1])
    for it in range(max_iter):
        grad = -0.5 * (Q @ y) + b
        v_new = y + grad / L
        v_new[ineq] = np.maximum(v_new[ineq], 0.0)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = v_new + ((t - 1.0) / t_new) * (v_new - v)
        v, t = v_new, t_new
        if it % 50 == 49:
            u = 0.5 * (G.T @ v)
            r = G @ u - b
            feas = 0.0
            if is_eq.any():
                feas = np.max(np.abs(r[is_eq]))
            if ineq.any():
                feas = max(feas, -min(np.min(r[ineq]), 0.0))
            gap = abs(u @ u - (-(v @ Q @ v) / 4.0 + b @ v))
            if feas <= 10.0 * tol and gap <= tol * max(1.0, u @ u):
                return u, float(u @ u), it + 1
    return u, float(u @ u), max_iter


def solve_reference(h, specs, symbols, zeta, sigma_z, mode, tol=1e-10):
    """Power of the detection-region QP via the projected-gradient oracle."""
    G, b, is_eq = embed_constraints(h, specs, symbols, zeta, sigma_z, mode)
    u, power, iters = qp_oracle(G, b, is_eq, tol=tol)
    x = u[:h.shape[1]] + 1j * u[h.shape[1]:]
    return x, power, iters


def q_oracle(x):
    """Gaussian tail probability by quadrature (no erfc shortcut)."""
    val, _ = quad(lambda t: np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi),
                  x, np.inf)
    return val


def q_inv_oracle(p):
    """Invert q_oracle by bisection on [0, 40]."""
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_oracle(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sinr_from_ser_oracle(ser, rate):
    m = 2.0 ** rate
    return (m - 1.0) / (3.0 * rate) * q_inv_oracle(ser / 4.0) ** 2


def nearest_point_oracle(spec, samples):
    """Brute-force minimum-distance detection (ties: lowest index)."""
    pts = np.asarray(spec.points)
    d = np.abs(np.asarray(samples)[:, None] - pts[None, :])
    return np.argmin(d, axis=1)


def seeded_instances(count, base_seed=1000, modulations=("qpsk", "8qam", "16qam")):
    """Small random detection-region QP instances with Nt, K <= 3.

    Yields (h, spec, symbols, zeta); instance i is fully determined by
    base_seed + i.
    """
    for i in range(count):
        rng = np.random.default_rng(base_seed + i)
        k = int(rng.integers(1, 4))
        nt = int(rng.integers(k, 4))
        spec = get_constellation(modulations[int(rng.integers(0, len(modulations)))])
        h = (rng.standard_normal((k, nt))
             + 1j * rng.standard_normal((k, nt))) / np.sqrt(2.0)
        zeta = 10.0 ** (rng.uniform(2.0, 12.0, size=k) / 10.0)
        symbols = [int(rng.integers(0, spec.order)) for _ in range(k)]
        yield h, spec, symbols, zeta


def sca_descent_oracle(h: np.ndarray, rhs_abs2: np.ndarray, x0: np.ndarray,
                       max_rounds: int = 200, tol: float = 1e-12) -> np.ndarray:
    """Feasible descent for min ||x||^2 s.t. |h_j x|^2 >= rhs_abs2[j].

    Each round replaces |h_j x|^2 with its tangent lower bound at the
    current iterate, giving a least-norm problem with linear constraints.
    Iterates stay feasible and the power never increases.
    """
    nt = h.shape[1]
    x = x0.copy()
    power = float(np.real(x.conj() @ x))
    for _ in range(max_rounds):
        y = h @ x
        rows_c = y.conj()[:, None] * h                # Re(rows_c @ x) = Re(conj(y) h x)
        rows = np.hstack([rows_c.real, -rows_c.imag])
        rhs = 0.5 * (rhs_abs2 + np.abs(y) ** 2)
        # collinear rows (users sharing a channel direction) are nested
        # half-spaces; keep only the tightest so the QP start stays consistent
        norms = np.linalg.norm(rows, axis=1)
        unit = rows / norms[:, None]
        scaled = rhs / norms
        keep = []
        for i in range(len(scaled)):
            dup = next((j for j in keep
                        if np.linalg.norm(unit[i] - unit[j]) < 1e-9), None)
            if dup is None:
                keep.append(i)
            elif scaled[i] > scaled[dup]:
                scaled[dup] = scaled[i]
        u, _ = min_norm_qp(unit[keep], scaled[keep],
                           np.zeros(len(keep), dtype=bool),
                           max_iter=8 * len(keep) + 8)
        x_new = u[:nt] + 1j * u[nt:]
        p_new = float(np.real(x_new.conj() @ x_new))
        if p_new > power - tol * (1.0 + power):
            if p_new < power:
                x, power = x_new, p_new
            break
        x, power = x_new, p_new
    return x


def multicast_oracle(h, rhs_abs2, restarts, seed, warm_start=None):
    """Scalar multicast bound: one SCA descent per start, first best power kept.

    The reference for solve_multicast_stack's lock-step descents. Returns
    (x, power).
    """
    nt = h.shape[1]
    rng = np.random.default_rng(seed)
    starts = []
    if warm_start is not None:
        starts.append(np.asarray(warm_start, dtype=complex))
    for _ in range(restarts):
        x0 = rng.standard_normal(nt) + 1j * rng.standard_normal(nt)
        y2 = np.abs(h @ x0) ** 2
        if np.min(y2) <= 0:
            continue
        starts.append(x0 * np.sqrt(np.max(rhs_abs2 / y2)))
    best_x, best_p = None, np.inf
    for x0 in starts:
        y2 = np.abs(h @ x0) ** 2
        if np.any(y2 < rhs_abs2 * (1 - 1e-12)):
            x0 = x0 * np.sqrt(np.max(rhs_abs2 / y2))
        x = sca_descent_oracle(h, rhs_abs2, x0)
        p = float(np.real(x.conj() @ x))
        if p < best_p:
            best_x, best_p = x, p
    return best_x, best_p


def ob_fixed_point_oracle(h, targets, tol=1e-10, max_iter=10000):
    """OB beams by the virtual-uplink fixed point, one np.linalg.inv per iteration.

    The same iterates and stop rule as solve_ob, in the inverse-and-einsum
    arithmetic: iteration counts must agree exactly, beams to rounding.
    """
    h, zeta, s2 = np.asarray(h, dtype=complex), targets.zeta, targets.sigma_z ** 2
    k, nt = h.shape
    noise, gain, hc = s2 * np.eye(nt, dtype=complex), zeta / (1.0 + zeta), h.conj()
    q, it = np.zeros(k), 0
    for it in range(1, max_iter + 1):
        m = noise + (hc.T * q) @ h
        minv = np.linalg.inv(m)
        c = np.real(np.einsum("ji,ik,jk->j", h, minv, hc))
        q_new = gain / c
        delta = np.max(np.abs(q_new - q))
        q = q_new
        if delta < tol * max(1.0, np.max(q)):
            break
    else:
        raise BeamformingConvergenceError(
            f"uplink power iteration did not converge in {max_iter} iterations "
            "(targets may be infeasible)", iterations=max_iter)
    m = noise + (hc.T * q) @ h
    dirs = np.linalg.solve(m, hc.T).T                # row j: unnormalized direction
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    g = np.abs(h @ dirs.T) ** 2                      # g[j, k] = |h_j u_k|^2
    d_mat = -g.copy()
    d_mat[np.diag_indices(k)] = np.diag(g) / zeta
    p = np.linalg.solve(d_mat, s2 * np.ones(k))
    if np.any(p <= 0):
        raise BeamformingConvergenceError(
            "downlink power rescaling produced nonpositive powers "
            "(targets may be infeasible)", iterations=it)
    w = np.sqrt(p)[:, None] * dirs
    beams = BeamformerSet(w=w, total_power=float(p.sum()), iterations=it)
    sinrs = achieved_sinrs(h, beams, targets.sigma_z)
    err = np.max(np.abs(sinrs - zeta) / zeta)
    if err > 1e-6:
        raise BeamformingConvergenceError(
            f"achieved SINRs deviate from targets by {err:.2e} relative", iterations=it)
    return beams


# solve_ob as it was before the frames of a run iterated in lock-step
# (solve_ob_stack): one frame, its stop test on Python floats after every
# iteration. Kept verbatim as the reference the stack must match bit for bit.
_OB_TOL, _OB_MAX_ITER = 1e-10, 10000    # uplink fixed point: relative step, iterations


def solve_ob(channel, targets: SinrTargets) -> BeamformerSet:
    """Minimum-power beams meeting per-user SINR targets.

    Solved through the virtual-uplink fixed point: iterate uplink powers
    against MMSE receive directions, then rescale to downlink powers with
    a K x K linear system so every SINR constraint holds with equality.
    Each iteration assembles the uplink covariance M = sigma_z^2 I +
    sum_j q_j h_j^H h_j from a table of outer products and solves it against
    H^H with one Cholesky factorization. A covariance that is not numerically
    positive definite (q diverging, as on collinear users) raises
    BeamformingConvergenceError, like any other sign of infeasible targets;
    an all-zero channel row raises InfeasibleConstraintsError up front.
    """
    h, zeta, s2 = as_entries(channel), targets.zeta, targets.sigma_z ** 2
    if err := _reject_zero_rows(h):
        raise err
    k, nt = h.shape
    gain, hc = zeta / (1.0 + zeta), h.conj()
    outer = (hc[:, :, None] * h[:, None, :]).reshape(k, nt * nt)   # row j: h_j^H h_j
    noise, hh = s2 * np.eye(nt, dtype=complex).ravel(), np.asfortranarray(hc.T)

    def receive(q, it):
        """M(q)^-1 H^H: column j is user j's unnormalized MMSE direction."""
        _, x, info = zposv((q @ outer + noise).reshape(nt, nt), hh)
        if info:
            raise BeamformingConvergenceError(
                f"uplink covariance is not positive definite at iteration {it} "
                "(targets may be infeasible)", iterations=it)
        return x

    q, it = np.zeros(k), 0
    for it in range(1, _OB_MAX_ITER + 1):
        q_new = gain / (h * receive(q, it).T).sum(1).real
        # stop test on Python floats: at this size one numpy reduction costs
        # about as much as the Cholesky solve
        delta = max(map(abs, (q_new - q).tolist()))
        q = q_new
        if delta < _OB_TOL * max(1.0, *q.tolist()):
            break
    else:
        raise BeamformingConvergenceError(
            f"uplink power iteration did not converge in {_OB_MAX_ITER} iterations "
            "(targets may be infeasible)", iterations=_OB_MAX_ITER)
    dirs = receive(q, it).T                          # row j: unnormalized direction
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    g = np.abs(h @ dirs.T) ** 2                      # g[j, k] = |h_j u_k|^2
    d_mat = -g.copy()
    d_mat[np.diag_indices(k)] = np.diag(g) / zeta
    p = np.linalg.solve(d_mat, s2 * np.ones(k))
    if np.any(p <= 0):
        raise BeamformingConvergenceError(
            "downlink power rescaling produced nonpositive powers "
            "(targets may be infeasible)", iterations=it)
    w = np.sqrt(p)[:, None] * dirs
    beams = BeamformerSet(w=w, total_power=float(p.sum()), iterations=it)
    sinrs = achieved_sinrs(h, beams, targets.sigma_z)
    err = np.max(np.abs(sinrs - zeta) / zeta)
    if err > 1e-6:
        raise BeamformingConvergenceError(
            f"achieved SINRs deviate from targets by {err:.2e} relative", iterations=it)
    return beams



# The active-set core the least-distance core replaced, kept verbatim as its
# reference: a scalar loop. It starts from the all-equality least-norm point,
# so it rejects any problem whose equality system (every row pinned) is
# inconsistent.
_FEAS_TOL, _MULT_TOL = 1e-9, 1e-10   # feasibility (times 1 + max|rhs|), release


def _least_norm(a: np.ndarray, b: np.ndarray, rcond: float = 1e-12):
    """Least-norm u of a u = b and multipliers nu of a.T nu = u, from one SVD.

    With a = U S V^T and singular values at or below rcond * s_max cut (as
    np.linalg.lstsq does), u = V S^-1 U^T b and nu = U S^-2 U^T b.
    Returns (u, nu, ||a u - b||).
    """
    if a.shape[0] == 0:
        return np.zeros(a.shape[1]), np.zeros(0), 0.0
    left, s, vt = np.linalg.svd(a, full_matrices=False)
    r = int(np.count_nonzero(s > rcond * s[0]))
    c = (left[:, :r].T @ b) / s[:r]
    u = vt[:r].T @ c
    return u, left[:, :r] @ (c / s[:r]), float(np.linalg.norm(a @ u - b))


def min_norm_qp(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray, *, max_iter: int):
    """min ||u||^2 subject to mixed equality / >= rows, primal active set.

    Starts from the all-equality least-norm point, which is feasible by
    construction, then releases inequality rows whose multipliers say the
    norm can shrink by moving into the allowed half-space. Each working set
    is factorized once; that factorization gives both its least-norm point
    and its multipliers.
    Returns (u, nu) where nu holds the multipliers of the final working set
    (zero on inactive rows), with u = rows.T @ nu.
    """
    m = len(rhs)
    scale = 1.0 + float(np.max(np.abs(rhs), initial=0.0))
    u, nu_w, resid = _least_norm(rows, rhs)
    if resid > _FEAS_TOL * scale:
        gaps = np.abs(rows @ u - rhs)
        bad = [_row_labels(m)[i] for i in np.flatnonzero(gaps > _FEAS_TOL * scale)]
        raise InfeasibleConstraintsError(
            f"equality system inconsistent (residual {resid:.3e}); conflicting rows: {bad}",
            conflicts=bad)
    work = np.ones(m, dtype=bool)  # all rows active at the strict start
    u_star = u                     # least-norm point of the working set
    for _ in range(max_iter):
        if u_star is None:
            u_star, nu_w, resid = _least_norm(rows[work], rhs[work])
            if resid > _FEAS_TOL * scale:
                bad = [_row_labels(m)[i] for i in np.flatnonzero(work)]
                raise InfeasibleConstraintsError(
                    f"working-set system inconsistent (residual {resid:.3e})", conflicts=bad)
        if np.linalg.norm(u_star - u) <= 1e-12 * (1.0 + np.linalg.norm(u)):
            u = u_star
            neg = ~is_eq[work] & (nu_w < -_MULT_TOL)
            if not neg.any():
                nu = np.zeros(m)
                nu[work] = nu_w
                return u, nu
            # most negative multiplier; ties go to the lowest row
            work[np.flatnonzero(work)[np.argmin(np.where(neg, nu_w, np.inf))]] = False
            u_star = None
            continue
        d = u_star - u
        g = rows @ d
        cand = np.flatnonzero(~is_eq & ~work & (g < -1e-14))
        # step to the first inequality the move would cross (ratios clamped
        # at 0 against rounding-level violations); ties go to the lowest row
        ratios = np.maximum((rhs[cand] - rows[cand] @ u) / g[cand], 0.0)
        first = int(np.argmin(ratios)) if len(cand) else -1
        if first >= 0 and ratios[first] < 1.0:
            u = u + ratios[first] * d
            work[cand[first]] = True
            u_star = None
        else:
            u = u + d
    raise ActiveSetLimitError(f"active-set loop did not converge within {max_iter} iterations")


# The least-distance core as it was before it certified the all-active point
# of a stack first: one NNLS per problem, then one batched polish. Kept
# verbatim as the reference the certify-first core must match.
def min_norm_ldp(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray, keys=None):
    """min ||u||^2 s.t. rows u == rhs on is_eq rows, >= rhs on the rest; C stacked problems.

    Each problem is a least-distance program, solved for any rank of its rows
    by one NNLS (Lawson and Hanson, Solving Least Squares Problems, ch. 23):
    min ||E y - e_n+1|| over y >= 0, E = [A^T; b^T] with A and b scaled to
    unit max-norm and equality rows entered as +- pairs. A residual at or
    below _LDP_TOL leaves A^T y ~ 0, b^T y ~ 1: a Farkas certificate. Else
    the equality rows and those with y > 0 are the active set, whose point
    _polish recomputes (-r[:n] / r[n] loses digits to cancellation). Errors
    name problem c by keys[c], if given. Returns u (C, n) and nu (C, m) with
    u[c] = rows[c].T @ nu[c].
    """
    where = (lambda c: "") if keys is None else (lambda c: f"combination {keys[c].tolist()}: ")
    m, n = rows.shape[1:]
    b_max = np.abs(rhs).max(axis=1, keepdims=True)
    b = rhs * (np.abs(rows).max(axis=(1, 2))[:, None] / np.maximum(b_max, np.finfo(float).tiny))
    e = np.concatenate([rows, b[..., None]], axis=2)
    e = np.concatenate([e, -e * is_eq[..., None]], axis=1).transpose(0, 2, 1).copy()
    target, y = np.eye(n + 1)[n], np.empty((len(e), 2 * m))
    for c in range(len(e)):
        try:
            y[c], resid = nnls(e[c], target)
        except RuntimeError as exc:
            raise ActiveSetLimitError(f"{where(c)}NNLS stopped: {exc}") from exc
        if resid <= _LDP_TOL:
            z = y[c, :m] - y[c, m:]
            bad = [_row_labels(m)[i] for i in np.flatnonzero(z)]
            raise InfeasibleConstraintsError(f"{where(c)}infeasible; Farkas certificate on"
                                             f" conflicting rows {bad}", bad, z / (rhs[c] @ z))
    u, nu = _polish(rows, rhs, is_eq | (y[:, :m] > 0.0))
    gaps = rhs - (rows @ u[..., None])[..., 0]
    np.abs(gaps, out=gaps, where=is_eq)
    bad = gaps > _FEAS_TOL * (1.0 + b_max)
    if bad.any():
        c = int(np.argmax(bad.any(axis=1)))
        raise SolverError(f"{where(c)}active-set point violates rows "
                          f"{[_row_labels(m)[i] for i in np.flatnonzero(bad[c])]}")
    return u, nu


# solver._ldp_nnls as it was while it raised, naming problem c by keys[c]: the
# core above, which certify_first_ldp falls back to.
_ldp_nnls = min_norm_ldp


# The least-distance core as it was before lock-step primal-dual active-set
# steps on the Gram system replaced its first guess: one batched SVD polish
# of a guessed working set (the caller's, or every row for a stack of two or
# more), then NNLS and a second polish for each problem the guess does not
# certify, and NNLS alone for a lone problem with no working set. Kept
# verbatim, with its violation test, as the reference the Gram core must match
# within 1e-12.
def certify_first_ldp(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray, keys=None,
                      work: np.ndarray | None = None):
    """min ||u||^2 s.t. rows u == rhs on is_eq rows, >= rhs on the rest; C stacked problems.

    The stack is first solved on a guessed working set, in one batched
    _polish: work (C, m), ORed with is_eq, if given, else every row (a
    stack of one with no work skips the guess: at C=1 it costs about what
    one NNLS costs and certifies only about half of the slots). Where that
    point meets the guessed rows within _FEAS_TOL max|rhs| and every other
    row exactly, and its multipliers are nonnegative on the inequality rows,
    it meets the KKT conditions, so it is the optimum: bit for bit what
    _ldp_nnls returns when NNLS picks the same support. The other problems go
    to _ldp_nnls, in index order. A guess changes the cost, never the
    optimum. Errors name problem c by keys[c], if given. Returns u (C, n) and
    nu (C, m) with u[c] = rows[c].T @ nu[c].
    """
    if work is None and len(rows) < 2:
        return _ldp_nnls(rows, rhs, is_eq, keys)
    guess = np.ones(rhs.shape, dtype=bool) if work is None else work | is_eq
    u, nu = _polish(rows, rhs, guess)
    tol = np.where(guess, _FEAS_TOL * np.abs(rhs).max(axis=1, keepdims=True), 0.0)
    rest = np.flatnonzero((_violations(rows, rhs, is_eq, u, tol) | ((nu < 0.0) & ~is_eq))
                          .any(axis=1))
    if len(rest):
        u[rest], nu[rest] = _ldp_nnls(rows[rest], rhs[rest], is_eq[rest],
                                      None if keys is None else keys[rest])
    return u, nu


def _violations(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray, u: np.ndarray,
                tol: np.ndarray) -> np.ndarray:
    """Rows (C, m) that u misses by more than tol: |gap| on is_eq rows, the shortfall on the
    rest."""
    gaps = rhs - (rows @ u[..., None])[..., 0]
    np.abs(gaps, out=gaps, where=is_eq)
    return gaps > tol


# The Gram core as it was before it called LAPACK's gesv gufunc directly and read
# its per-stack invariants once: each solve through np.linalg.solve, bisecting a
# stack that holds a singular slice, and each step recomputing its scale, its
# tolerance, ~is_eq and an identity. Kept verbatim, up to the names of its three
# functions and solver._ldp_nnls for the NNLS fallback (this file's _ldp_nnls is
# the older raising core), as the reference the core must match bit for bit.
def linalg_solve_ldp(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray,
                     work: np.ndarray | None = None):
    """min ||u||^2 s.t. rows u == rhs on is_eq rows, >= rhs on the rest; C stacked problems.

    Up to _STEPS lock-step primal-dual active-set steps (Hintermueller, Ito and Kunisch,
    SIAM J. Optim. 2002) from working sets work | is_eq, else every row. Problems left open
    go to _ldp_nnls (the only source of Farkas certificates and of ActiveSetLimitError),
    then one step from each NNLS support retakes the points it certifies: a point depends
    on its support alone, so a first working set changes the cost, never the optimum.
    Returns u (C, n), nu (C, m) with u[c] = rows[c].T @ nu[c], and errors: {c: the
    SolverError problem c raises alone}, in index order, with u[c] and nu[c] nan.
    """
    w = np.ones(rhs.shape, dtype=bool) if work is None else work | is_eq
    gram = rows @ rows.transpose(0, 2, 1)
    u, nu, w, done = _linalg_pdas_step(gram, rows, rhs, is_eq, w)
    for _ in range(_STEPS - 1):         # later steps take only the open problems
        if done.all():
            break
        o = ~done if done.any() else slice(None)
        u[o], nu[o], w[o], done[o] = _linalg_pdas_step(gram[o], rows[o], rhs[o], is_eq[o], w[o])
    if done.all():
        return u, nu, {}
    rest = np.flatnonzero(~done)
    u[rest], nu[rest], errors = solver._ldp_nnls(rows[rest], rhs[rest], is_eq[rest])
    errors = {int(rest[c]): errors[c] for c in sorted(errors)}
    rest = rest[~np.isin(rest, list(errors))]       # the retake skips the failed problems
    a, b, eq = rows[rest], rhs[rest], is_eq[rest]
    x, v, _, done = _linalg_pdas_step(gram[rest], a, b, eq, eq | (nu[rest] > 0.0))
    u[rest[done]], nu[rest[done]] = x[done], v[done]
    return u, nu, errors


def _linalg_pdas_step(gram, rows, rhs, is_eq, w):
    """One primal-dual active-set step: solve (A_w A_w^T) nu = b_w (identity rows off w), u =
    A^T nu. Returns u, nu, the next w = is_eq | (nu + (b - A u) / max_i ||a_i||^2 > 0) and
    done: u keeps w, meets its rows within _FEAS_TOL max|b| and the rest exactly, has nu >= 0
    on inequality rows, and a refinement step moves it by at most _REFINE_TOL ||u||."""
    g = np.where(w[:, :, None] & w[:, None, :], gram, np.eye(w.shape[1]))
    nu = _linalg_gram_solve(g, np.where(w, rhs, 0.0))
    u = (nu[:, None] @ rows)[:, 0]
    gaps = rhs - (rows @ u[..., None])[..., 0]
    w_next = is_eq | (nu * np.einsum("cii->ci", gram).max(axis=1, keepdims=True) + gaps > 0.0)
    tol = _FEAS_TOL * np.abs(rhs).max(axis=1, keepdims=True)
    done = ~((w_next != w) | (np.abs(gaps) > tol) & w | (nu < 0.0) & ~is_eq).any(axis=1)
    if done.any():
        du = (_linalg_gram_solve(g, np.where(w, gaps, 0.0))[:, None] @ rows)[:, 0]
        done &= np.abs(du).max(axis=1) <= _REFINE_TOL * np.abs(u).max(axis=1)
    return u, nu, w_next, done


def _linalg_gram_solve(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (C, m) of g x = b; a singular slice gives nan in its own row, not an error."""
    try:
        return np.linalg.solve(g, b[..., None])[..., 0]
    except np.linalg.LinAlgError:       # one singular slice fails the call: bisect the stack
        half = len(g) // 2
        return (np.concatenate([_linalg_gram_solve(g[:half], b[:half]),
                                _linalg_gram_solve(g[half:], b[half:])])
                if half else np.full(b.shape, np.nan))


def _isotonic_nonincreasing(y):
    """Pool-adjacent-violators fit, nonincreasing in the index."""
    y = np.asarray(y, dtype=float)
    # fit the flipped sequence as nondecreasing, then flip back
    vals = list(-y)
    weights = [1.0] * len(vals)
    blocks = []  # (value, weight)
    for v, w in zip(vals, weights):
        blocks.append([v, w])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2 = blocks.pop()
            v1, w1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    out = []
    for v, w in blocks:
        out.extend([v] * int(round(w)))
    return -np.array(out)


# Detection and the SER-curve kernel as they were before build_ser_curve
# counted errors per lattice axis: a complex received sample per symbol,
# rescaled by 1/amp, and a full detect whose index table is rebuilt per call.

def _quantize(levels_max: int, x: np.ndarray) -> np.ndarray:
    """Nearest odd level; exact midpoints resolve to the lower level."""
    a = 2 * np.ceil(x / 2.0) - 1
    return np.clip(a, -levels_max, levels_max)


def detect_oracle(spec, received):
    """Index of the minimum-distance point; ties go to the smaller index.

    received is a complex scalar or array in unit-power constellation units.
    """
    vals = np.asarray(received, dtype=complex)
    scalar = vals.ndim == 0
    vals = np.atleast_1d(vals)
    s = spec.scale
    amax = int(np.max(np.abs(spec.lattice[:, 0])))
    bmax = int(np.max(np.abs(spec.lattice[:, 1])))
    a = _quantize(amax, vals.real / s)
    b = _quantize(bmax, vals.imag / s)
    if spec.order == 32:
        bad = (np.abs(a) == 5) & (np.abs(b) == 5)
        if np.any(bad):
            sa, sb = np.sign(a[bad]), np.sign(b[bad])
            c1 = s * (5 * sa + 3j * sb)   # corner resolved along I
            c2 = s * (3 * sa + 5j * sb)   # corner resolved along Q
            d1 = np.abs(vals[bad] - c1)
            d2 = np.abs(vals[bad] - c2)
            # on the exact diagonal, prefer the point in the lower-index row
            take1 = np.where(d1 == d2, sb > 0, d1 < d2)
            a[bad] = np.where(take1, 5 * sa, 3 * sa)
            b[bad] = np.where(take1, 3 * sb, 5 * sb)
    key = ((b.astype(int) + bmax) // 2) * (amax + 1) + (a.astype(int) + amax) // 2
    table = np.full(((bmax + 1) * (amax + 1)), -1, dtype=int)
    pk = (spec.lattice[:, 1] + bmax) // 2 * (amax + 1) + (spec.lattice[:, 0] + amax) // 2
    table[pk] = np.arange(spec.order)
    idx = table[key]
    return int(idx[0]) if scalar else idx


def build_ser_curve_oracle(name, snr_db_grid=None, symbols_per_point=1_000_000, seed=0):
    """Monte-Carlo AWGN SER curve on a 0.5 dB grid, monotonized.

    Unit-energy symbols scaled by sqrt(snr); unit-variance complex noise, so
    the grid value is the symbol SNR Es/N0 in dB.
    """
    spec = get_constellation(name)
    if snr_db_grid is None:
        snr_db_grid = np.arange(0.0, 28.0 + 1e-9, 0.5)
    snr_db_grid = np.asarray(snr_db_grid, dtype=float)
    rng = np.random.default_rng(seed)
    pts = np.asarray(spec.points)
    ser = np.empty(len(snr_db_grid))
    for i, sdb in enumerate(snr_db_grid):
        amp = np.sqrt(10.0 ** (sdb / 10.0))
        idx = rng.integers(0, spec.order, size=symbols_per_point)
        noise = (rng.standard_normal(symbols_per_point)
                 + 1j * rng.standard_normal(symbols_per_point)) / np.sqrt(2.0)
        received = amp * pts[idx] + noise
        hit = detect_oracle(spec, received / amp)
        ser[i] = np.mean(hit != idx)
    return SerCurve(name, snr_db_grid, ser).monotonized()


# The equivalent-channel fit as it was before its bin edges were bisected
# together and its phase KS statistic was computed in place: one brentq call
# per equal-probability edge.

def brentq_edges_oracle(cfg, stats, bins, hi):
    """Edges 0, ..., inf of equal analytic probability, one brentq per edge."""
    lo = 0.0
    edges = [0.0]
    for q in np.arange(1, bins) / bins:
        edges.append(brentq(lambda v, q=q: eq_power_cdf(v, cfg, stats) - q,
                            lo, hi, xtol=1e-12))
    edges.append(np.inf)
    return np.array(edges)


def validate_distribution_oracle(constellation="16qam", n_antennas=2, beta=1.0,
                                 samples=100_000, bins=24, seed=0):
    """(l1, ks_phase, curves) of the equivalent-channel fit, as computed before."""
    spec = get_constellation(constellation)
    stats = symbol_stats(spec)
    cfg = FadingConfig(beta=beta, n_antennas=n_antennas)
    rng = np.random.default_rng(seed)
    rows = sample_rayleigh(cfg, samples, rng)
    raw = np.sum(np.abs(rows) ** 2, axis=1)
    sym = rng.integers(0, spec.order, size=samples)
    pts = np.asarray(spec.points)[sym]
    gamma = np.abs(pts) ** 2
    z = raw / gamma

    edges = brentq_edges_oracle(cfg, stats, bins, float(np.max(z)) * 2.0 + 10.0)
    counts, _ = np.histogram(z, bins=edges)
    l1 = float(np.sum(np.abs(counts / samples - 1.0 / bins)))

    ref_phase = np.angle((pts.conj() / np.abs(pts))[:, None] * rows)
    flat = np.sort(ref_phase.ravel())
    n = flat.size
    grid = (flat + np.pi) / (2.0 * np.pi)
    ks = float(np.max(np.maximum(np.arange(1, n + 1) / n - grid,
                                 grid - np.arange(0, n) / n)))

    curve_edges = np.linspace(0.0, float(np.quantile(z, 0.995)), 200 + 1)
    density, _ = np.histogram(z, bins=curve_edges, density=True)
    centers = 0.5 * (curve_edges[:-1] + curve_edges[1:])
    return l1, ks, (centers, eq_power_pdf(centers, cfg, stats), density)


# solve_multicast_stack as it was before each SCA round took the previous
# round's support as its first working set: every round runs the solver's
# QP core with no working set, so a stack guesses every row active. Kept
# verbatim (the core is reached through the solver module, since this file's
# min_norm_ldp is the older NNLS-only core).

def multicast_stack_oracle(h: np.ndarray, targets, restarts: int,
                           seed: int | None, warm: np.ndarray | None):
    """Best local minima of ||x||^2 s.t. |h_cj x|^2 >= zeta_j sigma_z^2, h (C, K, Nt).

    Row c starts from warm[c] (if given), then from `restarts` complex
    Gaussian draws of `seed`, the same for every row, scaled onto the
    feasible set (a warm start only if infeasible; starts with some
    h_cj x0 = 0 are skipped). All starts take up to 200 SCA rounds in
    lock-step, one min_norm_ldp call each. A start stops once its power
    drops by no more than 1e-12 (1 + p), taking that step only if lower.
    Each row keeps its first minimum-power start, certified feasible by
    evaluation: returns x (C, Nt), power (C,) and feasible (C,).
    """
    if restarts < 0 or (warm is None and restarts == 0):
        raise ValueError(f"need restarts >= 0 and a start, got restarts={restarts}"
                         f" and {'no' if warm is None else 'a'} warm start")
    if err := _reject_zero_rows(h):
        raise err
    nt, rhs_abs2 = h.shape[2], targets.zeta * targets.sigma_z ** 2
    draws = np.random.default_rng(seed).standard_normal((restarts, 2, nt))
    starts = np.broadcast_to(draws[:, 0] + 1j * draws[:, 1], (len(h), restarts, nt))
    if warm is not None:
        starts = np.concatenate([np.asarray(warm, dtype=complex)[:, None], starts], axis=1)
    y2 = np.abs(np.einsum("ckn,csn->csk", h, starts)) ** 2
    c_idx, s_idx = np.nonzero(np.min(y2, axis=2) > 0)      # usable starts, row by row
    if len(np.unique(c_idx)) < len(h):
        raise ValueError("no usable start: each is orthogonal to some user's channel")
    hb, x, y2 = h[c_idx], starts[c_idx, s_idx], y2[c_idx, s_idx]
    grow = (s_idx >= (warm is not None)) | np.any(y2 < rhs_abs2 * (1 - 1e-12), axis=1)
    x[grow] *= np.sqrt(np.max(rhs_abs2 / y2[grow], axis=1))[:, None]
    power, a = np.einsum("bn,bn->b", x.conj(), x).real, np.arange(len(x))   # a: live starts
    for _ in range(200):
        rows, rhs = _tangent_rows(hb[a], x[a], rhs_abs2)
        u, _, _ = solver.min_norm_ldp(rows, rhs, np.zeros(rhs.shape, dtype=bool))
        p_new = np.einsum("bn,bn->b", u, u)
        stop = p_new > power[a] - 1e-12 * (1.0 + power[a])
        take = ~stop | (p_new < power[a])
        x[a[take]], power[a[take]] = u[take, :nt] + 1j * u[take, nt:], p_new[take]
        a = a[~stop]
        if not len(a):
            break
    table = np.full(starts.shape[:2], np.inf)
    table[c_idx, s_idx] = power
    pick = np.flatnonzero(s_idx == np.argmin(table, axis=1)[c_idx])   # one start per row
    y2 = np.abs(np.einsum("ckn,cn->ck", h, x[pick])) ** 2
    return x[pick], power[pick], np.all(y2 >= rhs_abs2 - 1e-9, axis=1)


# The frame and sweep path as it was before a sweep ran as one stack: run_sweep
# calls run_frames once per (grid value, precoder), and each frame redraws its
# symbols and noise and solves its own CIPM stack and multicast loop. Kept
# verbatim as the reference the stacked runner must match bit for bit.

def _symbol_values(specs, symbols):
    """Complex symbol per row and user for index rows symbols (N, K)."""
    return np.column_stack([spec.points[symbols[:, j]]
                            for j, spec in enumerate(specs)])


def run_frame(cfg: FrameConfig, channel: ChannelMatrix, frame_index: int = 0
              ) -> FrameResult:
    """Simulate one frame on the given channel.

    Symbol-level precoders solve each distinct symbol combination of the
    frame once; OB applies its per-frame beams to every slot. Randomness
    (symbols, noise) comes from a stream derived from (cfg.seed, frame_index),
    independent of the channel draw.
    """
    specs = cfg.constellations()
    targets = cfg.targets()
    k = cfg.k_users
    h = channel.entries
    rng = _frame_rng(cfg.seed, frame_index, 1)
    symbols = np.column_stack([rng.integers(0, s.order, size=cfg.n_symbols)
                               for s in specs])
    mc_seed = int(rng.integers(0, 2 ** 31))
    try:
        if cfg.precoder == "ob":
            beams = solve_ob(h, targets)
            x = _symbol_values(specs, symbols) @ beams.w
            # user j detects against its own beam gain h_j w_j
            det_scale = np.diag(h @ beams.w.T)
            hits, entries = 0, 1
        else:
            combos, inverse = np.unique(symbols, axis=0, return_inverse=True)
            xs, _, errors = solve_cipm_stack(h, specs, combos, targets, cfg.mode)
            if errors:
                c = min(errors)
                raise _named(errors[c], f"combination {combos[c].tolist()}")
            # receiver rescales by the constraint scaling before the slicer
            det_scale = np.sqrt(targets.zeta) * targets.sigma_z
            if cfg.precoder == "multicast":
                # bounds on the effective channels, warm started at each row's
                # CIPM point so none exceeds it; one seed for every row keeps
                # each row's bound independent of the others
                eff = effective_channel(channel, specs, combos)
                xs, _, errors = solve_multicast_stack(
                    eff, targets, cfg.multicast_restarts, mc_seed, xs)
                if errors:
                    c = min(errors)
                    raise _named(errors[c], f"combination {combos[c].tolist()}")
                det_scale = None
            # the inverse's shape changed across numpy 2.0.x; flatten it
            x = xs[inverse.ravel()]
            hits, entries = cfg.n_symbols - len(combos), len(combos)
    except SolverError as exc:
        raise SolverError(f"frame {frame_index}: {exc}") from exc

    powers = np.sum(np.abs(x) ** 2, axis=1)
    avg_power = float(np.mean(powers))

    if det_scale is None:
        # power bound only: no per-user symbol mapping to detect
        nan = float("nan")
        return FrameResult(avg_power, (nan,) * k, (nan,) * k, nan,
                           hits, entries)

    received = x @ h.T  # received[i, j] = h_j x_i, before noise
    noise = (rng.standard_normal(received.shape)
             + 1j * rng.standard_normal(received.shape)) / np.sqrt(2.0)
    received = received + cfg.sigma_z * noise
    sers, goodputs = [], []
    for j in range(k):
        decided = detect(specs[j], received[:, j] / det_scale[j])
        ser = float(np.mean(decided != symbols[:, j]))
        sers.append(ser)
        goodputs.append(effective_goodput(specs[j].rate, ser))
    eta = energy_efficiency(goodputs, avg_power)
    return FrameResult(avg_power, tuple(sers), tuple(goodputs), eta,
                       hits, entries)


def _run_one_frame(cfg: FrameConfig, frame_index: int) -> FrameResult:
    return run_frame(cfg, draw_channel(cfg, frame_index), frame_index)


def run_frames(cfg: FrameConfig, threads: int = 1):
    """All frames of a config, channels drawn per frame, in frame order."""
    if threads <= 1:
        return [_run_one_frame(cfg, f) for f in range(cfg.frames)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        futs = [pool.submit(_run_one_frame, cfg, f) for f in range(cfg.frames)]
        return [f.result() for f in futs]



def run_sweep(base_cfg: FrameConfig, grid, axis: str = "sinr",
              precoders=("cipm", "ob"), threads: int = 1):
    """Average frame results per (grid value, precoder).

    Channels and symbol draws depend only on (seed, frame index, grid value),
    never on the precoder, so precoders are compared on identical frames.
    """
    rows = []
    for gi, value in enumerate(grid):
        shaped = SWEEP_AXIS_TABLE[axis].config(base_cfg, value)
        shaped = replace(shaped, seed=int(np.random.SeedSequence(
            [int(base_cfg.seed), 977, gi]).generate_state(1)[0]))
        for p in precoders:
            cfg = replace(shaped, precoder=p)
            rows.append(aggregate(run_frames(cfg, threads=threads),
                                  axis, value, p))
    return rows


# Hand code that a table or a library call replaced, kept verbatim as references:
# the per-order lattice coordinates (before one table of level counts built
# them), SerCurve.sinr_db_for_ser's interpolation (before np.interp, here with
# the curve as an argument) and kkt_residual (before it summed h_j^H directly,
# here through unit directions scaled back by the row norms).

def lattice_coords_oracle(order: int) -> np.ndarray:
    """Odd-integer I/Q coordinates, rows by increasing Q then increasing I."""
    if order == 4:
        i_lv, q_lv = (-1, 1), (-1, 1)
    elif order == 8:
        i_lv, q_lv = (-3, -1, 1, 3), (-1, 1)
    elif order == 16:
        i_lv, q_lv = (-3, -1, 1, 3), (-3, -1, 1, 3)
    elif order == 32:
        i_lv, q_lv = (-5, -3, -1, 1, 3, 5), (-5, -3, -1, 1, 3, 5)
    elif order == 64:
        i_lv = q_lv = (-7, -5, -3, -1, 1, 3, 5, 7)
    else:
        raise ValueError(f"unsupported QAM order {order}")
    coords = [(a, b) for b in q_lv for a in i_lv]
    if order == 32:
        # cross shape: drop the four corner points of the 6x6 grid
        coords = [(a, b) for a, b in coords if not (abs(a) == 5 and abs(b) == 5)]
    return np.array(coords, dtype=int)


def sinr_db_for_ser_oracle(self, target):
    """SNR in dB where the (monotonized) curve crosses the target SER.

    Interpolates linearly in (snr_db, log10 ser); zero estimates are
    floored to keep the logs finite.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target SER must lie in (0, 1), got {target}")
    ser = self.monotonized().ser
    floor = 1e-12
    logs = np.log10(np.maximum(ser, floor))
    lt = np.log10(target)
    if lt > logs[0]:
        raise ValueError(
            f"target SER {target} above the measured curve start {ser[0]:.3g}")
    if lt < logs[-1]:
        raise ValueError(
            f"target SER {target} below the measured curve floor {ser[-1]:.3g}")
    # first grid index at or below the target
    idx = int(np.argmax(logs <= lt))
    if logs[idx] == lt or idx == 0:
        return float(self.snr_db[idx])
    x0, x1 = self.snr_db[idx - 1], self.snr_db[idx]
    y0, y1 = logs[idx - 1], logs[idx]
    return float(x0 + (lt - y0) * (x1 - x0) / (y1 - y0))


def kkt_residual_oracle(problem, x: np.ndarray, lam: np.ndarray,
                        mu: np.ndarray) -> float:
    """Stationarity gap ||x + (1/2) sum_j (lam_j + i mu_j) h_j^H||.

    The sum is assembled from the norm-scaled unit channel directions, the
    same decomposition that underlies the correlation-matrix form of the
    stationarity system.
    """
    h = problem.channel
    norms = np.linalg.norm(h, axis=1)
    units = h / norms[:, None]
    c = (lam + 1j * mu) * norms
    s = -0.5 * (units.conj().T @ c)
    return float(np.linalg.norm(x - s))
