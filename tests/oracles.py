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
against which the Cholesky iteration of solve_ob is checked. The QP cores
that the solver's least-distance core replaced, a scalar active-set loop
(min_norm_qp) and its lock-step batched form (min_norm_qp_batch), are kept
verbatim at the end as references for it, followed by that core as it was
before it certified a stack's all-active points (min_norm_ldp: one NNLS per
problem), the reference for the certify-first step. Last comes the
hand-written pool-adjacent-violators fit (_isotonic_nonincreasing) that
SerCurve.monotonized used before it called scipy's isotonic_regression.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import nnls

from cipm.baselines import BeamformerSet, BeamformingConvergenceError, achieved_sinrs
from cipm.constellation import get_constellation
from cipm.solver import (_LDP_TOL, ActiveSetLimitError, InfeasibleConstraintsError,
                         SolverError, _polish, _row_labels)


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


# The two active-set cores the least-distance core replaced, kept verbatim as
# references: a scalar loop and its lock-step batched form. Both start from
# the all-equality least-norm point, so they reject any problem whose
# equality system (every row pinned) is inconsistent.
_FEAS_TOL, _MULT_TOL = 1e-9, 1e-10   # both cores: feasibility (times 1 + max|rhs|), release


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


def min_norm_qp_batch(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray, *,
                      max_iter: int, keys: np.ndarray):
    """min_norm_qp run in lock-step on C stacked problems (C, m, n), (C, m), (C, m).

    Each problem keeps its own working set, rules and pass count. A pass
    factorizes the working sets that changed in one batched SVD (other rows
    zeroed, _least_norm's rcond cut). Errors name problem c by keys[c].
    Returns u (C, n) and nu (C, m) with u[c] = rows[c].T @ nu[c].
    """
    tol = _FEAS_TOL * (1.0 + np.max(np.abs(rhs), axis=1, initial=0.0))
    work, nu = np.ones(rhs.shape, dtype=bool), np.zeros(rhs.shape)
    u_star = np.zeros((len(rhs), rows.shape[2]))   # least-norm points of the working sets
    live, stale = np.ones(len(rhs), dtype=bool), np.ones(len(rhs), dtype=bool)
    for it in range(max_iter):
        f = np.flatnonzero(stale)
        if len(f):
            w = work[f]
            a, b = rows[f] * w[..., None], np.where(w, rhs[f], 0.0)
            left, sv, vt = np.linalg.svd(a, full_matrices=False)
            sv_inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > 1e-12 * sv[:, :1])
            c = np.einsum("cmr,cm->cr", left, b) * sv_inv
            u_star[f] = np.einsum("crn,cr->cn", vt, c)
            nu[f] = np.einsum("cmr,cr->cm", left, c * sv_inv) * w
            gaps = np.abs(np.einsum("cmn,cn->cm", a, u_star[f]) - b)
            for i in np.flatnonzero(np.linalg.norm(gaps, axis=1) > tol[f])[:1]:
                bad = [_row_labels(rhs.shape[1])[j] for j in np.flatnonzero(gaps[i] > tol[f[i]])]
                raise InfeasibleConstraintsError(
                    f"combination {keys[f[i]].tolist()}: {'working-set' if it else 'equality'}"
                    f" system inconsistent (residual {np.linalg.norm(gaps[i]):.3e});"
                    f" conflicting rows: {bad}", conflicts=bad)
            stale[:] = False
        if it == 0:
            u = u_star.copy()   # the all-equality start
        act = np.flatnonzero(live)
        at = (np.linalg.norm(u_star[act] - u[act], axis=1)
              <= 1e-12 * (1.0 + np.linalg.norm(u[act], axis=1)))
        # at the working set's optimum: finish, or release the most negative
        # multiplier (ties to the lowest row)
        r = act[at]
        u[r] = u_star[r]
        neg = ~is_eq[r] & work[r] & (nu[r] < -_MULT_TOL)
        live[r[~neg.any(axis=1)]] = False
        r, neg = r[neg.any(axis=1)], neg[neg.any(axis=1)]
        work[r, np.argmin(np.where(neg, nu[r], np.inf), axis=1)] = False
        stale[r] = True
        # otherwise step toward it, blocked at the first inequality the move
        # would cross (ratios clamped at 0; ties to the lowest row)
        s = act[~at]
        d = u_star[s] - u[s]
        g = np.einsum("cmn,cn->cm", rows[s], d)
        gap = rhs[s] - np.einsum("cmn,cn->cm", rows[s], u[s])
        ratios = np.maximum(np.divide(gap, g, out=np.full_like(g, np.inf),
                                      where=~is_eq[s] & ~work[s] & (g < -1e-14)), 0.0)
        first = np.argmin(ratios, axis=1)
        t = ratios[np.arange(len(s)), first]
        u[s] += np.minimum(t, 1.0)[:, None] * d
        work[s[t < 1.0], first[t < 1.0]] = stale[s[t < 1.0]] = True
        if not live.any():
            return u, nu
    raise ActiveSetLimitError(f"combination {keys[np.flatnonzero(live)[0]].tolist()}: "
                              f"active-set loop did not converge within {max_iter} iterations")


def _pass_cap(k_users: int) -> int:
    return 20 * k_users + 20   # release and block passes both count; a wide margin


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
