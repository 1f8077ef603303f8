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
against which the Cholesky iteration of solve_ob is checked.
"""

import numpy as np
from scipy.integrate import quad

from cipm.baselines import BeamformerSet, BeamformingConvergenceError, achieved_sinrs
from cipm.constellation import get_constellation
from cipm.solver import min_norm_qp


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
