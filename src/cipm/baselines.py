"""User-level beamforming and multicast power references.

Two baselines bracket the symbol-level precoder: classical SINR-constrained
downlink beamforming (interference treated as noise, beams fixed per frame),
and the phase-unconstrained multicast problem on the effective channel,
whose optimum lower-bounds the symbol-level power. The multicast bound runs
the SCA descents of a whole stack of channels (a frame's combinations) in
lock-step, each round one call of the solver's QP core, min_norm_ldp, which
takes collinear users' tangent rows as they are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zposv

from .channel import as_entries
from .solver import InfeasibleConstraintsError, SinrTargets, SolverError, min_norm_ldp

_OB_TOL, _OB_MAX_ITER = 1e-10, 10000    # uplink fixed point: relative step, iterations


class BeamformingConvergenceError(SolverError):
    def __init__(self, message, iterations):
        super().__init__(message)
        self.iterations = iterations


@dataclass(frozen=True)
class BeamformerSet:
    """Per-user beams (rows of w) and their total power."""

    w: np.ndarray
    total_power: float
    iterations: int


def _reject_zero_rows(h: np.ndarray) -> None:
    """Raise InfeasibleConstraintsError naming each user with an all-zero row in h (..., K, Nt)."""
    live = np.any(h, axis=-1).reshape(-1, h.shape[-2]).all(axis=0)
    zero = [f"user{j + 1}" for j in np.flatnonzero(~live)]
    if zero:
        raise InfeasibleConstraintsError(f"all-zero channel row for {zero}", zero)


def achieved_sinrs(channel, beams: BeamformerSet, sigma_z: float) -> np.ndarray:
    h = as_entries(channel)
    g = np.abs(h @ beams.w.T) ** 2            # g[j, k] = |h_j w_k|^2
    sig = np.diag(g)
    return sig / (g.sum(axis=1) - sig + sigma_z ** 2)


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
    _reject_zero_rows(h)
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


def ob_frame_power(beams: BeamformerSet, symbol_values: np.ndarray):
    """Instantaneous powers ||sum_j w_j d_j[n]||^2 plus the long-term power.

    symbol_values has shape (N, K), one complex symbol per user and slot.
    Returns (per_slot, frame_average, long_term).
    """
    d = np.asarray(symbol_values, dtype=complex)
    x = d @ beams.w                                   # (N, Nt)
    per_slot = np.sum(np.abs(x) ** 2, axis=1)
    return per_slot, float(per_slot.mean()), beams.total_power


@dataclass(frozen=True)
class MulticastSolution:
    x: np.ndarray
    power: float
    feasible: bool


def _tangent_rows(h: np.ndarray, x: np.ndarray, rhs_abs2: np.ndarray):
    """Unit rows (B, K, 2Nt) and rhs (B, K) of the tangent bounds of |h_j x'|^2 at x (B, Nt)."""
    y = np.einsum("bkn,bn->bk", h, x)
    rows_c = y.conj()[..., None] * h                  # Re(rows_c @ x) = Re(conj(y) h x)
    rows = np.concatenate([rows_c.real, -rows_c.imag], axis=2)
    norms = np.linalg.norm(rows, axis=2)
    return rows / norms[..., None], 0.5 * (rhs_abs2 + np.abs(y) ** 2) / norms


def solve_multicast_stack(h: np.ndarray, targets: SinrTargets, restarts: int,
                          seed, warm: np.ndarray | None):
    """Best local minima of ||x||^2 s.t. |h_cj x|^2 >= zeta_cj sigma_z^2, h (C, K, Nt).

    targets.zeta is (K,) or (C, K), seed one (or None) or one per row (C,). Row c
    starts from warm[c] (if given), then from `restarts` complex Gaussian draws
    of its seed, scaled onto the feasible set (a warm start only if infeasible;
    starts with some h_cj x0 = 0 are skipped). All starts take up to 200 SCA
    rounds in lock-step, one min_norm_ldp call each. From round 2 on, each
    start's QP starts from its previous round's support (nu > 0), which a
    converging descent keeps, so most rounds need no NNLS; a certified point is
    the round's unique optimum, so this changes the cost, not the result. A start
    stops once its power drops by no more than 1e-12 (1 + p), taking that step
    only if lower. Each row keeps its first minimum-power start, certified
    feasible by evaluation: returns x (C, Nt), power (C,) and feasible (C,).
    """
    if restarts < 0 or (warm is None and restarts == 0):
        raise ValueError(f"need restarts >= 0 and a start, got restarts={restarts}"
                         f" and {'no' if warm is None else 'a'} warm start")
    _reject_zero_rows(h)
    nt, rhs_abs2 = h.shape[2], np.broadcast_to(targets.zeta * targets.sigma_z ** 2, h.shape[:2])
    seeds, row_seed = (([seed], np.zeros(len(h), dtype=int)) if np.ndim(seed) == 0
                       else np.unique(seed, return_inverse=True))
    draws = np.stack([np.random.default_rng(s).standard_normal((restarts, 2, nt)) for s in seeds])
    starts = (draws[:, :, 0] + 1j * draws[:, :, 1])[row_seed.ravel()]
    if warm is not None:
        starts = np.concatenate([np.asarray(warm, dtype=complex)[:, None], starts], axis=1)
    y2 = np.abs(np.einsum("ckn,csn->csk", h, starts)) ** 2
    c_idx, s_idx = np.nonzero(np.min(y2, axis=2) > 0)      # usable starts, row by row
    if len(np.unique(c_idx)) < len(h):
        raise ValueError("no usable start: each is orthogonal to some user's channel")
    hb, x, y2, rb = h[c_idx], starts[c_idx, s_idx], y2[c_idx, s_idx], rhs_abs2[c_idx]
    grow = (s_idx >= (warm is not None)) | np.any(y2 < rb * (1 - 1e-12), axis=1)
    x[grow] *= np.sqrt(np.max(rb[grow] / y2[grow], axis=1))[:, None]
    power, a = np.einsum("bn,bn->b", x.conj(), x).real, np.arange(len(x))   # a: live starts
    work = None                       # round 1 guesses every row active
    for _ in range(200):
        rows, rhs = _tangent_rows(hb[a], x[a], rb[a])
        u, nu = min_norm_ldp(rows, rhs, np.zeros(rhs.shape, dtype=bool), c_idx[a], work)
        p_new = np.einsum("bn,bn->b", u, u)
        stop = p_new > power[a] - 1e-12 * (1.0 + power[a])
        take = ~stop | (p_new < power[a])
        x[a[take]], power[a[take]] = u[take, :nt] + 1j * u[take, nt:], p_new[take]
        a, work = a[~stop], nu[~stop] > 0.0    # each live start's support, for the next round
        if not len(a):
            break
    table = np.full(starts.shape[:2], np.inf)
    table[c_idx, s_idx] = power
    pick = np.flatnonzero(s_idx == np.argmin(table, axis=1)[c_idx])   # one start per row
    y2 = np.abs(np.einsum("ckn,cn->ck", h, x[pick])) ** 2
    return x[pick], power[pick], np.all(y2 >= rhs_abs2 - 1e-9, axis=1)


def solve_multicast_bound(channel, targets: SinrTargets, restarts: int = 64,
                          seed: int | None = 0, warm_start: np.ndarray | None = None
                          ) -> MulticastSolution:
    """solve_multicast_stack on one channel (K, Nt) and an optional warm start (Nt,)."""
    warm = None if warm_start is None else np.asarray(warm_start, dtype=complex)[None]
    x, power, feas = solve_multicast_stack(as_entries(channel)[None], targets, restarts,
                                           seed, warm)
    return MulticastSolution(x=x[0], power=float(power[0]), feasible=bool(feas[0]))
