"""User-level beamforming and multicast power references.

Two baselines bracket the symbol-level precoder: classical SINR-constrained
downlink beamforming (interference treated as noise, beams fixed per frame),
and the phase-unconstrained multicast problem on the effective channel,
whose optimum lower-bounds the symbol-level power.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .solver import SinrTargets, SolverError, min_norm_qp


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


def _as_entries(channel) -> np.ndarray:
    if isinstance(channel, ChannelMatrix):
        return channel.entries
    return np.asarray(channel, dtype=complex)


def achieved_sinrs(channel, beams: BeamformerSet, sigma_z: float) -> np.ndarray:
    h = _as_entries(channel)
    g = np.abs(h @ beams.w.T) ** 2            # g[j, k] = |h_j w_k|^2
    sig = np.diag(g)
    interf = g.sum(axis=1) - sig
    return sig / (interf + sigma_z ** 2)


def solve_ob(channel, targets: SinrTargets, tol: float = 1e-10,
             max_iter: int = 10000) -> BeamformerSet:
    """Minimum-power beams meeting per-user SINR targets.

    Solved through the virtual-uplink fixed point: iterate uplink powers
    against MMSE receive directions, then rescale to downlink powers with
    a K x K linear system so every SINR constraint holds with equality.
    """
    h = _as_entries(channel)
    k, nt = h.shape
    zeta = targets.zeta
    s2 = targets.sigma_z ** 2
    noise, gain, hc = s2 * np.eye(nt, dtype=complex), zeta / (1.0 + zeta), h.conj()
    q = np.zeros(k)
    it = 0
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
    restarts_used: int


def _sca_descent(h: np.ndarray, rhs_abs2: np.ndarray, x0: np.ndarray,
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


def solve_multicast_bound(channel, targets: SinrTargets, restarts: int = 64,
                          seed: int | None = 0, warm_start: np.ndarray | None = None
                          ) -> MulticastSolution:
    """Best local solution of the phase-free power minimization.

    Each user only requires received power |h_j x|^2 >= zeta_j sigma_z^2.
    The problem is nonconvex; random restarts (plus an optional warm start)
    are polished with a feasible descent and merged by minimum power.
    Feasibility of the reported point is certified by direct evaluation.
    """
    h = _as_entries(channel)
    k, nt = h.shape
    rhs_abs2 = targets.zeta * targets.sigma_z ** 2
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
    used = 0
    for x0 in starts:
        y2 = np.abs(h @ x0) ** 2
        if np.any(y2 < rhs_abs2 * (1 - 1e-12)):
            x0 = x0 * np.sqrt(np.max(rhs_abs2 / y2))
        x = _sca_descent(h, rhs_abs2, x0)
        p = float(np.real(x.conj() @ x))
        used += 1
        if p < best_p:
            best_x, best_p = x, p
    feas = bool(np.all(np.abs(h @ best_x) ** 2 >= rhs_abs2 - 1e-9))
    return MulticastSolution(x=best_x, power=best_p, feasible=feas, restarts_used=used)
