"""User-level beamforming and multicast power references.

Two baselines bracket the symbol-level precoder: classical SINR-constrained
downlink beamforming (interference treated as noise, beams fixed per frame,
the uplink fixed points of a stack of frames run in lock-step), and the
multicast problem on the effective channel, whose optimum lower-bounds the
symbol-level power. Its SCA descents of a whole stack of channels also run in
lock-step, each round one call of the solver's QP core, min_norm_ldp, which
takes collinear users' tangent rows as they are. Like that core, both stacks
report each failing frame or row with the error it raises alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zposv

from .channel import as_entries
from .solver import InfeasibleConstraintsError, SinrTargets, SolverError, min_norm_ldp

# uplink fixed point: relative step, iterations, and iterations per stop test
_OB_TOL, _OB_MAX_ITER, _OB_BLOCK = 1e-10, 10000, 16
_NOT_PD = "uplink covariance is not positive definite at iteration {} (targets may be infeasible)"


class BeamformingConvergenceError(SolverError):
    def __init__(self, message, iterations):
        super().__init__(message)
        self.iterations = iterations

    def __reduce__(self):           # pickle and copy rebuild it from both arguments
        return type(self), (str(self), self.iterations)


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
    """Minimum-power beams meeting per-user SINR targets: solve_ob_stack of one frame."""
    return solve_ob_stack([channel], [targets])[0]


def solve_ob_stack(channels, targets) -> list:
    """Minimum-power beams, one BeamformerSet per channel (K, Nt) and its SinrTargets.

    Solved through the virtual-uplink fixed point (_uplink_powers: every frame
    in lock-step, each bit for bit its lone run), then a K x K linear system
    rescales to downlink powers so every SINR constraint holds with equality.
    A covariance that is not numerically positive definite (q diverging, as on
    collinear users) is a BeamformingConvergenceError, like any other sign of
    infeasible targets; an all-zero channel row an InfeasibleConstraintsError.
    Raises the first failing frame's error, the one it raises alone.
    """
    beams = _ob_frames(channels, targets)
    if errors := [b for b in beams if isinstance(b, SolverError)]:
        raise errors[0]
    return beams


def _ob_frames(channels, targets) -> list:
    """solve_ob_stack's BeamformerSet per frame, or the SolverError the frame raises alone."""
    frames, groups, out = {}, {}, {}
    for f, (c, t) in enumerate(zip(channels, targets, strict=True)):
        h = as_entries(c)
        try:
            _reject_zero_rows(h)
        except InfeasibleConstraintsError as err:
            out[f] = err
            continue
        hc, nt = h.conj(), h.shape[1]
        outer = (hc[:, :, None] * h[:, None, :]).reshape(len(h), nt * nt)   # row j: h_j^H h_j
        frames[f] = (h, t, outer, t.sigma_z ** 2 * np.eye(nt, dtype=complex).ravel(),
                     np.asfortranarray(hc.T))
        # numpy sums 8 or more complex entries pairwise, where zero padding would reorder the sum
        groups.setdefault(nt if nt >= 8 else 0, []).append(f)
    for idx in groups.values():
        out.update(zip(idx, _uplink_powers([frames[f] for f in idx])))
    return [o if isinstance(o, SolverError) else _downlink(*frames[f], *o)
            for f, o in sorted(out.items())]


def _passes(q):
    """The stop test of iterates q (rows, ..., K): row r + 1 against row r, for each r."""
    return np.abs(q[1:] - q[:-1]).max(-1) < _OB_TOL * np.maximum(1.0, q[1:].max(-1))


@np.errstate(all="ignore")
def _uplink_powers(frames):
    """(q, stop iteration), or the error it raises alone, per frame (h, targets, outer
    products, noise, H^H), in lock-step.

    Each iteration solves every frame's uplink covariance M = sigma_z^2 I + sum_j
    q_j h_j^H h_j against H^H by one Cholesky factorization into a zero-padded
    (F, Kmax, Ntmax) stack x, where one multiply, sum and divide give all the new
    powers. The stop test runs every _OB_BLOCK iterations on the stored iterates
    (complex, as q @ outer casts q anyway); a frame stops at its first passing row,
    with that row's q, and no iteration past it fails the frame; one that fails stops
    there. A diverging q goes inf, then nan, and runs to the cap as alone (warnings off).
    """
    n, kmax = len(frames), max(len(f[0]) for f in frames)
    h, x = np.zeros((2, n, kmax, max(len(f[4]) for f in frames)), dtype=complex)
    gain, qs = np.zeros((n, kmax)), np.zeros((_OB_BLOCK + 1, n, kmax), dtype=complex)
    for i, (hf, t, *_) in enumerate(frames):
        h[i, :len(hf), :hf.shape[1]], gain[i, :len(hf)] = hf, t.zeta / (1.0 + t.zeta)
        h[i, len(hf):, 0] = x[i, len(hf):, 0] = 1.0      # padded users: gain 0, so q stays 0
    live, out, done, loop = np.arange(n), [None] * n, 0, None
    while len(live) and done < _OB_MAX_ITER:
        # per live frame: its tables, its rows of qs, and its slot of x shaped as M^-1 H^H
        loop = loop or [(i, outer, noise, hh, len(hh), qs[:, i, :len(hf)],
                         x[i, :len(hf), :len(hh)].T)
                        for i, (hf, _, outer, noise, hh) in enumerate(frames[f] for f in live)]
        rows, qr, failed = min(_OB_BLOCK, _OB_MAX_ITER - done), qs.real, []
        for r in range(1, rows + 1):
            for i, outer, noise, hh, nt, q, slot in loop:
                _, slot[...], info = zposv((q[r - 1] @ outer + noise).reshape(nt, nt), hh)
                if info and not _passes(qr[:r, i]).any():
                    out[live[i]] = BeamformingConvergenceError(_NOT_PD.format(done + r), done + r)
                    failed, loop = failed + [i], [e for e in loop if e[0] != i]
            np.divide(gain, np.add.reduce(h * x, -1).real, out=qr[r])
        stop = _passes(qr[:rows + 1])
        if failed:                                  # a failed frame has no passing row
            stop[:, failed] = False
        if (hit := stop.any(0)).any() or failed:
            for i, r in zip(np.flatnonzero(hit), stop.argmax(0)[hit] + 1):
                out[live[i]] = qr[r, i, :len(frames[live[i]][0])].copy(), done + int(r)
            hit[failed] = True
            live, h, x, gain, qs = live[~hit], h[~hit], x[~hit], gain[~hit], qs[:, ~hit]
            loop = None
        done += rows
        qs[0] = qs[rows]
    for f in live:
        out[f] = BeamformingConvergenceError(
            f"uplink power iteration did not converge in {_OB_MAX_ITER} iterations "
            "(targets may be infeasible)", iterations=_OB_MAX_ITER)
    return out


def _downlink(h, targets, outer, noise, hh, q, it):
    """Beams along the MMSE directions at uplink powers q, scaled to meet every target; or
    the error that keeps them from it."""
    zeta, (k, nt) = targets.zeta, h.shape
    _, x, info = zposv((q @ outer + noise).reshape(nt, nt), hh)
    if info:
        return BeamformingConvergenceError(_NOT_PD.format(it), it)
    dirs = x.T / np.linalg.norm(x.T, axis=1)[:, None]   # row j: user j's unit direction
    g = np.abs(h @ dirs.T) ** 2                      # g[j, k] = |h_j u_k|^2
    d_mat = -g.copy()
    d_mat[np.diag_indices(k)] = np.diag(g) / zeta
    p = np.linalg.solve(d_mat, targets.sigma_z ** 2 * np.ones(k))
    if np.any(p <= 0):
        return BeamformingConvergenceError(
            "downlink power rescaling produced nonpositive powers "
            "(targets may be infeasible)", iterations=it)
    beams = BeamformerSet(w=np.sqrt(p)[:, None] * dirs, total_power=float(p.sum()), iterations=it)
    err = np.max(np.abs(achieved_sinrs(h, beams, targets.sigma_z) - zeta) / zeta)
    if err > 1e-6:
        return BeamformingConvergenceError(
            f"achieved SINRs deviate from targets by {err:.2e} relative", iterations=it)
    return beams


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
    converging descent keeps, so most rounds certify in one step; a point depends
    on its support alone, so this changes the cost, not the result. A start
    stops once its power drops by no more than 1e-12 (1 + p), taking that step
    only if lower. Each row keeps its first minimum-power start, certified
    feasible by evaluation: returns x (C, Nt), power (C,), feasible (C,) and {c:
    the error row c raises alone, its first failed QP's}, with nan in row c.
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
    work, errors = None, {}           # round 1 guesses every row active
    for _ in range(200):
        rows, rhs = _tangent_rows(hb[a], x[a], rb[a])
        u, nu, failed = min_norm_ldp(rows, rhs, np.zeros(rhs.shape, dtype=bool), work)
        p_new = np.einsum("bn,bn->b", u, u)
        stop = p_new > power[a] - 1e-12 * (1.0 + power[a])
        if failed:                      # a failed start stops; its row keeps its first error
            for s, err in failed.items():
                errors.setdefault(int(c_idx[a[s]]), err)
            stop[list(failed)] = True
        take = ~stop | (p_new < power[a])
        x[a[take]], power[a[take]] = u[take, :nt] + 1j * u[take, nt:], p_new[take]
        a, work = a[~stop], nu[~stop] > 0.0    # each live start's support, for the next round
        if not len(a):
            break
    table = np.full(starts.shape[:2], np.inf)
    table[c_idx, s_idx] = power
    pick = np.flatnonzero(s_idx == np.argmin(table, axis=1)[c_idx])   # one start per row
    x, power = x[pick], power[pick]
    x[list(errors)] = power[list(errors)] = np.nan
    y2 = np.abs(np.einsum("ckn,cn->ck", h, x)) ** 2
    return x, power, np.all(y2 >= rhs_abs2 - 1e-9, axis=1), errors


def solve_multicast_bound(channel, targets: SinrTargets, restarts: int = 64,
                          seed: int | None = 0, warm_start: np.ndarray | None = None
                          ) -> MulticastSolution:
    """solve_multicast_stack on one channel (K, Nt) and an optional warm start (Nt,)."""
    warm = None if warm_start is None else np.asarray(warm_start, dtype=complex)[None]
    x, power, feas, errors = solve_multicast_stack(as_entries(channel)[None], targets,
                                                   restarts, seed, warm)
    if errors:
        raise errors[0]
    return MulticastSolution(x=x[0], power=float(power[0]), feasible=bool(feas[0]))
