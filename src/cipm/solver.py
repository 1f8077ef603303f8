"""Symbol-level precoding as a least-norm QP over detection regions.

Each user contributes one I and one Q constraint on the received value
h_j x: an equality at the scaled symbol component, or a one-sided bound
away from the origin for lattice-edge components. make_problem gathers
them from the constellations' cached coefficient and free-axis tables into
one sign-normalized real system on [Re x; Im x]. The transmit vector of
minimum norm is found with a primal active-set method warm-started from the
all-equality solution; each working set is factorized once (one SVD gives
both its least-norm point and its multipliers). Frames run it in lock-step over
their combinations (solve_cipm_stack, min_norm_qp_batch), as do the multicast
bound's SCA rounds; only solve_cipm and solve_strict use the scalar loop,
min_norm_qp. The KKT report keeps the multipliers and builds its residual,
violation, active set and correlation matrix only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .channel import ChannelMatrix, effective_channel, REFERENCE_SYMBOL
from .constellation import ConstellationSpec

_FEAS_TOL, _MULT_TOL = 1e-9, 1e-10   # both cores: feasibility (times 1 + max|rhs|), release
MODES = ("relaxed", "strict")


class SolverError(Exception):
    """Base class for precoding solver failures."""


class InfeasibleConstraintsError(SolverError):
    def __init__(self, message, conflicts=()):
        super().__init__(message)
        self.conflicts = tuple(conflicts)


class ActiveSetLimitError(SolverError):
    """The active-set loop exceeded its iteration budget."""


def _check_mode(mode: str) -> None:
    """Reject a constraint mode other than 'relaxed' or 'strict'."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class SinrTargets:
    """Per-user SINR targets (linear) and the noise standard deviation."""

    zeta: np.ndarray
    sigma_z: float

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.zeta, dtype=float))
        if np.any(z <= 0) or self.sigma_z <= 0:
            raise ValueError("targets and sigma_z must be positive")
        object.__setattr__(self, "zeta", z)
        z.setflags(write=False)


@dataclass(frozen=True)
class PrecodeProblem:
    """Sign-normalized real embedding of the per-user (I, Q) constraints.

    Row 2j is user j's I functional and row 2j+1 its Q functional of
    u = [Re x; Im x]. rhs is already scaled by sqrt(zeta_j)*sigma_z.
    Equality rows read rows @ u == rhs; inequality rows were multiplied by
    flips (the sign of their rhs) so that they read rows @ u >= rhs.
    """

    channel: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    is_eq: np.ndarray
    flips: np.ndarray
    mode: str

    @property
    def k_users(self) -> int:
        return self.channel.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.channel.shape[1]


@dataclass(frozen=True)
class PrecodedSignal:
    x: np.ndarray
    power: float


@dataclass(frozen=True)
class KktReport:
    """Multipliers of a solve; the certificate fields are computed on first access.

    u is the real-embedded optimum and is_eq the row kinds the solve used
    (all True for solve_strict).
    """

    lam: np.ndarray                   # I-constraint multipliers, one per user
    mu: np.ndarray                    # Q-constraint multipliers
    problem: PrecodeProblem = field(repr=False, compare=False)
    u: np.ndarray = field(repr=False, compare=False)
    is_eq: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def _slack(self) -> np.ndarray:
        return self.problem.rows @ self.u - self.problem.rhs

    @cached_property
    def stationarity_residual(self) -> float:
        nt = self.problem.n_antennas
        return kkt_residual(self.problem, self.u[:nt] + 1j * self.u[nt:], self.lam, self.mu)

    @cached_property
    def max_constraint_violation(self) -> float:
        slack = self._slack
        return float(np.max(np.where(self.is_eq, np.abs(slack), np.maximum(0.0, -slack))))

    @cached_property
    def active_set(self) -> tuple:
        """Indices 2j (I) / 2j+1 (Q) of binding inequalities."""
        return tuple(np.flatnonzero(~self.is_eq & (np.abs(self._slack) < 1e-9)).tolist())

    @cached_property
    def rho(self) -> np.ndarray:
        """Normalized channel correlation matrix."""
        h = self.problem.channel
        norms = np.linalg.norm(h, axis=1)
        return (h @ h.conj().T) / np.outer(norms, norms)


def _embed_rows(h: np.ndarray) -> np.ndarray:
    """Real functionals of u = [Re x; Im x]: row 2j gives Re(h_j x), row 2j+1 Im(h_j x)."""
    a = np.hstack([h.real, -h.imag])
    b = np.hstack([h.imag, h.real])
    return np.stack([a, b], axis=1).reshape(-1, a.shape[1])


def _assemble(h: np.ndarray, coeffs: np.ndarray, free: np.ndarray, targets: SinrTargets):
    """PrecodeProblem's (rows, rhs, is_eq, flips) from (..., K, 2) points and free axes."""
    is_eq = ~free.reshape(*free.shape[:-2], -1)
    rhs = ((np.sqrt(targets.zeta) * targets.sigma_z)[:, None] * coeffs).reshape(is_eq.shape)
    flips = np.where(is_eq | (rhs >= 0), 1.0, -1.0)
    return _embed_rows(h) * flips[..., None], flips * rhs, is_eq, flips


def make_problem(channel, specs: list[ConstellationSpec], symbols, targets: SinrTargets,
                 mode: str = "relaxed") -> PrecodeProblem:
    """Assemble the per-slot problem for the given symbol indices."""
    h = channel.entries if isinstance(channel, ChannelMatrix) else np.asarray(channel, dtype=complex)
    k = h.shape[0]
    if len(specs) != k or len(symbols) != k or len(targets.zeta) != k:
        raise ValueError("specs, symbols and targets must all have one entry per user")
    _check_mode(mode)
    idx = [int(i) for i in symbols]
    coeffs = np.array([spec.coeffs[i] for spec, i in zip(specs, idx)])
    free = np.array([spec.free[i] for spec, i in zip(specs, idx)]) & (mode == "relaxed")
    return PrecodeProblem(h, *_assemble(h, coeffs, free, targets), mode)


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


def solve_cipm_stack(h: np.ndarray, specs: list[ConstellationSpec], combos: np.ndarray,
                     targets: SinrTargets, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Transmit vectors (C, Nt) and powers (C,) of symbol rows (C, K); errors name the row."""
    _check_mode(mode)
    coeffs = np.stack([s.coeffs[combos[:, j]] for j, s in enumerate(specs)], 1)
    free = np.stack([s.free[combos[:, j]] for j, s in enumerate(specs)], 1) & (mode == "relaxed")
    rows, rhs, is_eq, _ = _assemble(h, coeffs, free, targets)
    u, _ = min_norm_qp_batch(rows, rhs, is_eq, max_iter=_pass_cap(len(specs)), keys=combos)
    return u[:, :h.shape[1]] + 1j * u[:, h.shape[1]:], np.einsum("cn,cn->c", u, u)


def kkt_residual(problem: PrecodeProblem, x: np.ndarray, lam: np.ndarray,
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


def _pass_cap(k_users: int) -> int:
    return 20 * k_users + 20   # release and block passes both count; a wide margin


def _solve(problem: PrecodeProblem, is_eq: np.ndarray) -> tuple[PrecodedSignal, KktReport]:
    u, nu = min_norm_qp(problem.rows, problem.rhs, is_eq, max_iter=_pass_cap(problem.k_users))
    nt = problem.n_antennas
    # map working-set multipliers back to the unflipped I/Q frame
    nu_eff = problem.flips * nu
    sig = PrecodedSignal(x=u[:nt] + 1j * u[nt:], power=float(u @ u))
    rep = KktReport(lam=-2.0 * nu_eff[0::2], mu=-2.0 * nu_eff[1::2],
                    problem=problem, u=u, is_eq=is_eq)
    return sig, rep


@cache
def _row_labels(m: int) -> tuple:
    return tuple(f"user{i // 2 + 1}/{'I' if i % 2 == 0 else 'Q'}" for i in range(m))


def solve_cipm(problem: PrecodeProblem) -> tuple[PrecodedSignal, KktReport]:
    """Minimum-power transmit vector honoring every detection region."""
    return _solve(problem, problem.is_eq)


def solve_strict(problem: PrecodeProblem) -> tuple[PrecodedSignal, KktReport]:
    """All-equality variant: the received values hit the scaled symbols exactly."""
    return _solve(problem, np.ones_like(problem.is_eq))


def solve_strict_equivalent(channel, specs, symbols, targets: SinrTargets,
                            reference: complex = REFERENCE_SYMBOL
                            ) -> tuple[PrecodedSignal, KktReport]:
    """Strict solve phrased on the effective channel with one common target.

    All users share the unit-modulus reference point; the per-user symbol
    amplitude and phase are absorbed into the channel rows. The optimal
    power matches the direct strict solve exactly.
    """
    ch = channel if isinstance(channel, ChannelMatrix) else ChannelMatrix(np.asarray(channel, dtype=complex))
    eq = effective_channel(ch, specs, symbols, reference)
    k = ch.k_users
    coeffs, free = np.tile([reference.real, reference.imag], (k, 1)), np.zeros((k, 2), dtype=bool)
    prob = PrecodeProblem(eq.entries, *_assemble(eq.entries, coeffs, free, targets), "strict")
    return solve_strict(prob)
