"""Symbol-level precoding as a least-norm QP over detection regions.

Each user contributes one I and one Q constraint on the received value
h_j x: an equality at the scaled symbol component, or a one-sided bound
away from the origin for lattice-edge components. make_problem gathers
them from the constellations' cached coefficient and free-axis tables into
one sign-normalized real system on [Re x; Im x]. The transmit vector of
minimum norm solves a least-distance program. One QP core, min_norm_ldp,
solves a stack of them. A stack of two or more first tries every row
active, in one batched SVD: where that point is feasible and its
multipliers are nonnegative on the inequality rows, it is the optimum. The
other problems, and a lone one (where the guess would cost about what it
saves), run one NNLS each, which finds the active set, or a Farkas
certificate of infeasibility, for any rank of the rows (overloaded and
collinear users included); one more batched SVD then gives every active
set's point and multipliers. solve_cipm (strict mode included, through
make_problem(..., "strict")) and the equivalent-channel form run the core on
one problem, frames and the multicast SCA rounds on stacks.
The KKT report keeps the multipliers and builds its residual, violation,
active set and correlation matrix only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from scipy.optimize import nnls

from .channel import ChannelMatrix, effective_channel, REFERENCE_SYMBOL
from .constellation import ConstellationSpec

_FEAS_TOL = 1e-9    # feasibility of a solution, times 1 + max|rhs|
_LDP_TOL = 1e-10    # NNLS residual (of a unit target) that proves infeasibility
MODES = ("relaxed", "strict")


class SolverError(Exception):
    """Base class for precoding solver failures."""


class InfeasibleConstraintsError(SolverError):
    """No point meets the rows (or users) in conflicts; farkas, if given, proves it.

    It has rows.T @ farkas ~ 0, rhs @ farkas == 1 and farkas >= 0 on inequality rows.
    """

    def __init__(self, message, conflicts=(), farkas=None):
        super().__init__(message)
        self.conflicts = tuple(conflicts)
        self.farkas = farkas


class ActiveSetLimitError(SolverError):
    """NNLS exceeded its iteration budget."""


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

    u is the real-embedded optimum.
    """

    lam: np.ndarray                   # I-constraint multipliers, one per user
    mu: np.ndarray                    # Q-constraint multipliers
    problem: PrecodeProblem = field(repr=False, compare=False)
    u: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def _slack(self) -> np.ndarray:
        return self.problem.rows @ self.u - self.problem.rhs

    @cached_property
    def stationarity_residual(self) -> float:
        nt = self.problem.n_antennas
        return kkt_residual(self.problem, self.u[:nt] + 1j * self.u[nt:], self.lam, self.mu)

    @cached_property
    def max_constraint_violation(self) -> float:
        slack, is_eq = self._slack, self.problem.is_eq
        return float(np.max(np.where(is_eq, np.abs(slack), np.maximum(0.0, -slack))))

    @cached_property
    def active_set(self) -> tuple:
        """Indices 2j (I) / 2j+1 (Q) of binding inequalities."""
        return tuple(np.flatnonzero(~self.problem.is_eq & (np.abs(self._slack) < 1e-9)).tolist())

    @cached_property
    def rho(self) -> np.ndarray:
        """Normalized channel correlation matrix."""
        h = self.problem.channel
        norms = np.linalg.norm(h, axis=1)
        return (h @ h.conj().T) / np.outer(norms, norms)


def _embed_rows(h: np.ndarray) -> np.ndarray:
    """Real functionals of u = [Re x; Im x]: row 2j gives Re(h_j x), row 2j+1 Im(h_j x)."""
    k, nt = h.shape[-2:]
    out = np.empty(h.shape[:-2] + (k, 2, 2 * nt))
    out[..., 0, :nt] = out[..., 1, nt:] = h.real
    out[..., 1, :nt], out[..., 0, nt:] = h.imag, -h.imag
    return out.reshape(*h.shape[:-2], 2 * k, 2 * nt)


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


def _polish(rows: np.ndarray, rhs: np.ndarray, work: np.ndarray):
    """Least-norm u (C, n) of rows u = rhs on the work rows, and nu (C, m) with rows.T nu = u.

    One batched SVD a = U S V^T of the work rows (others zeroed; singular values at or
    below 1e-12 s_max cut, as in np.linalg.lstsq): u = V S^-1 U^T b, nu = U S^-2 U^T b.
    """
    left, sv, vt = np.linalg.svd(rows * work[..., None], full_matrices=False)
    sv_inv = 1.0 / np.where(sv > 1e-12 * sv[:, :1], sv, np.inf)
    c = (np.where(work, rhs, 0.0)[:, None] @ left)[:, 0] * sv_inv
    return (c[:, None] @ vt)[:, 0], (left @ (c * sv_inv)[..., None])[..., 0] * work


def min_norm_ldp(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray, keys=None):
    """min ||u||^2 s.t. rows u == rhs on is_eq rows, >= rhs on the rest; C stacked problems.

    A stack of two or more is first solved with every row active, in one
    batched _polish. Where that point passes _violations' test and its
    multipliers are nonnegative on the inequality rows, it meets the KKT
    conditions, so it is the optimum: bit for bit what _ldp_nnls returns
    when NNLS keeps every row. The other problems go to _ldp_nnls, in index
    order. A stack of one goes straight there: at C=1 the guess costs about
    what one NNLS costs and certifies only about half of the slots. Errors
    name problem c by keys[c], if given. Returns u (C, n) and nu (C, m) with
    u[c] = rows[c].T @ nu[c].
    """
    if len(rows) < 2:
        return _ldp_nnls(rows, rhs, is_eq, keys)
    u, nu = _polish(rows, rhs, np.ones(rhs.shape, dtype=bool))
    b_max = np.abs(rhs).max(axis=1, keepdims=True)
    rest = np.flatnonzero((_violations(rows, rhs, is_eq, u, b_max) | ((nu < 0.0) & ~is_eq))
                          .any(axis=1))
    if len(rest):
        u[rest], nu[rest] = _ldp_nnls(rows[rest], rhs[rest], is_eq[rest],
                                      None if keys is None else keys[rest])
    return u, nu


def _violations(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray, u: np.ndarray,
                b_max: np.ndarray) -> np.ndarray:
    """Rows (C, m) that u misses by more than _FEAS_TOL (1 + b_max): |gap| on is_eq rows,
    the shortfall on the rest."""
    gaps = rhs - (rows @ u[..., None])[..., 0]
    np.abs(gaps, out=gaps, where=is_eq)
    return gaps > _FEAS_TOL * (1.0 + b_max)


def _ldp_nnls(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray, keys):
    """min_norm_ldp by one NNLS per problem, for any rank of its rows.

    Lawson and Hanson, Solving Least Squares Problems, ch. 23: min ||E y -
    e_n+1|| over y >= 0, E = [A^T; b^T] with A and b scaled to unit max-norm
    and equality rows entered as +- pairs. A residual at or below _LDP_TOL
    leaves A^T y ~ 0, b^T y ~ 1: a Farkas certificate. Else the equality rows
    and those with y > 0 are the active set, whose point _polish recomputes
    (-r[:n] / r[n] loses digits to cancellation).
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
    bad = _violations(rows, rhs, is_eq, u, b_max)
    if bad.any():
        c = int(np.argmax(bad.any(axis=1)))
        raise SolverError(f"{where(c)}active-set point violates rows "
                          f"{[_row_labels(m)[i] for i in np.flatnonzero(bad[c])]}")
    return u, nu


def solve_cipm_stack(h: np.ndarray, specs: list[ConstellationSpec], combos: np.ndarray,
                     targets: SinrTargets, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Transmit vectors (C, Nt) and powers (C,) of symbol rows (C, K); errors name the row."""
    _check_mode(mode)
    coeffs = np.stack([s.coeffs[combos[:, j]] for j, s in enumerate(specs)], 1)
    free = np.stack([s.free[combos[:, j]] for j, s in enumerate(specs)], 1) & (mode == "relaxed")
    rows, rhs, is_eq, _ = _assemble(h, coeffs, free, targets)
    u, _ = min_norm_ldp(rows, rhs, is_eq, combos)
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


@cache
def _row_labels(m: int) -> tuple:
    return tuple(f"user{i // 2 + 1}/{'I' if i % 2 == 0 else 'Q'}" for i in range(m))


def solve_cipm(problem: PrecodeProblem) -> tuple[PrecodedSignal, KktReport]:
    """Minimum-power transmit vector honoring every detection region."""
    u, nu = min_norm_ldp(problem.rows[None], problem.rhs[None], problem.is_eq[None])
    u, nu, nt = u[0], nu[0], problem.n_antennas
    # map working-set multipliers back to the unflipped I/Q frame
    nu_eff = problem.flips * nu
    sig = PrecodedSignal(x=u[:nt] + 1j * u[nt:], power=float(u @ u))
    return sig, KktReport(lam=-2.0 * nu_eff[0::2], mu=-2.0 * nu_eff[1::2], problem=problem, u=u)


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
    return solve_cipm(prob)
