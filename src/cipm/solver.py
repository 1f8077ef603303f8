"""Symbol-level precoding as a least-norm QP over detection regions.

Each user contributes one I and one Q constraint on the received value
h_j x: an equality at the scaled symbol component, or a one-sided bound
away from the origin for lattice-edge components. make_problem (per user)
and solve_cipm_stack (through constellation.gather) read them from the cached
coefficient and free-axis tables into one sign-normalized real system on
[Re x; Im x], whose minimum-norm point is the transmit vector: a
least-distance program. One QP core, min_norm_ldp, solves a stack of them by
lock-step primal-dual active-set steps on their Gram systems (solved by numpy's
LAPACK gesv gufunc, called directly, with what the steps read of a stack computed
once per stack, so a lone slot pays little fixed cost per call); what those do
not certify runs one NNLS each, which finds the active set, or a Farkas
certificate of infeasibility, for any rank of the rows. The core and
solve_cipm_stack return each failing problem's error; only lone entries raise
it. solve_cipm (strict mode included) runs the core on one problem, frames and
the multicast SCA rounds on stacks; the equivalent-channel form is the strict
problem on the effective channel, every user at QPSK's point 3. The KKT report
keeps the multipliers and builds its stationarity residual and constraint
violation only on request. make_problem, like gather, rejects a symbol
index that is not an integer in [0, order) of its user's constellation, naming the user.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
# np.linalg.solve's gufunc (LAPACK gesv) without its wrapper, two thirds of a small solve's
# time: the same bits, and a singular slice is nan in its own row, not a stack-wide raise
from numpy.linalg._umath_linalg import solve1 as _gesv

from .channel import ChannelMatrix, as_entries, effective_channel
from .constellation import ConstellationSpec, check_symbols, gather, get_constellation

_FEAS_TOL = 1e-9    # feasibility: times max|rhs| to certify a step, 1 + max|rhs| after NNLS
_LDP_TOL = 1e-10    # NNLS residual (of a unit target) that proves infeasibility
_REFINE_TOL = 1e-13  # a certified point's largest refinement step, times ||u||
_STEPS = 5          # active-set steps before a problem falls back to NNLS
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
        if not (np.all((z > 0) & (z < np.inf)) and 0 < self.sigma_z < np.inf):
            raise ValueError(f"SINR targets and sigma_z must be finite and positive, got"
                             f" zeta {z.tolist()} and sigma_z {self.sigma_z}")
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
    def stationarity_residual(self) -> float:
        nt = self.problem.n_antennas
        return kkt_residual(self.problem, self.u[:nt] + 1j * self.u[nt:], self.lam, self.mu)

    @cached_property
    def max_constraint_violation(self) -> float:
        slack, is_eq = self.problem.rows @ self.u - self.problem.rhs, self.problem.is_eq
        return float(np.max(np.where(is_eq, np.abs(slack), np.maximum(0.0, -slack))))


def _embed_rows(h: np.ndarray) -> np.ndarray:
    """Real functionals of u = [Re x; Im x]: row 2j gives Re(h_j x), row 2j+1 Im(h_j x)."""
    k, nt = h.shape[-2:]
    out = np.concatenate([h.real, -h.imag, h.imag, h.real], axis=-1)
    return out.reshape(*h.shape[:-2], 2 * k, 2 * nt)


def _assemble(h: np.ndarray, coeffs: np.ndarray, free: np.ndarray, targets: SinrTargets):
    """PrecodeProblem's (rows, rhs, is_eq, flips) from (..., K, 2) points and free axes."""
    is_eq = ~free.reshape(*free.shape[:-2], -1)
    rhs = ((np.sqrt(targets.zeta) * targets.sigma_z)[..., None] * coeffs).reshape(is_eq.shape)
    flips = np.where(is_eq | (rhs >= 0), 1.0, -1.0)
    return _embed_rows(h) * flips[..., None], flips * rhs, is_eq, flips


def make_problem(channel, specs: list[ConstellationSpec], symbols, targets: SinrTargets,
                 mode: str = "relaxed") -> PrecodeProblem:
    """Assemble the per-slot problem for the given symbol indices."""
    h = as_entries(channel)
    k = h.shape[0]
    if len(specs) != k or len(symbols) != k or len(targets.zeta) != k:
        raise ValueError("specs, symbols and targets must all have one entry per user")
    _check_mode(mode)
    try:
        idx = [operator.index(i) for i in symbols]
        valid = all(0 <= i < spec.order for spec, i in zip(specs, idx))
    except TypeError:
        valid = False
    if not valid:
        check_symbols(specs, symbols)
    coeffs = np.array([spec.coeffs[i] for spec, i in zip(specs, idx)])
    free = np.array([spec.free[i] for spec, i in zip(specs, idx)]) & (mode == "relaxed")
    return PrecodeProblem(h, *_assemble(h, coeffs, free, targets))


def _polish(rows: np.ndarray, rhs: np.ndarray, work: np.ndarray):
    """Least-norm u (C, n) of rows u = rhs on the work rows, and nu (C, m) with rows.T nu = u.

    One batched SVD a = U S V^T of the work rows (others zeroed; singular values at or
    below 1e-12 s_max cut, as in np.linalg.lstsq): u = V S^-1 U^T b, nu = U S^-2 U^T b.
    """
    left, sv, vt = np.linalg.svd(rows * work[..., None], full_matrices=False)
    sv_inv = 1.0 / np.where(sv > 1e-12 * sv[:, :1], sv, np.inf)
    c = (np.where(work, rhs, 0.0)[:, None] @ left)[:, 0] * sv_inv
    return (c[:, None] @ vt)[:, 0], (left @ (c * sv_inv)[..., None])[..., 0] * work


@cache
def _eye(m: int) -> np.ndarray:
    return np.broadcast_to(np.eye(m), (m, m))       # read only: every caller shares it


def _invariants(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray) -> tuple:
    """What _pdas_step reads of a stack and never changes: the Gram stack, rows, rhs, is_eq,
    ~is_eq, max_i ||a_i||^2 and the feasibility tolerance _FEAS_TOL max|b|, each (C, ...)."""
    gram = rows @ rows.transpose(0, 2, 1)
    return (gram, rows, rhs, is_eq, ~is_eq, gram.diagonal(0, 1, 2).max(axis=1, keepdims=True),
            _FEAS_TOL * np.abs(rhs).max(axis=1, keepdims=True))


@np.errstate(invalid="ignore")         # gesv flags a singular slice invalid
def _pdas_step(stack, w: np.ndarray):
    """One primal-dual active-set step on a stack's _invariants: solve (A_w A_w^T) nu = b_w
    (identity rows off w; LAPACK gesv, a singular slice nan in its own row), u = A^T nu.
    Returns u, nu, the next w = is_eq | (nu + (b - A u) / max_i ||a_i||^2 > 0) and done: u
    keeps w, meets its rows within _FEAS_TOL max|b| and the rest exactly, has nu >= 0 on
    inequality rows, and a refinement step moves it by at most _REFINE_TOL ||u||."""
    gram, rows, rhs, is_eq, ineq, scale, tol = stack
    g = np.where(w[:, :, None] & w[:, None, :], gram, _eye(w.shape[1]))
    nu = _gesv(g, np.where(w, rhs, 0.0))
    u = (nu[:, None] @ rows)[:, 0]
    gaps = rhs - (rows @ u[..., None])[..., 0]
    w_next = is_eq | (nu * scale + gaps > 0.0)
    done = ~((w_next != w) | (np.abs(gaps) > tol) & w | (nu < 0.0) & ineq).any(axis=1)
    if np.count_nonzero(done):
        du = (_gesv(g, np.where(w, gaps, 0.0))[:, None] @ rows)[:, 0]
        done &= np.abs(du).max(axis=1) <= _REFINE_TOL * np.abs(u).max(axis=1)
    return u, nu, w_next, done


def min_norm_ldp(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray,
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
    stack, done = _invariants(rows, rhs, is_eq), np.zeros(len(rhs), dtype=bool)
    for _ in range(_STEPS):
        if not (n_done := np.count_nonzero(done)):
            u, nu, w, done = _pdas_step(stack, w)
        elif n_done == len(done):
            return u, nu, {}
        else:                           # a step past a certified problem takes the open ones
            o = ~done
            u[o], nu[o], w[o], done[o] = _pdas_step([a[o] for a in stack], w[o])
    if done.all():
        return u, nu, {}
    rest = np.flatnonzero(~done)
    u[rest], nu[rest], errors = _ldp_nnls(rows[rest], rhs[rest], is_eq[rest])
    errors = {int(rest[c]): errors[c] for c in sorted(errors)}
    rest = rest[~np.isin(rest, list(errors))]       # the retake skips the failed problems
    x, v, _, done = _pdas_step([a[rest] for a in stack], is_eq[rest] | (nu[rest] > 0.0))
    u[rest[done]], nu[rest[done]] = x[done], v[done]
    return u, nu, errors


def _ldp_nnls(rows: np.ndarray, rhs: np.ndarray, is_eq: np.ndarray):
    """min_norm_ldp by one NNLS per problem, for any rank of its rows (errors unordered).

    Lawson and Hanson, Solving Least Squares Problems, ch. 23: min ||E y -
    e_n+1|| over y >= 0, E = [A^T; b^T] with A and b scaled to unit max-norm
    and equality rows entered as +- pairs. A residual at or below _LDP_TOL
    leaves A^T y ~ 0, b^T y ~ 1: a Farkas certificate. Else the equality rows
    and those with y > 0 are the active set, whose point _polish recomputes
    (-r[:n] / r[n] loses digits to cancellation).
    """
    from scipy.optimize import nnls
    m, n = rows.shape[1:]
    b_max = np.abs(rhs).max(axis=1, keepdims=True)
    b = rhs * (np.abs(rows).max(axis=(1, 2))[:, None] / np.maximum(b_max, np.finfo(float).tiny))
    e = np.concatenate([rows, b[..., None]], axis=2)
    e = np.concatenate([e, -e * is_eq[..., None]], axis=1).transpose(0, 2, 1).copy()
    target, y, errors = np.eye(n + 1)[n], np.zeros((len(e), 2 * m)), {}
    for c in range(len(e)):
        try:
            y[c], resid = nnls(e[c], target)
        except RuntimeError as exc:
            errors[c] = ActiveSetLimitError(f"NNLS stopped: {exc}")
            continue
        if resid <= _LDP_TOL:
            z = y[c, :m] - y[c, m:]
            bad = [_row_labels(m)[i] for i in np.flatnonzero(z)]
            errors[c] = InfeasibleConstraintsError(
                f"infeasible; Farkas certificate on conflicting rows {bad}", bad, z / (rhs[c] @ z))
    u, nu = _polish(rows, rhs, is_eq | (y[:, :m] > 0.0))
    gaps = rhs - (rows @ u[..., None])[..., 0]
    bad = np.where(is_eq, np.abs(gaps), gaps) > _FEAS_TOL * (1.0 + b_max)
    for c in np.flatnonzero(bad.any(axis=1)):
        labels = [_row_labels(m)[i] for i in np.flatnonzero(bad[c])]
        errors.setdefault(int(c), SolverError(f"active-set point violates rows {labels}"))
    u[list(errors)] = nu[list(errors)] = np.nan
    return u, nu, errors


def _named(err: SolverError, where: str) -> SolverError:
    """err renamed `where: err`, as a failed row or frame reports it: same type and fields."""
    (named := copy.copy(err)).args = (f"{where}: {err}",)
    return named


def solve_cipm_stack(h: np.ndarray, specs: list[ConstellationSpec], combos: np.ndarray,
                     targets: SinrTargets, mode: str) -> tuple[np.ndarray, np.ndarray, dict]:
    """Transmit vectors (C, Nt), powers (C,) and min_norm_ldp's errors (rows of nan) of
    symbol rows (C, K); h is one channel (K, Nt) or one per row, targets.zeta (K,) or (C, K)."""
    _check_mode(mode)
    free = gather(specs, combos, "free") & (mode == "relaxed")
    rows, rhs, is_eq, _ = _assemble(h, gather(specs, combos, "coeffs"), free, targets)
    u, _, errors = min_norm_ldp(rows, rhs, is_eq)
    power = (u[:, None] @ u[..., None])[:, 0, 0]    # each row's u @ u, as solve_cipm sums it
    return u[:, :h.shape[-1]] + 1j * u[:, h.shape[-1]:], power, errors


def kkt_residual(problem: PrecodeProblem, x: np.ndarray, lam: np.ndarray,
                 mu: np.ndarray) -> float:
    """Stationarity gap ||x + (1/2) sum_j (lam_j + i mu_j) h_j^H||."""
    return float(np.linalg.norm(x + 0.5 * (problem.channel.conj().T @ (lam + 1j * mu))))


@cache
def _row_labels(m: int) -> tuple:
    return tuple(f"user{i // 2 + 1}/{'I' if i % 2 == 0 else 'Q'}" for i in range(m))


def solve_cipm(problem: PrecodeProblem) -> tuple[PrecodedSignal, KktReport]:
    """Minimum-power transmit vector honoring every detection region."""
    u, nu, errors = min_norm_ldp(problem.rows[None], problem.rhs[None], problem.is_eq[None])
    if errors:
        raise errors[0]
    u, nt = u[0], problem.n_antennas
    # map working-set multipliers back to the unflipped I/Q frame
    lam, mu = (-2.0 * problem.flips * nu[0]).reshape(-1, 2).T
    sig = PrecodedSignal(x=u[:nt] + 1j * u[nt:], power=float(u @ u))
    return sig, KktReport(lam=lam, mu=mu, problem=problem, u=u)


def solve_strict_equivalent(channel, specs, symbols, targets: SinrTargets
                            ) -> tuple[PrecodedSignal, KktReport]:
    """Strict solve phrased on the effective channel with one common target.

    All users share the unit-modulus reference point, QPSK's point 3; the per-user
    symbol amplitude and phase are absorbed into the channel rows. The optimal
    power matches the direct strict solve exactly.
    """
    h = effective_channel(ChannelMatrix(as_entries(channel)), specs, symbols)
    qpsk = get_constellation("qpsk")
    return solve_cipm(make_problem(h, [qpsk] * len(h), [3] * len(h), targets, "strict"))
