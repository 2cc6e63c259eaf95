"""Three-term recurrences that propagate composed-map coefficients.

For steps f_k(z) = rho_k*z/(1-z) + eps_k^2 the composition
F_N = f_N o ... o f_1 has coefficients (A, B, C, D) with

    A_N = q_{N+1} - q_N,  B_N = r_N - r_{N+1},  C_N = -q_N,  D_N = r_N,

where q and r satisfy x_{k+1} = (1 + rho_k - eps_k^2) x_k - rho_k x_{k-1}
from (q_0, q_1) = (0, 1) and (r_0, r_1) = (1, 1).  The auxiliary sequence
s, which recovers r through r_k = q_k - rho_1 * s_{k-1}, is the q sequence
of the same schedule shifted one step ahead.  The kernels do not carry it;
``s_sequence`` works it out when asked.

The ``extended`` kernel runs in fixed-point integers with at least 128
fraction bits and rounds each value once, to the correctly rounded value of
the exact recurrence unless the value is tiny or within ~2**-128 of a tie.

Index conventions (documented once, used everywhere):

* ``rho`` and ``eps_sq`` have length N+2 and are 1-based; slot 0 is unused
  and kept at 0.  No recurrence reads index N+1; it gives the shifted
  schedule behind s the same N+2 layout.
* ``q`` and ``r`` have length N+2 covering 0..N+1; s covers 0..N.
* Additive perturbations enter only through eps^2, so sequences store
  eps_sq directly and no square root is ever taken.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMapError,
    IdentityViolationError,
    InvalidSpecError,
    RecurrenceOverflowError,
)
from .mobius import MoebiusCoeffs

_OVERFLOW_LIMIT = 1e100


class PerturbationSequences:
    """Concrete per-step sequences rho_k, eps_k^2 for one composition.

    Parameters
    ----------
    rho : array_like of complex, length N+2
        Multiplicative factors, 1-based (slot 0 ignored and zeroed).
    eps_sq : array_like of complex, length N+2
        Squared additive perturbations, same indexing.
    rho_base : complex
        The reference rotation (e^{2 pi i / N} for all built-in schedules);
        the derived sequences are b_k = rho_k - rho_base and
        a_k = b_k - eps_k^2.

    Raises
    ------
    InvalidSpecError
        On length mismatch, non-finite entries, or perturbations outside
        the admissible region (|b_k| > 1 or |eps_k^2| > 1).
    """

    __slots__ = ("_rho", "_eps_sq", "_rho_base")

    def __init__(self, rho, eps_sq, rho_base: complex):
        rho = np.array(rho, dtype=complex)
        eps_sq = np.array(eps_sq, dtype=complex)
        if rho.ndim != 1 or rho.shape != eps_sq.shape:
            raise InvalidSpecError(
                f"rho and eps_sq must be 1-D with equal length, got {rho.shape} and {eps_sq.shape}")
        if rho.size < 3:
            raise InvalidSpecError("need at least N=1, i.e. arrays of length 3")
        rho[0] = 0.0
        eps_sq[0] = 0.0
        if not (np.all(np.isfinite(rho.view(float))) and np.all(np.isfinite(eps_sq.view(float)))):
            raise InvalidSpecError("sequences contain non-finite entries")
        rho_base = complex(rho_base)
        b = rho[1:] - rho_base
        if np.max(np.abs(b)) > 1.0 + 1e-12:
            raise InvalidSpecError(f"|b_k| must be <= 1, max is {np.max(np.abs(b))}")
        if np.max(np.abs(eps_sq[1:])) > 1.0 + 1e-12:
            raise InvalidSpecError(f"|eps_k^2| must be <= 1, max is {np.max(np.abs(eps_sq[1:]))}")
        rho.setflags(write=False)
        eps_sq.setflags(write=False)
        self._rho = rho
        self._eps_sq = eps_sq
        self._rho_base = rho_base

    @classmethod
    def from_eps(cls, rho, eps, rho_base: complex) -> "PerturbationSequences":
        """Build from eps_k rather than eps_k^2 (squares taken here)."""
        eps = np.asarray(eps, dtype=complex)
        return cls(rho, eps * eps, rho_base)

    @property
    def N(self) -> int:
        return self._rho.size - 2

    @property
    def rho(self) -> np.ndarray:
        return self._rho

    @property
    def eps_sq(self) -> np.ndarray:
        return self._eps_sq

    @property
    def rho_base(self) -> complex:
        return self._rho_base

    @property
    def b(self) -> np.ndarray:
        """b_k = rho_k - rho_base (slot 0 meaningless)."""
        out = self._rho - self._rho_base
        out[0] = 0.0
        return out

    @property
    def a(self) -> np.ndarray:
        """a_k = b_k - eps_k^2 (slot 0 meaningless)."""
        return self.b - self._eps_sq

    def step_maps(self) -> np.ndarray:
        """The per-step coefficient matrices, index 1 first (oracle input).

        Returns an (N, 4) complex array whose row k-1 is the quadruple
        (rho_k - eps_k^2, eps_k^2, -1, 1) of step k, the layout of
        ``mobius.perturbed_parabolic_step``; ``compose_chain`` takes it as is.

        Raises
        ------
        DegenerateMapError
            If some step has a*d - b*c == 0, i.e. rho_k == 0.
        """
        es = self._eps_sq[1:-1]
        rows = np.empty((self.N, 4), dtype=complex)
        rows[:, 0] = self._rho[1:-1] - es
        rows[:, 1] = es
        rows[:, 2] = -1.0
        rows[:, 3] = 1.0
        a, b, c, d = rows.T
        degenerate = np.flatnonzero(a * d - b * c == 0)
        if degenerate.size:
            k = int(degenerate[0])
            raise DegenerateMapError(
                f"degenerate step map at k={k + 1}: coefficients {tuple(rows[k].tolist())}")
        return rows


@dataclass(frozen=True)
class QRSTriple:
    """Recurrence outputs q, r plus bookkeeping needed by downstream checks.

    ``rho_cumprod[k]`` is prod_{j<=k} rho_j (length N+1, index 0 = 1); it is
    the exact value of the Wronskian q_{k+1} r_k - r_{k+1} q_k and is carried
    along so corruption checks need no access to the original schedule.
    """

    q: np.ndarray
    r: np.ndarray
    rho_cumprod: np.ndarray

    @property
    def N(self) -> int:
        return self.q.size - 2


def _check_overflow(q: np.ndarray, r: np.ndarray) -> None:
    """Raise on the first entry that is non-finite or exceeds 1e100 in modulus.

    q and r are scanned together by index (q first on a tie), which names
    the same entry a step-by-step check would have stopped at.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bad_q, bad_r = (~(np.abs(x) <= _OVERFLOW_LIMIT) for x in (q, r))
    hits = [(int(np.argmax(bad)), name) for bad, name in ((bad_q, "q"), (bad_r, "r")) if bad.any()]
    if hits:
        k, name = min(hits)
        raise RecurrenceOverflowError(
            f"|{name}_{k}| exceeded 1e100; schedule is far outside the perturbative regime")


def run_recurrences(seqs: PerturbationSequences, extended: bool = False) -> QRSTriple:
    """Advance the q and r recurrences for the full composition.

    Both paths make one pass over the schedule, in blocks of _BLOCK steps,
    that advances q and r together.  The plain path's outputs are
    bit-identical to the straightforward per-sequence loop over numpy
    scalars, which the test suite keeps as a reference.

    Parameters
    ----------
    seqs : PerturbationSequences
    extended : bool
        When True, run the recurrence in fixed-point integers (at least 128
        fraction bits, inputs converted exactly) and round each value once.
        Errors are absolute, about 2**-128 per step, so a value much smaller
        than that, such as a vanishing prod rho_j, loses its digits or reads
        0.  About 8x the cost of the plain path per step (about 3.4 us
        against 0.42 us on a 2.1 GHz Xeon vCPU).

    Returns
    -------
    QRSTriple

    Raises
    ------
    RecurrenceOverflowError
        If any sequence value is non-finite or exceeds 1e100 in modulus.
    """
    q, r, prod = (_run_extended if extended else _run_plain)(seqs)
    _check_overflow(q, r)
    return QRSTriple(q=q, r=r, rho_cumprod=prod)


# Both kernels walk the schedule in blocks of _BLOCK steps.  A block's
# Python objects are copied into the output arrays and freed before the
# next block, so the allocator reuses the same few pages.  Holding one
# object per step for the whole schedule instead maps fresh memory on every
# call (about 2 MB and 500 page faults at N = 12800), a cost that swings
# with the load on the machine far more than the arithmetic does.
_BLOCK = 256


def _blocks(N: int):
    """(k0, k1) ranges covering steps 1..N."""
    for k0 in range(1, N + 1, _BLOCK):
        yield k0, min(k0 + _BLOCK, N + 1)


def _run_plain(seqs: PerturbationSequences):
    N = seqs.N
    rho = seqs.rho
    coeff = 1.0 + rho - seqs.eps_sq
    q = np.empty(N + 2, dtype=complex)
    r = np.empty(N + 2, dtype=complex)
    qm, qk, rm, rk = 0j, 1 + 0j, 1 + 0j, 1 + 0j
    q[:2] = qm, qk
    r[:2] = rm, rk
    for k0, k1 in _blocks(N):
        qb, rb = [], []
        for c, p in zip(coeff[k0:k1].tolist(), rho[k0:k1].tolist()):
            qm, qk = qk, c * qk - p * qm
            rm, rk = rk, c * rk - p * rm
            qb.append(qk)
            rb.append(rk)
        q[k0 + 1:k1 + 1] = qb
        r[k0 + 1:k1 + 1] = rb
    factors = np.concatenate(([1 + 0j], rho[1:N + 1]))
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.cumprod(factors)
    return q, r, prod


# Fixed-point kernel.  With F fraction bits, a real value x is held as the
# integer floor(x * 2**F) and a complex value as a pair of them.  F is at least
# _FRAC_BITS, and 64 more than the finest bit of any input, so every input
# converts exactly.  Sums are exact, each product drops its low F bits with one
# shift, and each output is rounded once; past the binary64 range it becomes
# inf, which the overflow check then reports.
#
# q and r advance in increment form: with d_k = x_k - x_{k-1},
# d_{k+1} = (rho_k d_k - eps_k^2 x_k) >> F and x_{k+1} = x_k + d_{k+1}.  Since
# 1 + rho_k - eps_k^2 is 2**F + rho_k - eps_k^2 here, and x_k * 2**F is a
# multiple of 2**F, floor((x_k * 2**F + X) / 2**F) = x_k + floor(X / 2**F) makes
# this the same integer as the two-term form ((1 + rho_k - eps_k^2) x_k -
# rho_k x_{k-1}) >> F, without forming the (F+1)-bit coefficient.
_FRAC_BITS = 128


def _to_fixed(x: np.ndarray, F: int) -> list[int]:
    """x * 2**F, exactly, for each real and imaginary part of x in turn.

    frexp gives x = m * 2**e with m * 2**53 an integer (0 for a zero of
    either sign, and exact for subnormals too); F's rule keeps each shift
    e + F - 53 at 64 or more, so nothing is truncated.
    """
    m, e = np.frexp(x.view(float))
    return list(map(int.__lshift__, (m * 2.0**53).astype(np.int64).tolist(),
                    (e + (F - 53)).tolist()))


def _to_float(out: list[int], F: int) -> np.ndarray:
    """Each x / 2**F, correctly rounded to binary64 (inf past 2**1000).

    float(int) rounds correctly, and for F <= 1022 every nonzero x / 2**F is
    at least 2**-1022, a normal number, so the scaling by 2**-F is exact and
    equals int / int bit for bit.  A finer F, or an x past the binary64 range,
    takes the int / int division.
    """
    if F <= 1022:
        try:
            return np.ldexp(np.array(list(map(float, out))), -F)
        except OverflowError:  # handled below, value by value
            pass
    one = 1 << F
    # any value past 2**1000 fails the overflow check
    return np.array([x / one if abs(x) >> F < 2**1000 else math.inf for x in out])


def _run_extended(seqs: PerturbationSequences):
    N = seqs.N
    # x = m * 2**e with 0.5 <= |m| < 1 is a multiple of 2**(e - 53)
    F = max(_FRAC_BITS, 117 - min(int(np.frexp(x.view(float))[1].min())
                                  for x in (seqs.rho, seqs.eps_sq)))
    one = 1 << F
    q = np.empty(N + 2, dtype=complex)
    r = np.empty(N + 2, dtype=complex)
    prod = np.empty(N + 1, dtype=complex)
    q[:2] = 0j, 1 + 0j
    r[:2] = 1 + 0j, 1 + 0j
    prod[0] = 1 + 0j
    # (x_1, d_1) is (1, 1) for q and (1, 0) for r
    qr, qi, qdr, qdi, rr, ri, rdr, rdi, pr, pi = one, 0, one, 0, one, 0, 0, 0, one, 0
    # each block's values as rows (q.re, q.im, r.re, r.im, prod.re, prod.im)
    qv, rv, pv = (x.view(float).reshape(-1, 2) for x in (q, r, prod))
    for k0, k1 in _blocks(N):
        rho_b = _to_fixed(seqs.rho[k0:k1], F)
        es_b = _to_fixed(seqs.eps_sq[k0:k1], F)
        out = []
        for ar, ai, er, ei in zip(rho_b[0::2], rho_b[1::2], es_b[0::2], es_b[1::2]):
            qdr, qdi = ((ar * qdr - ai * qdi - er * qr + ei * qi) >> F,
                        (ar * qdi + ai * qdr - er * qi - ei * qr) >> F)
            rdr, rdi = ((ar * rdr - ai * rdi - er * rr + ei * ri) >> F,
                        (ar * rdi + ai * rdr - er * ri - ei * rr) >> F)
            qr, qi, rr, ri = qr + qdr, qi + qdi, rr + rdr, ri + rdi
            pr, pi = (pr * ar - pi * ai) >> F, (pr * ai + pi * ar) >> F
            out += (qr, qi, rr, ri, pr, pi)
        rows = _to_float(out, F).reshape(-1, 6)
        qv[k0 + 1:k1 + 1] = rows[:, 0:2]
        rv[k0 + 1:k1 + 1] = rows[:, 2:4]
        pv[k0:k1] = rows[:, 4:6]
    return q, r, prod


def closed_form_T(k: int, N: int) -> complex:
    """The unperturbed comparison value T_k = (1 - rho^k)/(1 - rho).

    Evaluated in the product form e^{i pi (k-1)/N} sin(pi k/N)/sin(pi/N),
    which is exact at the endpoints up to one rounding of the sine.
    """
    if not 0 <= k <= N + 1:
        raise ValueError(f"k must be in 0..N+1, got k={k}, N={N}")
    return cmath.exp(1j * math.pi * (k - 1) / N) * math.sin(math.pi * k / N) / math.sin(math.pi / N)


def closed_form_T_array(N: int) -> np.ndarray:
    """Vectorized T_k for k = 0..N+1."""
    k = np.arange(0, N + 2, dtype=float)
    return np.exp(1j * np.pi * (k - 1) / N) * np.sin(np.pi * k / N) / math.sin(math.pi / N)


@dataclass(frozen=True)
class ChebyshevPoint:
    """A point x = 2 cos(theta) on the Chebyshev interval [-2, 2]."""

    theta: float
    x: float

    def __post_init__(self):
        if not math.isfinite(self.theta) or not math.isfinite(self.x):
            raise ValueError("theta and x must be finite")
        if abs(self.x - 2.0 * math.cos(self.theta)) > 1e-9:
            raise ValueError(f"x={self.x} is not 2*cos(theta={self.theta})")
        if not -2.0 <= self.x <= 2.0:
            raise ValueError(f"x must lie in [-2, 2], got {self.x}")

    @classmethod
    def from_theta(cls, theta: float) -> "ChebyshevPoint":
        return cls(theta=theta, x=2.0 * math.cos(theta))


def chebyshev_U(k: int, point: ChebyshevPoint) -> float:
    """Second-kind Chebyshev value U_k = sin(k theta)/sin(theta).

    At sin(theta) == 0 the limit value k * cos(theta)^(k+1) is returned
    (k at x = 2, (-1)^(k+1) k at x = -2).
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    sin_t = math.sin(point.theta)
    if sin_t == 0.0:
        return float(k) * math.cos(point.theta) ** (k + 1)
    return math.sin(k * point.theta) / sin_t


def difference_formula(seqs: PerturbationSequences, triple: QRSTriple, k: int) -> complex:
    """Right-hand side of the exact perturbation expansion of q_k - T_k.

    Returns sum_{j=1}^{k-1} (a_j q_j - b_j q_{j-1}) T_{k-j}.  This equals
    q_k - closed_form_T(k, N) identically; callers check the residual.
    """
    N = seqs.N
    if not 2 <= k <= N + 1:
        raise ValueError(f"k must be in 2..N+1, got {k}")
    a = seqs.a
    b = seqs.b
    q = triple.q
    T = closed_form_T_array(N)
    j = np.arange(1, k)
    terms = (a[j] * q[j] - b[j] * q[j - 1]) * T[k - j]
    return complex(np.sum(terms))


def s_sequence(seqs: PerturbationSequences, extended: bool = False) -> np.ndarray:
    """The auxiliary sequence s, entries 0..N, computed on demand.

    s_{k+1} = (1 + rho_{k+1} - eps_{k+1}^2) s_k - rho_{k+1} s_{k-1} from
    (s_0, s_1) = (0, 1), so s is the q sequence of the schedule shifted one
    step ahead, bit for bit on either path.  For N = 1 that schedule is
    empty and s is (0, 1).
    """
    if seqs.N == 1:
        return np.array([0j, 1 + 0j])
    shifted = PerturbationSequences(seqs.rho[1:], seqs.eps_sq[1:], seqs.rho_base)
    return run_recurrences(shifted, extended).q


def r_from_qs(seqs: PerturbationSequences, triple: QRSTriple) -> np.ndarray:
    """Reconstruct r_1..r_{N+1} from q and s: r_k = q_k - rho_1 * s_{k-1}.

    s is worked out once, on the plain path; index k-1 of the result is r_k.
    """
    return triple.q[1:] - seqs.rho[1] * s_sequence(seqs)


def wronskian_residual(triple: QRSTriple, k: int) -> float:
    """Relative defect of q_{k+1} r_k - r_{k+1} q_k against prod rho_j.

    When prod rho_j vanishes the defect is inf (or NaN for 0/0), returned
    without a numpy warning; the gates reject both.
    """
    if not 0 <= k <= triple.N:
        raise ValueError(f"k must be in 0..N, got {k}")
    w = triple.q[k + 1] * triple.r[k] - triple.r[k + 1] * triple.q[k]
    expected = triple.rho_cumprod[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(abs(w - expected) / abs(expected))


def coefficients_from_qr(triple: QRSTriple, N: int) -> MoebiusCoeffs:
    """Composed-map coefficients (q_{N+1}-q_N, r_N-r_{N+1}, -q_N, r_N).

    Raises
    ------
    DegenerateMapError
        If the Wronskian conservation law is violated beyond relative 1e-6,
        or its residual is NaN, which indicates recurrence corruption rather
        than bad input.
    """
    if N > triple.N:
        raise ValueError(f"triple only covers N={triple.N}, asked for {N}")
    resid = wronskian_residual(triple, N)
    if not resid <= 1e-6:  # written so that a NaN residual fails too
        raise DegenerateMapError(f"Wronskian residual {resid:.3e} at k={N} exceeds 1e-6")
    return MoebiusCoeffs(
        triple.q[N + 1] - triple.q[N],
        triple.r[N] - triple.r[N + 1],
        -triple.q[N],
        triple.r[N],
    )


def martingale_sum(d, triple: QRSTriple, theta: float, n: int) -> complex:
    """Partial sum delta_n = sum_{k=0}^{n-1} d_k q_k e^{i k theta}.

    The summation convention is verified on the spot: for the additive
    regime (rho == 1, recurrence coefficient x + d_k with x = 2 cos theta)
    the identity

        sin(theta) * (q_n - U_n) = -Im(delta_n e^{-i n theta})

    holds exactly in exact arithmetic, so any residual beyond 1e-8 is an
    indexing or corruption bug and raises IdentityViolationError.

    Parameters
    ----------
    d : array_like
        Coefficient deviations d_k = (2 - eps_k^2) - x, indexed so that
        d[k] multiplies q_k; entries 0..n-1 are consumed (d[0] is
        irrelevant because q_0 = 0).
    triple : QRSTriple
        Output of run_recurrences for the schedule being probed.
    theta : float
        Comparison angle (pi/N for the random lab).
    n : int
        Number of terms, 1 <= n <= N+1.
    """
    N = triple.N
    if not 1 <= n <= N + 1:
        raise ValueError(f"n must be in 1..N+1, got {n}")
    d = np.asarray(d, dtype=complex)
    if d.size < n:
        raise ValueError(f"need at least n={n} entries of d, got {d.size}")
    k = np.arange(0, n)
    delta_n = complex(np.sum(d[:n] * triple.q[:n] * np.exp(1j * k * theta)))
    u_n = chebyshev_U(n, ChebyshevPoint.from_theta(theta))
    lhs = math.sin(theta) * (triple.q[n] - u_n)
    rhs = -(delta_n * cmath.exp(-1j * n * theta)).imag
    resid = abs(lhs - rhs)
    if resid > 1e-8:
        raise IdentityViolationError(
            f"martingale identity residual {resid:.3e} at n={n} exceeds 1e-8")
    return delta_n
