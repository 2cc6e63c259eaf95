"""Three-term recurrences that propagate composed-map coefficients.

For steps f_k(z) = rho_k*z/(1-z) + eps_k^2 the composition
F_N = f_N o ... o f_1 has coefficients (A, B, C, D) with

    A_N = q_{N+1} - q_N,  B_N = r_N - r_{N+1},  C_N = -q_N,  D_N = r_N,

where q and r satisfy x_{k+1} = (1 + rho_k - eps_k^2) x_k - rho_k x_{k-1}
from (q_0, q_1) = (0, 1) and (r_0, r_1) = (1, 1).  The auxiliary sequence
s runs the same recurrence with coefficients shifted one step ahead and
recovers r through r_k = q_k - rho_1 * s_{k-1}.

Index conventions (documented once, used everywhere):

* ``rho`` and ``eps_sq`` have length N+2 and are 1-based; slot 0 is unused
  and kept at 0.  Index N+1 exists because s consumes shifted coefficients.
* ``q`` and ``r`` have length N+2 covering 0..N+1; ``s`` has length N+1
  covering 0..N.
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
    ScheduleMismatchError,
)
from .mobius import MoebiusCoeffs, perturbed_parabolic_step

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

    def eps_all_zero(self) -> bool:
        return bool(np.all(self._eps_sq[1:] == 0))

    def step_maps(self):
        """The per-step coefficient matrices, index 1 first (oracle input)."""
        return [perturbed_parabolic_step(self._rho[k], self._eps_sq[k])
                for k in range(1, self.N + 1)]


@dataclass(frozen=True)
class QRSTriple:
    """Recurrence outputs plus bookkeeping needed by downstream checks.

    ``rho_cumprod[k]`` is prod_{j<=k} rho_j (length N+1, index 0 = 1); it is
    the exact value of the Wronskian q_{k+1} r_k - r_{k+1} q_k and is carried
    along so corruption checks need no access to the original schedule.
    """

    q: np.ndarray
    r: np.ndarray
    s: np.ndarray
    rho_cumprod: np.ndarray
    eps_was_zero: bool

    @property
    def N(self) -> int:
        return self.q.size - 2


def _check_overflow(q: np.ndarray, r: np.ndarray, s: np.ndarray) -> None:
    """Raise on the first entry that is non-finite or exceeds 1e100 in modulus.

    q and r are scanned together by index (q first on a tie), then s, which
    names the same entry a step-by-step check would have stopped at.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bad_q, bad_r, bad_s = (~(np.abs(x) <= _OVERFLOW_LIMIT) for x in (q, r, s))
    hits = [(int(np.argmax(bad)), name) for bad, name in ((bad_q, "q"), (bad_r, "r")) if bad.any()]
    if not hits and bad_s.any():
        hits = [(int(np.argmax(bad_s)), "s")]
    if hits:
        k, name = min(hits)
        raise RecurrenceOverflowError(
            f"|{name}_{k}| exceeded 1e100; schedule is far outside the perturbative regime")


def run_recurrences(seqs: PerturbationSequences, extended: bool = False) -> QRSTriple:
    """Advance the q, r, s recurrences for the full composition.

    Both paths make one pass over the schedule, in blocks of _BLOCK steps,
    that advances q, r and s together.  Their outputs are bit-identical to
    the straightforward per-sequence loops over numpy scalars and
    ``ddouble`` tuples, which the test suite keeps as references.

    Parameters
    ----------
    seqs : PerturbationSequences
    extended : bool
        When True, accumulate in compensated double-double arithmetic
        (inputs stay binary64).  About 20x the cost of the plain path per
        step (about 12 us against 0.55 us on a 2.1 GHz Xeon vCPU);
        removes essentially all accumulation rounding, leaving only input
        representation error.

    Returns
    -------
    QRSTriple

    Raises
    ------
    RecurrenceOverflowError
        If any sequence value is non-finite or exceeds 1e100 in modulus.
    """
    q, r, s, prod = (_run_extended if extended else _run_plain)(seqs)
    _check_overflow(q, r, s)
    return QRSTriple(q=q, r=r, s=s, rho_cumprod=prod, eps_was_zero=seqs.eps_all_zero())


# Both kernels walk the schedule in blocks of _BLOCK steps.  A block's
# Python objects are copied into the output arrays and freed before the
# next block, so the allocator reuses the same few pages.  Holding one
# object per step for the whole schedule instead maps fresh memory on every
# call (about 2 MB and 500 page faults at N = 12800), a cost that swings
# with the load on the machine far more than the arithmetic does.
_BLOCK = 256


def _blocks(N: int):
    """(k0, k1) ranges covering steps 2..N."""
    for k0 in range(2, N + 1, _BLOCK):
        yield k0, min(k0 + _BLOCK, N + 1)


def _run_plain(seqs: PerturbationSequences):
    N = seqs.N
    rho = seqs.rho
    coeff = 1.0 + rho - seqs.eps_sq
    q = np.empty(N + 2, dtype=complex)
    r = np.empty(N + 2, dtype=complex)
    s = np.empty(N + 1, dtype=complex)
    qm, qk, rm, rk, sm, sk = 0j, 1 + 0j, 1 + 0j, 1 + 0j, 0j, 1 + 0j
    q[:2] = qm, qk
    r[:2] = rm, rk
    s[:2] = sm, sk
    # Step 1 advances q and r only: s_k runs one step behind, on the
    # step-k coefficient, from s_2 on.
    c, p = complex(coeff[1]), complex(rho[1])
    qm, qk = qk, c * qk - p * qm
    rm, rk = rk, c * rk - p * rm
    q[2], r[2] = qk, rk
    for k0, k1 in _blocks(N):
        qb, rb, sb = [], [], []
        for c, p in zip(coeff[k0:k1].tolist(), rho[k0:k1].tolist()):
            qm, qk = qk, c * qk - p * qm
            rm, rk = rk, c * rk - p * rm
            sm, sk = sk, c * sk - p * sm
            qb.append(qk)
            rb.append(rk)
            sb.append(sk)
        q[k0 + 1:k1 + 1] = qb
        r[k0 + 1:k1 + 1] = rb
        s[k0:k1] = sb
    factors = np.concatenate(([1 + 0j], rho[1:N + 1]))
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.cumprod(factors)
    return q, r, s, prod


# Complex double-double kernel.  A value is the 4-tuple (re_hi, re_lo,
# im_hi, im_lo) of ``ddouble``; the helpers below perform exactly the IEEE
# operations of ddouble.cadd/csub/cmul, in the same order, with the Dekker
# splits of the step's coefficient and rho_k computed once and shared.  The
# ``+ 0.0`` and ``0.0 * y`` terms of those operations are kept so the
# transcription stays literal (``0.0 * y`` is nan once y has overflowed);
# ``- 0.0`` and ``+ -0.0`` are the identity in IEEE arithmetic and are left out.

_SPLITTER = 134217729.0  # 2**27 + 1, as in ddouble.split


def _dd_coeff(rho: complex, eps_sq: complex):
    """(1 + rho - eps_sq) as a dd value, plus the splits of it and of rho."""
    a, b = rho.real, rho.imag
    er, ei = eps_sq.real, eps_sq.imag
    # cadd((1, 0, 0, 0), (a, 0, b, 0))
    t = 1.0 + a
    bb = t - 1.0
    e = (1.0 - (t - bb)) + (a - bb) + 0.0 + 0.0
    h = t + e
    l = e - (h - t)
    t = 0.0 + b
    e = (0.0 - (t - t)) + (b - t) + 0.0 + 0.0
    hi = t + e
    li = e - (hi - t)
    # csub(., (er, 0, ei, 0))
    t = h - er
    bb = t - h
    e = (h - (t - bb)) + (-er - bb) + l
    c0 = t + e
    c1 = e - (c0 - t)
    t = hi - ei
    bb = t - hi
    e = (hi - (t - bb)) + (-ei - bb) + li
    c2 = t + e
    c3 = e - (c2 - t)
    t = _SPLITTER * c0
    c0h = t - (t - c0)
    t = _SPLITTER * c2
    c2h = t - (t - c2)
    t = _SPLITTER * a
    ah = t - (t - a)
    t = _SPLITTER * b
    bh = t - (t - b)
    return c0, c1, c2, c3, c0h, c0 - c0h, c2h, c2 - c2h, a, ah, a - ah, b, bh, b - bh


def _dd_update(C, x, y):
    """c*x - rho*y in complex double-double, for the step coefficients C."""
    c0, c1, c2, c3, c0h, c0l, c2h, c2l, a, ah, al, b, bh, bl = C
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    t = _SPLITTER * x0
    x0h = t - (t - x0)
    x0l = x0 - x0h
    t = _SPLITTER * x2
    x2h = t - (t - x2)
    x2l = x2 - x2h
    t = _SPLITTER * y0
    y0h = t - (t - y0)
    y0l = y0 - y0h
    t = _SPLITTER * y2
    y2h = t - (t - y2)
    y2l = y2 - y2h
    # cmul(c, x): four dd_mul, then re = rr - ii, im = ri + ir
    p = c0 * x0
    e = (c0h * x0h - p) + c0h * x0l + c0l * x0h + c0l * x0l + c0 * x1 + c1 * x0
    rr = p + e
    rrl = e - (rr - p)
    p = c2 * x2
    e = (c2h * x2h - p) + c2h * x2l + c2l * x2h + c2l * x2l + c2 * x3 + c3 * x2
    ii = p + e
    iil = e - (ii - p)
    p = c0 * x2
    e = (c0h * x2h - p) + c0h * x2l + c0l * x2h + c0l * x2l + c0 * x3 + c1 * x2
    ri = p + e
    ril = e - (ri - p)
    p = c2 * x0
    e = (c2h * x0h - p) + c2h * x0l + c2l * x0h + c2l * x0l + c2 * x1 + c3 * x0
    ir = p + e
    irl = e - (ir - p)
    t = rr - ii
    bb = t - rr
    e = (rr - (t - bb)) + (-ii - bb) + rrl - iil
    u0 = t + e
    u1 = e - (u0 - t)
    t = ri + ir
    bb = t - ri
    e = (ri - (t - bb)) + (ir - bb) + ril + irl
    u2 = t + e
    u3 = e - (u2 - t)
    # cmul((a, 0, b, 0), y)
    z0 = 0.0 * y0
    z2 = 0.0 * y2
    p = a * y0
    e = (ah * y0h - p) + ah * y0l + al * y0h + al * y0l + a * y1 + z0
    rr = p + e
    rrl = e - (rr - p)
    p = b * y2
    e = (bh * y2h - p) + bh * y2l + bl * y2h + bl * y2l + b * y3 + z2
    ii = p + e
    iil = e - (ii - p)
    p = a * y2
    e = (ah * y2h - p) + ah * y2l + al * y2h + al * y2l + a * y3 + z2
    ri = p + e
    ril = e - (ri - p)
    p = b * y0
    e = (bh * y0h - p) + bh * y0l + bl * y0h + bl * y0l + b * y1 + z0
    ir = p + e
    irl = e - (ir - p)
    t = rr - ii
    bb = t - rr
    e = (rr - (t - bb)) + (-ii - bb) + rrl - iil
    v0 = t + e
    v1 = e - (v0 - t)
    t = ri + ir
    bb = t - ri
    e = (ri - (t - bb)) + (ir - bb) + ril + irl
    v2 = t + e
    v3 = e - (v2 - t)
    # csub(u, v)
    t = u0 - v0
    bb = t - u0
    e = (u0 - (t - bb)) + (-v0 - bb) + u1 - v1
    n0 = t + e
    t2 = u2 - v2
    bb = t2 - u2
    e2 = (u2 - (t2 - bb)) + (-v2 - bb) + u3 - v3
    n2 = t2 + e2
    return n0, e - (n0 - t), n2, e2 - (n2 - t2)


def _dd_times_rho(x, C):
    """cmul(x, (a, 0, b, 0)): the running product prod_{j<=k} rho_j."""
    a, ah, al, b, bh, bl = C[8:]
    x0, x1, x2, x3 = x
    t = _SPLITTER * x0
    x0h = t - (t - x0)
    x0l = x0 - x0h
    t = _SPLITTER * x2
    x2h = t - (t - x2)
    x2l = x2 - x2h
    p = x0 * a
    e = (x0h * ah - p) + x0h * al + x0l * ah + x0l * al + x0 * 0.0 + x1 * a
    rr = p + e
    rrl = e - (rr - p)
    p = x2 * b
    e = (x2h * bh - p) + x2h * bl + x2l * bh + x2l * bl + x2 * 0.0 + x3 * b
    ii = p + e
    iil = e - (ii - p)
    p = x0 * b
    e = (x0h * bh - p) + x0h * bl + x0l * bh + x0l * bl + x0 * 0.0 + x1 * b
    ri = p + e
    ril = e - (ri - p)
    p = x2 * a
    e = (x2h * ah - p) + x2h * al + x2l * ah + x2l * al + x2 * 0.0 + x3 * a
    ir = p + e
    irl = e - (ir - p)
    t = rr - ii
    bb = t - rr
    e = (rr - (t - bb)) + (-ii - bb) + rrl - iil
    n0 = t + e
    t2 = ri + ir
    bb = t2 - ri
    e2 = (ri - (t2 - bb)) + (ir - bb) + ril + irl
    n2 = t2 + e2
    return n0, e - (n0 - t), n2, e2 - (n2 - t2)


def _run_extended(seqs: PerturbationSequences):
    N = seqs.N
    rho = seqs.rho
    es = seqs.eps_sq
    q = np.empty(N + 2, dtype=complex)
    r = np.empty(N + 2, dtype=complex)
    s = np.empty(N + 1, dtype=complex)
    prod = np.empty(N + 1, dtype=complex)
    q[:2] = 0j, 1 + 0j
    r[:2] = 1 + 0j, 1 + 0j
    s[:2] = 0j, 1 + 0j
    prod[0] = 1 + 0j
    zero = (0.0, 0.0, 0.0, 0.0)
    one = (1.0, 0.0, 0.0, 0.0)
    qm, qk, rm, rk, sm, sk, pk = zero, one, one, one, zero, one, one
    # Step 1 advances q, r and the product only (see _run_plain).
    C = _dd_coeff(complex(rho[1]), complex(es[1]))
    qm, qk = qk, _dd_update(C, qk, qm)
    rm, rk = rk, _dd_update(C, rk, rm)
    pk = _dd_times_rho(pk, C)
    q[2] = complex(qk[0] + qk[1], qk[2] + qk[3])
    r[2] = complex(rk[0] + rk[1], rk[2] + rk[3])
    prod[1] = complex(pk[0] + pk[1], pk[2] + pk[3])
    # each block's values as flat (re, im) pairs, stored through float views
    qv, rv, sv, pv = (x.view(float) for x in (q, r, s, prod))
    for k0, k1 in _blocks(N):
        qb, rb, sb, pb = [], [], [], []
        for a, e in zip(rho[k0:k1].tolist(), es[k0:k1].tolist()):
            C = _dd_coeff(a, e)
            qm, qk = qk, _dd_update(C, qk, qm)
            rm, rk = rk, _dd_update(C, rk, rm)
            sm, sk = sk, _dd_update(C, sk, sm)
            pk = _dd_times_rho(pk, C)
            qb += (qk[0] + qk[1], qk[2] + qk[3])
            rb += (rk[0] + rk[1], rk[2] + rk[3])
            sb += (sk[0] + sk[1], sk[2] + sk[3])
            pb += (pk[0] + pk[1], pk[2] + pk[3])
        qv[2 * k0 + 2:2 * k1 + 2] = qb
        rv[2 * k0 + 2:2 * k1 + 2] = rb
        sv[2 * k0:2 * k1] = sb
        pv[2 * k0:2 * k1] = pb
    return q, r, s, prod


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


def r_from_qs(seqs: PerturbationSequences, triple: QRSTriple, k: int) -> complex:
    """Reconstruct r_k from the q and s sequences: q_k - rho_1 * s_{k-1}."""
    if not 1 <= k <= seqs.N + 1:
        raise ValueError(f"k must be in 1..N+1, got {k}")
    return complex(triple.q[k] - seqs.rho[1] * triple.s[k - 1])


def wronskian_residual(triple: QRSTriple, k: int) -> float:
    """Relative defect of q_{k+1} r_k - r_{k+1} q_k against prod rho_j."""
    if not 0 <= k <= triple.N:
        raise ValueError(f"k must be in 0..N, got {k}")
    w = triple.q[k + 1] * triple.r[k] - triple.r[k + 1] * triple.q[k]
    expected = triple.rho_cumprod[k]
    return float(abs(w - expected) / abs(expected))


def coefficients_from_qr(triple: QRSTriple, N: int) -> MoebiusCoeffs:
    """Composed-map coefficients (q_{N+1}-q_N, r_N-r_{N+1}, -q_N, r_N).

    Raises
    ------
    DegenerateMapError
        If the Wronskian conservation law is violated beyond relative 1e-6,
        which indicates recurrence corruption rather than bad input.
    """
    if N > triple.N:
        raise ValueError(f"triple only covers N={triple.N}, asked for {N}")
    resid = wronskian_residual(triple, N)
    if resid > 1e-6:
        raise DegenerateMapError(f"Wronskian residual {resid:.3e} at k={N} exceeds 1e-6")
    return MoebiusCoeffs(
        triple.q[N + 1] - triple.q[N],
        triple.r[N] - triple.r[N + 1],
        -triple.q[N],
        triple.r[N],
    )


def coefficients_rho_only(triple: QRSTriple, N: int) -> MoebiusCoeffs:
    """Purely multiplicative form (q_{N+1}-q_N, 0, -q_N, 1).

    Valid only when the schedule had eps identically zero (then r_k == 1
    for all k and the general quadruple collapses to this one).
    """
    if not triple.eps_was_zero:
        raise ScheduleMismatchError("coefficients_rho_only requires an eps == 0 schedule")
    if N > triple.N:
        raise ValueError(f"triple only covers N={triple.N}, asked for {N}")
    return MoebiusCoeffs(triple.q[N + 1] - triple.q[N], 0.0, -triple.q[N], 1.0)


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
