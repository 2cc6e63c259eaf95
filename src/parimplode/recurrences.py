"""Three-term recurrences that propagate composed-map coefficients.

For steps f_k(z) = rho_k*z/(1-z) + eps_k^2 the composition
F_N = f_N o ... o f_1 has coefficients (A, B, C, D) with

    A_N = q_{N+1} - q_N,  B_N = r_N - r_{N+1},  C_N = -q_N,  D_N = r_N,

where q and r satisfy x_{k+1} = (1 + rho_k - eps_k^2) x_k - rho_k x_{k-1}
from (q_0, q_1) = (0, 1) and (r_0, r_1) = (1, 1).  Every kernel (both paths
here and ``randomlab``'s trial-batched pass) runs it in increment form,
d_{k+1} = rho_k d_k - eps_k^2 x_k and x_{k+1} = x_k + d_{k+1} from d_1 = 1 for q
and 0 for r, which never rounds the O(1/N) part of the coefficient at ulp(2).
``coefficients_from_qr`` holds the Wronskian gate: q_{N+1} r_N - r_{N+1} q_N
must equal prod_{j<=N} rho_j to ``WRONSKIAN_GATE`` relative.

Both kernels keep only the tail that every caller reads: q_N, q_{N+1}, r_N,
r_{N+1} and prod_{j<=N} rho_j.  The plain binary64 kernel still holds every
q_k and r_k to the 1e100 overflow limit: a block of steps is checked by a
bound on its growth from its start, and run again step by step only if that
bound fails.  It runs one of three loops, picked from the input: when every
eps_k^2 is zero (Theorem A, the quadratic, skew examples 1-3 and the
counterexample's f side), r stays exactly 1 + 0j and d of q is a running
product of rho; when every imaginary part is zero (B4, B5 and the g side),
q and r keep imaginary part +0 and the loop runs on the real parts as
floats; otherwise it runs on the complex values.  The terms the first
two skip are zeros, which can change only the sign of a zero, and no part
of q or r is ever -0, so their tail is the complex loop's bit for bit
(``_run_plain``).

The ``extended`` kernel runs in fixed-point integers with at least 128
fraction bits and rounds each tail value once, to the correctly rounded
value of the exact recurrence unless the value is tiny or within ~2**-128
of a tie.
On a real schedule (every imaginary part of rho and eps_sq zero, as in
TheoremB cases 4 and 5) it runs the real parts alone, 5 big-integer products
a step instead of 20, and gets the integers the complex loop would.  A
schedule whose steps repeat with a period p <= N/2 (``_period``) is not
stepped through: the product of one period's 2x2 transfer matrices is formed
once, raised to N // p by binary powering, and followed by the last N % p
steps, at 64 + 2 bitlen(N) more fraction bits; the tail stands when 64 bits
more round it alike, and the loop runs otherwise.  12 of the 16 built-in
schedules are periodic: TheoremA(1), TheoremB(1) and TheoremB(4) with
period 8, TheoremA(2), TheoremB(2) and skew example 2 with period 2, and the
quadratic and skew examples 1 and 4 constant.

Index conventions (documented once, used everywhere):

* ``rho`` and ``eps_sq`` have length N+2 and are 1-based; slot 0 is unused
  and kept at 0.  No recurrence reads index N+1; the schedules fill it by
  the rule of 1..N.
* ``q`` and ``r`` have length N+2 covering 0..N+1; every entry before
  index N is NaN.
* Additive perturbations enter only through eps^2, so sequences store
  eps_sq directly and no square root is ever taken.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add, mul

import numpy as np

from .errors import (
    DegenerateMapError,
    InvalidSpecError,
    RecurrenceOverflowError,
)
from .mobius import MoebiusCoeffs

_OVERFLOW_LIMIT = 1e100
WRONSKIAN_GATE = 1e-9  # largest relative Wronskian defect coefficients_from_qr accepts
_ADMISSIBLE = 1.0 + 1e-12  # the largest |b_k| and |eps_k^2| a schedule may have


def _check_steps(rho: np.ndarray, eps_sq: np.ndarray,
                 rho_base: complex) -> tuple[np.ndarray, np.ndarray]:
    """Each schedule's max |b_k| and max |eps_k^2|, as float arrays, where
    rho and eps_sq hold one schedule's steps on their last axis.

    A schedule is refused unless every rho_k and eps_k^2 is finite, then
    unless every |b_k| = |rho_k - rho_base| <= 1, then unless every
    |eps_k^2| <= 1, each to 1e-12.  The lowest refused schedule raises
    InvalidSpecError with the first of these it fails, the message a check
    of that schedule alone gives.  This is the package's one admissibility
    rule: ``PerturbationSequences`` judges each schedule by it, one at a time
    or a batch at once, and the random lab (``randomlab._refuse``) each trial.
    """
    with np.errstate(invalid="ignore"):  # an infinite rho_k less an infinite rho_base
        b_max = np.abs(rho - rho_base).max(axis=-1)
    e_max = np.abs(eps_sq).max(axis=-1)
    # a non-finite entry leaves its schedule's b_max or e_max inf or NaN, so
    # finiteness is read only to word a refusal
    ok = (b_max <= _ADMISSIBLE) & (e_max <= _ADMISSIBLE)
    if not ok.all():
        i = int(np.argmin(ok))
        steps = rho.shape[-1]
        if not all(np.isfinite(x.reshape(-1, steps)[i]).all() for x in (rho, eps_sq)):
            raise InvalidSpecError("sequences contain non-finite entries")
        b, e = float(b_max.flat[i]), float(e_max.flat[i])
        if not b <= _ADMISSIBLE:
            raise InvalidSpecError(f"|b_k| must be <= 1, max is {b}")
        raise InvalidSpecError(f"|eps_k^2| must be <= 1, max is {e}")
    return b_max, e_max


def _admitted(rho, eps_sq, rho_base: complex, ndim: int) -> tuple:
    """The body of both ``PerturbationSequences`` builders, for one schedule
    (ndim 1) or a batch, one a row (ndim 2): frozen complex copies of rho and
    eps_sq with slot 0 zeroed, rho_base, and each schedule's growth bound and
    realness (a float and a bool, or a list of each)."""
    rho = np.array(rho, dtype=complex)
    eps_sq = np.array(eps_sq, dtype=complex)
    if rho.ndim != ndim or rho.shape != eps_sq.shape:
        raise InvalidSpecError(f"rho and eps_sq must be {ndim}-D with equal shapes, "
                               f"got {rho.shape} and {eps_sq.shape}")
    if rho.shape[-1] < 3:
        raise InvalidSpecError("need at least N=1, i.e. arrays of length 3")
    rho[..., 0] = 0.0
    eps_sq[..., 0] = 0.0
    rho_base = complex(rho_base)
    b_max, e_max = _check_steps(rho[..., 1:], eps_sq[..., 1:], rho_base)
    rho.setflags(write=False)
    eps_sq.setflags(write=False)
    # d_{k+1} = rho_k d_k - eps_k^2 x_k and x_{k+1} = x_k + d_{k+1} make
    # max(|x_k|, |d_k|) grow by at most this factor a step, since
    # |rho_k| <= |rho_base| + |b_k|; the plain kernel's overflow guard reads it
    growth = 1.0 + abs(rho_base) + b_max + e_max
    # every imaginary part zero: both kernels then run on the real parts
    real = ~(rho.imag.any(axis=-1) | eps_sq.imag.any(axis=-1))
    return rho, eps_sq, rho_base, growth.tolist(), real.tolist()


class PerturbationSequences:
    """Concrete per-step sequences rho_k, eps_k^2 for one composition.

    The constructor builds one schedule and ``batch`` one per row of 2-D
    arrays.  Both share one body, which copies, checks and freezes the
    arrays; every schedule is judged by ``_check_steps``, the one
    admissibility rule, whichever builds it.

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
        the admissible region (|b_k| > 1 or |eps_k^2| > 1, or b_k NaN, as
        a NaN rho_base makes it).
    """

    __slots__ = ("_rho", "_eps_sq", "_rho_base", "_growth", "_real", "_least_period")

    def __init__(self, rho, eps_sq, rho_base: complex):
        self._hold(*_admitted(rho, eps_sq, rho_base, 1))

    @classmethod
    def batch(cls, rho, eps_sq, rho_base: complex) -> list["PerturbationSequences"]:
        """One schedule per row of the 2-D arrays rho and eps_sq, each the one
        the constructor builds from its row, in row order.

        The batch is copied, checked and frozen once, and each schedule holds
        a read-only view of its row.  A batch with a refused row raises the
        constructor's InvalidSpecError for the lowest such row.
        """
        rho, eps_sq, rho_base, growth, real = _admitted(rho, eps_sq, rho_base, 2)
        batch = []
        for row_rho, row_eps_sq, row_growth, row_real in zip(rho, eps_sq, growth, real):
            seqs = cls.__new__(cls)
            seqs._hold(row_rho, row_eps_sq, rho_base, row_growth, row_real)
            batch.append(seqs)
        return batch

    def _hold(self, rho: np.ndarray, eps_sq: np.ndarray, rho_base: complex, growth: float,
              real: bool) -> None:
        self._rho = rho
        self._eps_sq = eps_sq
        self._rho_base = rho_base
        self._growth = growth
        self._real = real
        self._least_period = None  # scanned on the first read of ``period``

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
    def period(self) -> int:
        """The least period p <= N/2 of the steps, or 0 (``_period``)."""
        if self._least_period is None:
            self._least_period = _period(self)
        return self._least_period

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
        """The entries of the per-step coefficient matrices that vary, index 1 first.

        Step k's matrix is [[rho_k - eps_k^2, eps_k^2], [-1, 1]], from
        clearing denominators in z -> rho_k z/(1 - z) + eps_k^2; its
        determinant is rho_k.  Its bottom row is the same at every step, so
        this returns an (N, 2) complex array whose row k-1 is
        (rho_k - eps_k^2, eps_k^2); ``compose_chain`` takes it as is.

        Raises
        ------
        DegenerateMapError
            If some step has determinant a_k + b_k == 0 (a*d - b*c for
            that layout), i.e. rho_k == 0.
        """
        es = self._eps_sq[1:-1]
        rows = np.empty((self.N, 2), dtype=complex)
        rows[:, 0] = self._rho[1:-1] - es
        rows[:, 1] = es
        degenerate = np.flatnonzero(rows[:, 0] + rows[:, 1] == 0)
        if degenerate.size:
            k = int(degenerate[0])
            raise DegenerateMapError(
                f"degenerate step map at k={k + 1}: coefficients "
                f"{(*rows[k].tolist(), (-1 + 0j), (1 + 0j))}")
        return rows


@dataclass(frozen=True)
class QRSTriple:
    """Recurrence outputs q, r plus bookkeeping needed by downstream checks.

    ``rho_cumprod[k]`` is prod_{j<=k} rho_j (length N+1); it is
    the exact value of the Wronskian q_{k+1} r_k - r_{k+1} q_k and is carried
    along so corruption checks need no access to the original schedule.

    Both kernels set only the tail: q[N], q[N+1], r[N], r[N+1] and
    rho_cumprod[N].  Every other entry is NaN, so a check at an index k < N
    fails its gate rather than reading a stale value.
    """

    q: np.ndarray
    r: np.ndarray
    rho_cumprod: np.ndarray

    @property
    def N(self) -> int:
        return self.q.size - 2


def _check_overflow(q: np.ndarray, r: np.ndarray, first: int = 0) -> None:
    """Raise on the first entry that is non-finite or exceeds 1e100 in
    modulus, where q and r hold the entries from index ``first`` on.

    q and r are scanned together by index (q first on a tie), which names
    the same entry a step-by-step check would have stopped at.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bad_q, bad_r = (~(np.abs(x) <= _OVERFLOW_LIMIT) for x in (q, r))
    hits = [(first + int(np.argmax(bad)), name)
            for bad, name in ((bad_q, "q"), (bad_r, "r")) if bad.any()]
    if hits:
        k, name = min(hits)
        raise RecurrenceOverflowError(
            f"|{name}_{k}| exceeded 1e100; schedule is far outside the perturbative regime")


def run_recurrences(seqs: PerturbationSequences, extended: bool = False) -> QRSTriple:
    """Advance the q and r recurrences for the full composition.

    Each path advances q and r together in increment form, in one pass over
    the schedule in blocks of at most _BLOCK steps, except that the exact
    path raises a periodic schedule to a power instead.  Both return only
    the tail: q_N, q_{N+1}, r_N, r_{N+1} and prod rho_j; every earlier entry
    is NaN (see ``QRSTriple``).  The plain path's tail is bit-identical to the
    straightforward per-sequence loop over numpy scalars, which the test
    suite keeps as a reference.

    Parameters
    ----------
    seqs : PerturbationSequences
    extended : bool
        When True, run the recurrence in fixed-point integers (at least 128
        fraction bits, inputs converted exactly) and round each tail value
        once.  Errors are absolute, about 2**-128 per step, so a value much
        smaller than that, such as a vanishing prod rho_j, loses its digits
        or reads 0.  Its loop skips the imaginary parts of a real schedule.
        README gives what a rung and a step cost on each path.

    Returns
    -------
    QRSTriple

    Raises
    ------
    RecurrenceOverflowError
        If a q or r value is non-finite or exceeds 1e100 in modulus: any of
        q_0..q_{N+1} and r_0..r_{N+1} on the plain path, though it keeps
        only the tail, and the tail on the exact one, whose integers cannot
        overflow.
    """
    N = seqs.N
    tail = (_run_extended if extended else _run_plain)(seqs)
    # a NaN fails the test too; _check_overflow then names the entry
    if not all(abs(x) <= _OVERFLOW_LIMIT for x in tail[:4]):
        _check_overflow(tail[0:2], tail[2:4], N)
    nan = complex(math.nan, math.nan)
    q, r, prod = np.full(N + 2, nan), np.full(N + 2, nan), np.full(N + 1, nan)
    q[N:], r[N:], prod[N] = tail[0:2], tail[2:4], tail[4]
    return QRSTriple(q=q, r=r, rho_cumprod=prod)


# Both kernels walk the schedule in blocks of at most _BLOCK steps and keep
# only their running state.  A block's Python objects (its inputs as Python
# complex values, or as the exact path's integers) are freed before the next
# block, so the allocator reuses the same few pages.  Holding one object per
# step for the whole schedule instead maps fresh memory on every call (about
# 2 MB and 500 page faults at N = 12800), a cost that swings with the load
# on the machine far more than the arithmetic does.
_BLOCK = 256


def _blocks(N: int, start: int = 1, size: int = _BLOCK):
    """(k0, k1) ranges of ``size`` steps covering steps start..N."""
    for k0 in range(start, N + 1, size):
        yield k0, min(k0 + size, N + 1)


def _plain_steps(rho: np.ndarray, eps_sq: np.ndarray, qk, qd, rk, rd):
    """The binary64 state (q_k, d_k of q, r_k, d_k of r) after the given steps,
    as Python complex values, or as floats on the real parts alone."""
    for p, e in zip(rho.tolist(), eps_sq.tolist()):
        qd = p * qd - e * qk
        rd = p * rd - e * rk
        qk += qd
        rk += rd
    return qk, qd, rk, rd


def _product_steps(rho: np.ndarray, eps_sq: np.ndarray, qk, qd, rk, rd):
    """``_plain_steps`` where every eps_k^2 is zero: d of q is a running
    product of rho, and r's state is left as it is; eps_sq is not read.

    accumulate forms each d * rho_k, which is CPython's rho_k * d bit for
    bit, and the fold adds the increments one at a time, as the loop does.
    """
    ds = list(accumulate(rho.tolist(), mul, initial=qd))
    return reduce(add, ds[1:], qk), ds[-1], rk, rd


def _run_plain(seqs: PerturbationSequences) -> np.ndarray:
    """q_N, q_{N+1}, r_N, r_{N+1} and prod rho_j in binary64, as a complex
    array, after checking q_2..q_N and r_2..r_N for overflow.

    One of three loops runs, picked from the input:

    * every eps_k^2 zero: ``_product_steps``.  The complex loop keeps r at
      exactly 1 + 0j, and its d of q is rho_k d less eps_k^2 x_k, a zero;
    * every imaginary part zero: ``_plain_steps`` on the real parts, as
      floats.  The complex loop's d then has zero imaginary parts, which
      enter its real parts only as zero products;
    * otherwise ``_plain_steps`` on the complex values.

    A zero term, of either sign, leaves every nonzero finite result as it
    is and can change only the sign of a zero d (where rho_k < 0, say).  No
    part of q_k or r_k is ever -0, though: x_1 has none, and x + d is -0
    only where x is.  So each loop gives the complex loop's tail bit for
    bit, and the overflow check the same values.

    Steps 1..N-1 run in blocks, then step N alone: x_N is kept from before
    it, since x_{N+1} - d_{N+1} need not round back to it.  As
    max(|x_k|, |d_k|) grows by at most g = ``seqs._growth`` a step, no entry
    of a block of L steps can pass 1e100, nor be non-finite, if the state at
    its start is within ``headroom``, 1e100 / (2 g**L) (the factor 2 covers
    the roundings).  L is _BLOCK, or less where g**_BLOCK would pass 1e90,
    so that a block starting within 5e9 passes at any g up to 4, the
    largest about the unit circle; the built-in schedules have g near 2 and
    L = _BLOCK.  A block that starts past ``headroom`` runs again one step
    at a time, and its first entry past 1e100 is named.
    """
    N = seqs.N
    rho, eps_sq = seqs.rho, seqs.eps_sq
    digits = math.log10(seqs._growth)  # so that g**L <= 1e90, or L = 1
    L = _BLOCK if _BLOCK * digits <= 90 else max(1, int(90 / digits))
    headroom = _OVERFLOW_LIMIT / 2 * seqs._growth ** -L
    # (x_1, d_1) is (1, 1) for q and (1, 0) for r
    steps, state = _plain_steps, (1 + 0j, 1 + 0j, 1 + 0j, 0j)
    if not eps_sq.any():
        steps = _product_steps
    elif seqs._real:
        rho, eps_sq, state = rho.real, eps_sq.real, (1.0, 1.0, 1.0, 0.0)
    for k0, k1 in _blocks(N - 1, size=L):
        block = rho[k0:k1], eps_sq[k0:k1]
        start, state = state, steps(*block, *state)
        if not max(map(abs, start)) <= headroom:
            _rescan(steps, *block, start, k0)
    q_N, r_N = state[0], state[2]
    q_N1, _, r_N1, _ = steps(rho[N:N + 1], eps_sq[N:N + 1], *state)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = np.cumprod(np.concatenate(([1 + 0j], seqs.rho[1:N + 1])))
    return np.array([q_N, q_N1, r_N, r_N1, prod[-1]])


def _rescan(steps, rho: np.ndarray, eps_sq: np.ndarray, state: tuple, k0: int) -> None:
    """Run a block from step k0 one step at a time from ``state`` and raise
    on its first q or r entry past 1e100."""
    q, r = [], []
    for k in range(rho.size):
        state = steps(rho[k:k + 1], eps_sq[k:k + 1], *state)
        q.append(state[0])
        r.append(state[2])
    _check_overflow(np.array(q), np.array(r), k0 + 1)


# Fixed-point kernel.  With F fraction bits, a real value x is held as the
# integer floor(x * 2**F) and a complex value as a pair of them.  F is at least
# _FRAC_BITS, and 64 more than the finest bit of any input, so every input
# converts exactly.  Sums are exact, each product drops its low F bits with one
# shift, and each output is rounded once; past the binary64 range it becomes
# inf, which the overflow check then reports.  Only the final state is kept,
# so the rounding is paid once per run, not once per step.
#
# The increment d_{k+1} = (rho_k d_k - eps_k^2 x_k) >> F is the only rounded
# step.  Since 1 + rho_k - eps_k^2 is 2**F + rho_k - eps_k^2 here, and
# x_k * 2**F is a multiple of 2**F, floor((x_k * 2**F + X) / 2**F) =
# x_k + floor(X / 2**F) makes x_{k+1} the same integer as the two-term form
# ((1 + rho_k - eps_k^2) x_k - rho_k x_{k-1}) >> F, without forming the
# (F+1)-bit coefficient.
_FRAC_BITS = 128


def _to_fixed(x: np.ndarray, F: int) -> list[int]:
    """x * 2**F, exactly, for each value of a real x, or each real and
    imaginary part of a complex x in turn.

    frexp gives x = m * 2**e with m * 2**53 an integer (0 for a zero of
    either sign, and exact for subnormals too); F's rule keeps each shift
    e + F - 53 at 64 or more, so nothing is truncated.
    """
    m, e = np.frexp(x.view(float))
    return [i << s for i, s in zip((m * 2.0**53).astype(np.int64).tolist(),
                                   (e + (F - 53)).tolist())]


def _to_float(out: list[int], F: int) -> np.ndarray:
    """Each x / 2**F, correctly rounded to binary64 (inf past 2**1000).

    int / int rounds the quotient correctly, for any F and into the
    subnormal range.
    """
    one = 1 << F
    # any value past 2**1000 fails the overflow check
    return np.array([x / one if abs(x) >> F < 2**1000 else math.inf for x in out])


def _run_extended(seqs: PerturbationSequences):
    N = seqs.N
    # x = m * 2**e with 0.5 <= |m| < 1 is a multiple of 2**(e - 53)
    F = max(_FRAC_BITS, 117 - min(int(np.frexp(x.view(float))[1].min())
                                  for x in (seqs.rho, seqs.eps_sq)))
    # Every imaginary lane starts at 0, and it stays 0 while each input's
    # imaginary part is 0 (of either sign): then the real loop of _advance
    # makes the integers the complex one would, with 5 products a step, not 20.
    real = seqs._real
    rho, eps_sq = (x.real if real else x for x in (seqs.rho, seqs.eps_sq))
    # A periodic schedule's tail stands when 64 more fraction bits round
    # it alike (Ziv's test); otherwise, and on any other schedule, the loop runs.
    p = seqs.period
    G = F + 64 + 2 * N.bit_length()
    tail = _tail(rho, eps_sq, N, p, G, real) if p else None
    if tail is None or tail.tobytes() != _tail(rho, eps_sq, N, p, G + 64, real).tobytes():
        tail = _tail(rho, eps_sq, N, 0, F, real)
    return tail


def _tail(rho: np.ndarray, eps_sq: np.ndarray, N: int, p: int, F: int, real: bool) -> np.ndarray:
    """q_N, q_{N+1}, r_N, r_{N+1} and prod rho_j at F fraction bits, each
    rounded once, as a complex array.

    With p = 0 the loop runs steps 1..N.  With a period p, the product
    M_p ... M_1 of one period's transfer matrices is formed once, raised to
    N // p by binary powering, and applied to the start; the last N % p
    steps, which are steps 1.. of the period again, then run on the loop.
    """
    one = 1 << F
    # (x_1, d_1) is (1, 1) for q and (1, 0) for r
    state, start = (one, 0, one, 0, one, 0, 0, 0, one, 0), 1
    if p:
        # columns (1, 0) and (0, 1): the identity's
        period = _advance(rho, eps_sq, 1, p, F, real, (one, 0, 0, 0, 0, 0, one, 0, one, 0))
        state, start = _compose(_power(period, N // p, F), state, F), N - N % p + 1
    qr, qi, qdr, qdi, rr, ri, rdr, rdi, pr, pi = _advance(rho, eps_sq, start, N, F, real, state)
    # x_N = x_{N+1} - d_{N+1} is exact, so each tail value is rounded once
    return _to_float([qr - qdr, qi - qdi, qr, qi, rr - rdr, ri - rdi, rr, ri, pr, pi], F).view(complex)


def _advance(rho: np.ndarray, eps_sq: np.ndarray, start: int, N: int, F: int, real: bool,
             state: tuple) -> tuple:
    """The fixed-point state after steps start..N of the exact loop.

    A state is two columns (x, d), each a complex pair of integers, and
    prod rho_j: (ur, ui, udr, udi, vr, vi, vdr, vdi, pr, pi).  On a full run
    the columns are q's and r's; each advances as d <- (rho_k d - eps_k^2 x) >> F,
    x <- x + d, so step k multiplies the 2x2 matrix of the two columns on the
    left by M_k = [[1 - eps_k^2, rho_k], [-eps_k^2, rho_k]], which acts on
    (x_k, d_k).
    """
    ur, ui, udr, udi, vr, vi, vdr, vdi, pr, pi = state
    for k0, k1 in _blocks(N, start):
        rho_b = _to_fixed(rho[k0:k1], F)
        es_b = _to_fixed(eps_sq[k0:k1], F)
        if real:
            for a, e in zip(rho_b, es_b):
                udr = (a * udr - e * ur) >> F
                vdr = (a * vdr - e * vr) >> F
                ur += udr
                vr += vdr
                pr = (pr * a) >> F
            continue
        for ar, ai, er, ei in zip(rho_b[0::2], rho_b[1::2], es_b[0::2], es_b[1::2]):
            udr, udi = ((ar * udr - ai * udi - er * ur + ei * ui) >> F,
                        (ar * udi + ai * udr - er * ui - ei * ur) >> F)
            vdr, vdi = ((ar * vdr - ai * vdi - er * vr + ei * vi) >> F,
                        (ar * vdi + ai * vdr - er * vi - ei * vr) >> F)
            ur += udr
            ui += udi
            vr += vdr
            vi += vdi
            pr, pi = (pr * ar - pi * ai) >> F, (pr * ai + pi * ar) >> F
    return ur, ui, udr, udi, vr, vi, vdr, vdi, pr, pi


def _compose(a: tuple, b: tuple, F: int) -> tuple:
    """a's matrix times b's two columns, each entry's sum truncated once,
    and the product of their prod rho_j: the state after b's steps, then a's."""
    uxr, uxi, udr, udi, vxr, vxi, vdr, vdi, ar, ai = a

    def times(xr, xi, dr, di):  # a's matrix times the column (x, d)
        return ((uxr * xr - uxi * xi + vxr * dr - vxi * di) >> F,
                (uxr * xi + uxi * xr + vxr * di + vxi * dr) >> F,
                (udr * xr - udi * xi + vdr * dr - vdi * di) >> F,
                (udr * xi + udi * xr + vdr * di + vdi * dr) >> F)

    br, bi = b[8:]
    return (*times(*b[:4]), *times(*b[4:8]), (ar * br - ai * bi) >> F, (ar * bi + ai * br) >> F)


def _power(a: tuple, m: int, F: int) -> tuple:
    """a composed with itself m >= 1 times, by binary powering (Knuth, TAOCP
    vol. 2, sec. 4.6.3): at most 2 log2(m) products."""
    out = None
    while True:
        if m & 1:
            out = a if out is None else _compose(out, a, F)
        m >>= 1
        if not m:
            return out
        a = _compose(a, a, F)


# At most this many candidate periods are checked, each with two O(N) array
# comparisons.  A failed candidate rules out every period up to its first
# mismatch, so a built-in schedule needs one to three.
_PERIOD_TRIES = 8


def _period(seqs: PerturbationSequences) -> int:
    """The smallest p <= N/2 such that step k + p equals step k (rho_k and
    eps_k^2 alike, compared by value) for every k, or 0 if there is none.

    A candidate p is a step 1 + p equal to step 1, taken in increasing order.
    If step j + p is the first to differ from step j, no period of the
    schedule lies in p..j - 1: any such period p' would, with p, be a period
    of steps 1..j + p - 1, and so would gcd(p, p') (Fine and Wilf, Proc.
    AMS 16, 1965), which makes step j + p equal step j.  So the next
    candidate is sought from max(p + 1, j) on.  After _PERIOD_TRIES failed
    candidates the scan returns 0.  It reads numpy views of the inputs and
    writes one N-byte mask.
    """
    N = seqs.N
    rho, es = seqs.rho[1:N + 1], seqs.eps_sq[1:N + 1]
    same = np.empty(N, dtype=bool)
    p = 1  # the least candidate not yet ruled out
    for _ in range(_PERIOD_TRIES):
        found = same[:max(N // 2 + 1 - p, 0)]  # steps 1 + p..1 + N // 2 against step 1
        np.equal(rho[p:N // 2 + 1], rho[0], out=found)
        np.equal(es[p:N // 2 + 1], es[0], out=found, where=found)
        if not found.any():
            return 0
        p += int(found.argmax())
        match = same[:N - p]  # steps 1 + p..N against steps 1..N - p
        np.equal(rho[p:], rho[:N - p], out=match)
        np.equal(es[p:], es[:N - p], out=match, where=match)
        if match.all():
            return p
        p = max(p, int(match.argmin())) + 1
    return 0


def closed_form_T_array(N: int) -> np.ndarray:
    """Vectorized T_k for k = 0..N+1."""
    k = np.arange(0, N + 2, dtype=float)
    return np.exp(1j * np.pi * (k - 1) / N) * np.sin(np.pi * k / N) / math.sin(math.pi / N)


def wronskian_residual(triple: QRSTriple, k: int) -> float:
    """Relative defect of q_{k+1} r_k - r_{k+1} q_k against prod rho_j.

    When prod rho_j vanishes the defect is inf (or NaN for 0/0), returned
    without a numpy warning; the gate rejects both.
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
        If the Wronskian residual at N exceeds ``WRONSKIAN_GATE`` (1e-9
        relative) or is NaN, which indicates recurrence corruption or a
        vanishing prod rho_j.  This is the package's one Wronskian check;
        every ``run_point`` rung and every ``oracle`` trial goes through it.
    """
    if N > triple.N:
        raise ValueError(f"triple only covers N={triple.N}, asked for {N}")
    resid = wronskian_residual(triple, N)
    if not resid <= WRONSKIAN_GATE:  # written so that a NaN residual fails too
        raise DegenerateMapError(
            f"Wronskian residual {resid:.3e} at N={N} exceeds {WRONSKIAN_GATE:g}")
    return MoebiusCoeffs(
        triple.q[N + 1] - triple.q[N],
        triple.r[N] - triple.r[N + 1],
        -triple.q[N],
        triple.r[N],
    )
