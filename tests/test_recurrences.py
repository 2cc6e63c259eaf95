"""Recurrence engine: oracle equivalence, conserved quantities, closed forms."""
import cmath
import math
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from parimplode import (
    CounterexampleC,
    Custom,
    DegenerateMapError,
    InvalidSpecError,
    MoebiusCoeffs,
    PerturbationSequences,
    QRSTriple,
    QuadraticNonconvergent,
    RecurrenceOverflowError,
    TheoremA,
    TheoremB,
    closed_form_T_array,
    coefficients_from_qr,
    compose_chain,
    materialize,
    projective_distance,
    random_small_schedule,
    run_recurrences,
    wronskian_residual,
)
from parimplode.skew import build_example, induced_schedule


def _exact_rotation(N: int) -> PerturbationSequences:
    base = cmath.exp(2j * math.pi / N)
    rho = np.full(N + 2, base)
    return PerturbationSequences(rho, np.zeros(N + 2, dtype=complex), base)


def _r_from_qs(seqs, triple):
    """r_1..r_{N+1} rebuilt as r_k = q_k - rho_1 s_{k-1}, where s_0..s_N is
    the q sequence of the schedule shifted one step ahead (N >= 2)."""
    s = run_recurrences(PerturbationSequences(seqs.rho[1:], seqs.eps_sq[1:], seqs.rho_base)).q
    return triple.q[1:] - seqs.rho[1] * s


# -- PerturbationSequences ----------------------------------------------------


def test_sequences_validation():
    with pytest.raises(InvalidSpecError):
        PerturbationSequences(np.ones(5), np.zeros(6), 1.0)
    with pytest.raises(InvalidSpecError):
        PerturbationSequences(np.ones((2, 3)), np.ones((2, 3)), 1.0)
    with pytest.raises(InvalidSpecError):
        PerturbationSequences(np.ones(2), np.zeros(2), 1.0)  # too short to hold q_0..q_N+1
    rho = np.full(8, 1.0 + 0.0j)
    rho_bad = rho.copy()
    rho_bad[3] = 3.5  # |b| = 2.5
    with pytest.raises(InvalidSpecError):
        PerturbationSequences(rho_bad, np.zeros(8), 1.0)
    eps_bad = np.zeros(8, dtype=complex)
    eps_bad[2] = 1.5
    with pytest.raises(InvalidSpecError):
        PerturbationSequences(rho, eps_bad, 1.0)
    nan_rho = rho.copy()
    nan_rho[1] = complex("nan")
    with pytest.raises(InvalidSpecError):
        PerturbationSequences(nan_rho, np.zeros(8), 1.0)


def test_sequences_slot_zero_and_immutability():
    rho = np.full(10, 1.0 + 0.1j)
    eps = np.full(10, 0.01 + 0.0j)
    seqs = PerturbationSequences(rho, eps, 1.0)
    assert seqs.N == 8
    assert seqs.rho[0] == 0.0 and seqs.eps_sq[0] == 0.0
    with pytest.raises(ValueError):
        seqs.rho[1] = 2.0
    assert seqs.b[0] == 0.0
    assert np.allclose(seqs.b[1:], 0.1j)
    assert np.allclose(seqs.a[1:], 0.1j - 0.01)


def test_from_eps_squares():
    rho = np.ones(7, dtype=complex)
    eps = np.full(7, 0.3 + 0.0j)
    seqs = PerturbationSequences.from_eps(rho, eps, 1.0)
    assert np.allclose(seqs.eps_sq[1:], 0.09)
    assert seqs.eps_sq[1:].any()
    assert not PerturbationSequences(rho, np.zeros(7), 1.0).eps_sq[1:].any()


def test_step_maps_match_inputs():
    seqs = random_small_schedule(12, seed=3, trial=0)
    rows = seqs.step_maps()
    assert rows.shape == (12, 2)
    for k, (a, b) in enumerate(rows, start=1):
        assert a == seqs.rho[k] - seqs.eps_sq[k]
        assert b == seqs.eps_sq[k]


def test_step_maps_reject_a_vanishing_rho():
    # around rho_base = 0.5, rho_k = 0 is admissible (|b_k| = 0.5), but its
    # step map has determinant rho_k = 0
    rho = np.full(8, 0.5 + 0.1j)
    rho[3] = 0.0
    seqs = PerturbationSequences(rho, np.full(8, 0.01 + 0.02j), 0.5)
    want = "degenerate step map at k=3: coefficients ((-0.01-0.02j), (0.01+0.02j), (-1+0j), (1+0j))"
    with pytest.raises(DegenerateMapError, match=re.escape(want)):
        seqs.step_maps()


# -- oracle equivalence --------------------------------------------------------


def test_recurrence_coefficients_match_direct_composition():
    # the central cross-check: three-term recurrences vs brute-force
    # left-fold of the per-step matrices
    for n in (8, 32, 64, 128):
        for trial in range(10):
            seqs = random_small_schedule(n, seed=1, trial=trial)
            triple = run_recurrences(seqs)
            coeffs = coefficients_from_qr(triple, n)
            chain = compose_chain(seqs.step_maps())
            assert projective_distance(coeffs, chain) < 1e-10, (n, trial)


def test_small_case_by_hand():
    # N = 1: the composition is the single step itself
    rho = np.array([0.0, 1.1 + 0.0j, 1.0])
    eps_sq = np.array([0.0, 0.04 + 0.0j, 0.0])
    seqs = PerturbationSequences(rho, eps_sq, 1.0)
    triple = run_recurrences(seqs)
    # q: 0, 1, then q_2 = (1 + rho_1 - eps_1^2)*1 - rho_1*0
    assert triple.q[2] == 1.0 + 1.1 - 0.04
    # r: 1, 1, then r_2 = (1 + rho_1 - eps_1^2)*1 - rho_1*1 = 1 - eps_1^2
    assert triple.r[2] == 1.0 - 0.04
    m = coefficients_from_qr(triple, 1)
    assert m.as_tuple() == (triple.q[2] - 1.0, 1.0 - triple.r[2], -1.0, 1.0)
    assert m.a == pytest.approx(1.1 - 0.04)
    assert m.b == pytest.approx(0.04)


# -- conserved quantities -------------------------------------------------------


def test_wronskian_residual_small_on_random_schedules():
    for trial in range(20):
        seqs = random_small_schedule(100, seed=9, trial=trial)
        triple = run_recurrences(seqs)
        for k in (0, 1, 50, 100):
            assert wronskian_residual(triple, k) < 1e-12
    with pytest.raises(ValueError):
        wronskian_residual(triple, 101)


def test_wronskian_defends_against_corruption():
    # q scaled by 1 + 1e-8 scales the Wronskian by it: a residual of about
    # 1e-8, ten times the gate, where the clean schedule reads about 1e-15
    seqs = random_small_schedule(32, seed=2, trial=0)
    triple = run_recurrences(seqs)
    broken = QRSTriple(q=triple.q * (1 + 1e-8), r=triple.r, rho_cumprod=triple.rho_cumprod)
    with pytest.raises(DegenerateMapError, match=r"^Wronskian residual 1\.000e-08 at N=32 exceeds 1e-09$"):
        coefficients_from_qr(broken, 32)


def test_wronskian_gate_rejects_a_nan_residual():
    # `resid > WRONSKIAN_GATE` is False for NaN; the gate must fail it all the same
    seqs = random_small_schedule(32, seed=2, trial=0)
    triple = run_recurrences(seqs)
    q = triple.q.copy()
    q[32] = complex("nan")
    broken = QRSTriple(q=q, r=triple.r,
                       rho_cumprod=triple.rho_cumprod)
    assert math.isnan(wronskian_residual(broken, 32))
    with pytest.raises(DegenerateMapError, match=r"^Wronskian residual nan"):
        coefficients_from_qr(broken, 32)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vanishing_rho_fails_the_wronskian_gate():
    # rho_10 = 0 is admissible (|b_10| = 1) and makes prod rho_j vanish from
    # k = 10 on; with eps = 0 it also zeroes the increment d_11, so on either
    # path q and r stay constant from k = 10 on and the residual is 0/0;
    # it must trip the Wronskian gate rather than pass it, silently
    n = 600
    base = cmath.exp(2j * math.pi / n)
    rho = np.full(n + 2, base)
    rho[10] = 0.0
    spec = Custom(rho=rho, eps_sq=np.zeros(n + 2, dtype=complex), rho_base=base)
    for extended in (True, False):
        triple = run_recurrences(materialize(spec, n), extended=extended)
        assert math.isnan(wronskian_residual(triple, n))
        with pytest.raises(DegenerateMapError, match=r"^Wronskian residual nan at N=600"):
            coefficients_from_qr(triple, n)


def test_r_from_qs_identity():
    for n in (16, 64, 256):
        seqs = random_small_schedule(n, seed=4, trial=1)
        triple = run_recurrences(seqs)
        assert np.max(np.abs(triple.r[1:] - _r_from_qs(seqs, triple))) < 1e-9 * n
    assert _r_from_qs(seqs, triple)[0] == 1.0  # r_1 = q_1 - rho_1 * s_0 = 1


def test_difference_formula_identity(difference_formula):
    for n in (16, 64, 256):
        for trial in range(5):
            seqs = random_small_schedule(n, seed=6, trial=trial)
            triple = run_recurrences(seqs)
            T = closed_form_T_array(n)
            for k in (2, n // 2, n, n + 1):
                resid = abs(triple.q[k] - T[k] - difference_formula(seqs, triple, k))
                assert resid < 1e-8 * n, (n, trial, k)


# -- closed forms ----------------------------------------------------------------


def test_closed_form_T_matches_geometric_sum():
    for n in (5, 12, 40, 97):
        rho = cmath.exp(2j * math.pi / n)
        T = closed_form_T_array(n)
        assert T.shape == (n + 2,)
        for k in range(n + 2):
            assert T[k] == pytest.approx(sum(rho**j for j in range(k)), abs=1e-12)
    assert closed_form_T_array(10)[0] == pytest.approx(0.0, abs=1e-15)
    assert closed_form_T_array(10)[1] == pytest.approx(1.0)


def test_telescoping_T_increment():
    for n in (10, 100, 1000):
        T = closed_form_T_array(n)
        rho = cmath.exp(2j * math.pi / n)
        for k in range(n + 1):
            assert abs(T[k + 1] - T[k] - rho**k) < 1e-10 * n


def test_exact_rotation_reproduces_T():
    n = 500
    triple = run_recurrences(_exact_rotation(n))
    T = closed_form_T_array(n)
    assert np.max(np.abs(triple.q - T)) < 1e-8
    assert np.max(np.abs(triple.r - 1.0)) == 0.0  # eps == 0 keeps r frozen at 1


def test_additive_resonant_checkpoints():
    # rho == 1, eps = pi/N exactly: the composition closes up and the
    # checkpoint values approach the Chebyshev endpoint pattern at rate 1/N
    n = 400
    seqs = materialize(TheoremB(4, amplitude=0.0), n)
    triple = run_recurrences(seqs)
    assert abs(triple.q[n]) < 5.0 / n
    assert triple.q[n - 1].real == pytest.approx(1.0, abs=5.0 / n)
    assert triple.q[n + 1].real == pytest.approx(-1.0, abs=5.0 / n)
    assert triple.q[n - 2].real == pytest.approx(2.0 * math.cos(math.pi / n), abs=5.0 / n)
    # r_N approaches -1: the all-real additive composite is projectively
    # the identity through A = D = -1, not through r -> 1
    assert triple.r[n].real == pytest.approx(-1.0, abs=5.0 / n)


# -- overflow and extended path ---------------------------------------------------


def _doubling(n):
    """|b| = 1: admissible, but q_k grows like 2^k, past 1e100 from k = 333 on."""
    return _schedule(n, lambda k: 0j, rho_shift=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard():
    # at N = 1200 the unchecked values run on to inf and nan; the guard must
    # still name the first entry past 1e100, and numpy must stay silent
    for n in (400, 1200):
        with pytest.raises(RecurrenceOverflowError, match=r"^\|q_333\| exceeded 1e100"):
            run_recurrences(_doubling(n))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard_reads_the_exact_tail():
    # The exact kernel returns only the tail, so the guard names the first
    # tail entry past 1e100 by its true index (inf at N = 1200); its integers
    # cannot overflow, so nothing earlier needs the check.  Below 1e100 the
    # run passes: |q_301| is about 2^301 = 4e90.
    for n in (400, 1200):
        with pytest.raises(RecurrenceOverflowError, match=rf"^\|q_{n}\| exceeded 1e100"):
            run_recurrences(_doubling(n), extended=True)
    triple = run_recurrences(_doubling(300), extended=True)
    assert 1e90 < abs(triple.q[301]) < 1e100


def test_overflow_check_treats_non_finite_as_overflow():
    from parimplode.recurrences import _check_overflow

    q = np.ones(10, dtype=complex)
    r = np.ones(10, dtype=complex)
    _check_overflow(q, r)
    r[7] = complex("nan")
    with pytest.raises(RecurrenceOverflowError, match=r"^\|r_7\|"):
        _check_overflow(q, r)
    q[7] = 2e100
    with pytest.raises(RecurrenceOverflowError, match=r"^\|q_7\|"):
        _check_overflow(q, r)  # q first on a tie


def test_extended_path_agrees_with_plain():
    # the exact kernel returns only its tail, so it runs on every prefix
    seqs = random_small_schedule(64, seed=8, trial=0)
    plain = run_recurrences(seqs)
    for n in range(1, 65):
        ext = run_recurrences(_prefix(seqs, n), extended=True)
        assert np.max(np.abs(plain.q[n:n + 2] - ext.q[n:])) < 1e-11
        assert np.max(np.abs(plain.r[n:n + 2] - ext.r[n:])) < 1e-11


# -- bit-identity against the reference loops -------------------------------------
#
# The plain kernel is a flat rewrite of _reference_plain and must reproduce
# it bit for bit, so every CSV byte and pinned value computed from q, r and
# rho_cumprod is unaffected by the rewrite.  The extended kernel
# must give the exact values on its binary64 inputs, correctly rounded, which
# _exact_reference works out without truncating anything.  It returns only
# the tail at N, so where N is small it runs on every prefix of the schedule
# and each step's value is still checked once.  Likewise compose_chain over
# the step_maps rows must reproduce the fold over MoebiusCoeffs objects that
# it replaced.


def _reference_plain(seqs):
    N = seqs.N
    rho = seqs.rho
    es = seqs.eps_sq
    q = np.zeros(N + 2, dtype=complex)
    r = np.zeros(N + 2, dtype=complex)
    prod = np.ones(N + 1, dtype=complex)
    q[1] = 1.0
    r[0] = 1.0
    r[1] = 1.0
    dq, dr = 1.0 + 0j, 0j  # the increments x_1 - x_0
    for k in range(1, N + 1):
        dq = rho[k] * dq - es[k] * q[k]
        dr = rho[k] * dr - es[k] * r[k]
        q[k + 1] = q[k] + dq
        r[k + 1] = r[k] + dr
        prod[k] = prod[k - 1] * rho[k]
    return q, r, prod


def _exact_reference(seqs):
    """q, r and prod rho_j in exact rational arithmetic, each rounded once.

    Every binary64 input is an integer over 2**F for one F, so a value after
    k steps is an integer over 2**(F k) and the loop never rounds; int / int
    rounds the quotient correctly.  This is fractions.Fraction arithmetic
    without the gcd reductions, which make Fraction 25-75x slower at N = 258.
    """
    N = seqs.N
    parts = np.concatenate((seqs.rho[1:N + 1], seqs.eps_sq[1:N + 1])).view(float).tolist()
    F = max(x.as_integer_ratio()[1].bit_length() - 1 for x in parts)
    D = 1 << F

    def exact(z):
        (nr, dr), (ni, di) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
        return nr * (D // dr), ni * (D // di)

    def step(c, p, x, y):  # c*x - p*y over 2**(F (k+1)), x over 2**(F k), y over 2**(F (k-1))
        return (c[0] * x[0] - c[1] * x[1] - ((p[0] * y[0] - p[1] * y[1]) << F),
                c[0] * x[1] + c[1] * x[0] - ((p[0] * y[1] + p[1] * y[0]) << F))

    def rounded(x, k):
        den = 1 << (F * k)
        return complex(x[0] / den, x[1] / den)

    q = np.zeros(N + 2, dtype=complex)
    r = np.zeros(N + 2, dtype=complex)
    prod = np.ones(N + 1, dtype=complex)
    q[1] = r[0] = r[1] = 1.0
    qm, qk, rm, rk, pk = (0, 0), (D, 0), (1, 0), (D, 0), (1, 0)
    for k, (a, e) in enumerate(zip(seqs.rho[1:N + 1].tolist(), seqs.eps_sq[1:N + 1].tolist()), 1):
        p, e = exact(a), exact(e)
        c = (D + p[0] - e[0], p[1] - e[1])
        qm, qk = qk, step(c, p, qk, qm)
        rm, rk = rk, step(c, p, rk, rm)
        pk = (pk[0] * p[0] - pk[1] * p[1], pk[0] * p[1] + pk[1] * p[0])
        q[k + 1], r[k + 1], prod[k] = rounded(qk, k + 1), rounded(rk, k + 1), rounded(pk, k)
    return q, r, prod


def test_exact_reference_matches_fractions():
    # the same recurrence with each complex value a pair of Fractions
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def rounded(x):
        return complex(float(x[0]), float(x[1]))

    for seqs in (random_small_schedule(40, seed=14, trial=0),
                 induced_schedule(build_example(5, 40), 40)):
        one, zero = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))
        q, r, p = [zero, one], [one, one], [one]
        for a, e in zip(seqs.rho[1:-1].tolist(), seqs.eps_sq[1:-1].tolist()):
            rho = (Fraction(a.real), Fraction(a.imag))
            c = (1 + rho[0] - Fraction(e.real), rho[1] - Fraction(e.imag))
            for x in (q, r):
                u, v = mul(c, x[-1]), mul(rho, x[-2])
                x.append((u[0] - v[0], u[1] - v[1]))
            p.append(mul(p[-1], rho))
        want = [np.array([rounded(z) for z in x]) for x in (q, r, p)]
        for g, w in zip(_exact_reference(seqs), want):
            assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()


def _reference_chain(seqs):
    # compose_chain over step maps as it was: MoebiusCoeffs holding numpy
    # scalars, renormalized with / scale
    maps = [MoebiusCoeffs(seqs.rho[k] - seqs.eps_sq[k], seqs.eps_sq[k], -1.0, 1.0)
            for k in range(1, seqs.N + 1)]
    a, b, c, d = maps[0].as_tuple()
    for i, m in enumerate(maps[1:], start=2):
        a, b, c, d = (
            m.a * a + m.b * c,
            m.a * b + m.b * d,
            m.c * a + m.d * c,
            m.c * b + m.d * d,
        )
        if i % 64 == 0:
            scale = max(abs(a), abs(b), abs(c), abs(d))
            a, b, c, d = a / scale, b / scale, c / scale, d / scale
    return a, b, c, d


def _assert_chain_bit_identical(seqs):
    got = compose_chain(seqs.step_maps())
    got_bits = np.array(got.as_tuple(), dtype=complex).view(np.uint64)
    want_bits = np.array(_reference_chain(seqs), dtype=complex).view(np.uint64)
    assert got_bits.tolist() == want_bits.tolist()


def _prefix(seqs, n):
    """The first n steps of seqs as a schedule of their own."""
    return PerturbationSequences(seqs.rho[:n + 2], seqs.eps_sq[:n + 2], seqs.rho_base)


def _assert_tail_bit_identical(got, want):
    """The exact kernel's (q, r, rho_cumprod) at some N against ``want``, full
    arrays of a schedule that N steps begin: q[N:], r[N:] and rho_cumprod[N:]
    bit for bit, and every earlier entry NaN."""
    n = got[0].size - 2
    for name, g, w in zip(("q", "r", "rho_cumprod"), got, want):
        assert np.isnan(g[:n].view(float)).all(), f"{name} holds a value before N={n}"
        diff = np.flatnonzero(g[n:].view(np.uint64) != w[n:g.size].view(np.uint64))
        assert diff.size == 0, f"{name} at N={n} differs first at flat index {diff[:1]}"


def _assert_bit_identical(seqs, extended, ns=None):
    """The kernel against its reference, which it returns as a QRSTriple.

    The exact kernel's tail is checked at N and at each prefix length in ns;
    the plain kernel's arrays are checked whole.
    """
    reference = (_exact_reference if extended else _reference_plain)(seqs)
    if extended:
        for n in (seqs.N,) if ns is None else ns:
            triple = run_recurrences(_prefix(seqs, n), extended=True)
            _assert_tail_bit_identical((triple.q, triple.r, triple.rho_cumprod), reference)
    else:
        triple = run_recurrences(seqs)
        got_all = (triple.q, triple.r, triple.rho_cumprod)
        for name, got, want in zip(("q", "r", "rho_cumprod"), got_all, reference):
            assert got.shape == want.shape, name
            diff = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
            assert diff.size == 0, f"{name} differs first at flat index {diff[:1]}"
    return QRSTriple(*reference)


_FAMILIES = (
    [(f"A{c}", lambda n, c=c: materialize(TheoremA(c), n)) for c in (1, 2, 3)]
    + [(f"B{c}", lambda n, c=c: materialize(TheoremB(c), n)) for c in (1, 2, 3, 4, 5)]
    + [("quadratic", lambda n: materialize(QuadraticNonconvergent(), n))]
    + [(f"skew{e}", lambda n, e=e: induced_schedule(build_example(e, n), n)) for e in (1, 2, 3, 4)]
)


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
@pytest.mark.parametrize("n", [100, 1600])
@pytest.mark.parametrize("build", [b for _, b in _FAMILIES], ids=[name for name, _ in _FAMILIES])
def test_kernels_bit_identical_to_reference_loops(build, n, extended):
    _assert_bit_identical(build(n), extended)


@pytest.mark.parametrize("build", [b for _, b in _FAMILIES], ids=[name for name, _ in _FAMILIES])
def test_chain_bit_identical_to_reference_fold(build):
    # the fold renormalizes after every 64th step: 63, 64, 65, 128, 129 and
    # 512 sit on either side of one
    for n in (16, 63, 64, 65, 128, 129, 512):
        _assert_chain_bit_identical(build(n))


def test_chain_bit_identical_on_random_small_schedules():
    for trial, n in enumerate((16, 63, 64, 65, 128, 129, 512)):
        _assert_chain_bit_identical(random_small_schedule(n, seed=13, trial=trial))


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_kernels_bit_identical_on_random_small_schedules(extended):
    for n, trial in ((4, 0), (64, 1), (100, 2), (1600, 3)):
        _assert_bit_identical(random_small_schedule(n, seed=11, trial=trial), extended)


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_kernels_bit_identical_across_block_edges(extended):
    # the kernels advance steps 1..N in blocks of _BLOCK; N = 256 and 512 end
    # on a block edge, 257 and 513 just past one
    for trial, n in enumerate((5, 256, 257, 258, 512, 513, 514)):
        _assert_bit_identical(random_small_schedule(n, seed=12, trial=trial), extended)


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_kernels_hold_no_per_step_objects(extended):
    # Plain: memory at N = 12800 stays near the output arrays themselves; a
    # kernel that keeps one Python object per step would more than double it.
    # Exact: the outputs are NaN but for the tail, so what counts is the peak
    # beyond them.  At N = 2400 it reads about 20 KB, one block's converted
    # inputs and the O(N) numpy temporaries of the fraction-bit rule; one int
    # per step would cost 106 KB more, and six per step 0.6 MB.
    n = 2400 if extended else 12800
    seqs = materialize(TheoremB(3), n)
    tracemalloc.start()
    try:
        triple = run_recurrences(seqs, extended=extended)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(x.nbytes for x in (triple.q, triple.r, triple.rho_cumprod))
    if extended:
        assert peak - outputs < n * sys.getsizeof(1 << 128)
    else:
        assert peak < 2 * outputs


# -- the plain kernel against the exact kernel at the reported N -----------------
#
# N = 12800 is the top rung of every built-in ladder.  The plain kernel's
# checkpoint values must agree with the exact kernel's to 1e-9 of their size,
# and both must conserve the Wronskian far inside coefficients_from_qr's 1e-9 gate.

_REPORTED = (
    _FAMILIES
    + [(side, lambda n, side=side: materialize(CounterexampleC(side), n))
       for side in ("multiplicative_f", "additive_g")]
    + [("skew5", lambda n: induced_schedule(build_example(5, n), n))]
)


@pytest.mark.parametrize("build", [b for _, b in _REPORTED], ids=[name for name, _ in _REPORTED])
def test_plain_kernel_matches_exact_kernel_at_the_reported_n(build):
    n = 12800
    seqs = build(n)
    plain, exact = run_recurrences(seqs), run_recurrences(seqs, extended=True)
    for name, got, want in (("q", plain.q, exact.q), ("r", plain.r, exact.r)):
        err = np.abs(got[n:] - want[n:]) / np.maximum(np.abs(want[n:]), 1.0)
        assert err.max() <= 1e-9, (name, err.tolist())
    for triple in (plain, exact):
        assert wronskian_residual(triple, n) <= 1e-12


# -- the extended kernel against its two-term form ---------------------------------
#
# _reference_extended is the fixed-point kernel as it was before the increment
# form and the vectorised conversions: the coefficient 1 + rho_k - eps_k^2
# formed as an (F+1)-bit integer, inputs converted through as_integer_ratio,
# outputs through int / int.  The kernel must reproduce it bit for bit,
# including where it rounds outside the reach of _exact_reference: inputs so
# fine that F > 1022, subnormals, signed zeros and values past 2**1024.


def _reference_extended(seqs):
    N = seqs.N
    F = max(128, 117 - min(int(np.frexp(x.view(float))[1].min())
                           for x in (seqs.rho, seqs.eps_sq)))
    one = 1 << F
    q = np.empty(N + 2, dtype=complex)
    r = np.empty(N + 2, dtype=complex)
    prod = np.empty(N + 1, dtype=complex)
    q[:2] = 0j, 1 + 0j
    r[:2] = 1 + 0j, 1 + 0j
    prod[0] = 1 + 0j
    qmr, qmi, qr, qi, rmr, rmi, rr, ri, pr, pi = 0, 0, one, 0, one, 0, one, 0, one, 0
    qv, rv, pv = (x.view(float).reshape(-1, 2) for x in (q, r, prod))
    for k0 in range(1, N + 1, 256):
        k1 = min(k0 + 256, N + 1)
        rho_b, es_b = ([(n << F) // d for n, d in map(float.as_integer_ratio, x.tolist())]
                       for x in (seqs.rho[k0:k1].view(float), seqs.eps_sq[k0:k1].view(float)))
        out = []
        for i in range(0, len(rho_b), 2):
            ar, ai = rho_b[i], rho_b[i + 1]
            cr, ci = one + ar - es_b[i], ai - es_b[i + 1]
            qmr, qmi, qr, qi = (qr, qi, (cr * qr - ci * qi - ar * qmr + ai * qmi) >> F,
                                (cr * qi + ci * qr - ar * qmi - ai * qmr) >> F)
            rmr, rmi, rr, ri = (rr, ri, (cr * rr - ci * ri - ar * rmr + ai * rmi) >> F,
                                (cr * ri + ci * rr - ar * rmi - ai * rmr) >> F)
            pr, pi = (pr * ar - pi * ai) >> F, (pr * ai + pi * ar) >> F
            out += (qr, qi, rr, ri, pr, pi)
        try:
            rows = np.array([x / one for x in out]).reshape(-1, 6)
        except OverflowError:
            rows = np.array([x / one if abs(x) >> F < 2**1000 else math.inf
                             for x in out]).reshape(-1, 6)
        qv[k0 + 1:k1 + 1] = rows[:, 0:2]
        rv[k0 + 1:k1 + 1] = rows[:, 2:4]
        pv[k0:k1] = rows[:, 4:6]
    return q, r, prod


def _fraction_bits(seqs):
    return max(128, 117 - min(int(np.frexp(x.view(float))[1].min())
                              for x in (seqs.rho, seqs.eps_sq)))


def _assert_matches_two_term_form(seqs, ns=None):
    """The kernel's raw tail against _reference_extended, bit for bit, at N
    and at each prefix length in ns; returns the reference's full arrays.

    The kernel's rounding depends on F, so each prefix must keep seqs's F.
    """
    from parimplode.recurrences import _run_extended

    want = _reference_extended(seqs)
    for n in (seqs.N,) if ns is None else ns:
        prefix = _prefix(seqs, n)
        assert _fraction_bits(prefix) == _fraction_bits(seqs), n
        _assert_tail_bit_identical(_run_extended(prefix), want)
    return want


def _schedule(N, eps_sq_at, rho_shift=0.0):
    """Rotation by e^{2 pi i / N}, shifted by rho_shift, with eps_sq_at(k) at step k."""
    base = cmath.exp(2j * math.pi / N)
    rho = np.full(N + 2, base + rho_shift)
    eps_sq = np.array([0j] + [eps_sq_at(k) for k in range(1, N + 1)] + [0j])
    return PerturbationSequences(rho, eps_sq, base)


def test_extended_conversion_matches_as_integer_ratio():
    from parimplode.recurrences import _to_fixed

    values = [0.0, -0.0, 5e-324, -5e-324, 1 - 2**-53, -0.7, 2.0**-1000]
    x = np.array(values)
    F = 117 - int(np.frexp(x)[1].min())
    for bits in (F, F + 7):
        want = [(n << bits) // d for n, d in map(float.as_integer_ratio, values)]
        assert _to_fixed(x, bits) == want


def test_extended_matches_two_term_form_on_the_benchmark_rungs():
    # the top rung of the sweep-extended ladders, N = 12800
    for seqs in (materialize(TheoremA(2), 12800), materialize(TheoremB(2), 12800),
                 materialize(TheoremB(4), 12800), induced_schedule(build_example(4, 12800), 12800)):
        _assert_matches_two_term_form(seqs)


# A step costs about 45 us at F = 1113 or 1190, so the two schedules below
# check every prefix up to N = 40 and then N = 300 alone, whose tail reads
# every input; every prefix of N = 300 would take 2 s.
_FINE_F_PREFIXES = (*range(1, 41), 300)


def test_extended_matches_two_term_form_below_2_pow_minus_906():
    # eps^2 = 1e-300 gives F = 1113 > 1022: 2**-F is below the binary64
    # range, and the outputs still round once, through int / int
    seqs = _schedule(300, lambda k: 1e-300j if k % 3 else 0.01 / k)
    assert _fraction_bits(seqs) == 1113
    _assert_matches_two_term_form(seqs, _FINE_F_PREFIXES)


def test_extended_matches_two_term_form_on_subnormal_eps_sq():
    seqs = _schedule(300, lambda k: 5e-324j if k == 7 else complex(-5e-324, 1e-3 / k))
    assert _fraction_bits(seqs) == 1190
    _assert_matches_two_term_form(seqs, _FINE_F_PREFIXES)


def test_extended_rounds_a_subnormal_output_once():
    # rho_1 rho_2 = (1.5 - 1.3e-18) * 2**-1074 sits just below a rounding tie
    # of the subnormal grid: rounded once it reads 2**-1074; rounded to 53
    # bits first (float(int)) and then scaled, it would tie and read 2**-1073.
    rho = np.array([0, math.ldexp(1 + 2**-30, -537), math.ldexp(1.5 / (1 + 2**-30), -537), 0.5])
    eps_sq = np.array([0, 1, 5e-324, 0])  # F = 1190
    seqs = PerturbationSequences(rho, eps_sq, 0.5)
    _, _, prod = _assert_matches_two_term_form(seqs, (1, 2))
    assert prod[2] == 5e-324


def test_extended_matches_two_term_form_on_signed_zeros():
    # rho = 1 - 0j and eps^2 = -0 + 0j, -0 - 0j keep q_k = k, r_k = 1 exactly
    zeros = (complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0), 0j)
    rho = np.array([0j] + [complex(1.0, -0.0)] * 300 + [1 + 0j])
    eps_sq = np.array([0j] + [zeros[k % 4] for k in range(300)] + [0j])
    seqs = PerturbationSequences(rho, eps_sq, 1.0)
    q, r, _ = _assert_matches_two_term_form(seqs, range(1, 301))
    assert q.real.tolist() == list(range(302)) and r[1:].real.tolist() == [1.0] * 301
    _assert_bit_identical(seqs, extended=True, ns=range(1, 301))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extended_matches_two_term_form_past_2_pow_1024():
    # |b| = 1 doubles q and r every step: q_k passes 2**1000, where the
    # kernel's rounding reads inf, at k = 1001, and binary64 ends at 2**1024.
    # The prefixes 990..1030 straddle both; every prefix would take 2 s.
    q, _, _ = _assert_matches_two_term_form(_doubling(1200), range(990, 1031))
    assert np.isfinite(q[990]) and np.isinf(q[1001].real) and np.isinf(q[-1].real)


def test_kernels_bit_identical_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # signed zeros are drawn on purpose: the kernels must keep their signs
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.7, 0.7))
    cplx = st.builds(complex, part, part)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(
        b=st.lists(cplx, min_size=1, max_size=40),
        data=st.data(),
        angle=st.floats(-math.pi, math.pi),
        extended=st.booleans(),
    )
    def check(b, data, angle, extended):
        n = len(b)
        eps_sq = data.draw(st.lists(cplx, min_size=n, max_size=n))
        base = cmath.exp(1j * angle)
        rho = np.array([0.0] + [base + x for x in b] + [base], dtype=complex)
        seqs = PerturbationSequences(rho, np.array([0.0] + eps_sq + [0.0], dtype=complex), base)
        triple = _assert_bit_identical(seqs, extended, range(1, n + 1))
        _assert_chain_bit_identical(seqs)
        if n > 1:  # the shifted schedule of N = 1 is empty
            assert np.max(np.abs(triple.r[1:] - _r_from_qs(seqs, triple))) < 1e-9 * n
        # The residual is a difference of two binary64 products, so its
        # rounding scales with their size, which these draws can take to 1e7
        # times the Wronskian itself; the bound is 1e-12 of that size.
        q, r = triple.q, triple.r
        size = (abs(q[n + 1] * r[n]) + abs(r[n + 1] * q[n])) / abs(triple.rho_cumprod[n])
        assert wronskian_residual(triple, n) < 1e-12 * size

    check()
