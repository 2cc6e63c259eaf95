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
from parimplode.recurrences import _BLOCK, _PERIOD_TRIES, _period, _run_extended, _run_plain
from parimplode.skew import build_example, induced_schedule

from conftest import reference_plain


def _exact_rotation(N: int) -> PerturbationSequences:
    base = cmath.exp(2j * math.pi / N)
    rho = np.full(N + 2, base)
    return PerturbationSequences(rho, np.zeros(N + 2, dtype=complex), base)


def _r_from_qs(seqs, triple):
    """r_1..r_{N+1} rebuilt as r_k = q_k - rho_1 s_{k-1}, where s_0..s_N is
    the q sequence of the schedule shifted one step ahead (N >= 2)."""
    s = reference_plain(PerturbationSequences(seqs.rho[1:], seqs.eps_sq[1:], seqs.rho_base)).q
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
    with pytest.raises(InvalidSpecError, match=r"^\|b_k\| must be <= 1, max is nan$"):
        PerturbationSequences(rho, np.zeros(8), complex("nan"))  # every b_k is NaN
    inf_rho = rho.copy()
    inf_rho[3] = complex("inf")
    with pytest.raises(InvalidSpecError, match="^sequences contain non-finite entries$"):
        PerturbationSequences(inf_rho, np.zeros(8), complex("inf"))  # b_3 is inf - inf


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
    # the kernel keeps only the tail at N, which the reference loop's
    # trajectory matches bit for bit; earlier k read that trajectory, and a
    # check of the kernel's output at k < N reads NaN, which fails the gate
    for trial in range(20):
        seqs = random_small_schedule(100, seed=9, trial=trial)
        triple, reference = run_recurrences(seqs), reference_plain(seqs)
        assert wronskian_residual(triple, 100) < 1e-12
        assert math.isnan(wronskian_residual(triple, 50))
        for k in (0, 1, 50):
            assert wronskian_residual(reference, k) < 1e-12
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
        triple = reference_plain(seqs)
        assert np.max(np.abs(triple.r[1:] - _r_from_qs(seqs, triple))) < 1e-9 * n
    assert _r_from_qs(seqs, triple)[0] == 1.0  # r_1 = q_1 - rho_1 * s_0 = 1


def test_difference_formula_identity(difference_formula):
    for n in (16, 64, 256):
        for trial in range(5):
            seqs = random_small_schedule(n, seed=6, trial=trial)
            triple = reference_plain(seqs)
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
    triple = reference_plain(_exact_rotation(n))
    T = closed_form_T_array(n)
    assert np.max(np.abs(triple.q - T)) < 1e-8
    assert np.max(np.abs(triple.r - 1.0)) == 0.0  # eps == 0 keeps r frozen at 1


def test_additive_resonant_checkpoints():
    # rho == 1, eps = pi/N exactly: the composition closes up and the
    # checkpoint values approach the Chebyshev endpoint pattern at rate 1/N
    n = 400
    seqs = PerturbationSequences.from_eps(np.ones(n + 2), np.full(n + 2, math.pi / n), 1.0)
    triple = reference_plain(seqs)
    assert abs(triple.q[n]) < 5.0 / n
    assert triple.q[n - 1].real == pytest.approx(1.0, abs=5.0 / n)
    assert triple.q[n + 1].real == pytest.approx(-1.0, abs=5.0 / n)
    assert triple.q[n - 2].real == pytest.approx(2.0 * math.cos(math.pi / n), abs=5.0 / n)
    # r_N approaches -1: the all-real additive composite is projectively
    # the identity through A = D = -1, not through r -> 1
    assert triple.r[n].real == pytest.approx(-1.0, abs=5.0 / n)


# -- overflow and extended path ---------------------------------------------------


def _doubling(n, periodic=False):
    """|b| = 1: admissible, but q_k grows like 2^k, past 1e100 from k = 333 on.

    eps_k^2 is 0 at every step, or k * 1e-30, which leaves that growth as it
    is but makes every step distinct, so that the exact kernel runs its loop.
    """
    return _schedule(n, (lambda k: 0j) if periodic else (lambda k: k * 1e-30), rho_shift=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard():
    # at N = 1200 the unchecked values run on to inf and nan; the guard must
    # still name the first entry past 1e100, and numpy must stay silent
    for n in (400, 1200):
        with pytest.raises(RecurrenceOverflowError, match=r"^\|q_333\| exceeded 1e100"):
            run_recurrences(_doubling(n))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cut", [370, 400])
def test_overflow_guard_sees_an_excursion_inside_the_plain_kernel(cut):
    # q doubles for steps 1..cut (rho_k = base + 1, eps_k^2 = 0), past 1e100
    # from k = 333 on, then shrinks by 2**-0.5 a step (rho_k = base - 0.5,
    # eps_k^2 = 1) to |q_600| < 1e100: a check of the tail alone passes it,
    # and so does the Wronskian gate.  The plain kernel checks no value before
    # the tail, so only the bound on a block's growth from its start sees it.
    n = 600
    base = cmath.exp(2j * math.pi / n)
    k = np.arange(n + 2)
    seqs = PerturbationSequences(np.where(k <= cut, base + 1, base - 0.5),
                                 np.where(k <= cut, 0j, 1 + 0j), base)
    with pytest.raises(RecurrenceOverflowError, match=r"^\|q_333\| exceeded 1e100"):
        run_recurrences(seqs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard_names_the_entry_a_check_of_every_step_names():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from parimplode.recurrences import _check_overflow

    # Runs of steps that double q (b = 1), shrink it by 2**-0.5 a step
    # (b = -0.5, eps^2 = 1) or take a drawn admissible step, each run up to
    # 400 steps long, so that excursions past 1e100 start and end anywhere
    # in a block.  Each plain loop gets its own draws: the complex one on
    # these steps about the rotation by 2 pi / N; the running product on
    # multiplicative steps alone (eps^2 = 0), doubling or drawn; the real
    # loop on real steps about rho = 1, where b = 1 with eps^2 = -1 grows q
    # and r about 3.4 times a step (x_{k+1} = 4 x_k - 2 x_{k-1}) and b = -0.5
    # with eps^2 = 1 shrinks them again.  The kernel must raise exactly when
    # a check of the reference loop's whole trajectory does, naming the same
    # entry, and otherwise return that loop's tail.
    unit = st.builds(cmath.rect, st.floats(0, 1), st.floats(-math.pi, math.pi))
    real = st.builds(complex, st.floats(-1, 1))
    shrink = st.just((-0.5 + 0j, 1 + 0j))
    step = {
        "complex": st.one_of(st.just((1 + 0j, 0j)), shrink, st.tuples(unit, unit)),
        "product": st.one_of(st.just((1 + 0j, 0j)), st.tuples(unit, st.just(0j))),
        "real": st.one_of(st.just((1 + 0j, -1 + 0j)), shrink, st.tuples(real, real)),
    }

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data(), loop=st.sampled_from(sorted(step)))
    def check(data, loop):
        runs = data.draw(st.lists(st.tuples(step[loop], st.integers(1, 400)), min_size=1, max_size=5))
        n = sum(length for _, length in runs)
        base = 1 + 0j if loop == "real" else cmath.exp(2j * math.pi / n)
        steps = [s for s, length in runs for _ in range(length)]
        rho = np.array([0j] + [base + b for b, _ in steps] + [base])
        seqs = PerturbationSequences(rho, np.array([0j] + [e for _, e in steps] + [0j]), base)
        with np.errstate(all="ignore"):
            reference = reference_plain(seqs)
        try:
            _check_overflow(reference.q, reference.r)
        except RecurrenceOverflowError as err:
            with pytest.raises(RecurrenceOverflowError, match=f"^{re.escape(str(err))}$"):
                run_recurrences(seqs)
            return
        triple = run_recurrences(seqs)
        for field in ("q", "r", "rho_cumprod"):
            assert getattr(triple, field)[n:].tobytes() == getattr(reference, field)[n:].tobytes()

    check()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard_reads_the_exact_tail():
    # The exact kernel returns only the tail, so the guard names the first
    # tail entry past 1e100 by its true index (inf at N = 1200); its integers
    # cannot overflow, so nothing earlier needs the check.  Below 1e100 the
    # run passes: |q_301| is about 2^301 = 4e90.  The loop and the periodic
    # path (the constant schedule) read alike.
    for periodic in (False, True):
        for n in (400, 1200):
            assert _period(_doubling(n, periodic)) == periodic
            with pytest.raises(RecurrenceOverflowError, match=rf"^\|q_{n}\| exceeded 1e100"):
                run_recurrences(_doubling(n, periodic), extended=True)
        triple = run_recurrences(_doubling(300, periodic), extended=True)
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
    # both kernels return only their tail, so they run on every prefix
    seqs = random_small_schedule(64, seed=8, trial=0)
    for n in range(1, 65):
        plain = run_recurrences(_prefix(seqs, n))
        ext = run_recurrences(_prefix(seqs, n), extended=True)
        assert np.max(np.abs(plain.q[n:] - ext.q[n:])) < 1e-11
        assert np.max(np.abs(plain.r[n:] - ext.r[n:])) < 1e-11


# -- bit-identity against the reference loops -------------------------------------
#
# The plain kernel's tail must reproduce the loop of conftest.reference_plain
# bit for bit, so every CSV byte and pinned value computed from q, r and
# rho_cumprod is unaffected by the rewrite.  The extended kernel
# must give the exact values on its binary64 inputs, correctly rounded, which
# _ziv_reference works out.  Both return only the tail at N, so where N is
# small they run on every prefix of the schedule and each step's value is
# still checked once.  Likewise compose_chain over the step_maps rows must
# reproduce the fold over MoebiusCoeffs objects that it replaced.


def _ziv_reference(seqs, ns=None):
    """q, r and prod rho_j of seqs's recurrence on its binary64 inputs, each
    value correctly rounded, as full-length arrays that hold the tail at N,
    or at each prefix length in ns, and NaN elsewhere.

    The two-term form x_{k+1} = ((1 + rho_k - eps_k^2) x_k - rho_k x_{k-1})
    runs on integers over 2**G, G = (finest input bit) + 64 + 2 bitlen(N),
    so every input converts exactly and each step truncates once.  Each value
    is rounded once through int / int (inf past 2**1000, as _to_float reads
    it).  The run is repeated at G + 64 and, while any rounding differs,
    again at twice G and twice G + 64, up to 2**14 bits (Ziv, ACM TOMS 17(3),
    1991).  A value below about 2**-(G + 64) in modulus can read the same at
    both precisions and still be wrong; no schedule here has one.
    """
    N = seqs.N
    ks = sorted({k for n in ((N,) if ns is None else ns) for k in (n - 1, n)} - {0})
    marks = set(ks)
    parts = np.concatenate((seqs.rho[1:N + 1], seqs.eps_sq[1:N + 1])).view(float).tolist()
    ratios = [x.as_integer_ratio() for x in parts]  # denominators are powers of 2

    def run(G):  # (q_{k+1}, r_{k+1}, prod_k) after each step k in marks
        one = 1 << G
        fixed = [n * (one // d) for n, d in ratios]
        rho, es = fixed[:2 * N], fixed[2 * N:]
        qmr, qmi, qr, qi, rmr, rmi, rr, ri, pr, pi = 0, 0, one, 0, one, 0, one, 0, one, 0
        out = []
        for k, ar, ai, er, ei in zip(range(1, N + 1), rho[0::2], rho[1::2], es[0::2], es[1::2]):
            cr, ci = one + ar - er, ai - ei
            qmr, qmi, qr, qi = (qr, qi, (cr * qr - ci * qi - ar * qmr + ai * qmi) >> G,
                                (cr * qi + ci * qr - ar * qmi - ai * qmr) >> G)
            rmr, rmi, rr, ri = (rr, ri, (cr * rr - ci * ri - ar * rmr + ai * rmi) >> G,
                                (cr * ri + ci * rr - ar * rmi - ai * rmr) >> G)
            pr, pi = (pr * ar - pi * ai) >> G, (pr * ai + pi * ar) >> G
            if k in marks:
                out += (qr, qi, rr, ri, pr, pi)
        return [x / one if abs(x) >> G < 2**1000 else math.inf for x in out]

    G = max(d for _, d in ratios).bit_length() - 1 + 64 + 2 * N.bit_length()
    want = run(G)
    while run(G + 64) != want:
        G *= 2
        if G > 1 << 14:
            raise RuntimeError(f"roundings at N={N} still differ at {G // 2} fraction bits")
        want = run(G)
    q = np.full(N + 2, complex(math.nan, math.nan))
    r = q.copy()
    prod = np.full(N + 1, complex(math.nan, math.nan))
    q[:2], r[:2], prod[0] = (0, 1), 1, 1
    q[np.add(ks, 1)], r[np.add(ks, 1)], prod[ks] = np.reshape(want, (-1, 6)).view(complex).T
    return q, r, prod


def test_exact_reference_matches_fractions():
    # the same recurrence with each complex value a pair of Fractions
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def rounded(x):
        return complex(float(x[0]), float(x[1]))

    # prod rho_j = 2**-k of the last schedule drops below 2**-G at k = 80,
    # so the two precisions disagree and G doubles
    for seqs in (random_small_schedule(40, seed=14, trial=0),
                 induced_schedule(build_example(5, 40), 40),
                 PerturbationSequences(np.full(102, 0.5 + 0j), np.zeros(102), 0.5)):
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
        for g, w in zip(_ziv_reference(seqs, range(1, seqs.N + 1)), want):
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


def _record_loops(monkeypatch):
    """A list that gets the loop of every call the plain kernel makes from
    now on, one a block of steps: "product" for ``_product_steps``, "real"
    or "complex" for ``_plain_steps`` on floats or complex values."""
    from parimplode import recurrences

    loops, plain, product = [], recurrences._plain_steps, recurrences._product_steps

    def recording_plain(rho, eps_sq, qk, *state):
        loops.append("real" if type(qk) is float else "complex")
        return plain(rho, eps_sq, qk, *state)

    def recording_product(*args):
        loops.append("product")
        return product(*args)

    monkeypatch.setattr(recurrences, "_plain_steps", recording_plain)
    monkeypatch.setattr(recurrences, "_product_steps", recording_product)
    return loops


def _record_tails(monkeypatch):
    """A list that gets the period of every tail the exact kernel works out
    from now on: 0 for the loop, p for the periodic path at one precision."""
    from parimplode import recurrences

    periods, tail = [], recurrences._tail

    def recording(rho, eps_sq, N, p, F, real):
        periods.append(p)
        return tail(rho, eps_sq, N, p, F, real)

    monkeypatch.setattr(recurrences, "_tail", recording)
    return periods


def _assert_bit_identical(seqs, extended, ns=None):
    """The kernel against its reference, which it returns as a QRSTriple.

    The kernel's raw tail, without the overflow check of run_recurrences, is
    checked on the prefix of each length N' in ns, or on the whole schedule:
    q_N', q_N'+1, r_N', r_N'+1 and prod_N' must equal the reference's bit for
    bit.  The exact kernel's reference is _ziv_reference; the plain kernel's
    is the whole trajectory of reference_plain.
    """
    if extended:
        kernel, reference = _run_extended, QRSTriple(*_ziv_reference(seqs, ns))
    else:
        kernel, reference = _run_plain, reference_plain(seqs)
    q, r, prod = reference.q, reference.r, reference.rho_cumprod
    for n in (seqs.N,) if ns is None else ns:
        got = kernel(_prefix(seqs, n))
        want = np.array([q[n], q[n + 1], r[n], r[n + 1], prod[n]])
        diff = [name for name, g, w in zip(("q_N", "q_N+1", "r_N", "r_N+1", "prod"),
                                           got.view(np.uint64).reshape(5, 2),
                                           want.view(np.uint64).reshape(5, 2)) if (g != w).any()]
        assert not diff, f"{diff} at N={n}: {got.tolist()} != {want.tolist()}"
    return reference


_FAMILIES = (
    [(f"A{c}", lambda n, c=c: materialize(TheoremA(c), n)) for c in (1, 2, 3)]
    + [(f"B{c}", lambda n, c=c: materialize(TheoremB(c), n)) for c in (1, 2, 3, 4, 5)]
    + [("quadratic", lambda n: materialize(QuadraticNonconvergent(), n))]
    + [(f"skew{e}", lambda n, e=e: induced_schedule(build_example(e, n), n)) for e in (1, 2, 3, 4)]
)

# every schedule a command reports on
_REPORTED = (
    _FAMILIES
    + [(side, lambda n, side=side: materialize(CounterexampleC(side), n))
       for side in ("multiplicative_f", "additive_g")]
    + [("skew5", lambda n: induced_schedule(build_example(5, n), n))]
)


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
@pytest.mark.parametrize("n", [100, 1600])
@pytest.mark.parametrize("build", [b for _, b in _REPORTED], ids=[name for name, _ in _REPORTED])
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
    # every prefix of the first two, whose tails together read each step
    for n, trial in ((4, 0), (64, 1), (100, 2), (1600, 3)):
        ns = range(1, n + 1) if n <= 64 else None
        _assert_bit_identical(random_small_schedule(n, seed=11, trial=trial), extended, ns)


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_kernels_bit_identical_across_block_edges(extended):
    # the kernels advance steps 1..N in blocks of _BLOCK; N = 256 and 512 end
    # on a block edge, 257 and 513 just past one.  B5 is real, so the exact
    # kernel runs it on its real loop.
    ns = (5, 256, 257, 258, 512, 513, 514)
    for trial, n in enumerate(ns):
        _assert_bit_identical(random_small_schedule(n, seed=12, trial=trial), extended)
    _assert_bit_identical(materialize(TheoremB(5), ns[-1]), extended, ns)


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_kernels_hold_no_per_step_objects(extended):
    # The outputs are NaN but for the tail, so what counts is the peak beyond
    # them.  Plain: at N = 12800 it reads a few KB, since one block's inputs
    # as Python values and the cumprod of rho are freed before the outputs
    # are made; it must stay under one block's worth of them on each loop,
    # the complex one (B3), the running product (A3) and the real one (B5).
    # One complex per step held to the end would cost 0.5 MB more.  Exact: at
    # N = 2400 it reads about 20 KB, one block's converted inputs and the
    # O(N) numpy temporaries of the fraction-bit rule; one int per step
    # would cost 106 KB more, and six per step 0.6 MB.  B5 is real and
    # aperiodic, so the exact kernel runs it on its real loop, held to the
    # same bound.  B4 has period 8 and takes the periodic path, held to the
    # same bound at N = 12800.
    cases = ((TheoremB(3), 2400, 0), (TheoremB(5), 2400, 0), (TheoremB(4), 12800, 8)) \
        if extended else ((TheoremB(3), 12800, 0), (TheoremA(3), 12800, 0), (TheoremB(5), 12800, 0))
    for spec, n, period in cases:
        seqs = materialize(spec, n)
        assert not extended or _period(seqs) == period
        tracemalloc.start()
        try:
            triple = run_recurrences(seqs, extended=extended)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = (triple.q, triple.r, triple.rho_cumprod)
        assert all(np.isnan(x[:n].view(float)).all() for x in outputs), spec
        bound = n * sys.getsizeof(1 << 128) if extended else _BLOCK * 2 * (sys.getsizeof(1j) + 8)
        assert peak - sum(x.nbytes for x in outputs) < bound, spec


# -- both kernels against the reference at the reported N ---------------------------
#
# N = 12800 is the top rung of every built-in ladder.  There the exact
# kernel's tail must equal _ziv_reference's bit for bit, the plain kernel's
# must equal reference_plain's bit for bit and agree with the exact one to
# 1e-9 of its size, and both must conserve the
# Wronskian far inside coefficients_from_qr's 1e-9 gate (the exact kernel's
# residual is the reference's, bit for bit).

@pytest.mark.parametrize("build", [b for _, b in _REPORTED], ids=[name for name, _ in _REPORTED])
def test_plain_kernel_matches_exact_kernel_at_the_reported_n(build, monkeypatch):
    n = 12800
    seqs = build(n)
    tails = _record_tails(monkeypatch)
    want, plain = _assert_bit_identical(seqs, True), run_recurrences(seqs)
    _assert_bit_identical(seqs, False)
    # a periodic schedule's tail stands at both precisions, with no loop run
    assert tails == ([_period(seqs)] * 2 if _period(seqs) else [0])
    for name, got, w in (("q", plain.q, want.q), ("r", plain.r, want.r)):
        err = np.abs(got[n:] - w[n:]) / np.maximum(np.abs(w[n:]), 1.0)
        assert err.max() <= 1e-9, (name, err.tolist())
    for triple in (plain, want):
        assert wronskian_residual(triple, n) <= 1e-12


_PLAIN_LOOPS = {
    **dict.fromkeys(("A1", "A2", "A3", "quadratic", "skew1", "skew2", "skew3", "multiplicative_f"),
                    "product"),
    **dict.fromkeys(("B4", "B5", "additive_g"), "real"),
    **dict.fromkeys(("B1", "B2", "B3", "skew4", "skew5", "random"), "complex"),
}


@pytest.mark.parametrize("n", [100, 12800])
@pytest.mark.parametrize(
    "name, build",
    [*_REPORTED, ("random", lambda n: random_small_schedule(n, seed=14, trial=0))],
    ids=[name for name, _ in _REPORTED] + ["random"])
def test_plain_kernel_takes_the_loop_its_input_allows(name, build, n, monkeypatch):
    # Every eps_k^2 is zero for the rotations A1-A3, the quadratic, skew
    # examples 1-3 and the counterexample's f side; every input is real with
    # rho_k = 1 for B4, B5 and the g side.  Each must run its short loop alone,
    # once a block and once for step N.  A loop picked by a test that misread
    # the input would still be exact, so only these counts show it.
    seqs = build(n)
    loops = _record_loops(monkeypatch)
    _run_plain(seqs)
    assert loops == [_PLAIN_LOOPS[name]] * (len(range(1, n, _BLOCK)) + 1)


@pytest.mark.parametrize("loop, rho, eps_sq_1", [
    ("product", 0.5, 0), ("real", 0.5, 0.5), ("complex", 0.5 * cmath.exp(0.3j), 1j)],
    ids=["product", "real", "complex"])
def test_plain_kernel_runs_a_bounded_block_once_at_any_growth_bound(loop, rho, eps_sq_1,
                                                                    monkeypatch):
    # rho_k about rho_base = 1, with eps_k^2 zero but at step 1, keeps q and r
    # O(1) while g = seqs._growth is 2.5 to 3.6.  Past g = 2.25 a block of
    # _BLOCK steps from an O(1) start failed its bound and ran again one step
    # a call: 2008 calls at N = 2000 on the first schedule, and now 10.
    n = 2000
    eps_sq = np.zeros(n + 2, dtype=complex)
    eps_sq[1] = eps_sq_1
    seqs = PerturbationSequences(np.full(n + 2, rho), eps_sq, 1.0)
    assert 2.5 <= seqs._growth <= 4
    loops = _record_loops(monkeypatch)
    _assert_bit_identical(seqs, False, (n,))
    assert set(loops) == {loop} and len(loops) <= len(range(1, n, 100)) + 1


# -- the extended kernel on extreme inputs -----------------------------------------
#
# Inputs so fine that the kernel's F > 1022, subnormals, signed zeros, a
# near tie, and values past 2**1000, which kernel and reference read as inf.


def _schedule(N, eps_sq_at, rho_shift=0.0, real=False):
    """Rotation by e^{2 pi i / N} (by 1 if real), shifted by rho_shift, with
    eps_sq_at(k) at step k."""
    base = 1 + 0j if real else cmath.exp(2j * math.pi / N)
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


# A step costs about 45 us at F = 1113 or 1190, so the two schedules below
# check every prefix up to N = 40 and then N = 300 alone, whose tail reads
# every input; every prefix of N = 300 would take 2 s.
_FINE_F_PREFIXES = (*range(1, 41), 300)


def test_extended_matches_two_term_form_below_2_pow_minus_906():
    # eps^2 = 1e-300 gives F = 1113 > 1022: 2**-F is below the binary64
    # range, and the outputs still round once, through int / int
    seqs = _schedule(300, lambda k: 1e-300j if k % 3 else 0.01 / k)
    _assert_bit_identical(seqs, True, _FINE_F_PREFIXES)


def test_extended_matches_two_term_form_on_subnormal_eps_sq():
    seqs = _schedule(300, lambda k: 5e-324j if k == 7 else complex(-5e-324, 1e-3 / k))
    _assert_bit_identical(seqs, True, _FINE_F_PREFIXES)


def test_extended_rounds_a_subnormal_output_once():
    # rho_1 rho_2 = (1.5 - 1.3e-18) * 2**-1074 sits just below a rounding tie
    # of the subnormal grid: rounded once it reads 2**-1074; rounded to 53
    # bits first (float(int)) and then scaled, it would tie and read 2**-1073.
    rho = np.array([0, math.ldexp(1 + 2**-30, -537), math.ldexp(1.5 / (1 + 2**-30), -537), 0.5])
    eps_sq = np.array([0, 1, 5e-324, 0])  # F = 1190
    seqs = PerturbationSequences(rho, eps_sq, 0.5)
    assert _assert_bit_identical(seqs, True, (1, 2)).rho_cumprod[2] == 5e-324


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_kernels_match_their_references_on_signed_zeros(extended, monkeypatch):
    # rho = 1 - 0j and eps^2 = -0 + 0j, -0 - 0j keep q_k = k, r_k = 1 exactly.
    # Zeros of either sign are equal steps, so this schedule has period 1 and
    # takes the exact kernel's periodic path; with eps_1^2 = 0.5 - 0j no step
    # repeats the first, the loop runs, and q_k = (k + 1)/2, r_k = (3 - k)/2
    # exactly.  The plain kernel runs its running product on the first
    # schedule and its real loop on the second, and no other loop, though
    # their tails hold exact zeros (q's imaginary part at every N, and
    # r_3 = 0 at N = 2 and 3): no loop makes a part of q or r -0.
    loops = _record_loops(monkeypatch)
    zeros = (complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0), 0j)
    rho = np.array([0j] + [complex(1.0, -0.0)] * 300 + [1 + 0j])
    eps_sq = np.array([0j] + [zeros[k % 4] for k in range(300)] + [0j])
    seqs = PerturbationSequences(rho, eps_sq, 1.0)
    assert _period(seqs) == 1
    triple = _assert_bit_identical(seqs, extended, range(1, 301))
    assert triple.q.real.tolist() == list(range(302)) and triple.r[1:].real.tolist() == [1.0] * 301
    assert set(loops) == (set() if extended else {"product"})
    eps_sq[1] = complex(0.5, -0.0)
    seqs = PerturbationSequences(rho, eps_sq, 1.0)
    assert not any(_period(_prefix(seqs, n)) for n in range(1, 301))
    loops.clear()
    triple = _assert_bit_identical(seqs, extended, range(1, 301))
    k = np.arange(1, 302)
    assert triple.q[1:].real.tolist() == ((k + 1) / 2).tolist()
    assert triple.r[1:].real.tolist() == ((3 - k) / 2).tolist()
    assert set(loops) == (set() if extended else {"real"})


@pytest.mark.parametrize("spec, field, nudge", [
    (TheoremA(3), "eps_sq", 1e-9j), (TheoremA(3), "eps_sq", 1e-9),
    (TheoremB(5), "eps_sq", 1e-9j), (TheoremB(5), "rho", 1e-9j)],
    ids=["A3-eps_sq-imag", "A3-eps_sq-real", "B5-eps_sq-imag", "B5-rho-imag"])
def test_plain_kernel_takes_a_short_loop_only_when_every_input_allows_it(spec, field, nudge,
                                                                         monkeypatch):
    # A3 runs the running product and B5 the real loop.  One input part of
    # 1e-9 where that loop reads a zero, in the real or the imaginary part of
    # one eps_k^2 or rho_k, must send the schedule to the complex loop: the
    # short loop would drop that part.
    n = 300
    seqs = materialize(spec, n)
    inputs = {"rho": seqs.rho.copy(), "eps_sq": seqs.eps_sq.copy()}
    inputs[field][n // 2] += nudge
    loops = _record_loops(monkeypatch)
    _assert_bit_identical(PerturbationSequences(**inputs, rho_base=seqs.rho_base), False,
                          (n // 2 - 1, n // 2, n // 2 + 1, n))
    assert set(loops) == {"complex"}


def test_plain_kernel_runs_a_real_schedule_with_a_negative_rho_on_the_real_loop(monkeypatch):
    # With rho_k < 0, rho_k * (d + 0j) has imaginary part -0 where d < 0, so
    # the complex loop's d can leave +0.  Its q and r cannot: x + d adds a
    # zero to +0, which gives +0, and d's imaginary part enters the real
    # parts only as a zero product.  So the real loop still gives the tail
    # of the complex one.  rho_k = -1 + b_k (rotation by pi) with real b_k
    # and eps_k^2, and one schedule whose rho_k is positive but at one step.
    n = 300
    k = np.arange(n + 2)
    eps_sq = 0.3 * np.sin(k) + 0j
    negative = PerturbationSequences(-1 + 0.2 * np.cos(k) + 0j, eps_sq, -1.0)
    positive = 0.5 + 0.4 * np.cos(k) + 0j
    positive[n // 2] = -0.3
    one_negative = PerturbationSequences(positive, eps_sq, 0.5)
    loops = _record_loops(monkeypatch)
    for seqs in (negative, one_negative):
        loops.clear()
        _assert_bit_identical(seqs, False, (1, 2, 3, 255, 256, 257, n))
        assert set(loops) == {"real"}
    # d of q turns -0 on the first schedule's complex loop (at step 2)
    qk, qd = 1 + 0j, 1 + 0j
    for p, e in zip(negative.rho[1:3].tolist(), negative.eps_sq[1:3].tolist()):
        qd = p * qd - e * qk
        qk += qd
    assert math.copysign(1.0, qd.imag) < 0 and math.copysign(1.0, qk.imag) > 0


@pytest.mark.xfail(strict=True, reason="the exact kernel's error is absolute, about 2**-128 "
                   "per step, and Im r_5 lies 2**-202 from a tie: it reads -3e-12 where the "
                   "correctly rounded value is -2.9999999999999997e-12")
def test_extended_rounds_a_near_tie_correctly():
    # N = 5 steps whose exact Im r_5 lies 2**-202 from a rounding tie
    eps_sq = np.zeros(7, dtype=complex)
    eps_sq[2] = 1e-12j
    _assert_bit_identical(PerturbationSequences(np.full(7, 1 - 3.66e-25j), eps_sq, 1.0), True)


def test_extended_takes_the_real_loop_only_when_every_imaginary_part_is_zero():
    # B5 is real (rho_k = 1, real eps_k^2) and aperiodic, so the exact kernel
    # runs its real loop.  One eps_k^2 with an imaginary part of 1e-9 must
    # send it to the complex loop: the real loop would drop that part, and
    # q_N's imaginary part, which the reference sees, would read 0.
    n = 300
    seqs = materialize(TheoremB(5), n)
    nudged = seqs.eps_sq.copy()
    nudged[n // 2] += 1e-9j
    nudged = PerturbationSequences(seqs.rho, nudged, seqs.rho_base)
    assert _period(seqs) == _period(nudged) == 0
    triple = _assert_bit_identical(nudged, True, (n // 2 - 1, n // 2, n // 2 + 1, n))
    assert triple.q[n].imag != 0
    # an imaginary part of -0.0 is zero: the bytes of +0.0, on the real loop
    # of B5 and on B4's periodic path (period 8) alike
    for spec, period in ((TheoremB(5), 0), (TheoremB(4), 8)):
        seqs = materialize(spec, n)
        rho, eps_sq = seqs.rho.copy(), seqs.eps_sq.copy()
        rho.imag = eps_sq.imag = -0.0
        negated = PerturbationSequences(rho, eps_sq, seqs.rho_base)
        assert np.signbit(negated.rho[1:].imag).all() and np.signbit(negated.eps_sq[1:].imag).all()
        assert _period(seqs) == _period(negated) == period
        want, got = run_recurrences(seqs, extended=True), run_recurrences(negated, extended=True)
        for w, g in zip((want.q, want.r, want.rho_cumprod), (got.q, got.r, got.rho_cumprod)):
            assert g.tobytes() == w.tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extended_matches_two_term_form_past_2_pow_1024():
    # |b| = 1 doubles q and r every step: q_k passes 2**1000, where the
    # kernel's rounding reads inf, at k = 1001, and binary64 ends at 2**1024.
    # The prefixes 990..1030 straddle both; every prefix would take 2 s.  The
    # loop and the periodic path (the constant schedule) are both checked.
    for periodic in (False, True):
        seqs = _doubling(1200, periodic)
        assert _period(seqs) == periodic
        q = _assert_bit_identical(seqs, True, (*range(990, 1031), 1200)).q
        assert np.isfinite(q[990]) and np.isinf(q[1001].real) and np.isinf(q[-1].real)


def test_kernels_bit_identical_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # signed zeros are drawn on purpose: the kernels must keep their signs.
    # A real schedule (rotation angle 0 or pi, every imaginary part +-0) runs
    # on each kernel's real loop, and a multiplicative one (every eps_k^2 a
    # zero of either sign) on the plain kernel's running product.
    zero = st.sampled_from([0.0, -0.0])
    part = st.one_of(zero, st.floats(-0.7, 0.7))

    @hypothesis.settings(max_examples=90, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data(), real=st.booleans(), additive=st.booleans(),
                      extended=st.booleans())
    def check(data, real, additive, extended):
        value = st.builds(complex, part, zero if real else part)
        b = data.draw(st.lists(value, min_size=1, max_size=40))
        n = len(b)
        eps_sq = data.draw(st.lists(value if additive else st.builds(complex, zero, zero),
                                    min_size=n, max_size=n))
        if real:
            base = complex(data.draw(st.sampled_from([1.0, -1.0])), data.draw(zero))
        else:
            base = cmath.exp(1j * data.draw(st.floats(-math.pi, math.pi)))
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


def test_kernels_bit_identical_property_on_periodic_schedules():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # One drawn block of steps, repeated twice or more and then cut anywhere,
    # so that every prefix of at least two blocks takes the periodic path.
    # Each nonzero part, and the rotation angle, is at least 2**-24 in
    # modulus: the kernel's error is absolute, so a tail value far below
    # 2**-F reads wrongly on either path (the strict xfail below).
    zero = st.sampled_from([0.0, -0.0])
    part = st.one_of(zero, st.floats(-0.7, 0.7).filter(lambda x: abs(x) >= 2**-24))
    angle = st.one_of(zero, st.floats(-math.pi, math.pi).filter(lambda x: abs(x) >= 2**-24))

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data(), real=st.booleans())
    def check(data, real):
        value = st.builds(complex, part, zero if real else part)
        p = data.draw(st.integers(1, 8))
        b = data.draw(st.lists(value, min_size=p, max_size=p))
        e = data.draw(st.lists(value, min_size=p, max_size=p))
        n = data.draw(st.integers(2 * p, 6 * p))
        if real:
            base = complex(data.draw(st.sampled_from([1.0, -1.0])), data.draw(zero))
        else:
            base = cmath.exp(1j * data.draw(angle))
        rho = np.array([0.0] + [base + b[k % p] for k in range(n)] + [base], dtype=complex)
        eps_sq = np.array([0.0] + [e[k % p] for k in range(n)] + [0.0], dtype=complex)
        seqs = PerturbationSequences(rho, eps_sq, base)
        # the smallest period divides any other one that fits twice in N
        assert _period(seqs) and p % _period(seqs) == 0
        _assert_bit_identical(seqs, True, range(1, n + 1))

    check()


@pytest.mark.xfail(strict=True, reason="the exact kernel's error is absolute: Im r_3 = -5.0e-373 "
                   "lies below 2**-F, its truncated product floors to -1 on the fixed-point grid, "
                   "and the loop reads -5.5e-222 where the correctly rounded value is -0.0; the "
                   "periodic path reads -1.9e-242 and 64 bits more disagree, so it runs the loop")
@pytest.mark.parametrize("periodic", [False, True], ids=["loop", "periodic"])
def test_extended_rounds_a_value_below_the_fixed_point_grid_correctly(periodic):
    theta = 7.074330979387023e-187
    base = cmath.exp(1j * theta)  # 1 + theta i
    eps_sq = np.array([0, theta, theta if periodic else 2 * theta, 0], dtype=complex)
    seqs = PerturbationSequences(np.full(4, base), eps_sq, base)
    assert _period(seqs) == periodic
    _assert_bit_identical(seqs, True)


# -- the extended kernel's periodic path ------------------------------------------
#
# A schedule whose steps repeat with period p <= N/2 is run as the product of
# one period's transfer matrices, raised to N // p by binary powering, and
# the first N % p steps again.  Its tail must equal _ziv_reference's bit for
# bit, as the loop's does.


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("p", [1, 2, 8])
def test_extended_powers_a_periodic_schedule(p, real, monkeypatch):
    # eps_k^2 takes p distinct values in turn, so the smallest period is p.
    # The prefixes take N = 2p, N mod p != 0 and N = 1000 on the periodic
    # path, where the tail stands at both precisions, and N < 2p, where no
    # period fits twice, on the loop.
    n = 1000
    seqs = _schedule(n, lambda k: (1e-3 if real else 1e-3 + 2e-4j) / (1 + (k - 1) % p), real=real)
    ns = sorted({1, 2 * p - 1, 2 * p, 2 * p + 1, 3 * p + 1, 5 * p - 1, n - 1, n})
    for m in ns:
        assert _period(_prefix(seqs, m)) == (p if m >= 2 * p else 0), m
    tails = _record_tails(monkeypatch)
    _assert_bit_identical(seqs, True, ns)
    assert tails == [x for m in ns for x in ([p, p] if m >= 2 * p else [0])]


def test_extended_declines_a_period_past_the_scans_limits():
    # Steps 1..8 twice, period 8, fit N = 16 but not N = 15, whose period
    # would pass N/2: that prefix runs on the loop.
    seqs = _schedule(16, lambda k: 1e-3 / (1 + (k - 1) % 8))
    assert _period(seqs) == 8 and _period(_prefix(seqs, 15)) == 0
    _assert_bit_identical(seqs, True, (15, 16))
    # A block a, x_1, a, x_2, ..., a, x_t with every x_j distinct: candidate
    # periods 2, 4, ..., 2t - 2 each fail at their second step, so the true
    # period 2t is the (t)th candidate, past the scan's _PERIOD_TRIES.
    for t, period in ((_PERIOD_TRIES, 2 * _PERIOD_TRIES), (_PERIOD_TRIES + 1, 0)):
        seqs = _schedule(4 * t, lambda k: 1e-3 / k if k % 2 == 0 else 0.5)
        block = seqs.eps_sq[1:2 * t + 1]
        seqs = PerturbationSequences(seqs.rho, np.concatenate(([0], block, block, [0])), seqs.rho_base)
        assert _period(seqs) == period
        _assert_bit_identical(seqs, True)


def test_extended_falls_back_to_the_loop_when_the_last_step_breaks_the_period():
    n = 300
    seqs = _schedule(n, lambda k: 1e-3 + 5e-4j if k % 2 else 2e-3 - 1e-4j)
    eps_sq = seqs.eps_sq.copy()
    eps_sq[n] += 1e-9
    nudged = PerturbationSequences(seqs.rho, eps_sq, seqs.rho_base)
    assert _period(seqs) == 2 and _period(_prefix(nudged, n - 1)) == 2 and _period(nudged) == 0
    _assert_bit_identical(nudged, True, (n - 1, n))
