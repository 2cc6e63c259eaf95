"""Recurrence engine: oracle equivalence, conserved quantities, closed forms."""
import cmath
import math
import tracemalloc

import numpy as np
import pytest

from parimplode import ddouble as dd
from parimplode import (
    ChebyshevPoint,
    Custom,
    DegenerateMapError,
    IdentityViolationError,
    InvalidSpecError,
    PerturbationSequences,
    QRSTriple,
    QuadraticNonconvergent,
    RecurrenceOverflowError,
    ScheduleMismatchError,
    TheoremA,
    TheoremB,
    chebyshev_U,
    closed_form_T,
    closed_form_T_array,
    coefficients_from_qr,
    coefficients_rho_only,
    compose_chain,
    difference_formula,
    martingale_sum,
    materialize,
    projective_distance,
    r_from_qs,
    random_small_schedule,
    run_recurrences,
    wronskian_residual,
)
from parimplode.skew import build_example, induced_schedule


def _exact_rotation(N: int) -> PerturbationSequences:
    base = cmath.exp(2j * math.pi / N)
    rho = np.full(N + 2, base)
    return PerturbationSequences(rho, np.zeros(N + 2, dtype=complex), base)


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
    assert not seqs.eps_all_zero()
    assert PerturbationSequences(rho, np.zeros(7), 1.0).eps_all_zero()


def test_step_maps_match_inputs():
    seqs = random_small_schedule(12, seed=3, trial=0)
    maps = seqs.step_maps()
    assert len(maps) == 12
    for k, m in enumerate(maps, start=1):
        assert m.a == seqs.rho[k] - seqs.eps_sq[k]
        assert m.b == seqs.eps_sq[k]
        assert (m.c, m.d) == (-1.0, 1.0)


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
    seqs = random_small_schedule(32, seed=2, trial=0)
    triple = run_recurrences(seqs)
    broken = QRSTriple(q=triple.q * 1.001, r=triple.r, s=triple.s,
                       rho_cumprod=triple.rho_cumprod, eps_was_zero=triple.eps_was_zero)
    with pytest.raises(DegenerateMapError):
        coefficients_from_qr(broken, 32)


def test_r_from_qs_identity():
    for n in (16, 64, 256):
        seqs = random_small_schedule(n, seed=4, trial=1)
        triple = run_recurrences(seqs)
        for k in range(1, n + 2):
            assert abs(triple.r[k] - r_from_qs(seqs, triple, k)) < 1e-9 * n
    assert r_from_qs(seqs, triple, 1) == 1.0  # q_1 - rho_1 * s_0 = 1


def test_difference_formula_identity():
    for n in (16, 64, 256):
        for trial in range(5):
            seqs = random_small_schedule(n, seed=6, trial=trial)
            triple = run_recurrences(seqs)
            T = closed_form_T_array(n)
            for k in (2, n // 2, n, n + 1):
                resid = abs(triple.q[k] - T[k] - difference_formula(seqs, triple, k))
                assert resid < 1e-8 * n, (n, trial, k)
    with pytest.raises(ValueError):
        difference_formula(seqs, triple, 1)


# -- closed forms ----------------------------------------------------------------


def test_closed_form_T_matches_geometric_sum():
    for n in (5, 12, 97):
        rho = cmath.exp(2j * math.pi / n)
        for k in (0, 1, 2, n - 1, n, n + 1):
            direct = sum(rho**j for j in range(k))
            assert closed_form_T(k, n) == pytest.approx(direct, abs=1e-12)
    assert closed_form_T(0, 10) == pytest.approx(0.0, abs=1e-15)
    assert closed_form_T(1, 10) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        closed_form_T(12, 10)


def test_closed_form_T_array_matches_scalar():
    n = 40
    arr = closed_form_T_array(n)
    assert arr.shape == (n + 2,)
    for k in range(n + 2):
        assert arr[k] == pytest.approx(closed_form_T(k, n), abs=1e-13)


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
    rho_only = coefficients_rho_only(triple, n)
    general = coefficients_from_qr(triple, n)
    assert projective_distance(rho_only, general) < 1e-12


def test_rho_only_requires_eps_free_schedule():
    seqs = materialize(TheoremB(1), 32)
    triple = run_recurrences(seqs)
    with pytest.raises(ScheduleMismatchError):
        coefficients_rho_only(triple, 32)


# -- Chebyshev comparison sequence ----------------------------------------------


def test_chebyshev_point_validation():
    p = ChebyshevPoint.from_theta(0.7)
    assert p.x == pytest.approx(2.0 * math.cos(0.7))
    with pytest.raises(ValueError):
        ChebyshevPoint(theta=0.7, x=1.0)
    with pytest.raises(ValueError):
        ChebyshevPoint(theta=float("nan"), x=0.0)


def test_chebyshev_U_recurrence_and_seeds():
    p = ChebyshevPoint.from_theta(0.3)
    assert chebyshev_U(0, p) == 0.0
    assert chebyshev_U(1, p) == 1.0
    for k in range(1, 30):
        lhs = chebyshev_U(k + 1, p)
        rhs = p.x * chebyshev_U(k, p) - chebyshev_U(k - 1, p)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    with pytest.raises(ValueError):
        chebyshev_U(-1, p)


def test_chebyshev_U_degenerate_angles():
    # x = 2: U_k = k; x = -2: U_k = (-1)^(k+1) k
    top = ChebyshevPoint.from_theta(0.0)
    bottom = ChebyshevPoint.from_theta(math.pi)
    for k in (0, 1, 2, 7):
        assert chebyshev_U(k, top) == float(k)
        assert chebyshev_U(k, bottom) == pytest.approx((-1.0) ** (k + 1) * k, abs=1e-12)


def test_chebyshev_U_resonance_endpoints():
    n = 64
    p = ChebyshevPoint.from_theta(math.pi / n)
    assert chebyshev_U(n - 1, p) == pytest.approx(1.0, abs=1e-12)
    assert abs(chebyshev_U(n, p)) < 1e-12
    assert chebyshev_U(n + 1, p) == pytest.approx(-1.0, abs=1e-12)


def test_additive_resonant_checkpoints():
    # rho == 1, eps = pi/N exactly: the composition closes up and the
    # checkpoint values approach the Chebyshev endpoint pattern at rate 1/N
    n = 400
    seqs = materialize(TheoremB(4, amplitude=0.0), n)
    triple = run_recurrences(seqs)
    assert abs(triple.q[n]) < 5.0 / n
    assert triple.q[n - 1].real == pytest.approx(1.0, abs=5.0 / n)
    assert triple.q[n + 1].real == pytest.approx(-1.0, abs=5.0 / n)
    assert triple.s[n - 1].real == pytest.approx(1.0, abs=5.0 / n)
    assert triple.s[n - 2].real == pytest.approx(2.0 * math.cos(math.pi / n), abs=5.0 / n)
    # r_N approaches -1: the all-real additive composite is projectively
    # the identity through A = D = -1, not through r -> 1
    assert triple.r[n].real == pytest.approx(-1.0, abs=5.0 / n)


# -- martingale partial sums -----------------------------------------------------


def test_martingale_sum_value_and_self_check():
    n = 128
    theta = math.pi / n
    x = 2.0 * math.cos(theta)
    rho = np.ones(n + 2, dtype=complex)
    eps = math.pi / n + 0.3 / n**1.5 * np.cos(np.arange(n + 2))
    eps[0] = 0.0
    seqs = PerturbationSequences.from_eps(rho, eps.astype(complex), cmath.exp(2j * math.pi / n))
    triple = run_recurrences(seqs)
    d = (2.0 - seqs.eps_sq.real) - x
    for m in (1, 2, n // 2, n + 1):
        got = martingale_sum(d, triple, theta, m)
        k = np.arange(m)
        want = np.sum(d[:m] * triple.q[:m] * np.exp(1j * k * theta))
        assert got == pytest.approx(complex(want), abs=1e-15)
    with pytest.raises(ValueError):
        martingale_sum(d, triple, theta, 0)
    with pytest.raises(ValueError):
        martingale_sum(d[:4], triple, theta, n)


def test_martingale_sum_detects_wrong_deviations():
    n = 64
    theta = math.pi / n
    seqs = materialize(TheoremB(4, amplitude=0.0), n)
    triple = run_recurrences(seqs)
    d_wrong = np.full(n + 2, 0.1)
    with pytest.raises(IdentityViolationError):
        martingale_sum(d_wrong, triple, theta, n)


# -- overflow and extended path ---------------------------------------------------


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_guard():
    # at N = 1200 the unchecked values run on to inf and nan; the guard must
    # still name the first entry past 1e100, and numpy must stay silent
    for n in (400, 1200):
        base = cmath.exp(2j * math.pi / n)
        rho = np.full(n + 2, base + 1.0)  # |b| = 1: admissible but grows like 2^k
        spec = Custom(rho=rho, eps_sq=np.zeros(n + 2, dtype=complex), rho_base=base)
        for extended in (False, True):
            with pytest.raises(RecurrenceOverflowError, match=r"^\|q_333\| exceeded 1e100"):
                run_recurrences(materialize(spec, n), extended=extended)


def test_overflow_check_treats_non_finite_as_overflow():
    from parimplode.recurrences import _check_overflow

    q = np.ones(10, dtype=complex)
    r = np.ones(10, dtype=complex)
    s = np.ones(9, dtype=complex)
    _check_overflow(q, r, s)
    s[3] = complex("inf")
    r[7] = complex("nan")
    with pytest.raises(RecurrenceOverflowError, match=r"^\|r_7\|"):
        _check_overflow(q, r, s)  # q and r are checked before s
    q[7] = 2e100
    with pytest.raises(RecurrenceOverflowError, match=r"^\|q_7\|"):
        _check_overflow(q, r, s)
    with pytest.raises(RecurrenceOverflowError, match=r"^\|s_3\|"):
        _check_overflow(np.ones(10, dtype=complex), np.ones(10, dtype=complex), s)


def test_extended_path_agrees_with_plain():
    seqs = random_small_schedule(64, seed=8, trial=0)
    plain = run_recurrences(seqs)
    ext = run_recurrences(seqs, extended=True)
    assert np.max(np.abs(plain.q - ext.q)) < 1e-11
    assert np.max(np.abs(plain.r - ext.r)) < 1e-11
    assert np.max(np.abs(plain.s - ext.s)) < 1e-11
    assert ext.eps_was_zero == plain.eps_was_zero


def test_extended_path_shrinks_wronskian_drift():
    # pair-cancelling angles at N = 2048 accumulate visible binary64 noise;
    # the compensated path should sit orders of magnitude below it
    seqs = materialize(TheoremA(2), 2048)
    plain = wronskian_residual(run_recurrences(seqs), 2048)
    ext = wronskian_residual(run_recurrences(seqs, extended=True), 2048)
    assert ext < 1e-12
    assert ext < plain


# -- bit-identity against the straightforward loops -------------------------------
#
# The kernels in run_recurrences are flat rewrites of the loops below.  They
# must reproduce them bit for bit, so every CSV byte and pinned value
# computed from q, r, s and rho_cumprod is unaffected by the rewrite.


def _reference_plain(seqs):
    N = seqs.N
    rho = seqs.rho
    es = seqs.eps_sq
    q = np.zeros(N + 2, dtype=complex)
    r = np.zeros(N + 2, dtype=complex)
    s = np.zeros(N + 1, dtype=complex)
    prod = np.ones(N + 1, dtype=complex)
    q[1] = 1.0
    r[0] = 1.0
    r[1] = 1.0
    s[1] = 1.0
    for k in range(1, N + 1):
        coeff = 1.0 + rho[k] - es[k]
        q[k + 1] = coeff * q[k] - rho[k] * q[k - 1]
        r[k + 1] = coeff * r[k] - rho[k] * r[k - 1]
        prod[k] = prod[k - 1] * rho[k]
    for k in range(1, N):
        coeff = 1.0 + rho[k + 1] - es[k + 1]
        s[k + 1] = coeff * s[k] - rho[k + 1] * s[k - 1]
    return q, r, s, prod


def _reference_extended(seqs):
    N = seqs.N
    rho = seqs.rho
    es = seqs.eps_sq
    one = dd.cfrom(1.0)
    q = np.zeros(N + 2, dtype=complex)
    r = np.zeros(N + 2, dtype=complex)
    s = np.zeros(N + 1, dtype=complex)
    prod = np.ones(N + 1, dtype=complex)
    q[1] = 1.0
    r[0] = 1.0
    r[1] = 1.0
    s[1] = 1.0
    qm, qk = dd.cfrom(0.0), dd.cfrom(1.0)
    rm, rk = dd.cfrom(1.0), dd.cfrom(1.0)
    pk = dd.cfrom(1.0)
    for k in range(1, N + 1):
        rk_in = dd.cfrom(complex(rho[k]))
        ek_in = dd.cfrom(complex(es[k]))
        coeff = dd.csub(dd.cadd(one, rk_in), ek_in)
        qn = dd.csub(dd.cmul(coeff, qk), dd.cmul(rk_in, qm))
        rn = dd.csub(dd.cmul(coeff, rk), dd.cmul(rk_in, rm))
        pk = dd.cmul(pk, rk_in)
        qm, qk = qk, qn
        rm, rk = rk, rn
        q[k + 1] = dd.cval(qn)
        r[k + 1] = dd.cval(rn)
        prod[k] = dd.cval(pk)
    sm, sk = dd.cfrom(0.0), dd.cfrom(1.0)
    for k in range(1, N):
        rk_in = dd.cfrom(complex(rho[k + 1]))
        ek_in = dd.cfrom(complex(es[k + 1]))
        coeff = dd.csub(dd.cadd(one, rk_in), ek_in)
        sn = dd.csub(dd.cmul(coeff, sk), dd.cmul(rk_in, sm))
        sm, sk = sk, sn
        s[k + 1] = dd.cval(sn)
    return q, r, s, prod


def _assert_bit_identical(seqs, extended):
    triple = run_recurrences(seqs, extended=extended)
    reference = (_reference_extended if extended else _reference_plain)(seqs)
    for name, got, want in zip(("q", "r", "s", "rho_cumprod"),
                               (triple.q, triple.r, triple.s, triple.rho_cumprod), reference):
        assert got.shape == want.shape, name
        diff = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert diff.size == 0, f"{name} differs first at flat index {diff[:1]}"


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


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_kernels_bit_identical_on_random_small_schedules(extended):
    for n, trial in ((4, 0), (64, 1), (100, 2), (1600, 3)):
        _assert_bit_identical(random_small_schedule(n, seed=11, trial=trial), extended)


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_kernels_bit_identical_across_block_edges(extended):
    # the kernels advance steps 2..N in blocks of _BLOCK; N = 257 ends on a
    # block edge, 258 and 514 just past one
    for trial, n in enumerate((5, 257, 258, 513, 514)):
        _assert_bit_identical(random_small_schedule(n, seed=12, trial=trial), extended)


@pytest.mark.parametrize("extended", [False, True], ids=["plain", "extended"])
def test_kernels_hold_no_per_step_objects(extended):
    # Memory at N = 12800 stays near the output arrays themselves: a kernel
    # that keeps one Python object per step would more than double it.
    seqs = materialize(TheoremB(3), 12800)
    tracemalloc.start()
    try:
        triple = run_recurrences(seqs, extended=extended)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(x.nbytes for x in (triple.q, triple.r, triple.s, triple.rho_cumprod))
    assert peak < 2 * outputs


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
        _assert_bit_identical(seqs, extended)

    check()
