"""Schedule construction: per-variant shapes and exact structure."""
import cmath
import math

import numpy as np
import pytest

from parimplode import rng
from parimplode import (
    CounterexampleC,
    Custom,
    InvalidSpecError,
    PerturbationSequences,
    QuadraticNonconvergent,
    RandomSchedule,
    TheoremA,
    TheoremB,
    UniformSymmetric,
    materialize,
    random_small_schedule,
    random_small_schedules,
    summation_diagnostic,
)

_ALL_SPECS = [
    *(TheoremA(case) for case in (1, 2, 3)),
    *(TheoremB(case) for case in (1, 2, 3, 4, 5)),
    QuadraticNonconvergent(),
    CounterexampleC("multiplicative_f"),
    CounterexampleC("additive_g"),
    RandomSchedule(0.5, UniformSymmetric(1.0), seed=11, trial=2),
    RandomSchedule(1.0, UniformSymmetric(0.25), seed=3),
]


@pytest.mark.parametrize("spec", _ALL_SPECS, ids=lambda s: type(s).__name__ + getattr(s, "side", str(getattr(s, "case", ""))))
def test_materialize_postconditions(spec):
    n = 64
    seqs = materialize(spec, n)
    assert seqs.N == n
    assert seqs.rho.shape == (n + 2,)
    assert seqs.rho[0] == 0.0 and seqs.eps_sq[0] == 0.0
    assert seqs.rho_base == cmath.exp(2j * math.pi / n)
    assert np.all(np.isfinite(seqs.rho)) and np.all(np.isfinite(seqs.eps_sq))


def test_a1_zero_amplitude_is_exact_rotation():
    seqs = materialize(TheoremA(1, amplitude=0.0), 128)
    assert np.all(seqs.b == 0.0)
    assert not seqs.eps_sq[1:].any()


def test_a1_angle_profile():
    n = 64
    amp = 0.8
    seqs = materialize(TheoremA(1, amplitude=amp), n)
    for k in (1, 2, 5, n):
        u = 0.5 * (1.0 + math.cos(math.pi * k / 4.0))
        theta = 1.0 / n + amp * u / n**3
        assert seqs.rho[k] == pytest.approx(cmath.exp(2j * math.pi * theta), abs=1e-15)


def test_a2_adjacent_pairs_sum_to_bound():
    n = 64
    seqs = materialize(TheoremA(2), n)
    c = (np.angle(seqs.rho[1:n + 1]) / (2.0 * math.pi) - 1.0 / n) * n**2
    for j in range(0, n - 1, 2):
        assert c[j] + c[j + 1] == pytest.approx(1.0 / n, abs=1e-10)
    assert np.max(np.abs(c)) <= 1.0  # each c_k stays order 1


def test_a3_rotating_plus_cubic():
    n = 32
    amp = 0.3
    seqs = materialize(TheoremA(3, amplitude=amp), n)
    for k in (1, 7, n):
        # the N^-2 term is complex, so the real angle of rho_k moves by at
        # most its modulus, 1/N^2, plus the cubic bump
        got = np.angle(seqs.rho[k]) / (2.0 * math.pi)
        assert abs(got - 1.0 / n) < (1.0 + amp) / n**2 * 1.01


def test_a3_angle_is_complex_rotating_term():
    # the N^{-2} term rotates through e^{2 pi i k / N}; with the cubic bump
    # switched off the complex angle exponentiates to |rho| != 1 in general
    n = 32
    seqs = materialize(TheoremA(3, amplitude=0.0), n)
    theta = 1.0 / n + np.exp(2j * math.pi * np.arange(n + 2) / n) / n**2
    expect = np.exp(2j * math.pi * theta)
    expect[0] = 0.0
    assert np.max(np.abs(seqs.rho - expect)) < 1e-14


def test_b_cases_share_a_angles_with_quadratic_eps():
    n = 48
    for case in (1, 2, 3):
        b = materialize(TheoremB(case), n)
        a = materialize(TheoremA(case), n)
        assert np.array_equal(b.rho, a.rho)
        assert np.all(b.eps_sq[1:] == (1.0 / n**2) ** 2)


def test_b4_b5_additive_base():
    n = 64
    b4 = materialize(TheoremB(4), n)
    assert np.all(b4.rho[1:] == 1.0)
    eps = np.sqrt(b4.eps_sq[1:n + 1].real)
    u = 0.5 * (1.0 + np.cos(math.pi * np.arange(1, n + 1) / 4.0))
    assert np.max(np.abs(eps - (math.pi / n + u / n**3))) < 1e-15

    b5 = materialize(TheoremB(5), n)
    assert np.all(b5.rho[1:] == 1.0)
    c = (np.sqrt(b5.eps_sq[1:n + 1].real) - math.pi / n) * n**2
    for k in range(1, n):
        mirrored = c[k - 1] + c[n - k - 1]
        assert abs(mirrored) <= 1.0 / n + 1e-10, k


def test_quadratic_nonconvergent_offset_rotation():
    n = 100
    seqs = materialize(QuadraticNonconvergent(), n)
    assert np.all(seqs.rho[1:] == cmath.exp(2j * math.pi / (n + 1)))
    assert not seqs.eps_sq[1:].any()
    assert seqs.rho_base == cmath.exp(2j * math.pi / n)


def test_counterexample_sides():
    n = 60
    f = materialize(CounterexampleC("multiplicative_f"), n)
    g = materialize(CounterexampleC("additive_g"), n)
    for k in (1, n // 2, n // 2 + 1, n):
        theta = math.pi / (n - 1) if k <= n // 2 else math.pi / (n + 1)
        assert f.rho[k] == pytest.approx(cmath.exp(2j * theta), abs=1e-15)
        assert g.eps_sq[k] == pytest.approx((2.0 * math.sin(theta / 2.0)) ** 2, abs=1e-15)
    assert not f.eps_sq[1:].any()
    assert np.all(g.rho[1:] == 1.0)
    with pytest.raises(InvalidSpecError):
        materialize(CounterexampleC("multiplicative_f"), 61)


def test_random_schedule_determinism_and_structure():
    spec = RandomSchedule(0.5, UniformSymmetric(0.8), seed=11, trial=2)
    n = 80
    a = materialize(spec, n)
    b = materialize(spec, n)
    assert np.array_equal(a.eps_sq, b.eps_sq)
    assert np.all(a.rho[1:] == 1.0)
    eta = (np.sqrt(a.eps_sq[1:n + 1].real) - math.pi / n) * n**1.5
    assert np.max(np.abs(eta)) <= 0.8
    other = materialize(RandomSchedule(0.5, UniformSymmetric(0.8), seed=11, trial=3), n)
    assert not np.array_equal(a.eps_sq, other.eps_sq)


def test_random_small_schedule_bounds():
    s = random_small_schedule(50, seed=0, trial=0)
    assert np.max(np.abs(s.b)) <= 1.0 / 50**2
    assert np.max(np.abs(s.eps_sq)) <= 1.0 / 50**4
    again = random_small_schedule(50, seed=0, trial=0)
    assert np.array_equal(s.rho, again.rho) and np.array_equal(s.eps_sq, again.eps_sq)


def _reference_random_small(N, seed, trial):
    # random_small_schedule as it was: one uniform01 draw per counter lane
    bound = 1.0 / N**2
    k = np.arange(0, N + 2, dtype=np.uint64)
    lanes = [rng.uniform01(seed, trial, np.uint64(4) * k + np.uint64(j)) for j in range(4)]
    b = bound * lanes[0] * np.exp(2j * np.pi * lanes[1])
    eps = bound * lanes[2] * np.exp(2j * np.pi * lanes[3])
    base = cmath.exp(2j * math.pi / N)
    rho = base + b
    rho[0] = 0.0
    eps[0] = 0.0
    return PerturbationSequences.from_eps(rho, eps, base)


def test_random_small_schedule_bit_identical_to_four_lane_draw():
    for n, seed, trial in ((4, 0, 0), (16, 1, 3), (64, 201, 7), (257, 5, 1), (512, 2**40, 199)):
        got = random_small_schedule(n, seed, trial)
        want = _reference_random_small(n, seed, trial)
        for x, y in ((got.rho, want.rho), (got.eps_sq, want.eps_sq)):
            assert x.view(np.uint64).tolist() == y.view(np.uint64).tolist()
        assert got.rho_base == want.rho_base


def test_random_small_schedules_bit_identical_per_trial():
    trials = [5, 0, 3, 1]  # out of order: each schedule belongs to its trial
    for n in (16, 64, 512):
        for seed in range(4):
            batch = random_small_schedules(n, seed, trials)
            assert len(batch) == len(trials)
            for trial, got in zip(trials, batch):
                want = random_small_schedule(n, seed, trial)
                for x, y in ((got.rho, want.rho), (got.eps_sq, want.eps_sq)):
                    assert x.view(np.uint64).tolist() == y.view(np.uint64).tolist()
                assert got.rho_base == want.rho_base
                # the batch builder's bookkeeping is the one-schedule constructor's
                one = PerturbationSequences(got.rho.copy(), got.eps_sq.copy(), got.rho_base)
                assert (got._growth, got._real, got.period) == (one._growth, one._real, one.period)
                assert type(got._growth) is float and type(got._real) is bool
                for x in (got.rho, got.eps_sq, one.rho, one.eps_sq):
                    assert not x.flags.writeable
                    with pytest.raises(ValueError):
                        x[1] = 0.0


@pytest.mark.parametrize("bad, value, message", [
    ("rho", complex("nan"), "sequences contain non-finite entries"),
    ("rho", 3.0, "|b_k| must be <= 1, max is 2.3"),
    ("eps_sq", 1.5j, "|eps_k^2| must be <= 1, max is 1.5"),
], ids=["non-finite", "b_k", "eps_k^2"])
def test_batch_refuses_its_lowest_refused_row_as_the_constructor_does(bad, value, message):
    n, base = 8, cmath.exp(2j * math.pi / 8)
    rows = {"rho": np.full((5, n + 2), base), "eps_sq": np.zeros((5, n + 2), dtype=complex)}
    # admissible rows: real steps (|1 - base| = 0.765) and a period of 2
    rows["rho"][0] = 1.0
    rows["eps_sq"][0] = 0.01
    rows["eps_sq"][1, 1::2] = 0.02j
    batch = PerturbationSequences.batch(rows["rho"][:2], rows["eps_sq"][:2], base)
    assert [(s._real, s.period) for s in batch] == [(True, 1), (False, 2)]
    for got, rho, eps_sq in zip(batch, rows["rho"], rows["eps_sq"]):
        one = PerturbationSequences(rho, eps_sq, base)
        assert (got._growth, got._real, got.period) == (one._growth, one._real, one.period)
    rows[bad][2, 4] = value
    rows["rho"][4, 1] = complex("inf")  # a later row, refused too
    with pytest.raises(InvalidSpecError) as want:
        PerturbationSequences(rows["rho"][2], rows["eps_sq"][2], base)
    with pytest.raises(InvalidSpecError) as got:
        PerturbationSequences.batch(rows["rho"], rows["eps_sq"], base)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(message)


def test_materialize_rejects_bad_sizes():
    with pytest.raises(InvalidSpecError):
        materialize(TheoremA(1), 3)
    # additive families sit at rho == 1, which is only within distance 1 of
    # the Nth root of unity once N >= 6
    with pytest.raises(InvalidSpecError):
        materialize(TheoremB(4), 5)
    materialize(TheoremB(4), 6)


def test_custom_shape_validation():
    with pytest.raises(InvalidSpecError):
        materialize(Custom(rho=np.ones(7, dtype=complex), eps_sq=np.zeros(7, dtype=complex), rho_base=1.0), 10)


def test_spec_constructor_validation():
    with pytest.raises(InvalidSpecError):
        TheoremA(0)
    with pytest.raises(InvalidSpecError):
        TheoremA(4)
    with pytest.raises(InvalidSpecError):
        TheoremB(6)
    with pytest.raises(InvalidSpecError, match=r"^amplitude must be finite, got inf$"):
        TheoremA(1, amplitude=float("inf"))
    with pytest.raises(InvalidSpecError):
        RandomSchedule(0.0, UniformSymmetric(1.0), seed=0)
    with pytest.raises(InvalidSpecError):
        RandomSchedule(0.5, "uniform", seed=0)
    with pytest.raises(InvalidSpecError):
        UniformSymmetric(0.0)
    with pytest.raises(InvalidSpecError):
        CounterexampleC("g")


@pytest.mark.parametrize("trial", [-1, 2**64])
def test_random_schedule_refuses_a_trial_no_uint64_holds(trial):
    # refused as a spec error, not numpy's OverflowError at materialize
    with pytest.raises(InvalidSpecError, match=rf"^trial: must be in 0..2\*\*64-1, got {trial}$"):
        RandomSchedule(0.5, UniformSymmetric(1.0), seed=0, trial=trial)
    RandomSchedule(0.5, UniformSymmetric(1.0), seed=0, trial=2**64 - 1)


def test_each_case_rejects_exactly_the_parameters_it_never_reads():
    # A2 does not read amplitude: a value it would ignore is an error naming
    # the field and the case, never a silent no-op
    with pytest.raises(InvalidSpecError, match=r"^amplitude: TheoremA case 2 does not read it, got 0.5$"):
        TheoremA(2, amplitude=0.5)


def test_summation_diagnostic_scaled_pins():
    n = 4096
    _, scaled = summation_diagnostic(materialize(TheoremA(1), n))
    assert scaled == pytest.approx(0.500000048898563, rel=1e-9)
    _, scaled_qnc = summation_diagnostic(materialize(QuadraticNonconvergent(), n))
    assert scaled_qnc == pytest.approx(4095.00064557871, rel=1e-9)
    assert scaled_qnc > n / 10.0  # the divergent family never averages out
