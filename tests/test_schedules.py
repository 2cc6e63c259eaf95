"""Schedule construction: per-variant shapes and exact structure."""
import cmath
import dataclasses
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
    TheoremA(1),
    TheoremA(2, pair_amp=0.7, pair_bound=0.3),
    TheoremA(3, rot_coeff=0.4, amplitude=0.2),
    TheoremB(1, eps_amp=0.5),
    TheoremB(2),
    TheoremB(3),
    TheoremB(4, amplitude=0.1),
    TheoremB(5, pair_amp=0.2, pair_bound=0.1),
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
    pb = 0.6
    seqs = materialize(TheoremA(2, pair_amp=0.9, pair_bound=pb), n)
    c = (np.angle(seqs.rho[1:n + 1]) / (2.0 * math.pi) - 1.0 / n) * n**2
    for j in range(0, n - 1, 2):
        assert c[j] + c[j + 1] == pytest.approx(pb / n, abs=1e-10)
    assert np.max(np.abs(c)) <= 0.9 + pb  # individual scale stays order pair_amp


def test_a3_rotating_plus_cubic():
    n = 32
    rc, amp = 0.4, 0.3
    seqs = materialize(TheoremA(3, rot_coeff=rc, amplitude=amp), n)
    for k in (1, 7, n):
        u = 0.5 * (1.0 + math.cos(math.pi * k / 4.0))
        theta = 1.0 / n + (rc * cmath.exp(2j * math.pi * k / n)).real / n**2 + amp * u / n**3
        # rotating coefficient is complex-valued in the angle; accept either
        # convention by recomputing from the stored value instead
        got = np.angle(seqs.rho[k]) / (2.0 * math.pi)
        assert abs(got - 1.0 / n) < (abs(rc) + abs(amp)) / n**2 * 1.01


def test_a3_angle_is_complex_rotating_term():
    # the N^{-2} term rotates through e^{2 pi i k / N}; with the cubic bump
    # switched off the complex angle exponentiates to |rho| != 1 in general
    n = 32
    seqs = materialize(TheoremA(3, rot_coeff=1.0, amplitude=0.0), n)
    theta = 1.0 / n + np.exp(2j * math.pi * np.arange(n + 2) / n) / n**2
    expect = np.exp(2j * math.pi * theta)
    expect[0] = 0.0
    assert np.max(np.abs(seqs.rho - expect)) < 1e-14


def test_b_cases_share_a_angles_with_quadratic_eps():
    n = 48
    ea = 0.7
    for case in (1, 2, 3):
        b = materialize(TheoremB(case, eps_amp=ea), n)
        a = materialize(TheoremA(case), n)
        assert np.array_equal(b.rho, a.rho)
        assert np.all(b.eps_sq[1:] == (ea / n**2) ** 2)


def test_b4_b5_additive_base():
    n = 64
    b4 = materialize(TheoremB(4, amplitude=0.5), n)
    assert np.all(b4.rho[1:] == 1.0)
    eps = np.sqrt(b4.eps_sq[1:n + 1].real)
    u = 0.5 * (1.0 + np.cos(math.pi * np.arange(1, n + 1) / 4.0))
    assert np.max(np.abs(eps - (math.pi / n + 0.5 * u / n**3))) < 1e-15

    pb = 0.4
    b5 = materialize(TheoremB(5, pair_amp=0.3, pair_bound=pb), n)
    assert np.all(b5.rho[1:] == 1.0)
    c = (np.sqrt(b5.eps_sq[1:n + 1].real) - math.pi / n) * n**2
    for k in range(1, n):
        mirrored = c[k - 1] + c[n - k - 1]
        assert abs(mirrored) <= pb / n + 1e-10, k


def test_b4_zero_amplitude_is_exact_resonant_eps():
    n = 64
    seqs = materialize(TheoremB(4, amplitude=0.0), n)
    assert np.all(seqs.eps_sq[1:] == (math.pi / n) ** 2)


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
    with pytest.raises(InvalidSpecError):
        TheoremA(1, amplitude=float("inf"))
    with pytest.raises(InvalidSpecError):
        RandomSchedule(0.0, UniformSymmetric(1.0), seed=0)
    with pytest.raises(InvalidSpecError):
        RandomSchedule(0.5, "uniform", seed=0)
    with pytest.raises(InvalidSpecError):
        UniformSymmetric(0.0)
    with pytest.raises(InvalidSpecError):
        CounterexampleC("g")


def test_each_case_rejects_exactly_the_parameters_it_never_reads():
    # a parameter the case reads changes its schedule; any other is an error
    # naming the field and the case, never a silent no-op
    with pytest.raises(InvalidSpecError, match=r"^pair_amp: TheoremA case 1 does not read it, got 5$"):
        TheoremA(1, pair_amp=5, rot_coeff=3)
    with pytest.raises(InvalidSpecError, match=r"^eps_amp: TheoremB case 4 does not read it, got 7$"):
        TheoremB(4, eps_amp=7)
    n = 64
    rejected = 0
    for family, cases in ((TheoremA, (1, 2, 3)), (TheoremB, (1, 2, 3, 4, 5))):
        for case in cases:
            default = materialize(family(case), n)
            for field in dataclasses.fields(family)[1:]:
                try:
                    seqs = materialize(family(case, **{field.name: 0.5}), n)
                except InvalidSpecError as exc:
                    assert str(exc) == f"{field.name}: {family.__name__} case {case} does not read it, got 0.5"
                    rejected += 1
                    continue
                assert not (np.array_equal(seqs.rho, default.rho)
                            and np.array_equal(seqs.eps_sq, default.eps_sq)), (family, case, field.name)
    assert rejected == 21  # 7 in family A, 14 in family B


def test_summation_diagnostic_scaled_pins():
    n = 4096
    _, scaled = summation_diagnostic(materialize(TheoremA(1), n))
    assert scaled == pytest.approx(0.500000048898563, rel=1e-9)
    _, scaled_qnc = summation_diagnostic(materialize(QuadraticNonconvergent(), n))
    assert scaled_qnc == pytest.approx(4095.00064557871, rel=1e-9)
    assert scaled_qnc > n / 10.0  # the divergent family never averages out
