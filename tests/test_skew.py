"""Skew products: presets, exact base orbits, induced-schedule equivalences."""
import cmath
import itertools
import math

import numpy as np
import pytest

from parimplode import (
    InvalidSpecError,
    SkewExample,
    SkewOrbitResult,
    SkewSystem,
    TheoremA,
    TheoremB,
    build_example,
    materialize,
    run_point,
)
from parimplode.skew import EXAMPLES, SKEW_CSV_HEADER, induced_schedule, write_skew_csv


def test_build_example_presets():
    n = 128
    ex1 = build_example(1, n)
    assert ex1.base_multiplier == 1.0
    assert ex1.fiber_theta_rule == "w_itself" and ex1.fiber_eps_sq_rule == "zero"
    assert ex1.w0_rule(n) == 1.0 / n
    ex3 = build_example(3, n)
    assert ex3.base_multiplier == cmath.exp(2j * math.pi / n)
    ex4 = build_example(4, n)
    assert ex4.fiber_eps_sq_rule == "w_fourth"
    ex5 = build_example(5, n)
    assert ex5.base_multiplier == -1.0 and ex5.fiber_eps_sq_rule == "w_squared"
    for bad in (0, 6):
        for build in (lambda: build_example(bad, n), lambda: SkewExample(bad)):
            with pytest.raises(InvalidSpecError, match=f"^example: must be 1..5, got {bad}$"):
                build()
    with pytest.raises(InvalidSpecError):
        build_example(1, 3)


def test_skew_system_rule_validation():
    with pytest.raises(InvalidSpecError):
        SkewSystem(1.0, "w_cubed", "zero", lambda n: 0.0)
    with pytest.raises(InvalidSpecError):
        SkewSystem(1.0, "w_itself", "w_sixth", lambda n: 0.0)


def test_base_orbit_closed_form():
    # step k of the induced schedule sees w_{k-1} = mu^(k-1) w_0, through
    # rho_k = exp(2 pi i (1/N + w_{k-1})) for these presets
    n = 50
    for ex in (2, 3, 5):
        sys = build_example(ex, n)
        rho = induced_schedule(sys, n).rho
        w0 = complex(sys.w0_rule(n))
        for k in (0, 1, n // 2, n):
            want = cmath.exp(2j * math.pi * (1.0 / n + w0 * sys.base_multiplier**k))
            assert rho[k + 1] == pytest.approx(want, rel=1e-12)
        # |mu| = 1 for every preset, so the orbit never grows or decays
        w = np.log(rho[1:]) / (2j * np.pi) - 1.0 / n
        assert np.max(np.abs(np.abs(w) - abs(w0))) < 1e-15


@pytest.mark.parametrize("example_id,twin", [
    (2, TheoremA(2, pair_amp=-1.0, pair_bound=0.0)),
    (3, TheoremA(3, rot_coeff=1.0, amplitude=0.0)),
    (4, TheoremB(1, amplitude=0.0, eps_amp=1.0)),
    (5, TheoremB(2, pair_amp=-1.0, pair_bound=0.0, eps_amp=1.0)),
])
def test_induced_schedules_reduce_to_deterministic_families(example_id, twin):
    # each eps-free or quadratic preset collapses to a named deterministic
    # schedule; agreement must be entrywise, not just statistical
    n = 96
    skew_seqs = induced_schedule(build_example(example_id, n), n)
    twin_seqs = materialize(twin, n)
    assert np.max(np.abs(skew_seqs.rho - twin_seqs.rho)) < 1e-15
    assert np.max(np.abs(skew_seqs.eps_sq - twin_seqs.eps_sq)) < 1e-15


@pytest.mark.parametrize("example", [1, 2, 3, 4, 5])
def test_skew_example_materializes_the_induced_schedule(example):
    # the spec hands run_point the preset's own induced schedule, bit for bit
    for n in (4, 100, 12800):
        got, want = materialize(SkewExample(example), n), induced_schedule(build_example(example, n), n)
        assert (got.rho.tobytes(), got.eps_sq.tobytes(), got.rho_base) == \
            (want.rho.tobytes(), want.eps_sq.tobytes(), want.rho_base)


def test_w_final_closed_form():
    n = 64
    assert abs(build_example(3, n).w_final(n)) == pytest.approx(1.0 / n**2, rel=1e-12)
    assert build_example(2, n).w_final(n) == complex(-1.0 / n**2)  # (-1)^64 leaves w0 in place
    # the one scalar power, bit for bit: the numpy power of induced_schedule
    # moves the last bits of |w_N| for example 3
    for ex, n in itertools.product(EXAMPLES, (100, 1600, 12800)):
        system = build_example(ex, n)
        want = complex(system.w0_rule(n)) * complex(system.base_multiplier) ** n
        assert np.complex128(system.w_final(n)).tobytes() == np.complex128(want).tobytes()


def test_iterate_skew_example1_collapses_to_identity():
    # constant base w = 1/N makes the fiber a pure 1/N-rotation composition
    n = 400
    point = run_point(SkewExample(1), n, extended=True)
    assert point.coeff_err == pytest.approx(2.82832e-13, rel=1e-3)
    assert point.coeff_err <= 1e-9
    assert build_example(1, n).w_final(n) == complex(1.0 / n)


def test_write_skew_csv_format(tmp_path):
    n = 100
    point = run_point(SkewExample(1), n, extended=True)
    rows = [(1, SkewOrbitResult(n, build_example(1, n).w_final(n), point.coeff_err, point.sup_err))]
    out = tmp_path / "skew.csv"
    write_skew_csv(rows, str(out))
    lines = out.read_text().split("\n")
    assert lines[0] == SKEW_CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "1" and fields[1] == "100"
    assert float(fields[2]) == pytest.approx(0.01, rel=1e-15)
    assert float(fields[3]) == pytest.approx(6.28559e-15, rel=1e-3)
