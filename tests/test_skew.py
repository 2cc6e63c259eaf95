"""Skew products: presets, exact base orbits, induced-schedule equivalences."""
import cmath
import functools
import itertools
import math

import numpy as np
import pytest

from parimplode import (
    InvalidSpecError,
    PerturbationSequences,
    SkewExample,
    SkewOrbitResult,
    TheoremA,
    build_example,
    materialize,
    run_point,
)
from parimplode.skew import EXAMPLES, SKEW_CSV_HEADER, induced_schedule, write_skew_csv


def test_build_example_presets():
    # one row of the preset table per example: mu, w_0, the 1/N offset of
    # theta and the power of w in eps^2 (0 for none), at this N
    n = 128
    rot = cmath.exp(2j * math.pi / n)
    table = {1: (1.0, 1.0 / n, False, 0), 2: (-1.0, -1.0 / n**2, True, 0),
             3: (rot, rot / n**2, True, 0), 4: (1.0, 1.0 / n, False, 4),
             5: (-1.0, -1.0 / n**2, True, 2)}
    assert set(table) == set(EXAMPLES)
    for ex, row in table.items():
        system = build_example(ex, n)
        assert (system.base_multiplier, system.w0_rule(n), system.theta_offset, system.eps_power) == row
    for bad in (0, 6):
        for build in (lambda: build_example(bad, n), lambda: SkewExample(bad)):
            with pytest.raises(InvalidSpecError, match=f"^example: must be 1..5, got {bad}$"):
                build()
    with pytest.raises(InvalidSpecError):
        build_example(1, 3)


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


def _twin(c, e, n):
    """theta_k = 1/N + c (-1)^k/N^2 and eps_k = e/N^2: a constant angle (c = 0)
    or TheoremA(2)'s pairs, negated and without their 1/N sum (c = 1)."""
    theta = 1.0 / n + c * (-1.0) ** np.arange(n + 2) / n**2
    base = cmath.exp(2j * math.pi / n)
    return PerturbationSequences.from_eps(np.exp(2j * np.pi * theta), np.full(n + 2, e / n**2), base)


@pytest.mark.parametrize("example_id,twin", [
    (2, functools.partial(_twin, 1.0, 0.0)),
    (3, functools.partial(materialize, TheoremA(3, amplitude=0.0))),
    (4, functools.partial(_twin, 0.0, 1.0)),
    (5, functools.partial(_twin, 1.0, 1.0)),
])
def test_induced_schedules_reduce_to_deterministic_families(example_id, twin):
    # each eps-free or quadratic preset collapses to the pure rotating A3 or
    # to a _twin schedule; agreement must be entrywise, not just statistical
    n = 96
    skew_seqs = induced_schedule(build_example(example_id, n), n)
    twin_seqs = twin(n)
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
    assert out.read_text() == (
        f"{SKEW_CSV_HEADER}\n1,100,0.01,6.2855930908258047e-15,4.8174117355553277e-16\n")
