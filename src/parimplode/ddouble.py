"""Double-double (compensated pair) arithmetic.

A value is an unevaluated sum ``hi + lo`` of two binary64 floats with
``|lo| <= ulp(hi)/2``, giving roughly 32 significant digits.  Complex
values are 4-tuples ``(re_hi, re_lo, im_hi, im_lo)``.  Only the handful
of operations needed by the extended-precision recurrence path live
here; this is a validation tool, not a general arithmetic library.

The recurrence kernel (``recurrences._run_extended``) does not call these
functions: it inlines the same operations in the same order, with the
splits shared across a step, which makes it about 2.6x faster.  This
module is the readable reference that the tests hold that kernel to, bit
for bit.
"""

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a: float, b: float):
    """Error-free sum: returns (s, e) with s + e == a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def quick_two_sum(a: float, b: float):
    # valid only when |a| >= |b|
    s = a + b
    return s, b - (s - a)


def split(a: float):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float):
    """Error-free product: returns (p, e) with p + e == a * b exactly."""
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(ah, al, bh, bl):
    s, e = two_sum(ah, bh)
    return quick_two_sum(s, e + al + bl)


def dd_mul(ah, al, bh, bl):
    p, e = two_prod(ah, bh)
    return quick_two_sum(p, e + ah * bl + al * bh)


def cadd(x, y):
    """Complex dd addition on (re_hi, re_lo, im_hi, im_lo) tuples."""
    re = dd_add(x[0], x[1], y[0], y[1])
    im = dd_add(x[2], x[3], y[2], y[3])
    return re[0], re[1], im[0], im[1]


def csub(x, y):
    return cadd(x, (-y[0], -y[1], -y[2], -y[3]))


def cmul(x, y):
    rr = dd_mul(x[0], x[1], y[0], y[1])
    ii = dd_mul(x[2], x[3], y[2], y[3])
    ri = dd_mul(x[0], x[1], y[2], y[3])
    ir = dd_mul(x[2], x[3], y[0], y[1])
    re = dd_add(rr[0], rr[1], -ii[0], -ii[1])
    im = dd_add(ri[0], ri[1], ir[0], ir[1])
    return re[0], re[1], im[0], im[1]


def cfrom(z: complex):
    """Promote a binary64 complex number to a dd tuple (lo parts zero)."""
    return z.real, 0.0, z.imag, 0.0


def cval(x) -> complex:
    """Collapse a dd tuple back to binary64 complex."""
    return complex(x[0] + x[1], x[2] + x[3])
