"""Acceptance bands: the paper's claims as clauses, declared once.

``check`` judges a run's series against ``CRITERIA`` for the acceptance
suite; ``judge`` also returns the fit the CLI plots.  The package's one fit
rule is here: a slope is the log-log fit over the values above ``FLOOR``,
made once per clause.  A decay clause whose values all sit at or below the
floor passes; any other slope clause with fewer than 3 distinct N above the
floor fails, and so does a NaN or infinite value.
"""
from __future__ import annotations

import math
from dataclasses import fields

from .convergence import DecayFit, fit_loglog

FLOOR = 1e-12

# criterion -> clauses (series, kind, bound, first N read).  Kinds: "slope",
# bound (lo, hi) around the target slope, lo None for a decay; "min"/"max",
# every value >= / <= bound; "n_max", every N * value <= bound; "last", the
# last value < bound; "shrinks", the last value < the first; "tail", every
# row whose series "union_bound" b is below 1 (b >= 1 says nothing) has a
# value <= b + bound * sqrt(b / trials) + bound / trials.
CRITERIA = {
    "theorem_a": (("q_N_abs", "slope", (-1.4, -0.8), 0), ("q_N_abs", "n_max", 50.0, 0)),
    "theorem_b": (("coeff_err", "slope", (-1.4, -0.6), 0), ("r_N_err", "slope", (None, -0.6), 0),
                  ("r_N1_err", "slope", (None, -0.6), 0)),
    "quadratic": (("coeff_err", "min", 0.9, 0),),
    "counterexample": (("g_coeff_err", "slope", (None, -0.6), 0),
                       ("f_coeff_err", "min", 1.0 / math.pi - 0.07, 500),
                       ("f_qN_abs", "min", 1.0 / math.pi - 0.05, 500)),
    "random": (("median_qN", "slope", (-0.2, 0.2), 0),
               ("exceed_frac", "tail", 3.0, 0)),
    "skew_exact": (("fiber_coeff_err", "max", 1e-9, 0),),
    "skew": (("fiber_coeff_err", "slope", (None, -0.5), 0), ("|w_N|", "shrinks", None, 0),
             ("|w_N|", "last", 1e-4, 0)),
}


def random_target(delta: float) -> float:
    """The median |q_N| slope the paper claims in the random regime."""
    return -(1 + delta) / 2


def columns(rows) -> dict[str, list]:
    """Series by field name from a non-empty list of dataclass rows."""
    return {f.name: [getattr(r, f.name) for r in rows] for f in fields(rows[0])}


def fit_above(ns, values) -> DecayFit | None:
    """Log-log fit over the values above ``FLOOR``; None below 3 distinct N."""
    pts = [(n, v) for n, v in zip(ns, values) if v > FLOOR]
    return fit_loglog(*zip(*pts)) if len({n for n, _ in pts}) >= 3 else None


def check(criterion: str, series, target: float = 0.0,
          trials: int | None = None) -> list[tuple[bool, str]]:
    """(ok, detail) per clause.  ``series`` maps "N" and each clause's series
    to one value per N; "random" also takes its target slope and trials."""
    return judge(criterion, series, target, trials)[0]


def judge(criterion: str, series, target: float = 0.0, trials: int | None = None):
    """``check``'s verdicts, then the fit and the slope wedge a plot draws:
    those of the criterion's first slope clause, the wedge only for a
    two-sided band.  Without a slope clause both are None."""
    verdicts, slopes = [], []
    for name, kind, bound, from_n in CRITERIA[criterion]:
        ok, detail, fit = _judge(name, kind, bound, from_n, series, target, trials)
        verdicts.append((ok, detail))
        if kind == "slope":
            lo, hi = bound
            slopes.append((fit, None if lo is None else (target + lo, target + hi)))
    return (verdicts, *slopes[0]) if slopes else (verdicts, None, None)


def _judge(name, kind, bound, from_n, series, target, trials):
    """(ok, detail, fit) for one clause; fit is None unless a slope was fitted."""
    idx = [i for i, n in enumerate(series["N"]) if n >= from_n]
    ns, vs = [series["N"][i] for i in idx], [float(series[name][i]) for i in idx]
    for n, v in zip(ns, vs):
        if not math.isfinite(v):
            return False, f"{name} is {v} at N={n}", None
    if not vs:
        return True, f"{name}: no N >= {from_n}", None
    if kind == "slope":
        lo, hi = bound
        fit = fit_above(ns, vs)
        if fit is None:
            if lo is None and max(vs) <= FLOOR:
                return True, f"{name} below floor {FLOOR:g}", None
            return False, f"{name} has too few points above floor {FLOOR:g}", None
        s = fit.slope - target
        band = f"<= {hi}" if lo is None else f"[{target + lo:+.3f}, {target + hi:+.3f}]"
        ok = (lo is None or lo <= s) and s <= hi
        return ok, f"{name} slope {fit.slope:+.3f} (band {band})", fit
    if kind == "tail":
        for n, v, b in zip(ns, vs, (series["union_bound"][i] for i in idx)):
            tol = bound * math.sqrt(b / trials) + bound / trials if b < 1.0 else math.inf
            if not v <= b + tol:
                return False, f"{name} {v:.4g} at N={n} (band <= {b:.4g} + {tol:.4g})", None
        return True, f"{name} within the tail bound", None
    if kind == "shrinks":
        return vs[-1] < vs[0], f"{name} {vs[0]:.1e}->{vs[-1]:.1e} (band: shrinks)", None
    if kind == "last":
        return vs[-1] < bound, f"{name} {vs[-1]:.1e} at N={ns[-1]} (band < {bound:g})", None
    if kind == "min":
        v, n = min(zip(vs, ns))
        return v >= bound, f"min {name} {v:.4f} at N={n} (band >= {bound:.4f})", None
    scale = "N*" if kind == "n_max" else ""
    v, n = max((n * v if scale else v, n) for n, v in zip(ns, vs))
    return v <= bound, f"max {scale}{name} {v:.3g} at N={n} (band <= {bound:g})", None
