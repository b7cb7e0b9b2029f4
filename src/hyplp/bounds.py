"""Order bounds for regular uniform hypergraphs with a second-eigenvalue cap.

Central quantities: k = r(u-1), q = (r-1)(u-1), the polynomial families F_i
and G_i = sum_{j<=i} F_j from the orthopoly module, and the Moore-style order
sum 1 + sum_{j<d} k q^j.  Everything here is a pure function returning a
BoundResult (value + provenance + optional certificate).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .orthopoly import (FPoly, Params, _exquo, _f_iter, _float_bracket,
                        _poly_deriv, _poly_eval, _poly_mul, _poly_roots,
                        _primitive, _scaled_f, _sign_at, f_monomial,
                        f_values, fbasis_to_monomial, g_eval, largest_zero_G,
                        largest_zero_gc, monomial_to_fbasis, positive_witness,
                        zeros_above)
from .simplex import Tableau, Unbounded, _pivot
from .surd import Surd

__all__ = [
    "BoundResult",
    "Refinement",
    "LPConditionError",
    "DssCheck",
    "moore_order",
    "lp_bound_evaluate",
    "lp_bound_optimize",
    "closed_form_h_bound",
    "integrality_refinements",
    "strictly_below_int",
    "largest_divisible_order",
    "feng_li_threshold",
    "diameter_order_bound",
    "dss_gen_bound",
    "imp2_bound",
    "defect_region",
    "ru1_bound",
    "tau2_lower",
]

Number = int | float | Fraction | Surd

# largest diameter the closed form searches: the selection itself is cheap,
# but past it the exact certificate grows with d (d = 374 takes 30 s at (3, 2))
DIAMETER_CAP = 400
# LP optimizer: stop once max f on [-r, theta] < OPT_TOL; fail after MAX_ROUNDS
OPT_TOL = 1e-8
MAX_ROUNDS = 100
INTERVAL_CONDITION = "f <= 0 on [-r, theta]"


class DiameterCapError(ValueError):
    """theta above lambda_DIAMETER_CAP, the largest zero of G_d searched."""


class LPConditionError(ValueError):
    """A certificate hypothesis failed; message names the condition and witness."""

    def __init__(self, condition: str, witness):
        self.condition = condition
        self.witness = witness
        shown = (f"({', '.join(map(str, witness))})" if isinstance(witness, tuple)
                 else str(witness))
        super().__init__(f"violated {condition}: witness {shown}")


class Refinement(Record):
    name: str
    before: Number
    after: Number
    note: str


class BoundResult(Record):
    value: Number
    theorem: str
    params: dict
    certificate: FPoly | None = None
    refinements: tuple[Refinement, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        # an int, Fraction or Surd is finite, also past the float range
        if isinstance(self.value, float) and not math.isfinite(self.value):
            raise ValueError("bound value must be finite")


def moore_order(params: Params, d: int) -> int:
    """1 + k + kq + ... + kq^(d-1); the order ceiling for diameter d."""
    k, q = params.k, params.q
    return 1 + sum(k * q ** j for j in range(d))


def _exact(x: Number) -> Fraction | Surd:
    """x as the exact number it is: a Surd stays a Surd, and an int,
    Fraction or float becomes the Fraction equal to it."""
    return x if isinstance(x, Surd) else Fraction(x)


def below_top(params: Params, theta: Number) -> bool:
    """theta < u-2+2*sqrt(q), decided exactly on the number theta is:
    y = theta - (u-2) is below the top when y < 0 or y^2 < 4q."""
    y = _exact(theta) - (params.u - 2)
    return y < 0 or y * y < 4 * params.q


# ---------------------------------------------------------------------------
# certificate evaluation


def lp_bound_evaluate(params: Params, f: FPoly,
                      taus: Sequence[Number] | None = None,
                      theta: Number | None = None) -> BoundResult:
    """Order bound f(k)/f_0 from a polynomial whose hypotheses are verified:
    f_0 > 0, f_i >= 0, f(k) > 0, and f <= 0 at the given eigenvalue points
    (taus mode) or on the whole interval [-r, theta] (interval mode).

    Every sign is decided in integers: on f's numerators over its positive
    denominator, and at a point on the primitive integer multiple of f
    (`_sign_at`), with each tau and theta the exact number it is, a Surd or
    the rational an int, Fraction or float equals.  Taus mode: f(tau) < 0
    is strict, f(tau) = 0 meets equality.  Interval mode decides f <= 0 on
    exactly [-r, theta] by a Sturm count in Z[x] (`positive_witness`).  A
    Fraction is formed only for the value and for a witness."""
    if f.params != params:
        raise ValueError("polynomial was built for different (r, u)")
    if (taus is None) == (theta is None):
        raise ValueError("give exactly one of taus or theta")
    nums, den = f.nums, f.den
    if nums[0] <= 0:
        raise LPConditionError("f_0 > 0", Fraction(nums[0], den))
    for i, n in enumerate(nums):
        if i and n < 0:
            raise LPConditionError("f_i >= 0 for i >= 1", (i, Fraction(n, den)))
    fk = f.at_k()
    if fk <= 0:
        raise LPConditionError("f(k) > 0", Fraction(fk, den))
    notes: list[str] = []
    pdict = {"r": params.r, "u": params.u, "s": f.degree}
    mono = f.to_monomial()
    whole = _primitive(mono)

    if taus is not None:
        points = [_exact(t) for t in taus]
        if len(set(points)) != len(points):
            raise ValueError("taus must be distinct")
        strict = []
        for t, x in zip(taus, points):
            v = _sign_at(whole, x)
            if v > 0:
                raise LPConditionError("f(tau) <= 0", (x, _poly_eval(mono, x) / den))
            if v < 0:
                strict.append(t)
        pdict["taus"] = tuple(taus)
        if strict:
            notes.append(f"f < 0 strictly at {strict}; equality impossible there")
        else:
            notes.append("f vanishes at every given tau (equality conditions met)")
    else:
        lo, hi = Fraction(-params.r), _exact(theta)
        if hi < lo:
            raise ValueError("theta below -r leaves an empty interval")
        at_theta = _sign_at(whole, hi)
        x = positive_witness(whole, lo, hi, at_theta)
        if x is not None:
            raise LPConditionError(INTERVAL_CONDITION, (x, _poly_eval(mono, x) / den))
        pdict["theta"] = theta
        notes.append(f"f <= 0 certified on [{float(lo)}, {float(hi)}] "
                     f"by an exact Sturm count")
        if at_theta == 0:
            notes.append("f vanishes at theta")

    positive = tuple(i for i, n in enumerate(nums) if i and n > 0)
    notes.append(f"positive F-coefficients at indices {positive}")
    if positive and max(positive) == f.degree:
        notes.append(f"equality would force girth >= {f.degree + 1}")
    # the denominator cancels in f(k)/f_0
    value = Fraction(fk, nums[0])
    return BoundResult(value, "LP_CERT", pdict, certificate=f, notes=tuple(notes))


# ---------------------------------------------------------------------------
# LP optimization by constraint generation


def _dense_solve(a: Sequence[Sequence[float]], b: Sequence[float]) -> list[float] | None:
    """x with a x = b for a small square float matrix a, by Gauss-Jordan
    elimination (the simplex's pivot) with partial pivoting; None when a
    pivot is exactly 0."""
    tab = [list(row) + [v] for row, v in zip(a, b)]
    order = list(range(len(tab)))
    for c in order:
        p = max(order[c:], key=lambda i: abs(tab[i][c]))
        if tab[p][c] == 0.0:
            return None
        tab[c], tab[p] = tab[p], tab[c]
        _pivot(tab, order, c, c)
    return [row[-1] for row in tab]


def _critical_values(params: Params, tables, coeffs: Sequence[float],
                     lo: float, th: float) -> list[tuple[float, float]]:
    """(f(x), x) for f = 1 + sum c_j F_j at lo, at th and at every root of f'
    between them, in ascending x: f attains its maximum on [lo, th] at one
    of them."""
    s = len(coeffs)
    mono = [1.0] + [0.0] * s
    for c, table in zip(coeffs, tables):
        for j, cj in enumerate(table):
            mono[j] += c * cj
    return [(1.0 + sum(c * v for c, v in zip(coeffs, f_values(params, s, x)[1:])), x)
            for x in (lo, *_poly_roots(_poly_deriv(mono), lo, th), th)]


def _touch_newton(params: Params, fk: Sequence[float], tables, res,
                  points: Sequence[float], crit, lo: float, th: float):
    """Newton's method on the touch points (f = 0) of the LP optimum,
    started from the LP result `res` on `points`: (coefficients, max f), or
    None.  Of the points with positive mass, lo and th are end touches, and
    two neighbouring interior ones with a positive maximum of f between
    them (in `crit`) are one interior touch, started there with the two
    masses added.  With one f_j > 0 per end touch and two per interior
    touch, Newton solves rc_j = F_j(k) + sum_i mu_i F_j(x_i) = 0 over those
    j in the masses mu and the interior x for as long as the residual
    halves; f then has f = 0 at every touch and f' = 0 at the interior ones
    (the two-phase method, Hettich and Kortanek, SIAM Review 35, 1993).  It
    is accepted when every mu > 0, every interior x lies in (lo, th), every
    f_j >= 0, max f < OPT_TOL, and rc_j / F_j(k) is > -OPT_TOL for every j
    and < OPT_TOL where f_j > 0: mu is then a feasible measure of the
    point-mass dual, and the gap f(k) - 1 - sum mu = sum f_j rc_j proves f
    optimal to OPT_TOL."""
    s = len(fk)
    active = [j for j, c in enumerate(res.duals) if c > OPT_TOL]
    support = [(x, m) for x, m in sorted(zip(points, res.x)) if m > 0]
    ends, inner = [], []
    while support:
        x, m = support.pop(0)
        if not lo < x < th:
            ends.append((x, m))
            continue
        if support and support[0][0] < th:
            peak, top = max(((v, t) for v, t in crit if x < t < support[0][0]),
                            default=(0.0, x))
            if peak > 0:
                x, m = top, m + support.pop(0)[1]
        inner.append((x, m))
    if len(active) != len(ends) + 2 * len(inner):
        return None
    e = len(ends)
    xs = [x for x, _ in ends + inner]
    mu = [m for _, m in ends + inner]
    dtables = [_poly_deriv(t) for t in tables]

    def residual(xs, mu):
        vals = [f_values(params, s, x)[1:] for x in xs]
        return vals, [b + sum(m * v[j] for m, v in zip(mu, vals))
                      for j, b in enumerate(fk)]

    vals, rc = residual(xs, mu)
    norm = max(abs(rc[j]) for j in active)
    while True:
        jac = [[v[j] for v in vals] + [m * _poly_eval(dtables[j], x)
                                       for m, x in zip(mu[e:], xs[e:])]
               for j in active]
        step = _dense_solve(jac, [-rc[j] for j in active])
        if step is None:
            return None
        new_mu = [m + d for m, d in zip(mu, step)]
        new_xs = xs[:e] + [x + d for x, d in zip(xs[e:], step[len(mu):])]
        new_vals, new_rc = residual(new_xs, new_mu)
        new_norm = max(abs(new_rc[j]) for j in active)
        if not new_norm < 0.5 * norm:
            break
        xs, mu, vals, rc, norm = new_xs, new_mu, new_vals, new_rc, new_norm
    rows = ([[v[j] for j in active] for v in vals]
            + [[_poly_eval(dtables[j], x) for j in active] for x in xs[e:]])
    sol = _dense_solve(rows, [-1.0] * len(xs) + [0.0] * (len(xs) - e))
    rel = [v / b for v, b in zip(rc, fk)]
    if not (sol and all(m > 0 for m in mu) and all(lo < x < th for x in xs[e:])
            and all(c >= 0 for c in sol) and all(v > -OPT_TOL for v in rel)
            and all(rel[j] < OPT_TOL for j in active)):
        return None
    coeffs = [0.0] * s
    for j, c in zip(active, sol):
        coeffs[j] = c
    viol = max(_critical_values(params, tables, coeffs, lo, th))[0]
    return (coeffs, viol) if viol < OPT_TOL else None


def lp_bound_optimize(params: Params, theta: Number, s: int) -> BoundResult:
    """Best degree-s certificate bound for eigenvalues in [-r, theta]:
    minimize 1 + sum f_j F_j(k) over f_j >= 0 with 1 + sum f_j F_j <= 0 on
    [-r, theta], solved in floats through its point-mass dual with
    constraint generation: the dual starts on the 2s + 1 Chebyshev-Lobatto
    points of [-r, theta], and each round adds the point where f is
    largest, among -r, theta and the roots of f' (`_poly_roots`).  Before
    it does, the round tries Newton's method on the touch points that the
    LP result suggests (`_touch_newton`), and ends the search when that
    solution passes its checks.  The result is verified as an exact
    certificate on the interval `lp_bound_evaluate` proves for theta as
    given."""
    if s < 1:
        raise ValueError("degree must be >= 1")
    if not below_top(params, theta):
        raise ValueError(f"theta must be < {params.top}")
    th = float(theta)
    lo = -float(params.r)
    if th < lo:
        raise ValueError("theta below -r")
    fk = [float(params.k * params.q ** (j - 1)) for j in range(1, s + 1)]
    tables = [[float(c) for c in f_monomial(params, j)] for j in range(1, s + 1)]
    too_low = (f"degree {s} is too low for [{lo}, {th}]: no polynomial with "
               f"f_j >= 0 stays <= 0 there; use a higher --degree")

    # any seed set is sound: a dual unbounded on some points is unbounded
    # on all of them; the optimum rests on at most s points, and on the
    # 2s + 1 Chebyshev-Lobatto points of [lo, th] the first round's Newton
    # phase resolves most calls: perfbench's lp-optimize batches took less
    # time on them than on s + 1, 3s + 1 or 4s + 1 seeds
    points = ([lo + (th - lo) * (1 - math.cos(math.pi * t / (2 * s))) / 2
               for t in range(2 * s + 1)] if th > lo else [lo])
    # the formula rounds at the top end; the ends are lo and th exactly
    points[0], points[-1] = lo, th

    def column(x: float) -> list[float]:
        vals = f_values(params, s, x)
        return [-vals[j] for j in range(1, s + 1)]

    rounds = 0
    viol = math.inf
    coeffs: list[float] = []
    try:
        # built once on the seed points, then one column per round; the
        # one-phase simplex needs b >= 0, and b = fk has F_j(k) = k q^(j-1) > 0
        lp = Tableau([1.0] * len(points), list(zip(*map(column, points))), fk)
    except Unbounded as exc:
        # the point-mass dual is unbounded exactly when no f_j >= 0 keeps
        # f <= 0 at the sampled points: a domain limit, not a failure
        raise ValueError(too_low) from exc
    for rounds in range(1, MAX_ROUNDS + 1):
        res = lp.result()
        coeffs = list(res.duals)
        crit = _critical_values(params, tables, coeffs, lo, th)
        viol, best_x = max(crit)
        if viol < OPT_TOL:
            break
        touch = _touch_newton(params, fk, tables, res, points, crit, lo, th)
        if touch is not None:
            coeffs, viol = touch
            break
        if any(abs(best_x - p) < 1e-13 for p in points):
            break
        points.append(best_x)
        try:
            lp.add_column(1.0, column(best_x))
        except Unbounded as exc:
            raise ValueError(too_low) from exc
    else:
        raise ArithmeticError(f"no convergence after {MAX_ROUNDS} rounds "
                              f"(violation {viol:.3g})")
    if viol >= 1:
        # the exchange stopped with f >= 1 somewhere, so f_0 = 1 - viol <= 0:
        # no shift of f_0 absorbs the violation, and the LP has no solution
        # at this degree
        raise ValueError(too_low)

    # round-off leaves duals like -3e-18 where the LP optimum has 0; clamp
    # them so the exact check does not reject a certificate built here
    exact = [0 if abs(c) <= OPT_TOL else c for c in coeffs]
    # shift the residual violation plus a headroom of 1e-5 into f_0, then
    # verify the exact-rational certificate on the whole interval; a max of
    # f below 0 (the touches give f = 0 up to round-off) shifts nothing
    viol = max(viol, 0.0)
    f = FPoly(params, (1 - Fraction(viol) - Fraction(1, 10 ** 5), *exact))
    try:
        checked = lp_bound_evaluate(params, f, theta=theta)
    except LPConditionError as exc:
        if exc.condition != INTERVAL_CONDITION:
            raise
        raise ArithmeticError("could not certify the optimized polynomial") from exc
    pdict = dict(checked.params)
    pdict.update({"theta": theta, "s": s, "rounds": rounds,
                  "residual": float(viol), "points": len(points),
                  "pivots": res.pivots})
    return BoundResult(checked.value, "LP_OPT", pdict, certificate=f,
                       notes=checked.notes)


# ---------------------------------------------------------------------------
# closed-form bound and refinements


def _scan_G(params: Params, x: Number, dmax: int):
    """(d, G_{d-1}(x), F_d(x)) for the smallest d <= dmax with G_d(x) <= 0,
    else (dmax + 1, G_dmax(x), None): one pass of the F-recurrence with a
    running sum, decided exactly for int, Fraction and Surd x.

    The largest zeros lambda_d of G_d increase with d, and G_d has exactly
    one zero above lambda_{d-1} (interlacing), with G_d > 0 above its
    largest zero.  So the scan, which has G_{d-1}(x) > 0, i.e. x >
    lambda_{d-1}, at each step, stops at the d with lambda_{d-1} < x <=
    lambda_d.  In floats it stops at the first fl(G_{d-1} + F_d) <= 0, so
    -F_d >= G_{d-1} > 0 there, and c = -F_d/G_{d-1} >= 1 after rounding."""
    values = _f_iter(params, Fraction(x) if isinstance(x, int) else x)
    g = next(values)
    for d, fd in zip(range(1, dmax + 1), values):
        if g + fd <= 0:
            return d, g, fd
        g += fd
    return dmax + 1, g, None


def select_diameter(params: Params, theta: Number):
    """(d, G_{d-1}(theta), F_d(theta)) for the smallest d with G_d(theta)
    <= 0, the d with lambda_{d-1} < theta <= lambda_d.  A theta that needs
    d above DIAMETER_CAP is refused."""
    d, gd1, fd = _scan_G(params, theta, DIAMETER_CAP)
    if fd is None:
        raise DiameterCapError(
            f"theta = {float(theta)} needs a diameter d above the cap "
            f"{DIAMETER_CAP}: the largest zero of G_d stays below theta "
            f"up to d = {DIAMETER_CAP} and approaches u-2+2*sqrt(q) = "
            f"{params.top} only as d grows")
    return d, gd1, fd


def closed_form_h_bound(params: Params, theta: Number) -> BoundResult:
    """Largest order compatible with second eigenvalue <= theta:
    1 + sum_{j<=d-2} kq^j + kq^(d-1)/c with c = -F_d(theta)/G_{d-1}(theta),
    where d is the smallest index with G_d(theta) <= 0.  Exact for int,
    Fraction and Surd theta, with a certificate for a rational theta."""
    k, q = params.k, params.q
    if not below_top(params, theta):
        raise ValueError(f"theta must be < {params.top}")
    if theta < -k:
        raise ValueError(f"theta must be >= -k = {-k}")
    d, gd1, fd = select_diameter(params, theta)
    c = -fd / gd1  # >= 1, since G_d = G_{d-1} + F_d <= 0 < G_{d-1}
    value = moore_order(params, d - 1) + k * q ** (d - 1) / c
    certificate = None
    if isinstance(theta, (int, Fraction)):
        # with c = P/Q and theta = a/b in lowest terms, Q g_c = P G_(d-1) +
        # Q F_d is in Z[x] and vanishes at theta, so by Gauss's lemma bx - a
        # divides it in Z[x], with quotient h, and f = g_c^2/(x - theta) =
        # (b/Q^2) (Q g_c) h
        (P, Q), (a, b) = c.as_integer_ratio(), theta.as_integer_ratio()
        qg = fbasis_to_monomial(params, [P] * d + [Q])
        try:
            h = _exquo(qg, [-a, b])
        except ArithmeticError:
            raise ArithmeticError(f"{b}x - {a} does not divide {Q} g_c exactly") from None
        out = monomial_to_fbasis(params, _poly_mul(qg, h))
        if all(v >= 0 for v in out):
            certificate = FPoly(params, tuple(b * v for v in out), Q * Q)
            # the denominator cancels in f(k)/f_0
            fk, f0 = certificate.at_k(), certificate.nums[0]
            if fk * value.denominator != value.numerator * f0:
                raise ArithmeticError(f"certificate value {fk}/{f0} != bound {value}")
    pdict = {"r": params.r, "u": params.u, "theta": theta, "d": d, "c": c}
    notes = (f"equality exactly for the unique-shortest-path geometry with "
             f"array T({params.r},{params.u},{d},{c})",)
    return BoundResult(value, "CLOSED_FORM", pdict, certificate=certificate,
                       notes=notes)


def strictly_below_int(value: Number) -> int:
    """Largest integer strictly below value (value itself when fractional
    floors down, an exact integer steps down by one)."""
    n = math.floor(value)
    return n - 1 if n == value else n


def largest_divisible_order(bound: Number, r: int, u: int) -> int:
    """Largest integer v <= bound with r*v divisible by u (edge count rv/u
    must be an integer)."""
    v = math.floor(bound)
    while (r * v) % u:
        v -= 1
    return v


def integrality_refinements(b: BoundResult, params: Params) -> BoundResult:
    """Sharpen an order bound: if the closed form's c is not an integer the
    bound drops strictly below, then the order drops to the nearest value
    with integer edge count.  A step is recorded only when it changes the
    value."""
    steps = list(b.refinements)
    value = b.value
    c = b.params.get("c")
    if c is not None:
        if math.floor(c) != c:
            new = strictly_below_int(value)
            steps.append(Refinement("c-integrality", value, new,
                                    f"c = {c} not an integer, equality impossible"))
            value = new
    new = largest_divisible_order(value, params.r, params.u)
    if new != value:
        steps.append(Refinement("divisibility", value, new,
                                f"largest v with {params.r}v divisible by {params.u}"))
    value = new
    return b.replace(value=value, refinements=tuple(steps))


# ---------------------------------------------------------------------------
# diameter, defect, and miscellaneous bounds


def feng_li_threshold(params: Params, ell: int) -> float:
    """Second-eigenvalue threshold u-2+2*sqrt(q) - (2*sqrt(q)-1)/ell."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    sq = 2 * math.sqrt(params.q)
    return params.u - 2 + sq - (sq - 1) / ell


def diameter_order_bound(params: Params, ell: int) -> BoundResult:
    """Order cap 1 + sum_{j<2l} kq^j for tau2 at least the ell threshold."""
    if params.r < 3:
        raise ValueError("needs r >= 3")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    value = moore_order(params, 2 * ell)
    tight = (params.r, params.u, ell) == (3, 2, 1)
    notes = ("equality attainable (and attained)" if tight
             else "equality impossible for these parameters",)
    return BoundResult(value, "DIAM",
                       {"r": params.r, "u": params.u, "ell": ell,
                        "threshold": feng_li_threshold(params, ell),
                        "equality_possible": tight},
                       notes=notes)


class DssCheck(Record):
    passed: bool
    slack: Number
    order_bound: Number
    params: dict


def dss_gen_bound(params: Params, d: int, n: int, lam: Number) -> DssCheck:
    """Feasibility test |G_d(lam)| <= moore_order(d) - n for an eigenvalue lam
    of a diameter-d instance on n vertices; exposes n <= G_d(k) - |G_d(lam)|."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if lam == params.k:
        raise ValueError("lam must differ from k")
    lhs = abs(g_eval(params, d, lam))
    rhs = moore_order(params, d) - n
    return DssCheck(lhs <= rhs, rhs - lhs, moore_order(params, d) - lhs,
                    {"r": params.r, "u": params.u, "d": d, "n": n, "lam": lam})


def imp2_bound(params: Params, d: int, tau2: Number) -> BoundResult:
    """Order bound for diameter-d instances by the position of tau2 relative
    to the largest zeros lambda_{d-1} and lambda_d of G_{d-1} and G_d.  The
    scan of `_scan_G` up to d decides it: tau2 <= lambda_{d-1} when it stops
    before d, tau2 >= lambda_d when it does not stop at d or stops there with
    G_d(tau2) = 0."""
    if d < 1:
        raise ValueError("d must be >= 1")
    k, q = params.k, params.q
    pdict = {"r": params.r, "u": params.u, "d": d, "tau2": tau2}
    stop, g, f = _scan_G(params, tau2, d)
    if stop < d:
        value = moore_order(params, d - 1)
        pdict["case"] = "at-or-below-lambda_{d-1}"
        notes = ("tau2 in the range of smaller diameter; order capped one level down",)
    elif f is None or g + f == 0:
        gdt = g if f is None else g + f  # G_d(tau2) >= 0
        value = moore_order(params, d) - gdt
        pdict["case"] = "at-or-above-lambda_d"
        notes = (f"n <= G_d(k) - G_d(tau2) with G_d(tau2) = {float(gdt):.6g}",)
    else:
        c = -f / g
        value = moore_order(params, d - 1) + k * q ** (d - 1) / c
        rhs = float(moore_order(params, d) + g + f)
        pdict.update({"case": "between", "c": c})
        strict = " (strict, q >= 6)" if q >= 6 else ""
        notes = (f"sharper than G_d(k) + G_d(tau2) = {rhs:.6g}{strict}",)
    return BoundResult(value, "IMP2", pdict, notes=notes)


def defect_region(params: Params, d: int, e: Number) -> tuple[float, float, float]:
    """For diameter-d instances with defect at most e, tau2 lies in
    [lower, upper], proved; the middle value is the floor of lambda_d, the
    largest zero of G_d (defect 0).  lower solves cap*G_d = e*F_d, which is
    (cap - e) times g_c at c = cap/(cap - e), rounded down; upper solves
    G_d = e above lambda_{d-1}, where G_d increases, rounded up."""
    if d < 2:
        raise ValueError("d must be >= 2")
    cap = params.k * params.q ** (d - 1)
    e = Fraction(e)
    if not 0 <= e < cap:
        raise ValueError(f"defect must lie in [0, {cap})")

    def below_e(t: float) -> bool:
        # G_d(t) < e, exactly: m^d G_d = m^d G_(d-1) + m^d F_d at t = n/m
        n, m = t.as_integer_ratio()
        f, total = _scaled_f(params, d, n, m)[:2]
        return e.denominator * (total + f) < e.numerator * m ** d

    lower = largest_zero_gc(params, d, Fraction(cap) / (cap - e))
    start = largest_zero_G(params, d - 1)
    if not below_e(start):
        raise ArithmeticError(f"G_{d} >= {e} at {start}, the floor of lambda_{d - 1}")
    upper = _float_bracket(below_e, start, float(params.k))[1]
    return lower, largest_zero_G(params, d), upper


def defect_region_within(params: Params, d: int, e: Number,
                         points: Sequence[Fraction], h: Fraction) -> bool:
    """Whether lower, lambda_d and upper of `defect_region` lie within h of
    the rationals in points, proved.  The first two are the largest zeros
    of g_c at c = cap/(cap - e) and c = 1, with a zero at or above x - h
    and none at x + h.  upper is the one zero of G_d - e above
    lambda_(d-1) (G_d < 0 <= e up to lambda_d, and grows after it): x - h
    lies above lambda_(d-1), with G_d < e there and G_d >= e at x + h."""
    cap = params.k * params.q ** (d - 1)
    lower, lam, upper = points
    return (all(zeros_above(params, d, c, x - h) and not zeros_above(params, d, c, x + h)
                for c, x in ((Fraction(cap) / (cap - e), lower), (1, lam)))
            and zeros_above(params, d - 1, 1, upper - h) == 0
            and g_eval(params, d, upper - h) < e <= g_eval(params, d, upper + h))


def ru1_bound(r: int, u: int) -> BoundResult | None:
    """Order cap u(r+1) at second eigenvalue 1, available once r is large
    enough relative to u; None when the degree condition fails."""
    if u < 3:
        raise ValueError("needs u >= 3")
    if r < max(7 * u - 5, u * u - 1):
        return None
    return BoundResult(u * (r + 1), "RU1", {"r": r, "u": u, "theta": 1},
                       notes=("tight exactly when an orthogonal array with "
                              f"{u + 1} rows over {r + 1} symbols exists",))


def tau2_lower(params: Params, n: int):
    """Smallest possible second eigenvalue for order n: the unique (d, c)
    with n = moore_order(d-1) + kq^(d-1)/c and the second eigenvalue of the
    associated tridiagonal array.  d is the least with moore_order(d) >= n,
    found by a running Moore sum; moore_order(0) = 1 < n and moore_order(d)
    = moore_order(d-1) + kq^(d-1), so n - moore_order(d-1) lies in
    [1, kq^(d-1)], and c in [1, kq^(d-1)]."""
    if n < 2:
        raise ValueError("order must be >= 2")
    # moore_order(d - 1) and k q^(d-1)
    d, below, level = 1, 1, params.k
    while below + level < n:
        d, below, level = d + 1, below + level, level * params.q
    c = Fraction(level, n - below)
    return d, c, largest_zero_gc(params, d, c)
