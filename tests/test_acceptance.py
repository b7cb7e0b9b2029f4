"""Acceptance gate: thirteen end-to-end checks, one printed pass/fail line
each (run with -s to watch them go by).  Budgets are wall-clock seconds."""

import math
import random
import time
from fractions import Fraction

from hyplp import bounds
from hyplp.bounds import (closed_form_h_bound, dss_gen_bound,
                          integrality_refinements, lp_bound_evaluate,
                          lp_bound_optimize, tau2_lower)
from hyplp.cli import _csv_rows, _data_text
from hyplp.constructions import named_fixture
from hyplp.hypergraph import girth, girth_via_trace
from hyplp.orthopoly import Params
from hyplp.spectra import Analysis
from conftest import random_regular_uniform
from poly_oracles import TridiagonalArray, linearization
from walk_oracles import (gram_mismatches, nbw_count_matrix, nbw_count_oracle,
                          nbw_counts_from)


def check(num, label, ok, detail=""):
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


def test_c01_defect_table_rows_reproduce():
    t0 = time.perf_counter()
    rows = _csv_rows("table1.csv")
    worst = 0.0
    good = 0
    for row in rows:
        p = Params(int(row["r"]), int(row["u"]))
        got = bounds.defect_region(p, int(row["d"]), int(row["e"]))
        want = (float(row["lower"]), float(row["lambda"]), float(row["upper"]))
        err = max(abs(g - w) for g, w in zip(got, want))
        worst = max(worst, err)
        good += err <= 5e-6
    dt = time.perf_counter() - t0
    check(1, "defect regions match all census rows to 5e-6 under 1s",
          good == len(rows) == 11 and dt < 1.0,
          f"{good}/{len(rows)} rows, worst {worst:.2e}, {dt:.2f}s")


def test_c02_shipped_certificate_exact_value():
    t0 = time.perf_counter()
    lines = [ln for ln in _data_text("v62.fpoly").splitlines()
             if ln.strip() and not ln.startswith("#")]
    r, u, s = (int(t) for t in lines[0].split())
    f_coeffs = tuple(Fraction(t) for t in lines[1].split())
    from hyplp.orthopoly import FPoly
    b = lp_bound_evaluate(Params(r, u), FPoly(Params(r, u), f_coeffs), theta=2)
    dt = time.perf_counter() - t0
    check(2, "degree-4 certificate for (6,2) at theta=2 gives exactly 136/3 under 0.1s",
          (r, u, s) == (6, 2, 4) and b.value == Fraction(136, 3) and dt < 0.1,
          f"value {b.value}, {dt:.3f}s")


def test_c03_closed_form_tight_at_petersen():
    b = closed_form_h_bound(Params(3, 2), 1)
    h = named_fixture("petersen")
    an = Analysis(h)
    tau2 = an.tau2
    dr = an.distance_regularity
    ta = TridiagonalArray(Params(3, 2), 2, Fraction(1))
    arrays_match = (dr.valid and ta.subdiagonal == dr.b
                    and ta.superdiagonal == dr.c and ta.diagonal == dr.a)
    check(3, "closed form (3,2,1) = 10 with (d,c) = (2,1), met by the order-10 "
             "fixture whose intersection array equals the quotient array",
          b.value == 10 and (b.params["d"], b.params["c"]) == (2, 1)
          and h.n == 10 and abs(tau2 - 1.0) <= 1e-8 and arrays_match,
          f"tau2 {tau2 - 1:.2e} off 1, arrays b={dr.b} c={dr.c} a={dr.a}")


def test_c04_catalog_spot_checks():
    v42 = closed_form_h_bound(Params(4, 2), math.sqrt(2)).value
    b33 = closed_form_h_bound(Params(3, 3), 2)
    r33 = integrality_refinements(b33, Params(3, 3))
    b53 = closed_form_h_bound(Params(5, 3), 2)
    r53 = integrality_refinements(b53, Params(5, 3))
    check(4, "catalog spot checks: 19.109 within 5e-4, 25 -> 24, 41 -> 39",
          abs(v42 - 19.109) <= 5e-4 and b33.value == 25 and r33.value == 24
          and b53.value == 41 and r53.value == 39,
          f"(4,2,sqrt2) {v42:.5f}; (3,3,2) {b33.value}->{r33.value}; "
          f"(5,3,2) {b53.value}->{r53.value}")


def test_c05_walk_matrix_equals_enumeration(corpus):
    t0 = time.perf_counter()
    entries = 0
    ok = len(corpus) >= 50 and all(h.n <= 25 for h in corpus)
    for h in corpus:
        incident = [[] for _ in range(h.n)]
        for j, edge in enumerate(h.edges):
            for v in edge:
                incident[v].append(j)
        for i in range(7):
            mat = nbw_count_matrix(h, i)
            for x in range(h.n):
                counts = nbw_counts_from(h, x, i, incident, 10 ** 7)
                if counts != mat[x]:
                    ok = False
                entries += h.n
    # bind the batch enumeration to the public one-pair oracle
    h = corpus[0]
    for x, y, i in ((0, 0, 0), (0, 1, 2), (1, 0, 3), (2, 2, 4)):
        if nbw_count_oracle(h, x, y, i) != nbw_count_matrix(h, i)[x][y]:
            ok = False
    dt = time.perf_counter() - t0
    check(5, "walk-count matrix equals exhaustive enumeration on 50+ random "
             "instances for lengths up to 6, under 60s",
          ok and dt < 60.0,
          f"{len(corpus)} instances, {entries} entries, {dt:.1f}s")


def test_c06_linearization_properties():
    t0 = time.perf_counter()
    ok = True
    for r in range(3, 7):
        for u in range(2, r + 1):
            p = Params(r, u)
            for i in range(9):
                for j in range(9):
                    coeff = linearization(p, i, j)
                    if any(c <= 0 for c in coeff.values()):
                        ok = False  # support must be strictly positive
                    p0 = coeff.get(0, Fraction(0))
                    want0 = (1 if i == 0 else p.k * p.q ** (i - 1)) if i == j else 0
                    if p0 != want0:
                        ok = False
                    if u == 2:
                        support = {l for l in range(abs(i - j), i + j + 1)
                                   if (l - i - j) % 2 == 0}
                    else:
                        support = set(range(abs(i - j), i + j + 1))
                    if set(coeff) != support:
                        ok = False
    dt = time.perf_counter() - t0
    check(6, "product expansion coefficients exact: nonnegative, delta rule at "
             "index 0, predicted support, under 30s",
          ok and dt < 30.0, f"{dt:.1f}s")


# (r, u, n) of the configuration-model inputs of perfbench's analyze workload
BENCH_CM = ((2, 3, 48), (2, 4, 60), (2, 5, 80), (3, 4, 40), (2, 3, 96),
            (2, 5, 100), (3, 2, 40), (4, 2, 50), (3, 3, 45), (3, 2, 80),
            (4, 3, 30), (5, 2, 24))


def test_c07_girth_by_trace_equals_girth(corpus):
    rng = random.Random(21)
    drawn = [random_regular_uniform(rng, r, u, n) for r, u, n in BENCH_CM
             for _ in range(2)]
    large = [h for h in drawn if h is not None]
    ok = len(large) == len(drawn)
    for h in corpus + large:
        g = girth(h)
        an = Analysis(h)
        if (girth_via_trace(an.nbrs, Params(*an.ru), h.n) != g
                or an.girth() != g):
            ok = False
    fixtures = {"petersen": 5, "fano": 3, "k4": 3}
    for name, g in fixtures.items():
        h = named_fixture(name)
        an = Analysis(h)
        if not (girth(h) == g and an.girth_by_trace == g and an.girth() == g):
            ok = False
    check(7, "trace-based girth equals combinatorial girth on the corpus, "
             "benchmark-sized configuration-model inputs and the named "
             "fixtures", ok,
          f"{len(corpus)} + {len(large)} instances + 3 fixtures")


def test_c08_construction_spectra():
    oa33 = named_fixture("oa33")
    minus = named_fixture("oa45-minus")
    t1 = Analysis(oa33).tau2
    t2 = Analysis(minus).tau2
    check(8, "array construction gives tau2 = 0 on 9 vertices; transversal "
             "removal gives tau2 = 1 on 15 vertices",
          oa33.n == 9 and abs(t1) <= 1e-8 and minus.n == 15
          and abs(t2 - 1) <= 1e-8,
          f"tau2 {t1:.2e} and {t2 - 1:.2e} off target")


def test_c09_spectrum_correspondence():
    ok = True
    for name in ("petersen", "fano", "oa33", "oa45-minus"):
        if gram_mismatches(named_fixture(name)):
            ok = False
    check(9, "incidence spectrum identity holds exactly on all shipped fixtures",
          ok)


def test_c10_order_tau2_roundtrip():
    worst = 0.0
    for r, u in ((3, 2), (4, 2), (3, 3), (4, 3)):
        p = Params(r, u)
        for n in range(3, 33):
            d, c, lam = tau2_lower(p, n)
            back = float(closed_form_h_bound(p, lam).value)
            worst = max(worst, abs(back - n) / n)
    check(10, "order -> tau2 floor -> order roundtrip within 1e-6 relative "
              "over 4 parameter pairs x 30 orders", worst <= 1e-6,
          f"worst {worst:.2e}")


def test_c11_bound_monotone_in_theta():
    ok = True
    for r, u in ((3, 2), (4, 2), (3, 3), (4, 3)):
        p = Params(r, u)
        top = u - 2 + 2 * math.sqrt(p.q)
        prev = -math.inf
        for t in range(100):
            th = -r + (top - 0.01 + r) * t / 99
            v = float(closed_form_h_bound(p, th).value)
            if v < prev - 1e-7 * max(1.0, abs(prev)):
                ok = False
            prev = v
    check(11, "closed-form bound is non-decreasing on 100-point theta grids", ok)


def test_c12_lp_optimizer_sanity():
    t0 = time.perf_counter()
    b = lp_bound_optimize(Params(3, 2), 1.0, 4)
    dt = time.perf_counter() - t0
    revalue = lp_bound_evaluate(Params(3, 2), b.certificate, theta=1.0).value
    check(12, "LP optimizer lands in [10 - 1e-4, 10.01] under 5s and its "
              "value re-verifies as a certificate",
          10 - 1e-4 <= float(b.value) <= 10.01 and revalue == b.value
          and dt < 5.0,
          f"value {float(b.value):.6f}, {dt:.2f}s")


def test_c13_quotient_feasibility_slack():
    tight1 = dss_gen_bound(Params(3, 2), 2, 10, 1)
    tight2 = dss_gen_bound(Params(3, 2), 2, 10, -2)
    broken = dss_gen_bound(Params(5, 2), 2, 32, 2)
    check(13, "feasibility slack is 0 at both order-10 eigenvalues and "
              "negative for the impossible order-32 configuration",
          tight1.passed and tight1.slack == 0 and tight2.passed
          and tight2.slack == 0 and not broken.passed and broken.slack < 0,
          f"slacks {tight1.slack}, {tight2.slack}, {broken.slack}")
