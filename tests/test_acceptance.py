"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``) and
asserts the same condition, so the suite is green exactly when every
criterion holds.  Corpus-wide criteria sweep every connected graph on at
most 7 vertices plus the named families from the shared session fixture.
"""

import math
from fractions import Fraction

import numpy as np
from helpers import exact_excess
from numpy.polynomial import polynomial as P

from lapexcess import (
    IntersectionArray,
    Verdict,
    analyze,
    path_graph,
    petersen_graph,
    predistance_values,
)

EIG_TOL = 1e-9
TABLE_TOL = 1e-8
EQ_TOL = 1e-6
GAP_FLOOR = 1e-3


def _report(ok: bool, label: str, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status}  {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_01_p4_spectrum():
    a = analyze(path_graph(4))
    expected = np.array([0.0, 2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])
    err = float(np.max(np.abs(a.spectrum.thetas - expected)))
    raw_err = float(np.max(np.abs(np.sort(a.raw_eigenvalues) - expected)))
    ok = err <= EIG_TOL and raw_err <= EIG_TOL and list(a.spectrum.mults) == [1, 1, 1, 1]
    _report(ok, "criterion 1: P4 spectrum {0, 2-sqrt2, 2, 2+sqrt2} within 1e-9",
            f"max error {max(err, raw_err):.2e}")


def test_criterion_02_p4_recurrence_table():
    sys = analyze(path_graph(4)).system
    beta = np.array([-3.0 / 2.0, -16.0 / 21.0, -7.0 / 10.0])
    alpha = np.array([3.0 / 2.0, 27.0 / 14.0, 62.0 / 35.0, 4.0 / 5.0])
    gamma = np.array([-7.0 / 6.0, -15.0 / 14.0, -4.0 / 5.0])
    err = max(
        float(np.max(np.abs(sys.beta - beta))),
        float(np.max(np.abs(sys.alpha - alpha))),
        float(np.max(np.abs(sys.gamma - gamma))),
    )
    _report(err <= TABLE_TOL,
            "criterion 2: P4 recurrence coefficients match the known table within 1e-8",
            f"max error {err:.2e}")


def test_criterion_03_p4_polynomials():
    # the exact reference's coefficients, from the integer Laplacian, and
    # the pipeline's recurrence at points across the spectrum
    a, polys = analyze(path_graph(4)), exact_excess(path_graph(4)).polys
    xs = np.linspace(0.0, 4.0, 9)
    values = predistance_values(a.system, xs)
    expected = [
        [Fraction(1)],
        [Fraction(9, 7), Fraction(-6, 7)],
        [Fraction(32, 35), Fraction(-96, 35), Fraction(4, 5)],
        [Fraction(4, 5), Fraction(-32, 5), Fraction(26, 5), Fraction(-1)],
    ]
    err = float(np.max(np.abs(values - [P.polyval(xs, np.array(e, dtype=float)) for e in expected])))
    _report(polys == expected and err <= TABLE_TOL,
            "criterion 3: P4 predistance polynomials are exactly the known ones; recurrence within 1e-8",
            f"exact {polys == expected}, max error {err:.2e}")


def test_criterion_04_p4_theorem_quantities():
    a = analyze(path_graph(4))
    ok = (
        abs(a.spectral_excess - 0.8) <= TABLE_TOL
        and abs(a.spectral_excess_closed - 0.8) <= TABLE_TOL
        and a.average_excess == 0.5
        and a.verdict is Verdict.NOT_DISTANCE_REGULAR
    )
    _report(ok, "criterion 4: P4 gives r_3(0) = 4/5 both ways, average 1/2, not DR",
            f"spectral {a.spectral_excess:.12g}, average {a.average_excess}")


def test_criterion_05_hoffman_identity_corpus(atlas_corpus, analyzed_corpus):
    # the atlas slice must really be exhaustive: 996 connected graphs on <= 7
    # vertices (1 + 1 + 2 + 6 + 21 + 112 + 853)
    assert len(atlas_corpus) == 996
    worst = max(a.hoffman_residual for _, _, a in analyzed_corpus)
    _report(worst <= 1e-8,
            f"criterion 5: max|H(L) - J| <= 1e-8 on all {len(analyzed_corpus)} corpus graphs",
            f"worst {worst:.2e}")


def test_criterion_06_soundness_completeness(analyzed_corpus):
    bad = []
    worst_drg = 0.0
    worst_non = math.inf
    for name, g, a in analyzed_corpus:
        is_drg = isinstance(a.oracle, IntersectionArray)
        verdict = a.verdict
        expected = Verdict.DISTANCE_REGULAR if is_drg else Verdict.NOT_DISTANCE_REGULAR
        if verdict is not expected:
            bad.append(name)
        rel = a.relative_gap
        if is_drg:
            worst_drg = max(worst_drg, abs(rel))
        else:
            worst_non = min(worst_non, rel)
    ok = not bad and worst_drg <= EQ_TOL and worst_non >= GAP_FLOOR
    _report(ok,
            "criterion 6: verdict matches oracle corpus-wide; gaps <= 1e-6 (DRG) / >= 1e-3 (non-DRG)",
            f"mismatches {len(bad)}, worst DRG {worst_drg:.2e}, worst non-DRG {worst_non:.2e}")


def test_criterion_07_average_never_exceeds_spectral(analyzed_corpus):
    worst = max(
        a.average_excess - a.spectral_excess * (1.0 + EQ_TOL)
        for _, _, a in analyzed_corpus
    )
    _report(worst <= 0.0,
            "criterion 7: average excess <= spectral excess * (1 + 1e-6) corpus-wide",
            f"worst slack {worst:.2e}")


def test_criterion_08_recurrence_invariants(analyzed_corpus):
    worst_sum = 0.0
    worst_sign = -math.inf
    for _, _, a in analyzed_corpus:
        sys = a.system
        beta_full = np.concatenate((sys.beta, [0.0]))
        gamma_full = np.concatenate(([0.0], sys.gamma))
        worst_sum = max(worst_sum, float(np.max(np.abs(sys.alpha + beta_full + gamma_full))))
        if sys.d >= 1:
            worst_sign = max(worst_sign, float(np.max(sys.beta)), float(np.max(sys.gamma)))
    ok = worst_sum <= TABLE_TOL and worst_sign < 0.0
    _report(ok,
            "criterion 8: |alpha_i + beta_i + gamma_i| <= 1e-8 and beta, gamma < 0 corpus-wide",
            f"worst sum {worst_sum:.2e}, max beta/gamma {worst_sign:.2e}")


def test_criterion_09_degree_identities(analyzed_corpus):
    worst_alpha = 0.0
    worst_gamma = 0.0
    for _, g, a in analyzed_corpus:
        deg = g.degrees().astype(float)
        kbar, ksq = float(deg.mean()), float((deg**2).mean())
        worst_alpha = max(worst_alpha, abs(a.system.alpha[0] - kbar))
        if a.system.d >= 1:
            worst_gamma = max(
                worst_gamma, abs(a.system.gamma[0] - (-1.0 + kbar - ksq / kbar))
            )
    ok = worst_alpha <= TABLE_TOL and worst_gamma <= TABLE_TOL
    _report(ok,
            "criterion 9: alpha_0 = mean degree and gamma_1 = -1 + kbar - ksq/kbar within 1e-8",
            f"worst alpha_0 {worst_alpha:.2e}, worst gamma_1 {worst_gamma:.2e}")


def test_criterion_10_three_eigenvalue_equivalence(analyzed_corpus):
    checked = 0
    bad = []
    for name, g, a in analyzed_corpus:
        if a.spectrum.d != 2:
            continue
        checked += 1
        is_dr = a.verdict is Verdict.DISTANCE_REGULAR
        if is_dr != (len(set(g.degrees().tolist())) == 1):
            bad.append(name)
    ok = checked > 0 and not bad
    _report(ok,
            "criterion 10: with three distinct eigenvalues, DR verdict iff regular",
            f"{checked} graphs with d = 2, {len(bad)} mismatches")


def test_criterion_11_petersen_end_to_end():
    a = analyze(petersen_graph())
    residual = float(np.max(a.identity_residuals))
    ok = (
        abs(a.spectral_excess - 6.0) <= TABLE_TOL
        and abs(a.average_excess - 6.0) <= TABLE_TOL
        and a.verdict is Verdict.DISTANCE_REGULAR
        and a.oracle is not None
        and str(a.oracle) == "{3,2;1,1}"
        and residual <= TABLE_TOL
    )
    _report(ok,
            "criterion 11: petersen r_2(0) = 6 = average, DR, array {3,2;1,1}, residuals <= 1e-8",
            f"worst residual {residual:.2e}")
