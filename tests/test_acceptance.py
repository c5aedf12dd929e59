"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at full size with its stated runtime budget; the
reports come from cdu.verify so the determinism criterion can re-run the
identical computations.
"""

import json
import time

from cdu import verify
from cdu.field import make_field


def _emit(num, passed, desc):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {desc}")


def test_criterion_1_planar_example_reproduction():
    t0 = time.monotonic()
    rep = verify.planar_but_not_apcn_report()
    elapsed = time.monotonic() - t0
    passed = rep["passed"] and elapsed < 1.0
    _emit(1, passed, f"x^2+x^3 over F_9: planar, delta >= 3 for all c != 1 ({elapsed:.2f}s)")
    assert rep["passed"], rep
    assert rep["classical_uniformity"] == 1
    assert all(d >= 3 for d in rep["deltas"].values())
    assert elapsed < 1.0


def test_criterion_2_quadratic_characterization():
    t0 = time.monotonic()
    rep = verify.quadratic_characterization_suite(seed=0, per_field=200)
    elapsed = time.monotonic() - t0
    passed = rep["passed"] and elapsed < 60.0
    _emit(2, passed,
          f"800 random quadratics over F_9/F_27/F_25/F_125, zero counterexamples ({elapsed:.1f}s)")
    assert rep["failures"] == [], rep["failures"][:5]
    assert all(v > 0 for v in rep["applicable_counts"].values()), rep["applicable_counts"]
    assert elapsed < 60.0


def test_criterion_3_shift_identity():
    t0 = time.monotonic()
    rep = verify.shift_identity_suite(seed=0, count=50)
    elapsed = time.monotonic() - t0
    passed = rep["passed"] and elapsed < 30.0
    _emit(3, passed,
          f"shift identity exact on 50 quadratics over F_27, all c in {{0,2}}, all gamma ({elapsed:.1f}s)")
    assert rep["failures"] == []
    assert rep["checked_pairs"] == 50 * 2 * 27
    assert elapsed < 30.0


def test_criterion_4_construction_theorems():
    t0 = time.monotonic()
    rep = verify.construction_suite(seed=0, count=20)
    elapsed = time.monotonic() - t0
    passed = rep["passed"] and elapsed < 300.0
    _emit(4, passed,
          f"PP/PcN and 2-to-1/APcN builders, 20 seeded g each, zero failures ({elapsed:.1f}s)")
    for part in rep["parts"]:
        assert part["failures"] == [], (part["suite"], part["failures"][:5])
    assert elapsed < 300.0


def test_criterion_5_known_planar_crosscheck():
    t0 = time.monotonic()
    rep = verify.planar_power_family_report()
    elapsed = time.monotonic() - t0
    passed = rep["passed"] and elapsed < 10.0
    _emit(5, passed,
          f"x^((3^k+1)/2) delta = 2 at c = -1 for (k,n) in {{(1,2),(1,3),(3,2)}} ({elapsed:.2f}s)")
    for case in rep["cases"]:
        assert case["delta"] == 2, case
    assert elapsed < 10.0


def test_criterion_6_apn_sanity():
    t0 = time.monotonic()
    rep = verify.classical_ddt_crosscheck()
    elapsed = time.monotonic() - t0
    passed = rep["passed"]
    _emit(6, passed,
          f"x^3 uniformity 2 over F_8/F_32; c_ddt == direct DDT on small monomials ({elapsed:.1f}s)")
    assert rep["gold_uniformity"] == {"2^3": 2, "2^5": 2}
    for row in rep["monomial_checks"]:
        assert row["matrix_equal"] and row["delta_equal"], row


def test_criterion_7_singular_point_consistency():
    t0 = time.monotonic()
    rep = verify.singular_point_report()
    elapsed = time.monotonic() - t0
    passed = rep["passed"] and elapsed < 120.0
    _emit(7, passed,
          f"p=3 d=5: s=2, no roots/singular points for c in F_27\\F_3, c=1 solvable ({elapsed:.1f}s)")
    assert rep["s"] == 2
    for case in rep["cases"]:
        assert not case["root_in_fps"] and case["singular_points"] == 0, case
    assert rep["c1_solutions"]
    assert elapsed < 120.0


def test_criterion_8_monomial_sweep_witnesses():
    t0 = time.monotonic()
    rep = verify.monomial_sweep_report(c=3)
    elapsed = time.monotonic() - t0
    passed = rep["passed"] and elapsed < 120.0
    _emit(8, passed,
          f"x^5, c=3 in F_27: violation witness in r <= 3, fast path == generic DDT ({elapsed:.1f}s)")
    assert rep["witness_ok"] and rep["not_pcn_apcn_at_witness"]
    assert rep["generic_delta_r1"] == rep["fast_delta_r1"]
    analysis = rep["analysis"]
    assert analysis["first_violation_r"] is not None
    witness = analysis["per_extension"][analysis["first_violation_r"] - 1]["violation_witness"]
    assert witness["count"] >= 3
    # re-verify the witness solutions against the defining equation
    r = analysis["first_violation_r"]
    ctx = make_field(3, 3 * r)
    c_emb = analysis["per_extension"][r - 1]["c"]
    for x in witness["solutions"]:
        val = ctx.sub(ctx.pow(ctx.add(x, witness["a"] if witness["a"] else 1), 5),
                      ctx.mul(c_emb, ctx.pow(x, 5)))
        assert val == witness["b"]
    assert elapsed < 120.0


def test_criterion_9_relaxed_pcn_implies_pp():
    t0 = time.monotonic()
    rep = verify.relaxed_pcn_suite(seed=0, random_count=10000)
    elapsed = time.monotonic() - t0
    passed = rep["passed"] and elapsed < 120.0
    _emit(9, passed,
          f"relaxed-PcN => PP: exhaustive F_4 maps + 10^4 random F_8 maps, "
          f"zero counterexamples ({elapsed:.1f}s)")
    assert rep["failures"] == []
    assert rep["fast_path_mismatches"] == []
    assert rep["relaxed_instances"]["2^2"] > 0  # bijections do occur
    assert elapsed < 120.0


def test_criterion_10_determinism():
    t0 = time.monotonic()
    serial = verify.acceptance_report(seed=0)
    serial_again = verify.acceptance_report(seed=0)
    elapsed = time.monotonic() - t0
    s1 = json.dumps(serial, sort_keys=True)
    s2 = json.dumps(serial_again, sort_keys=True)
    passed = s1 == s2 and serial["passed"]
    _emit(10, passed, f"criteria 1-9 reports byte-identical across reruns ({elapsed:.1f}s)")
    assert s1 == s2, "serial rerun diverged"
    assert serial["passed"]
