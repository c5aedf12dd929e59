"""The layer probe: direct calls into every layer on small seeded inputs.

A traced run reads each timing from its workload's own spans.  Where a
workload never calls a layer (the tower workload computes no c-DDT rows,
analyze-char2 touches no odd field), the timing comes from this probe
instead, so every per-layer metric has a reading on every workload.  The
verify suites run here at reduced size.  The probe also times the
analyze-odd all-c report at one and two workers, untraced, which is the
base for a verdict on --parallel.
"""

from __future__ import annotations

import random
import time

import workloads


def run(seed: int, tracer) -> dict:
    from cdu import cdiff, construct, field, funcs, monomial, verify

    rng = random.Random(f"probe:{seed}")
    f35, f36, f27, f9 = (field.make_field(3, n) for n in (5, 6, 3, 2))
    f28, f212, f25 = (field.make_field(2, n) for n in (8, 12, 5))

    odd = funcs.parse_function(f"x^{rng.randrange(5, 60)} + 2*x^2 + x", f35)
    cdiff.c_uniformity(odd, rng.randrange(2, f35.order))
    char2 = funcs.parse_function(f"x^{rng.randrange(5, 60)} + {rng.randrange(2, 256)}*x^3", f28)
    cdiff.c_uniformity(char2, rng.randrange(2, f28.order))
    xs = f212.elements()
    for a in rng.sample(range(1, f212.order), 64):
        f212.vsub(xs[f212.shift_perm(a)], xs)

    quad = funcs.parse_function(f"x^10 + {rng.randrange(1, 27)}*x^4 + x^2", f27)
    cdiff.full_report(quad)
    funcs.is_permutation(quad)
    funcs.is_two_to_one(quad)
    funcs.is_planar(quad)
    cdiff.check_quadratic_characterization(quad)
    cdiff.c_ddt(funcs.parse_function("x^3", f25), rng.randrange(2, f25.order))

    params = construct.AgwParams(
        ctx=f9, q=3, phi=funcs.PolyFunc(f9, {1: 1}),
        g=funcs.parse_function(f"x^{rng.randrange(2, 8)} + x", f9), b=1, kind="f1")
    construct.validate_preconditions(params)
    construct.build_agw_pp(params)

    c27 = rng.randrange(3, 27)
    monomial.value_distribution(f36, 5, field.embed(f27, f36, c27))
    monomial.exceptionality_sweep(3, 3, 5, c27, 2)
    monomial.root_in_fps(3, 3, 5, c27)

    verify.planar_but_not_apcn_report()
    verify.quadratic_characterization_suite(seed, per_field=4)
    verify.shift_identity_suite(seed, count=2)
    verify.construction_suite(seed, count=2)
    verify.planar_power_family_report()
    verify.classical_ddt_crosscheck()
    verify.singular_point_report()
    verify.monomial_sweep_report()
    verify.relaxed_pcn_suite(seed, random_count=250)

    spec, text = workloads.analyze_odd_allc(seed)
    f = funcs.parse_function(text, field.parse_field_spec(spec))
    tracer.enabled = False
    out = {}
    for workers in (1, 2):
        t0 = time.perf_counter()
        cdiff.full_report(f, workers=workers)
        out[f"parallel.full_report_w{workers}_s"] = time.perf_counter() - t0
    tracer.enabled = True
    return out
