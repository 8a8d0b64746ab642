"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
per-criterion lines immediately).  Golden values frozen on the first
faithful run: the Steane square is a [[67, 1, 9]] code, its lightest
stabilizer has weight 5 (degenerate), the pair bounds are (4, 4)
refined / (3, 3) plain, and reduced power lengths collapse to the
homology profile.
"""

from __future__ import annotations

import random
import time

import pytest

from csstensor import chain, css, gf2, tensorops, verify
from csstensor.families import hamming_parity_check, steane, tillich_zemor
from csstensor.rand import random_complex3, random_css_code


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def steane_code():
    return steane()


@pytest.fixture(scope="module")
def steane_square_exact(steane_code):
    """Exact distances of the Steane square, certified by full enumeration."""
    product = tensorops.css_tensor(steane_code, steane_code)
    out = {}
    for side in ("X", "Z"):
        upper, _ = css.min_distance_random_upper(product, side, 200, 17)
        res = css.min_distance_exact(product, side, weight_cap=9)
        out[side] = (res.lower, min(res.upper, upper))
    return product, out


@pytest.fixture(scope="module")
def steane_sweep_two(steane_code):
    return tensorops.sweep(
        steane_code, 2, weight_cap=6, time_budget=30.0, trials=60, seed=23
    )


def test_criterion_1_steane_parameters(steane_code):
    t0 = time.monotonic()
    rep = css.analyze(steane_code, seed=23)
    elapsed = time.monotonic() - t0
    ok = (
        rep.n == 7
        and rep.k == 1
        and rep.d_x.exact
        and rep.d_x.value == 3
        and rep.d_z.exact
        and rep.d_z.value == 3
        and rep.degenerate is False
        and elapsed < 1.0
    )
    report(1, ok, f"steane [[7,1,3]] degenerate=false in {elapsed:.3f}s")


def test_criterion_2_steane_square(steane_code, steane_square_exact):
    t0 = time.monotonic()
    product, exact = steane_square_exact
    k = css.dimension_k(product)
    generic = tensorops.generic_lower_bound(steane_code, steane_code)
    elapsed = time.monotonic() - t0
    dx_lo, dx_hi = exact["X"]
    dz_lo, dz_hi = exact["Z"]
    ok = (
        product.n == 67
        and k == 1
        and dx_lo == dx_hi == 9
        and dz_lo == dz_hi == 9
        and generic[0] <= 9
        and generic[1] <= 9
        and elapsed < 600.0
    )
    report(
        2,
        ok,
        f"steane^2 [[67,1,9]] exact, bound {generic} below 9",
    )


def test_criterion_3_kunneth_suite():
    rng = random.Random(31)
    failures = 0
    for _ in range(200):
        x = random_complex3(rng, 6)
        y = random_complex3(rng, 6)
        product = chain.tensor(x, y)
        hx, hy = chain.homology_dims(x), chain.homology_dims(y)
        expected = [0] * (len(hx) + len(hy) - 1)
        for i, a in enumerate(hx):
            for j, b in enumerate(hy):
                expected[i + j] += a * b
        if chain.homology_dims(product) != tuple(expected):
            failures += 1
    report(3, failures == 0, f"200/200 random products satisfy the homology convolution")


def test_criterion_4_power_length_agreement():
    rng = random.Random(37)
    mismatches = 0
    materialised = 0
    for _ in range(50):
        dims = (rng.randrange(0, 9), rng.randrange(1, 9), rng.randrange(0, 9))
        x = _complex_with_dims(rng, dims)
        for ell in range(1, 5):
            predicted = tensorops.power_length(dims, ell)
            comps = chain._compositions((2,) * ell, ell)
            assembled = sum(_block_size(dims, c) for c in comps)
            if assembled != predicted:
                mismatches += 1
            if predicted and predicted <= 300:
                lo = ell - 1
                window = tensorops.power_complex_window(x, ell, lo, min(2 * ell, ell + 1))
                materialised += 1
                chain.validate(window)  # raises on an invalid window
                if window.dim(ell - lo) != predicted:
                    mismatches += 1
    report(
        4,
        mismatches == 0,
        f"50 triples x ell<=4 agree with the closed form ({materialised} materialised)",
    )


def _block_size(dims, comp):
    size = 1
    for v in comp:
        size *= dims[v]
    return size


def _complex_with_dims(rng, dims):
    from csstensor.gf2 import BinMatrix

    d1 = gf2.BinMatrix(
        dims[0],
        dims[1],
        tuple(
            sum(1 << j for j in range(dims[1]) if rng.random() < 0.5)
            for _ in range(dims[0])
        ),
    )
    kernel = gf2.kernel_basis(d1)
    cols = []
    for _ in range(dims[2]):
        bits = 0
        for row in kernel.data:
            if rng.random() < 0.5:
                bits ^= row
        cols.append(bits)
    d2 = gf2.transpose(BinMatrix(dims[2], dims[1], tuple(cols)))
    return chain.ChainComplex(dims, (d1, d2))


def test_criterion_5_reduction_consistency(steane_code):
    rng = random.Random(41)
    homology_failures = 0
    for _ in range(200):
        x = random_complex3(rng, 6)
        r = chain.reduce(x)
        if chain.homology_dims(r) != chain.homology_dims(x):
            homology_failures += 1
    length_failures = 0
    for _ in range(25):
        x = random_complex3(rng, 5)
        for ell in (1, 2, 3):
            if tensorops._reduced_dims(x, ell)[1] > tensorops.power_length(x.dims, ell):
                length_failures += 1
    goldens = [tensorops.css_power(steane_code, ell, reduced=True).n for ell in (1, 2, 3)]
    ok = homology_failures == 0 and length_failures == 0 and goldens == [1, 1, 1]
    report(
        5,
        ok,
        f"reduce preserves homology 200/200, reduced n <= full n, goldens {goldens}",
    )


def test_criterion_6_bound_soundness():
    rng = random.Random(43)
    pairs = 0
    violations = 0
    comparisons = 0
    while pairs < 50:
        c = _full_rank_code(rng)
        d = _full_rank_code(rng)
        if c is None or d is None:
            continue
        product = tensorops.css_tensor(c, d)
        if css.dimension_k(product) < 1:
            continue
        pairs += 1
        generic = tensorops.generic_lower_bound(c, d)
        known = tensorops.known_comparison_bound(c, d)
        for side, g, kn in zip(("X", "Z"), generic, known):
            exact = css.min_distance_exact(product, side).value
            if g > exact:
                violations += 1
            if g < kn:
                comparisons += 1
    ok = violations == 0 and comparisons == 0
    report(
        6,
        ok,
        "50 random pairs: exact product distances dominate the generic bound, generic >= known",
    )


def _full_rank_code(rng):
    try:
        code = random_css_code(rng, rng.randrange(4, 10), rng.randrange(1, 3), rng.randrange(1, 3))
    except RuntimeError:
        return None
    if gf2.rank(code.h_x) != code.h_x.rows or gf2.rank(code.h_z) != code.h_z.rows:
        return None
    return code


@pytest.fixture(scope="module")
def steane_sweep_three(steane_code):
    return tensorops.sweep(
        steane_code, 3, weight_cap=4, time_budget=5.0, trials=10, seed=29
    )


def test_criterion_7_ldpc_witness(steane_sweep_three):
    records = steane_sweep_three
    ns = [r.n for r in records]
    ks = [r.report.k for r in records]
    expected = [tensorops.power_length((3, 7, 3), ell) for ell in (1, 2, 3)]
    weight_ok = all(
        max(r.report.profile.max_row_weight_x, r.report.profile.max_row_weight_z) <= 4 * r.ell
        for r in records
    )
    ok = ns == expected == [7, 67, 721] and ks == [1, 1, 1] and weight_ok
    report(
        7,
        ok,
        f"n column {ns}, k column {ks}; max row weight <= 4*ell at every stage",
    )


def test_criterion_8_degeneracy_bookkeeping(steane_sweep_two, steane_code):
    records = steane_sweep_two
    decided = all(r.report.degenerate is not None for r in records)
    verdicts = [r.report.degenerate for r in records]
    rerun = tensorops.sweep(
        steane_code, 2, weight_cap=6, time_budget=30.0, trials=60, seed=23
    )
    stable = verdicts == [r.report.degenerate for r in rerun]
    stab_reported = all(r.to_json_dict()["stab_min"] is not None for r in records)
    ok = decided and stable and stab_reported and verdicts == [False, True]
    report(
        8,
        ok,
        f"verdicts {verdicts} decided at ell<=2 (stab_min {records[1].to_json_dict()['stab_min']} vs d >= {records[1].report.d_z.lower}), stable across runs",
    )


def test_criterion_9_tillich_zemor():
    t0 = time.monotonic()
    h = hamming_parity_check(3)
    code = tillich_zemor(h, h)
    k = css.dimension_k(code)
    dx = css.min_distance_exact(code, "X", weight_cap=3)
    dz = css.min_distance_exact(code, "Z", weight_cap=3)
    elapsed = time.monotonic() - t0
    ok = (
        code.n == 58
        and k == 16
        and dx.exact
        and dx.value == 3
        and dz.exact
        and dz.value == 3
        and elapsed < 5.0
    )
    report(9, ok, f"tz(hamming3, hamming3) = [[58,16,3]] exact in {elapsed:.2f}s")


def test_criterion_10_kernel_properties():
    t0 = time.monotonic()
    results = verify.gf2_properties(47, 1000)
    gf2_ok = all(r.passed for r in results)
    fast = verify.run_suite("fast", 47)
    fast_ok = all(r.passed for r in fast)
    elapsed = time.monotonic() - t0
    ok = gf2_ok and fast_ok and elapsed < 120.0
    report(
        10,
        ok,
        f"1000 randomized kernel instances + fast verify suite pass in {elapsed:.1f}s",
    )
