"""Tensor products of codes, powers, length formulas, and distance bounds."""

from __future__ import annotations

import math
import random
import time

import pytest

from csstensor import chain, css, families, gf2, tensorops, verify
from csstensor.chain import ChainComplex
from csstensor.css import CssCode, KIsZero
from csstensor.families import steane
from csstensor.gf2 import BinMatrix
from csstensor.rand import random_complex3, random_css_code, random_matrix
from csstensor.tensorops import (
    ResourceCeiling,
    css_power,
    css_tensor,
    generic_lower_bound,
    known_comparison_bound,
    power_length,
)


def unit_code() -> CssCode:
    return CssCode(1, BinMatrix.zeros(0, 1), BinMatrix.zeros(0, 1))


def convolution_coefficient(dims, ell, degree):
    poly = [1]
    for _ in range(ell):
        out = [0] * (len(poly) + len(dims) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(dims):
                out[i + j] += a * b
        poly = out
    return poly[degree] if 0 <= degree < len(poly) else 0


def trinomial_sum(dims, ell, degree):
    """Coefficient of z^degree in (c0 + c1 z + c2 z^2)^ell as a trinomial sum."""
    c0, c1, c2 = dims
    total = 0
    for twos in range(0, min(ell, degree // 2) + 1):
        ones = degree - 2 * twos
        zeros = ell - ones - twos
        if ones < 0 or zeros < 0:
            continue
        total += (
            math.comb(ell, twos)
            * math.comb(ell - twos, ones)
            * c0**zeros
            * c1**ones
            * c2**twos
        )
    return total


def reduced_power_complex(x: ChainComplex, ell: int) -> ChainComplex:
    """The reduced power assembled stage by stage, the oracle of ``css_power(..., reduced=True)``.

    Stage 1 reduces the input; each later stage tensors with the original
    factor, keeping only the middle three degrees, and reduces again with
    ``chain.reduce`` to the zero complex on the stage's homology.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    s = chain.reduce(x)
    for _ in range(ell - 1):
        mid = (s.top_degree() + x.top_degree()) // 2
        s = chain.reduce(chain.tensor(s, x, lo=mid - 1, hi=mid + 1))
    return s


def redundant_check_code(rng: random.Random, n: int) -> CssCode:
    """A random code of length n whose checks may include a redundant row on either side."""
    code = random_css_code(rng, n, rng.randrange(0, 3), rng.randrange(0, 3), min_k=0)
    h_x, h_z = code.h_x, code.h_z
    if h_x.rows and rng.random() < 0.6:
        h_x = BinMatrix(h_x.rows + 1, n, h_x.data + (h_x.data[0] ^ h_x.data[-1],))
    if h_z.rows and rng.random() < 0.6:
        h_z = BinMatrix(h_z.rows + 1, n, h_z.data + (h_z.data[0],))
    return css.from_matrices(h_x, h_z)


def _word(n: int, weight: int) -> gf2.BinVector:
    """The length-n word with ones at its first ``weight`` coordinates."""
    return gf2.BinVector(n, (1 << weight) - 1)


class TestCssTensor:
    def test_unit_reproduces_code(self):
        code = steane()
        assert css_tensor(code, unit_code()) == code
        assert css_tensor(unit_code(), code) == code

    def test_steane_square(self):
        product = css_tensor(steane(), steane())
        assert product.n == 67
        assert css.dimension_k(product) == 1

    def test_kunneth_k_on_random_pairs(self):
        rng = random.Random(1)
        for _ in range(15):
            c = random_css_code(rng, rng.randrange(3, 7), 1, 2, min_k=0)
            d = random_css_code(rng, rng.randrange(3, 7), 2, 1, min_k=0)
            product = css_tensor(c, d)
            hc = chain.homology_dims(css.to_complex(c))
            hd = chain.homology_dims(css.to_complex(d))
            expected = hc[0] * hd[2] + hc[1] * hd[1] + hc[2] * hd[0]
            ranked = product.n - gf2.rank(product.h_x) - gf2.rank(product.h_z)
            assert css.dimension_k(product) == ranked == expected


def non_orthogonal_code() -> CssCode:
    """Shapes fit, but h_x . h_z^T != 0: only the bare constructor accepts it."""
    return CssCode(3, BinMatrix.from_rows([[1, 1, 0]]), BinMatrix.from_rows([[0, 1, 1]]))


class TestProductValidity:
    def test_non_orthogonal_factor_raises(self):
        bad = non_orthogonal_code()
        for build in (
            lambda: css_tensor(bad, steane()),
            lambda: css_tensor(steane(), bad),
            lambda: css_power(bad, 2),
            lambda: css_power(bad, 3),
            lambda: css_power(bad, 2, reduced=True),
        ):
            with pytest.raises(chain.BoundarySquareNonzero):
                build()

    def test_tensor_equals_window_code_on_random_pairs(self):
        rng = random.Random(17)
        for _ in range(40):
            c = random_css_code(rng, rng.randrange(0, 6), rng.randrange(0, 3),
                                rng.randrange(0, 3), min_k=0)
            d = random_css_code(rng, rng.randrange(0, 6), rng.randrange(0, 3),
                                rng.randrange(0, 3), min_k=0)
            window = chain.tensor(css.to_complex(c), css.to_complex(d), lo=1, hi=3)
            product = css_tensor(c, d)
            assert product == css.from_complex(window)
            assert css.from_matrices(product.h_x, product.h_z) == product

    def test_power_four_stays_factor_sized(self, monkeypatch):
        # No product-wide multiplication, transpose or column pass: only
        # factor-sized matrices reach these three.
        largest = []
        for name in ("matmul", "transpose", "_column_supports"):
            real = getattr(gf2, name)

            def counting(*mats, real=real):
                largest.append(max(max(m.rows, m.cols) for m in mats))
                return real(*mats)

            monkeypatch.setattr(gf2, name, counting)
        code = css_power(steane(), 4)
        assert code.n == 8179 and code.h_x.rows == code.h_z.rows == 6384
        assert largest and max(largest) < 1000


class TestCssPower:
    def test_each_factor_validated_and_transposed_once(self, monkeypatch):
        code = steane()
        calls = []
        for module, name in ((chain, "validate"), (gf2, "transpose")):
            real = getattr(module, name)

            def counting(m, name=name, real=real):
                calls.append(name)
                return real(m)

            monkeypatch.setattr(module, name, counting)
        css_power(code, 4)
        # h_z once in css.to_complex; the transposed check reads the factor
        # maps' column supports, so no factor map is transposed
        assert sorted(calls) == ["transpose", "validate"]
        calls.clear()
        css_tensor(code, code)  # two equal factor complexes
        assert calls.count("validate") == 1

    def test_ell_one_identity(self):
        code = steane()
        assert css_power(code, 1) is code and css_power(code, 1, max_n=7) is code

    def test_ell_two_matches_pairwise(self):
        code = steane()
        assert css_power(code, 2) == css_tensor(code, code)

    def test_fold_bit_identity_small(self):
        rng = random.Random(2)
        for _ in range(5):
            code = random_css_code(rng, rng.randrange(3, 6), 1, 1, min_k=0)
            assert css_power(code, 2) == css_tensor(code, code)

    def test_ell_three_n_k_match_fold(self):
        code = steane()
        window = css_power(code, 3)
        fold = css_tensor(css_tensor(code, code), code)
        assert window.n == fold.n == 721
        assert css.dimension_k(window) == css.dimension_k(fold) == 1

    def test_length_formula_agreement(self):
        rng = random.Random(3)
        for _ in range(8):
            code = random_css_code(rng, rng.randrange(2, 5), 1, 1, min_k=0)
            dims = css.to_complex(code).dims
            for ell in (1, 2, 3):
                predicted = power_length(dims, ell)
                if predicted > 500:
                    continue
                built = css_power(code, ell)
                assert built.n == predicted

    def test_resource_guard(self):
        with pytest.raises(ResourceCeiling):
            css_power(steane(), 4, max_n=1000)

    # (build, predicted n): each is one past the ceiling.  The ceiling is
    # checked by css.from_complex for products, full and reduced powers and
    # a first power alike.
    CEILING_CASES = [
        (lambda max_n: css_tensor(steane(), steane(), max_n=max_n), 67),
        (lambda max_n: css_power(steane(), 3, max_n=max_n), 721),
        (lambda max_n: css_power(families.parse_family_spec("fg:pg,q=2"), 2, reduced=True,
                                 max_n=max_n), 24),
        (lambda max_n: css_power(steane(), 1, max_n=max_n), 7),
    ]

    @pytest.mark.parametrize("build, predicted", CEILING_CASES,
                             ids=["tensor", "power3", "reduced2", "power1"])
    def test_resource_guard_before_assembly(self, monkeypatch, build, predicted):
        def never(*factors, degree):
            raise AssertionError("assembled past the ceiling")

        with monkeypatch.context() as patch:
            patch.setattr(chain, "tensor_checks", never)
            with pytest.raises(ResourceCeiling) as caught:
                build(predicted - 1)
        assert (caught.value.predicted, caught.value.ceiling) == (predicted, predicted - 1)
        assert str(caught.value) == f"predicted n = {predicted} exceeds ceiling {predicted - 1}"
        assert build(predicted).n == predicted

    def test_reduced_ceiling_before_the_zero_complex(self, monkeypatch):
        # The reduced ell = 8 power of the cyclic code predicts n = 8 817 121.
        # Its dims meet the ceiling before ChainComplex.zero makes one int
        # per row of a complex that size.
        cyclic = families.parse_family_spec("cyclic:n=7,g1=1011,g2=1011")
        built = []
        monkeypatch.setattr(ChainComplex, "zero", classmethod(lambda cls, dims: built.append(dims)))
        with pytest.raises(ResourceCeiling) as caught:
            css_power(cyclic, 8, reduced=True, max_n=100_000)
        assert (caught.value.predicted, caught.value.ceiling) == (8_817_121, 100_000)
        assert str(caught.value) == "predicted n = 8817121 exceeds ceiling 100000"
        assert built == []

    def test_window_parameter(self):
        # off-middle window: degree 1 of the square
        window = tensorops.power_complex_window(css.to_complex(steane()), 2, 0, 2)
        assert window.dims[1] == chain.tensor_dims((3, 7, 3), (3, 7, 3))[1] == 42

    def test_invalid_ell(self):
        for reduced in (False, True):
            with pytest.raises(ValueError, match="ell must be >= 1"):
                css_power(steane(), 0, reduced=reduced)
        with pytest.raises(ValueError, match="ell must be >= 1"):
            power_length((3, 7, 3), 0)
        with pytest.raises(ValueError, match="ell_max must be >= 1"):
            tensorops.sweep(steane(), 0)

    def test_row_weight_subadditive(self):
        rng = random.Random(11)
        for _ in range(5):
            code = random_css_code(rng, rng.randrange(3, 6), 1, 1, min_k=0)
            base = css.weight_profile(code)
            for ell in (2, 3):
                if power_length(css.to_complex(code).dims, ell) > 400:
                    continue
                profile = css.weight_profile(css_power(code, ell))
                assert profile.max_row_weight_x <= ell * max(
                    base.max_row_weight_x, base.max_col_weight_z, 1
                )
                assert profile.max_row_weight_z <= ell * max(
                    base.max_row_weight_z, base.max_col_weight_x, 1
                )


class TestPowerLength:
    def test_ell_one(self):
        assert power_length((3, 7, 3), 1) == 7

    def test_steane_square(self):
        assert power_length((3, 7, 3), 2) == 67

    def test_middle_only(self):
        assert power_length((0, 5, 0), 4) == 5**4

    def test_matches_convolution(self):
        rng = random.Random(4)
        for trial in range(40):
            dims = tuple(rng.randrange(0, 9) for _ in range(3))
            for ell in (1, 2, 3, 4, 64) if trial < 3 else (1, 2, 3, 4):
                poly = chain.tensor_dims(*[dims] * ell)
                assert power_length(dims, ell) == poly[ell]
                for degree in range(-1, 2 * ell + 2):
                    value = poly[degree] if 0 <= degree < len(poly) else 0
                    assert value == trinomial_sum(dims, ell, degree)
                    assert value == convolution_coefficient(dims, ell, degree)

    def test_large_ell_big_integers(self):
        value = power_length((3, 7, 3), 64)
        assert value == convolution_coefficient((3, 7, 3), 64, 64)
        assert value > 10**60


class TestReducedPowers:
    def test_already_reduced_ell_one(self):
        x = chain.ChainComplex((2, 3, 1), (BinMatrix.zeros(2, 3), BinMatrix.zeros(3, 1)))
        assert tensorops._reduced_dims(x, 1)[1] == 3

    def test_exact_complex_collapses(self):
        x = chain.ChainComplex((2, 2), (BinMatrix.identity(2),))
        padded = chain.ChainComplex((2, 2, 0), (BinMatrix.identity(2), BinMatrix.zeros(2, 0)))
        assert chain.homology_dims(padded) == (0, 0, 0)
        assert tensorops._reduced_dims(padded, 1)[1] == 0
        assert tensorops._reduced_dims(padded, 3)[1] == 0
        del x

    def test_steane_goldens(self):
        code = steane()
        assert [css_power(code, ell, reduced=True).n for ell in (1, 2, 3)] == [1, 1, 1]

    def test_reduced_below_full(self):
        rng = random.Random(5)
        for _ in range(10):
            x = random_complex3(rng, 5)
            for ell in (1, 2, 3):
                assert tensorops._reduced_dims(x, ell)[1] <= power_length(x.dims, ell)

    def test_reduced_code_buildable(self):
        reduced = css_power(steane(), 2, reduced=True)
        assert reduced.n == 1
        assert css.dimension_k(reduced) == 1

    def test_recurrence_matches_assembled_stages(self):
        """The Kuenneth recurrence gives the dims, or the error, of the
        reduced power built window by window, at l = 1..4."""
        rng = random.Random(21)
        cases = [random_complex3(rng, 4) for _ in range(1200)]
        cases += [css.to_complex(redundant_check_code(rng, rng.randrange(1, 7)))
                  for _ in range(200)]
        for _ in range(200):
            a, b = rng.randrange(0, 5), rng.randrange(0, 5)
            cases.append(ChainComplex((a, b), (random_matrix(rng, a, b),)))
        cases += [chain.tensor(random_complex3(rng, 2), random_complex3(rng, 2))
                  for _ in range(200)]
        cases += [ChainComplex.single(3), css.to_complex(non_orthogonal_code())]

        def outcome(build):
            try:
                return build()
            except ValueError as exc:
                return type(exc), str(exc)

        errors = 0
        for x in cases:
            for ell in (1, 2, 3, 4):
                want = outcome(lambda: reduced_power_complex(x, ell).dims)
                assert outcome(lambda: tensorops._reduced_dims(x, ell)) == want, (x, ell)
                errors += isinstance(want[0], type)
        # single(3) from l = 2 on, the non-orthogonal complex at every l
        assert errors == 7

    def test_reduced_power_ranks_only_the_factor(self, monkeypatch):
        """No window is assembled or reduced: the factor's two boundaries
        are the only matrices ranked."""
        base = families.parse_family_spec("fg:pg,q=2")
        x = css.to_complex(base)
        want = css.from_complex(reduced_power_complex(x, 4))
        ranked = []
        real_rank = gf2.rank

        def recording(m):
            ranked.append(m)
            return real_rank(m)

        def never(*args, **kwargs):
            raise AssertionError("a window was assembled or reduced")

        monkeypatch.setattr(gf2, "rank", recording)
        for name in ("tensor", "reduce", "homology_dims"):
            monkeypatch.setattr(chain, name, never)
        code = css_power(base, 4, reduced=True)
        assert ranked == list(x.boundaries)
        assert code == want and code.n == 876


def criterion(code: CssCode) -> dict:
    """The ``criterion`` command's report: the projection of an exact ``analyze``."""
    return tensorops.criterion_to_json(css.analyze(code, exact_up_to=None))


def reference_criterion(code: CssCode) -> dict:
    """The criterion's value fields from a search seeded with the heaviest
    logical kernel row and the kept stabilizer minimum of each side, both
    sides built, no mirror read."""
    out = {}
    for side in ("X", "Z"):
        s = css._side(code, side)
        seed = max((r for r in s.kernel if css._signature(r, s.checks)), key=int.bit_count)
        dist = css._Search(s.kernel, code.n, s.checks, None, seed).run(None)
        stab = s.minimum("stabilizer")
        low = side.lower()
        out[f"holds_{low}"] = stab is None or stab.value >= dist.value
        out[f"d_{low}"] = dist.value
        out[f"stab_min_{low}"] = None if stab is None else stab.value
    out["holds"] = out["holds_x"] and out["holds_z"]
    return out


def degenerate_nine_qubit_code() -> CssCode:
    pairs = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]
    h_z = BinMatrix.from_support(6, 9, [list(p) for p in pairs])
    h_x = BinMatrix.from_support(2, 9, [list(range(0, 6)), list(range(3, 9))])
    return css.from_matrices(h_x, h_z)


class TestCriterion:
    def test_steane_golden(self):
        report = criterion(steane())
        assert report["holds"] and report["holds_x"] and report["holds_z"]
        assert (report["d_x"], report["d_z"]) == (3, 3)
        assert (report["stab_min_x"], report["stab_min_z"]) == (4, 4)
        assert len(report["logical_witness_x"]) == 3
        assert len(report["stabilizer_witness_x"]) == 4

    def test_k_zero_raises(self):
        code = css.from_matrices(BinMatrix.identity(3), BinMatrix.zeros(0, 3))
        with pytest.raises(KIsZero):
            criterion(code)

    def test_degenerate_code_fails_criterion(self):
        report = criterion(degenerate_nine_qubit_code())
        assert not report["holds"]
        assert not report["holds_z"]  # the weight-2 checks undercut d_Z = 3

    def test_no_stabilizers_holds_trivially(self):
        code = CssCode(2, BinMatrix.zeros(0, 2), BinMatrix.zeros(0, 2))
        report = criterion(code)
        assert report["holds"] and report["stab_min_x"] is None

    def test_inexact_report_is_refused(self):
        with pytest.raises(ValueError):
            tensorops.criterion_to_json(css.analyze(css_power(steane(), 2), exact_up_to=4))

    def test_matches_the_per_side_reference(self):
        # Every value field agrees with a search per side seeded with the
        # heaviest logical kernel row; the witnesses may differ from its, so
        # each is checked for what it is.
        rng = random.Random(2808)
        codes = [
            steane(), css_power(steane(), 2), degenerate_nine_qubit_code(),
            CssCode(2, BinMatrix.zeros(0, 2), BinMatrix.zeros(0, 2)),
        ]
        while len(codes) < 104:
            n = rng.randrange(3, 16)
            codes.append(random_css_code(rng, n, rng.randrange(n // 2 + 1), rng.randrange(n // 2 + 1)))
        products = 0
        while products < 10:
            try:
                code = css.from_complex(random_complex3(rng, 4), random_complex3(rng, 4))
            except ValueError:
                continue
            if css.dimension_k(code) >= 1:
                codes.append(code)
                products += 1
        mirrored = 0
        for code in codes:
            report = criterion(code)
            mirrored += css._mirror(code) is not None
            assert {k: v for k, v in report.items() if "witness" not in k} == (
                reference_criterion(code)
            )
            for side in ("X", "Z"):
                s, low = css._side(code, side), side.lower()
                word = gf2.BinVector.from_support(code.n, report[f"logical_witness_{low}"])
                assert word.weight() == report[f"d_{low}"]
                assert not any((row & word.bits).bit_count() & 1 for row in s.kernel_of.data)
                assert css._signature(word.bits, s.checks)
                support = report[f"stabilizer_witness_{low}"]
                if report[f"stab_min_{low}"] is None:
                    assert support is None
                    continue
                word = gf2.BinVector.from_support(code.n, support)
                assert word.weight() == report[f"stab_min_{low}"]
                assert gf2.rowspace_contains(s.stab, word)
        assert mirrored >= 2

    def test_one_distance_search_per_searched_side(self, monkeypatch):
        # analyze, the criterion and factor_params read one kept distance
        # per side; a mirrored code searches side X alone.
        searched = []
        real = css._Search.run

        def counting(search, *args, **kwargs):
            if search.checks is not None:
                searched.append(search)
            return real(search, *args, **kwargs)

        monkeypatch.setattr(css._Search, "run", counting)
        square = css_power(steane(), 2)
        loaded = css.from_matrices(square.h_x, square.h_z)
        for code, sides in ((steane(), "X"), (square, "X"), (loaded, "XZ")):
            searched.clear()
            report = css.analyze(code, exact_up_to=None)
            tensorops.criterion_to_json(report)
            for side in sides:
                tensorops.factor_params(code, side)
            kept = css._side(code, "X").minimum("logical")
            assert report.d_x is css.min_distance_exact(code, "X") is kept
            assert len(searched) == len(sides)


# FactorParams (k, d_lo, cycle_lo, check_w, h_top, h_bot, top_min_lo) of
# sides X and Z.
PINNED_PARAMS = {
    "steane": ((1, 3, 3, 4, 0, 0, None), (1, 3, 3, 4, 0, 0, None)),
    "rm:m=3,r1=1,r2=1": ((0, 0, 4, 8, 0, 0, None), (0, 0, 4, 8, 0, 0, None)),
    "rm:m=4,r1=1,r2=1": ((6, 4, 4, 16, 0, 0, None), (6, 4, 4, 16, 0, 0, None)),
    "cyclic:n=7,g1=1011,g2=1011": ((1, 3, 3, 4, 4, 4, 3), (1, 3, 3, 4, 4, 4, 3)),
    "tz:rep3,rep3": ((1, 3, 3, 4, 0, 0, None), (1, 3, 3, 4, 0, 0, None)),
    "fg:pg,q=2": ((0, 0, 4, 4, 4, 3, 3), (0, 0, 3, 3, 3, 4, 4)),
}

# (generic, known comparison, criterion) bounds on (c, d).  The criterion
# bound, with c's distance in the middle sector, is what the generic bound
# already gives (see test_criterion_bound_is_generic_bound).
_STEANE, _RM4 = "steane", "rm:m=4,r1=1,r2=1"
_CYC, _TZ = "cyclic:n=7,g1=1011,g2=1011", "tz:rep3,rep3"
PINNED_BOUNDS = {
    (_STEANE, _STEANE): ((4, 4), (3, 3), (4, 4)),
    (_STEANE, _RM4): ((5, 5), (4, 4), (5, 5)),
    (_STEANE, _CYC): ((4, 4), (3, 3), (4, 4)),
    (_STEANE, _TZ): ((4, 4), (3, 3), (4, 4)),
    (_RM4, _STEANE): ((5, 5), (4, 4), (5, 5)),
    (_RM4, _RM4): ((5, 5), (4, 4), (5, 5)),
    (_RM4, _CYC): ((5, 5), (4, 4), (5, 5)),
    (_RM4, _TZ): ((5, 5), (4, 4), (5, 5)),
    (_CYC, _STEANE): ((4, 4), (3, 3), (4, 4)),
    (_CYC, _RM4): ((5, 5), (4, 4), (5, 5)),
    (_CYC, _CYC): ((3, 3), (3, 3), (3, 3)),
    (_CYC, _TZ): ((4, 4), (3, 3), (4, 4)),
    (_TZ, _STEANE): ((4, 4), (3, 3), (4, 4)),
    (_TZ, _RM4): ((5, 5), (4, 4), (5, 5)),
    (_TZ, _CYC): ((4, 4), (3, 3), (4, 4)),
    (_TZ, _TZ): ((4, 4), (3, 3), (4, 4)),
}


class TestBounds:
    def test_steane_pair_goldens(self):
        code = steane()
        assert known_comparison_bound(code, code) == (3, 3)
        assert generic_lower_bound(code, code) == (4, 4)

    def test_factor_params_once_per_factor_and_side(self, monkeypatch):
        code = steane()
        calls = []
        real = tensorops.factor_params

        def counting(c, side):
            calls.append(side)
            return real(c, side)

        monkeypatch.setattr(tensorops, "factor_params", counting)
        assert generic_lower_bound(code, code) == (4, 4)
        assert sorted(calls) == ["X", "X", "Z", "Z"]

    def test_soundness_suite_params_once_per_pair(self, monkeypatch):
        # Each side of each factor is searched once per pair, however many
        # bounds read it: per pair, the product's two distances, and per
        # factor its two distances and two stabilizer minima.
        runs = []
        real = css._Search.run

        def counting(search, *args, **kwargs):
            runs.append(search)
            return real(search, *args, **kwargs)

        monkeypatch.setattr(css._Search, "run", counting)
        results = verify.bound_soundness_suite(5, 6)
        assert all(r.passed for r in results)
        assert len(runs) == 6 * (2 + 2 * 4)

    def test_soundness_suite_catches_inflated_product_distance(self, monkeypatch):
        # An exact product distance 100 above the truth still dominates every
        # lower bound; only the product witness x (x) y can expose it.
        real = css.min_distance_exact

        def inflated(code, side, *args, **kwargs):
            res = real(code, side, *args, **kwargs)
            value = res.value + 100
            return css.DistanceResult(value, value, True, res.witness)

        monkeypatch.setattr(css, "min_distance_exact", inflated)
        failed = [r.name for r in verify.bound_soundness_suite(5, 6) if not r.passed]
        assert failed == ["tensorops/product_witness_bound"]

    def test_soundness_suite_counts_a_k_zero_product(self, monkeypatch):
        # Factors with full-rank checks and k >= 1 give k = k_C * k_D >= 1,
        # so a k = 0 product is a kunneth_k failure, and the suite goes on
        # to its next pair.  The patch gives up after 50 products, so a
        # suite that skipped such products fails here instead of looping.
        empty = css.from_matrices(BinMatrix.identity(2), BinMatrix.zeros(0, 2))
        made = []

        def k_zero(c, d, max_n=None):
            made.append((c, d))
            if len(made) > 50:
                raise RuntimeError("k = 0 products were not counted")
            return empty

        monkeypatch.setattr(tensorops, "css_tensor", k_zero)
        results = verify.bound_soundness_suite(5, 6)
        assert len(made) == 6
        assert [(r.name, r.failures) for r in results if not r.passed] == [
            ("tensorops/kunneth_k", 6)
        ]

    def test_pinned_factor_params_and_bounds(self):
        # Values of the bound machine on family codes: k = 0 codes, codes
        # with redundant checks (h_top > 0) and every pair with k >= 1.
        codes = {spec: families.parse_family_spec(spec) for spec in PINNED_PARAMS}
        for spec, (x, z) in PINNED_PARAMS.items():
            got = tuple(tuple(tensorops.factor_params(codes[spec], side)) for side in "XZ")
            assert got == (x, z), spec
        for (a, b), (generic, known, strong) in PINNED_BOUNDS.items():
            c, d = codes[a], codes[b]
            assert generic_lower_bound(c, d) == generic == strong, (a, b)
            assert known_comparison_bound(c, d) == known, (a, b)

    def test_criterion_bound_is_generic_bound(self):
        # With the criterion holding, putting c's distance in for its d_lo
        # and cycle bound rebuilds the params factor_params already has.
        rng = random.Random(8)
        pool = []
        for _ in range(40):
            n = rng.randrange(3, 10)
            pool.append(random_css_code(
                rng, n, rng.randrange(0, n // 2 + 1), rng.randrange(0, n // 2 + 1)
            ))
        outcomes = []
        for _ in range(300):
            c, d = rng.choice(pool), rng.choice(pool)
            crit = criterion(c)
            outcomes.append(crit["holds"])
            strong = []
            for side, dist in (("X", crit["d_x"]), ("Z", crit["d_z"])):
                cp, dp = tensorops.factor_params(c, side), tensorops.factor_params(d, side)
                bound = tensorops.bound_from_params(cp, dp)
                if crit["holds"]:
                    full = cp._replace(d_lo=dist, cycle_lo=dist)
                    bound = max(bound, tensorops.bound_from_params(full, dp))
                strong.append(bound)
            assert generic_lower_bound(c, d) == tuple(strong)
        assert True in outcomes and False in outcomes

    def test_bounds_below_exact_steane_square(self):
        code = steane()
        bound = generic_lower_bound(code, code)
        product = css_tensor(code, code)
        for side, value in zip(("X", "Z"), bound):
            exact = css.min_distance_exact(product, side, weight_cap=9)
            assert value <= exact.lower

    def test_nonnegative_and_at_least_one(self):
        rng = random.Random(6)
        for _ in range(10):
            c = random_css_code(rng, rng.randrange(4, 8), 1, 2)
            d = random_css_code(rng, rng.randrange(4, 8), 2, 1)
            if css.dimension_k(css_tensor(c, d)) < 1:
                continue
            bx, bz = generic_lower_bound(c, d)
            assert bx >= 1 and bz >= 1

    def test_generic_requires_logical_sector(self):
        full = css.from_matrices(BinMatrix.identity(2), BinMatrix.zeros(0, 2))
        with pytest.raises(KIsZero):
            generic_lower_bound(full, full)

    def test_weight_two_cell_code_bound_tight(self):
        # single X check of weight 2: d_X = 1, d_Z = 2; the square of this
        # code has Z distance exactly 4, matching the refined bound
        code = css.from_matrices(BinMatrix.from_rows([[1, 1]]), BinMatrix.zeros(0, 2))
        assert criterion(code)["holds"]
        product = css_tensor(code, code)
        bound = generic_lower_bound(code, code)
        assert css.min_distance_exact(product, "Z").value == 4
        assert css.min_distance_exact(product, "X").value == 1
        assert bound[1] == 4  # capture factor 0 on the checkless side: pure product
        assert bound[0] == 1

    def test_redundant_checks_activate_end_sectors(self):
        # duplicate check rows create top homology; the sector bound must
        # then account for light redundancy vectors
        h = BinMatrix.from_rows([[1, 1, 0], [1, 1, 0]])
        c = css.from_matrices(h, BinMatrix.zeros(0, 3))
        d = css.from_matrices(BinMatrix.zeros(0, 3), h)
        product = css_tensor(c, d)
        k = css.dimension_k(product)
        assert k >= 1
        bx, bz = generic_lower_bound(c, d)
        for side, bound in zip(("X", "Z"), (bx, bz)):
            exact = css.min_distance_exact(product, side).value
            assert bound <= exact


class TestWindowBoundSoundness:
    def test_machine_bound_sound_for_window_cubes(self):
        # the sweep strengthens stage-3 bounds with the sector bound for
        # base (x) previous power; window-power logicals embed into that
        # product's logicals, so the bound must sit below the exact value
        rng = random.Random(21)
        checked = 0
        while checked < 6:
            code = random_css_code(rng, rng.randrange(3, 5), 1, 1)
            if css.dimension_k(code) < 1:
                continue
            dims = css.to_complex(code).dims
            if power_length(dims, 3) > 120:
                continue
            cube = css_power(code, 3)
            if css.dimension_k(cube) < 1:
                continue
            square = css_power(code, 2)
            checked += 1
            for side in ("X", "Z"):
                cp = tensorops.factor_params(code, side)
                dp = tensorops.factor_params(square, side)
                bound = tensorops.bound_from_params(cp, dp)
                exact = css.min_distance_exact(cube, side).value
                assert bound <= exact


class TestSweep:
    def test_steane_two_stages(self):
        records = tensorops.sweep(
            steane(), 2, weight_cap=6, time_budget=10.0, trials=40, seed=5
        )
        first, second = (r.report for r in records)
        assert [r.n for r in records] == [7, 67]
        assert [first.k, second.k] == [1, 1]
        assert first.d_x.exact and first.d_x.value == 3
        assert first.degenerate is False
        # stage 2: capped search certifies 7; upper 9 from sampling
        assert second.d_z.lower == 7
        assert second.d_z.upper == 9
        assert second.profile.max_row_weight_x <= 8 and second.profile.max_row_weight_z <= 8
        assert records[1].to_json_dict()["stab_min"] == 5
        assert second.degenerate is True

    def test_reduced_sweep_below_full(self):
        full = tensorops.sweep(
            steane(), 2, weight_cap=3, time_budget=5.0, trials=20, seed=5
        )
        reduced = tensorops.sweep(
            steane(),
            2,
            reduced=True,
            weight_cap=3,
            time_budget=5.0,
            trials=20,
            seed=5,
        )
        for f, r in zip(full, reduced):
            assert r.n <= f.n

    def test_csv_shape(self):
        records = tensorops.sweep(
            steane(), 1, weight_cap=3, time_budget=5.0, trials=20, seed=5
        )
        text = tensorops.sweep_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "ell,n,k,dx_lo,dx_hi,dx_exact,dz_lo,dz_hi,dz_exact,"
            "wmax_x,wmax_z,stab_min,degenerate,seconds"
        )
        assert lines[1].startswith("1,7,1,3,3,true,3,3,true,4,4,4,false,")

    def test_masked_seconds_deterministic(self):
        kwargs = dict(weight_cap=3, time_budget=5.0, trials=20, seed=5)
        a = tensorops.sweep(steane(), 1, **kwargs)
        b = tensorops.sweep(steane(), 1, **kwargs)
        assert tensorops.sweep_to_csv(a, with_seconds=False) == tensorops.sweep_to_csv(
            b, with_seconds=False
        )

    def test_record_json(self):
        records = tensorops.sweep(
            steane(), 1, weight_cap=3, time_budget=5.0, trials=20, seed=5
        )
        row = records[0].to_json_dict()
        assert row["n"] == 7 and row["d_x"]["exact"] is True
        assert row["error"] is None

    def test_first_stage_is_the_base(self, monkeypatch):
        # ell = 1 analyses the base itself, so its sides are eliminated
        # once, and the top-homology minimum is kept on each side.
        base = families.parse_family_spec("cyclic:n=7,g1=1011,g2=1011")
        assert css_power(base, 1) is base
        calls = []
        real = gf2._kernel_bitrows

        def counting(bitrows, columns):
            calls.append(len(bitrows))
            return real(bitrows, columns)

        monkeypatch.setattr(gf2, "_kernel_bitrows", counting)
        records = tensorops.sweep(
            base, 2, weight_cap=3, time_budget=60.0, trials=10
        )
        assert [r.n for r in records] == [7, 147]
        assert len(calls) <= 10

    def test_self_dual_stages_build_no_z_side(self, monkeypatch):
        # Every stage of a Steane sweep has a certified side mirror, so
        # analyze and the sector machine build side X alone.
        built = []
        real = css._side

        def counting(code, side):
            if side not in code._sides:
                built.append((code.n, side))
            return real(code, side)

        monkeypatch.setattr(css, "_side", counting)
        records = tensorops.sweep(steane(), 3, weight_cap=2, trials=10, seed=101)
        assert built == [(7, "X"), (67, "X"), (721, "X")]
        for r in records:
            assert r.report.d_z[:3] == r.report.d_x[:3]
            assert r.report.min_stabilizer_weight_z[:3] == r.report.min_stabilizer_weight_x[:3]

    def test_mirrored_machine_bound_is_the_z_bound(self):
        base, square = steane(), css_power(steane(), 2)
        report = css.analyze(square, None, 10, 3)
        plain = css._side(css.from_matrices(square.h_x, square.h_z), "Z")
        z_bound = tensorops.bound_from_params(
            tensorops.factor_params(base, "Z"),
            tensorops._factor_params(
                plain, report.d_z, report.min_stabilizer_weight_z, plain.minimum("relation")
            ),
        )
        assert tensorops._machine_bounds(steane(), (square, report), None) == (11, z_bound)
        assert z_bound == 11 and "Z" not in square._sides

    @pytest.mark.parametrize("spec, bounds", [("tz:rep3,rep3", (4, 4)), ("fg:pg,q=2", (3, 4))])
    def test_unmirrored_machine_computes_side_z(self, spec, bounds):
        # With no side mirror the machine computes side Z itself; given an
        # exact first-stage report it is the generic bound of base (x) base.
        # fg:pg,q=2 has k = 0, so its end sectors alone are active.
        base = families.parse_family_spec(spec)
        assert css._mirror(base) is None
        prev = (base, css.analyze(base, exact_up_to=None))
        assert tensorops._machine_bounds(base, prev, None) == generic_lower_bound(base, base)
        assert generic_lower_bound(base, base) == bounds

    def test_machine_always_has_an_active_sector(self):
        """sweep calls the machine only for a stage with k >= 1.  Cutting
        the previous stage to three degrees can only add end homology, so
        by Kuenneth base (x) that stage has k >= 1 too, and some sector is
        active on each side: the machine never raises.  Random bases of
        any check ranks, k = 0 included, mostly without a side mirror."""
        rng = random.Random(7)
        calls = unmirrored = 0
        for _ in range(60):
            n = rng.randint(2, 5)
            base = random_css_code(rng, n, rng.randrange(n + 1), rng.randrange(n + 1), min_k=0)
            prev = None
            for ell in (1, 2, 3):
                if power_length(css.to_complex(base).dims, ell) > 200:
                    break
                code = css_power(base, ell)
                report = css.analyze(code, 1, 2, ell)
                if prev is not None and report.k >= 1:
                    calls += 1
                    unmirrored += css._mirror(base) is None
                    assert min(tensorops._machine_bounds(base, prev, None)) >= 1
                prev = (code, report)
        assert (calls, unmirrored) == (86, 72)

    def test_machine_bounds_obey_the_stage_budget(self):
        """The cube's X side has 162 independent relations among its 522
        stabilizer rows; a budgeted search for their minimum stops within
        its budget with a certified lower bound.  The sector machine, whose
        relation sector needs bottom homology that Steane lacks, runs no
        search and gives the bound that lower bound would have given."""
        base, cube = steane(), css_power(steane(), 3)
        report = css.analyze(cube, 1, 2, 104, 5.0)
        t0 = time.monotonic()
        top = css._side(cube, "X").minimum("relation", deadline=t0 + 1.0)
        assert time.monotonic() - t0 < 10.0
        assert not top.exact and top.lower >= 1
        t0 = time.monotonic()
        bounds = tensorops._machine_bounds(base, (cube, report), 1.0)
        assert time.monotonic() - t0 < 10.0
        sides = [tensorops.factor_params(base, "X"),
                 tensorops._factor_params(css._side(cube, "X"), report.d_x,
                                          report.min_stabilizer_weight_x, top)]
        assert sides[0].h_bot == 0 and sides[1].h_top == 162
        assert bounds == (tensorops.bound_from_params(*sides),) * 2
        assert "Z" not in cube._sides

    def test_top_minimum_searched_only_for_an_active_sector(self, monkeypatch):
        # The machine searches the previous stage's relations (with the
        # stage's budget; factor_params' kept search has no deadline) only
        # when the base side has bottom homology: Steane has none, the
        # cyclic base 4.
        searched = []
        real = css._Side.minimum

        def counting(s, of, weight_cap=None, deadline=None):
            if of == "relation" and deadline is not None:
                searched.append(s.stab.cols)
            return real(s, of, weight_cap, deadline)

        monkeypatch.setattr(css._Side, "minimum", counting)
        tensorops.sweep(steane(), 3, weight_cap=2, trials=10, seed=101, time_budget=60.0)
        assert searched == []
        assert tensorops.factor_params(steane(), "X").h_bot == 0
        cyclic = families.parse_family_spec("cyclic:n=7,g1=1011,g2=1011")
        assert tensorops.factor_params(cyclic, "X").h_bot == 4
        tensorops.sweep(cyclic, 2, weight_cap=3, trials=10, time_budget=60.0)
        assert searched == [7]

    def test_machine_bounds_obey_the_stage_budget_on_an_active_sector(self, monkeypatch):
        """The cyclic base has bottom homology on side X, so the machine
        searches the relations of its cube (n = 2401) for the stage's 1 s.
        That search stops at its deadline, and the bound is the one its
        certified lower bound gives; side Z reads side X's through the
        mirror, so one budgeted search runs in all."""
        base = families.parse_family_spec("cyclic:n=7,g1=1011,g2=1011")
        cube = css_power(base, 3)
        assert cube.n == 2401 and tensorops.factor_params(base, "X").h_bot == 4
        report = css.analyze(cube, 1, 1, 104, 5.0)
        searches = []
        real = css._Side.minimum

        def recording(s, of, weight_cap=None, deadline=None):
            res = real(s, of, weight_cap, deadline)
            if deadline is not None:
                searches.append((s, of, res))
            return res

        monkeypatch.setattr(css._Side, "minimum", recording)
        t0 = time.monotonic()
        bounds = tensorops._machine_bounds(base, (cube, report), 1.0)
        assert time.monotonic() - t0 < 10.0
        [(s, of, top)] = searches
        assert s is css._side(cube, "X") and of == "relation"
        assert not top.exact and top.lower >= 1
        sides = [tensorops.factor_params(base, "X"),
                 tensorops._factor_params(s, report.d_x, report.min_stabilizer_weight_x, top)]
        assert sides[1].top_min_lo == top.lower
        assert bounds == (tensorops.bound_from_params(*sides),) * 2

    def test_degeneracy_is_derived_from_bounds(self):
        assert "degenerate" not in tensorops.SweepRecord._fields
        assert "degenerate" not in css.CodeReport._fields
        nine, five = _word(67, 9), _word(67, 5)
        undecided = css.DistanceResult(4, 9, False, nine)
        profile = css.weight_profile(css_power(steane(), 2))
        report = css.CodeReport(
            67, 1, undecided, undecided, profile, css.DistanceResult(5, 5, True, five), None
        )
        assert report.degenerate is None
        raised = css._bracket(undecided, lower=6)
        assert raised == css.DistanceResult(6, 9, False, nine)
        assert report._replace(d_x=raised, d_z=raised).degenerate is True
        assert css._bracket(undecided, lower=9) == css.DistanceResult(9, 9, True, nine)
        ceiling = tensorops.SweepRecord(3, 721, None, 0.0, "ceiling")
        assert ceiling.to_json_dict()["degenerate"] is None

    def test_bracket_merges_a_found_word(self):
        undecided = css.DistanceResult(4, 9, False, _word(67, 9))
        seven = _word(67, 7)
        # A lighter word takes the upper bound and the witness.
        assert css._bracket(undecided, found=(7, seven)) == css.DistanceResult(4, 7, False, seven)
        reached = css.DistanceResult(7, 9, False, _word(67, 9))
        assert css._bracket(reached, found=(7, seven)) == css.DistanceResult(7, 7, True, seven)
        # A word as heavy as the upper bound, or heavier, changes nothing.
        for weight in (9, 10):
            other = gf2.BinVector(67, _word(67, weight).bits << 20)
            assert css._bracket(undecided, found=(weight, other)) == undecided
        # A lower bound and a word together.
        eight = _word(67, 8)
        assert css._bracket(undecided, 6, (8, eight)) == css.DistanceResult(6, 8, False, eight)
        assert css._bracket(undecided, 7, (7, seven)) == css.DistanceResult(7, 7, True, seven)
        # An exact result stays exact.
        exact = css.DistanceResult(9, 9, True, _word(67, 9))
        assert css._bracket(exact, 3, (10, _word(67, 10))) == exact

    def test_stage_report_is_the_analysis(self):
        cap, trials, seed = 2, 20, 5
        records = tensorops.sweep(
            steane(), 2, weight_cap=cap, time_budget=None, trials=trials, seed=seed
        )
        assert records[0].report == css.analyze(steane(), cap, trials, seed + 1, None)
        got = records[1].report
        want = css.analyze(css_power(steane(), 2), cap, trials, seed + 2, None)
        assert got._replace(d_x=None, d_z=None) == want._replace(d_x=None, d_z=None)
        for mine, plain in ((got.d_x, want.d_x), (got.d_z, want.d_z)):
            assert mine.lower >= plain.lower and mine.upper == plain.upper
            assert mine.exact == (mine.lower == mine.upper)
            # the capped search certifies cap + 1; the sector machine lifts it to 4
            assert (plain.lower, mine.lower) == (cap + 1, 4)

    def test_reduced_ceiling_rows_assemble_nothing(self, monkeypatch):
        def never(*factors, degree):
            raise AssertionError("assembled past the ceiling")

        monkeypatch.setattr(chain, "tensor_checks", never)
        base = families.parse_family_spec("cyclic:n=7,g1=1011,g2=1011")
        records = tensorops.sweep(base, 2, reduced=True, max_n=0)
        assert [(r.n, r.report, r.error) for r in records] == [
            (1, None, "predicted n = 1 exceeds ceiling 0"),
            (33, None, "predicted n = 33 exceeds ceiling 0"),
        ]

    def test_ceiling_failures_recorded_in_row(self):
        records = tensorops.sweep(
            steane(),
            3,
            weight_cap=3,
            time_budget=5.0,
            trials=20,
            seed=5,
            max_n=70,
        )
        assert len(records) == 3
        assert records[0].error is None and records[1].error is None
        assert records[2].error is not None and "ceiling" in records[2].error
        assert records[2].n == 721  # predicted length still reported
        assert records[2].report is None
        row = records[2].to_json_dict()
        row.pop("seconds")
        assert row == {
            "ell": 3, "n": 721, "k": 0, "d_x": None, "d_z": None, "wmax_x": 0, "wmax_z": 0,
            "stab_min": None, "degenerate": None, "error": "predicted n = 721 exceeds ceiling 70",
        }
        # the CSV still renders, with empty analysis columns on the failed row
        text = tensorops.sweep_to_csv(records)
        assert text.strip().split("\n")[3].startswith("3,721,0,,,,,,,0,0,,unknown,")
        masked = tensorops.sweep_to_csv(records, with_seconds=False)
        assert masked.split("\n")[3] == "3,721,0,,,,,,,0,0,,unknown,"
