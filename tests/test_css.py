"""CSS code tests: construction, correspondence, distances, degeneracy."""

from __future__ import annotations

import copy
import io
import itertools
import json
import math
import pickle
import random
import time
import tracemalloc

import pytest

from csstensor import chain, css, families, gf2, rand
from csstensor.css import (
    CssCode,
    EmptyStabilizerGroup,
    KIsZero,
    OrthogonalityViolation,
)
from csstensor.families import hamming_parity_check, steane, tillich_zemor
from csstensor.gf2 import BinMatrix
from csstensor.rand import random_complex, random_css_code, random_matrix
from csstensor.tensorops import css_power, css_tensor, factor_params, sweep
from test_gf2 import permute_bits
from test_tensorops import redundant_check_code


def annihilated(m: BinMatrix, rows) -> bool:
    """Whether m v = 0 for every bit row v."""
    return gf2.matmul(BinMatrix(len(rows), m.cols, tuple(rows)), gf2.transpose(m)).is_zero()


def no_stabilizer_code(n: int) -> CssCode:
    return CssCode(n, BinMatrix.zeros(0, n), BinMatrix.zeros(0, n))


def random_chain(rng: random.Random, dims: list[int]) -> chain.ChainComplex:
    """A random valid complex on ``dims``, of any length.

    Each boundary above the first takes its columns from random sums of
    the kernel of the map below, so some are dependent: redundant checks.
    """
    boundaries = [random_matrix(rng, dims[0], dims[1])] if len(dims) > 1 else []
    for i in range(2, len(dims)):
        cols = rand._random_combinations(rng, gf2.kernel_basis(boundaries[-1]), dims[i])
        boundaries.append(gf2.transpose(cols))
    return chain.ChainComplex(tuple(dims), tuple(boundaries))


class TestFromMatrices:
    def test_steane_valid(self):
        h = hamming_parity_check(3)
        code = css.from_matrices(h, h)
        assert code.n == 7

    def test_even_overlap_valid(self):
        css.from_matrices(BinMatrix.from_rows([[1, 1]]), BinMatrix.from_rows([[1, 1]]))

    def test_violation_witness(self):
        with pytest.raises(OrthogonalityViolation) as err:
            css.from_matrices(BinMatrix.from_rows([[1, 0]]), BinMatrix.from_rows([[1, 0]]))
        assert err.value.witness == (0, 0)

    def test_empty_h_x_valid(self):
        code = css.from_matrices(BinMatrix.zeros(0, 5), BinMatrix.from_rows([[1, 1, 0, 0, 0]]))
        assert code.n == 5

    def test_column_mismatch(self):
        with pytest.raises(gf2.DimensionMismatch):
            css.from_matrices(BinMatrix.zeros(1, 3), BinMatrix.zeros(1, 4))


class TestComplexCorrespondence:
    def test_steane_complex(self):
        code = steane()
        x = css.to_complex(code)
        assert x.dims == (3, 7, 3)
        assert gf2.matmul(x.boundary(1), x.boundary(2)).is_zero()

    def test_round_trip_random(self):
        rng = random.Random(1)
        for _ in range(25):
            code = random_css_code(rng, rng.randrange(3, 9), 2, 2, min_k=0)
            assert css.from_complex(css.to_complex(code)) == code

    def test_no_stabilizers_round_trip(self):
        code = no_stabilizer_code(4)
        x = css.to_complex(code)
        assert x.dims == (0, 4, 0)
        assert css.from_complex(x) == code

    def test_wrong_length_rejected(self):
        """A lone complex of 1, 2 or 4 spaces, or a 2-space (x) 3-space
        product: the top degree is below 2 or odd."""
        two = families.classical_as_complex(hamming_parity_check(3))
        four = chain.ChainComplex((1, 2, 2, 1), (BinMatrix.zeros(1, 2), BinMatrix.zeros(2, 2),
                                                 BinMatrix.zeros(2, 1)))
        for factors in ((chain.ChainComplex.single(3),), (two,), (four,),
                        (two, css.to_complex(steane()))):
            with pytest.raises(ValueError):
                css.from_complex(*factors)

    def test_non_orthogonal_complex_rejected(self):
        d1, d2 = BinMatrix.from_rows([[1, 0]]), BinMatrix.from_rows([[1], [0]])
        x = chain.ChainComplex((1, 2, 1), (d1, d2))
        good = css.to_complex(steane())
        for factors in ((x,), (x, good), (good, x)):
            with pytest.raises(chain.BoundarySquareNonzero):
                css.from_complex(*factors)

    def test_products_read_at_the_middle_degree(self):
        """1-3 random 3-space and 2-space factors, zero dims included: the
        code is the check pair at the middle degree, and the boundaries of
        the window around it, the top one transposed."""
        rng = random.Random(19)
        done = 0
        while done < 80:
            factors = [
                random_complex(rng, tuple(rng.randrange(0, 4) for _ in range(3)))
                if rng.random() < 0.5
                else families.classical_as_complex(
                    random_matrix(rng, rng.randrange(0, 4), rng.randrange(0, 4)))
                for _ in range(rng.randrange(1, 4))
            ]
            top = sum(x.top_degree() for x in factors)
            if top < 2 or top % 2:
                continue
            done += 1
            mid = top // 2
            code = css.from_complex(*factors)
            h_x, h_z = chain.tensor_checks(*factors, degree=mid)
            assert (code.n, code.h_x, code.h_z) == (h_x.cols, h_x, h_z)
            w = chain.tensor(*factors, lo=mid - 1, hi=mid + 1)
            assert (code.h_x, code.h_z) == (w.boundary(1), gf2.transpose(w.boundary(2)))
            assert css.from_matrices(code.h_x, code.h_z) == code

    def test_lone_five_space_complex_read_at_degree_two(self):
        x = css.to_complex(steane())
        assert css.from_complex(chain.tensor(x, x)) == css.from_complex(x, x)

    def test_one_product_per_construction(self, monkeypatch):
        products = []
        real_matmul = gf2.matmul

        def counting_matmul(a, b):
            products.append((a.rows, b.cols))
            return real_matmul(a, b)

        monkeypatch.setattr(gf2, "matmul", counting_matmul)
        code = steane()
        x = css.to_complex(code)
        products.clear()
        assert css.from_complex(x) == code
        assert products == [(3, 3)]
        products.clear()
        assert css.from_matrices(code.h_x, code.h_z) == code
        assert products == [(3, 3)]


class TestDimension:
    def test_steane(self):
        assert css.dimension_k(steane()) == 1

    def test_no_stabilizers(self):
        assert css.dimension_k(no_stabilizer_code(6)) == 6

    def test_tillich_zemor_hamming(self):
        h = hamming_parity_check(3)
        code = tillich_zemor(h, h)
        ranked = code.n - gf2.rank(code.h_x) - gf2.rank(code.h_z)
        assert css.dimension_k(code) == ranked == 16

    def test_matches_middle_homology(self):
        rng = random.Random(2)
        for _ in range(25):
            code = random_css_code(rng, rng.randrange(3, 9), 2, 2, min_k=0)
            assert css.dimension_k(code) == chain.homology_dims(css.to_complex(code))[1]

    def test_factor_record_matches_ranks(self, monkeypatch):
        # A from_complex code takes k from the Kuenneth convolution of its
        # factors' homology, with no product check read; ranking its checks
        # must agree.  Factors: 1 to 3 of 1-, 2-, 3- and 5-term complexes
        # with zero dims and redundant checks, and reduced powers.  The
        # from_matrices copy of each code has no record and ranks.
        rng = random.Random(17)
        codes, shapes = [], set()
        while len(codes) < 300:
            count = rng.randrange(1, 4)
            factors = []
            for _ in range(count):
                if rng.random() < 0.2:
                    base = redundant_check_code(rng, rng.randrange(1, 5))
                    factors.append(css.to_complex(base))
                else:
                    length = rng.choice((1, 2, 3, 5))
                    high = 3 if count < 3 else 2
                    factors.append(random_chain(rng, [rng.randrange(0, high + 1)
                                                      for _ in range(length)]))
            if rng.random() < 0.3:
                factors.append(factors[0])  # a repeated factor, ranked once
            top = sum(f.top_degree() for f in factors)
            if top >= 2 and top % 2 == 0:
                codes.append(css.from_complex(*factors))
                shapes.add(tuple(sorted(len(f.dims) for f in factors)))
        for _ in range(40):
            base = redundant_check_code(rng, rng.randrange(1, 6))
            codes += [css_power(base, ell, reduced=True) for ell in (1, 2, 3)]
        assert {(3,), (5,), (1, 3), (2, 2), (3, 5), (1, 2, 2), (3, 3, 3), (5, 5, 5)} <= shapes
        ks = []
        for code in codes:
            lazy = (type(code.h_x), type(code.h_z))
            k = css.dimension_k(code)
            assert (type(code.h_x), type(code.h_z)) == lazy
            assert k == code.n - gf2.rank(code.h_x) - gf2.rank(code.h_z)
            ks.append(k)
        assert sum(k > 0 for k in ks) > 100 and 0 in ks

        def unused(x):
            raise AssertionError("a code with no factor record read homology")

        monkeypatch.setattr(chain, "homology_dims", unused)
        for code, k in zip(codes, ks):
            copy = css.from_matrices(code.h_x, code.h_z)
            assert copy._factors is None and css.dimension_k(copy) == k


class TestExactDistance:
    def test_steane_both_sides(self):
        code = steane()
        for side in ("X", "Z"):
            res = css.min_distance_exact(code, side)
            assert res.exact and res.value == 3

    def test_uncapped_minima_kept_per_side(self, monkeypatch):
        # An uncapped distance or stabilizer minimum is searched once per
        # side and kept; capped and budgeted calls still search, with their
        # own cap semantics.
        runs = []
        real = css._Search.run

        def counting(search, *args, **kwargs):
            runs.append(search)
            return real(search, *args, **kwargs)

        monkeypatch.setattr(css._Search, "run", counting)
        square = css_power(steane(), 2)
        dist = css.min_distance_exact(square, "X")
        assert css.min_distance_exact(square, "X") is dist
        assert len(runs) == 1 and dist.exact and dist.value == 9
        stab = css.stabilizer_min_weight(square, "X")
        assert css.stabilizer_min_weight(square, "X") is stab
        assert len(runs) == 2 and stab.exact and stab.value == 5

        capped = css.min_distance_exact(square, "X", weight_cap=3)
        assert (capped.lower, capped.exact) == (4, False)
        budgeted = css.min_distance_exact(square, "X", time_budget=60.0)
        assert budgeted is not dist and budgeted.value == 9
        # Nothing is lighter than the lightest logical kernel row, the
        # search's seed, so it stays the witness.
        s = css._side(square, "X")
        row = min((r for r in s.kernel if css._signature(r, s.checks)), key=int.bit_count)
        seeded = css.min_distance_exact(square, "X", weight_cap=9)
        assert seeded == (9, 9, True, gf2.BinVector(square.n, row))
        capped_stab = css.stabilizer_min_weight(square, "X", weight_cap=2)
        assert (capped_stab.lower, capped_stab.exact) == (3, False)
        budgeted_stab = css.stabilizer_min_weight(square, "X", time_budget=60.0)
        assert budgeted_stab is not stab and budgeted_stab.value == 5
        assert len(runs) == 7

    def test_single_qubit(self):
        code = no_stabilizer_code(1)
        assert css.min_distance_exact(code, "X").value == 1
        assert css.min_distance_exact(code, "Z").value == 1

    def test_tz_hamming(self):
        h = hamming_parity_check(3)
        code = tillich_zemor(h, h)
        assert css.min_distance_exact(code, "Z", weight_cap=3).value == 3
        assert css.min_distance_exact(code, "X", weight_cap=3).value == 3

    def test_k_zero_raises(self):
        h = BinMatrix.identity(3)
        code = css.from_matrices(h, BinMatrix.zeros(0, 3))
        with pytest.raises(KIsZero):
            css.min_distance_exact(code, "Z")

    def test_cap_semantics(self):
        res = css.min_distance_exact(steane(), "Z", weight_cap=1)
        assert not res.exact
        assert res.lower == 2
        # support size 1 already met a weight-3 kernel row, kept as an upper bound
        assert res.upper == 3

    def test_witness_is_nontrivial_cycle(self):
        rng = random.Random(3)
        for _ in range(20):
            code = random_css_code(rng, rng.randrange(4, 9), 1, 2)
            for side in ("X", "Z"):
                res = css.min_distance_exact(code, side)
                s = css._side(code, side)
                w = res.witness
                assert w is not None and w.weight() == res.value
                assert annihilated(s.kernel_of, [w.bits])
                assert not gf2.rowspace_contains(s.stab, w)

    def test_invariant_under_row_scramble(self):
        rng = random.Random(4)
        for _ in range(10):
            code = random_css_code(rng, rng.randrange(5, 9), 2, 2)
            base = {s: css.min_distance_exact(code, s).value for s in ("X", "Z")}
            scrambled = CssCode(code.n, _scramble(rng, code.h_x), _scramble(rng, code.h_z))
            for side in ("X", "Z"):
                assert css.min_distance_exact(scrambled, side).value == base[side]


def _scramble(rng: random.Random, m: BinMatrix) -> BinMatrix:
    """Random invertible row operations: the row space is unchanged."""
    rows = list(m.data)
    for _ in range(3 * len(rows)):
        if len(rows) < 2:
            break
        i, j = rng.sample(range(len(rows)), 2)
        rows[i] ^= rows[j]
    return BinMatrix(m.rows, m.cols, tuple(rows))


class _ReferenceSearch:
    """The single-information-set enumeration, kept as the search oracle.

    Level r walks every r-subset of the reduced rows, so completing level
    r certifies that no target of weight <= r was missed.
    """

    def __init__(self, basis_rows, n, is_target):
        self.rows, _ = gf2._rref_bitrows(basis_rows)
        self.n = n
        self.is_target = is_target
        self.best_w = None
        self.best_word = None

    def _walk(self, start, depth, acc, r):
        for idx in range(start, len(self.rows) - (r - depth) + 1):
            word = acc ^ self.rows[idx]
            if depth < r - 1:
                self._walk(idx + 1, depth + 1, word, r)
                continue
            w = word.bit_count()
            if (self.best_w is None or w < self.best_w) and self.is_target(word):
                self.best_w, self.best_word = w, word

    def run(self, weight_cap, seed_word=None):
        if seed_word is not None:
            self.best_word, self.best_w = seed_word, seed_word.bit_count()
        completed = 0
        r = 1
        while not (self.best_w is not None and self.best_w <= r):
            if r > len(self.rows) or (weight_cap is not None and r > weight_cap):
                break
            self._walk(0, 0, 0, r)
            completed = r
            r += 1
        found = self.best_w if self.best_word is not None else None
        witness = None if self.best_word is None else gf2.BinVector(self.n, self.best_word)
        if found is not None and (found <= completed + 1 or completed >= len(self.rows)):
            return css.DistanceResult(found, found, True, witness)
        lower = completed + 1 if found is None else min(completed + 1, found)
        return css.DistanceResult(lower, found, False, witness)


def _lightest_target(rows, checks):
    """The lightest target row, the seed ``_Side.minimum`` starts a search from."""
    return min(
        (r for r in rows if r and (checks is None or css._signature(r, checks))),
        key=int.bit_count,
    )


def _seed_of_weight(rows, target, witness, weight):
    """A target word of ``weight`` near ``witness``, else the lightest heavier one, or None.

    The words tried are the witness plus sums of up to three reduced rows
    of the space.  A search stops at the same level under every seed
    heavier than the minimum, so a heavier stand-in walks the same levels
    as a seed of ``weight``.
    """
    basis, _ = gf2._rref_bitrows(rows)
    words = set()
    for r in (1, 2, 3):
        for subset in itertools.combinations(basis, r):
            word = witness
            for row in subset:
                word ^= row
            if word.bit_count() > witness.bit_count():
                words.add(word)
    ordered = sorted(words, key=lambda w: (w.bit_count() != weight, w.bit_count(), w))
    return next(filter(target, ordered), None)


def _brute_force_min(rows, is_target):
    """Minimum target weight over all 2^K - 1 nonzero combinations."""
    best, word = None, 0
    for i in range(1, 1 << len(rows)):
        word ^= rows[(i & -i).bit_length() - 1]
        if word and (best is None or word.bit_count() < best) and is_target(word):
            best = word.bit_count()
    return best


def _side_searches(code):
    """(rows, n, checks, target) for both distance searches of a code.

    The search takes the parity checks; the reference and brute force take
    a target tested against the stabilizer row space itself.
    """
    out = []
    for side in ("X", "Z"):
        s = css._side(code, side)

        def target(w, stab=s.stab, n=code.n):
            return not gf2.rowspace_contains(stab, gf2.BinVector(n, w))

        out.append((list(gf2.kernel_basis(s.kernel_of).data), code.n, s.checks, target))
    return out


# Generator polynomial of the binary Golay code; its 11 shifts that fit in 22
# bits span the shortened [22, 11, 7] code.
GOLAY_POLY = 0b110001110101


def _every_nonzero(w):
    return True


def _oracle_searches(seed, count):
    """(rows, n, checks, target): both sides of codes, and bare row spaces.

    Random codes have n <= 22.  The fixed codes (distances 4, 5 and 7 on 11
    to 21 rows) make the searches deep enough to reach the second pass's
    higher levels.  Bare row spaces take every nonzero word as a target
    (checks None).
    """
    rng = random.Random(seed)
    out = _side_searches(families.parse_family_spec("rm:m=4,r1=1,r2=1"))
    out += _side_searches(families.parse_family_spec("tz:rep5,rep5"))
    out.append(([GOLAY_POLY << i for i in range(11)], 22, None, _every_nonzero))
    while len(out) < 3 * count:
        n = rng.randrange(6, 23)
        r_x, r_z = rng.randrange(1, n // 2), rng.randrange(1, n // 2)
        try:
            code = random_css_code(rng, n, r_x, r_z)
        except RuntimeError:
            continue
        out += _side_searches(code)
        rows = [r for r in random_matrix(rng, rng.randrange(1, n // 2 + 2), n).data if r]
        out.append((rows or [1], n, None, _every_nonzero))
    return out


class TestLogicalChecks:
    def test_parities_match_rowspace_oracle(self):
        # A kernel word is trivial exactly when its parities with all k
        # checks are even; the oracle eliminates the stabilizers instead.
        # The ranks that the side's sizes stand in for are checked too.
        # factor_params' cycle minimum is checked against a search of the
        # whole kernel, on k = 0 codes and stabilizer-free sides too.
        rng = random.Random(41)
        ks = set()
        codes = 0
        cases = set()
        while codes < 60 or not (0 in ks and 1 in ks and max(ks) >= 10 and len(cases) == 2):
            n = rng.randrange(4, 23)
            try:
                r_x, r_z = rng.randrange(1, n // 2 + 1), rng.randrange(0, n // 2 + 1)
                if rng.random() < 0.2:  # most likely k = 0
                    r_x, r_z = rng.choice(((r_x, n), (n, 0)))
                code = random_css_code(rng, n, r_x, r_z, min_k=0)
            except RuntimeError:
                continue
            codes += 1
            k = css.dimension_k(code)
            ks.add(k)
            for side in ("X", "Z"):
                s = css._side(code, side)
                stab, rows, checks = s.stab, s.kernel, s.checks
                assert len(checks) == s.k == k
                assert annihilated(s.kernel_of, rows)
                assert gf2.rank(s.kernel_of) == n - len(rows)
                assert gf2.rank(stab) == len(rows) - k
                params = factor_params(code, side)
                assert params.h_top == stab.rows - gf2.rank(stab)
                assert params.h_bot == s.kernel_of.rows - gf2.rank(s.kernel_of)
                if any(rows):
                    search = css._Search(rows, n, None, None, _lightest_target(rows, None))
                    assert params.cycle_lo == search.run(None).value
                else:
                    assert params.cycle_lo == 1
                if stab.rows == 0:
                    cases.add("no stabilizer rows")
                if not rows:
                    cases.add("zero kernel")
                stab_rows = [r for r in stab.data if r]
                for _ in range(40):
                    word = 0
                    for r in rows:
                        if rng.random() < 0.5:
                            word ^= r
                    if rng.random() < 0.3 and stab_rows:
                        word = 0
                        for r in stab_rows:
                            if rng.random() < 0.5:
                                word ^= r
                    trivial = gf2.rowspace_contains(stab, gf2.BinVector(n, word))
                    assert (css._signature(word, checks) == 0) == trivial
        assert 0 in ks and 1 in ks and max(ks) >= 10 and len(cases) == 2

    def test_k_zero_has_no_checks(self):
        code = css.from_matrices(BinMatrix.identity(3), BinMatrix.zeros(0, 3))
        s = css._side(code, "Z")
        assert (s.kernel, s.checks, s.k) == ((), (), 0)

    def test_each_side_eliminated_once(self, monkeypatch):
        # analyze and factor_params read one _Side per code and side: two
        # kernel eliminations per side, and no rank, dimension_k or
        # kernel_basis call of their own.  A code with no factor record (a
        # loaded file) and h_x != h_z builds both sides; the in-process
        # square has a certified mirror and builds side X alone.
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        square = css_power(steane(), 2)
        loaded = css.from_matrices(square.h_x, square.h_z)
        code = steane()
        for module, name in ((gf2, "_kernel_bitrows"), (gf2, "rank"),
                             (gf2, "kernel_basis"), (css, "dimension_k")):
            counting(module, name)
        css.analyze(loaded)
        assert calls == ["_kernel_bitrows"] * 4
        calls.clear()
        css.analyze(square)
        assert calls == ["_kernel_bitrows"] * 2
        calls.clear()
        for side in ("X", "Z"):
            factor_params(code, side)
        assert calls == ["_kernel_bitrows"] * 4
        with pytest.raises(ValueError):
            css._side(code, "Y")


class TestTwoSetSearch:
    def test_matches_reference_and_brute_force(self, monkeypatch):
        second_levels = []
        level = css._Search._level

        def counting_level(search, g, z, j):
            if z is not css._NO_ROWS:  # a level of the second form
                second_levels.append(j)
            level(search, g, z, j)

        monkeypatch.setattr(css._Search, "_level", counting_level)
        rng = random.Random(31)
        modes = set()
        for rows, n, checks, target in _oracle_searches(30, 40):
            exact = _ReferenceSearch(rows, n, target).run(None)
            d = exact.value
            if len(rows) <= 12:
                assert _brute_force_min(rows, target) == d
            seed_word = exact.witness.bits
            for _ in range(3):
                extra = rows[rng.randrange(len(rows))] ^ seed_word
                if extra and target(extra) and extra.bit_count() > seed_word.bit_count():
                    seed_word = extra
            # Seeded with the lightest target row, as _Side.minimum starts,
            # and with words of weight d, d + 2 (or the next heavier) and more.
            lightest = _lightest_target(rows, checks)
            heavier = _seed_of_weight(rows, target, exact.witness.bits, d + 2)
            seeds = (lightest, exact.witness.bits, heavier or seed_word, seed_word)
            for cap in (None, 1, 2, 3, 4, 6):
                for seed in seeds:
                    ref = _ReferenceSearch(rows, n, target).run(cap, seed)
                    # As the callers run it (the pair of forms built on
                    # demand), and with the pair built up front, so that small
                    # bases also schedule the second pass.
                    for prebuilt in (False, True):
                        search = css._Search(rows, n, checks, None, seed)
                        if prebuilt:
                            search._pair()
                        res = search.run(cap)
                        pairs = search.forms[0][0].pairs
                        modes.add((search.batch, checks is None, pairs is not None))
                        # Batching changes neither the result, the witness
                        # included, nor the words counted.
                        with monkeypatch.context() as m:
                            m.setattr(css, "_BATCH_MIN", math.inf)
                            plain = css._Search(rows, n, checks, None, seed)
                            if prebuilt:
                                plain._pair()
                            assert plain.run(cap) == res
                            assert plain.nodes == search.nodes
                        if cap is None:
                            assert (res.lower, res.upper, res.exact) == ref[:3]
                        assert ref.lower <= res.lower <= d
                        if res.exact:
                            assert res.lower == res.upper == d
                        assert target(res.witness.bits)
                        assert res.witness.weight() == res.upper
        assert len(second_levels) >= 1000 and max(second_levels) >= 2
        # Batched leaves with and without checks, pair tables, and the
        # word-by-word search of k > 3 all ran.
        assert {(True, False, False), (True, True, True), (False, False, False)} <= modes

    def test_batched_square_matches_word_by_word(self, monkeypatch):
        # The Steane square's pair has a new P and |Z| = 1.  It reuses pair
        # tables at pass-2 levels 2 and 3 and, past cap 5, at pass-1 levels 3
        # and 4; the word-by-word walk is the oracle.
        # Seeds of weight 9 and 10 are the witness plus stabilizer rows.
        square = css_power(steane(), 2)
        for side in ("X", "Z"):
            s = css._side(square, side)
            rows, checks = s.kernel, s.checks
            witness = s.minimum("logical").witness.bits
            seeds = {"row": _lightest_target(rows, checks), 9: witness}
            for a, b in itertools.combinations_with_replacement(s.stab.data, 2):
                seeds.setdefault((witness ^ a ^ b).bit_count(), witness ^ a ^ b)
            for cap, weight in ((5, "row"), (7, 9), (None, 9), (None, 10), (None, "row")):
                seed = seeds[weight]
                assert css._signature(seed, checks)
                assert seed.bit_count() == (9 if weight == "row" else weight)
                search = css._Search(rows, square.n, checks, None, seed)
                res = search.run(cap)
                g, z = search.forms[1]
                assert (len(g), len(z)) == (33, 1)
                assert (search.forms[0][0].pairs is not None) == (cap != 5)
                assert g.pairs is not None
                with monkeypatch.context() as m:
                    m.setattr(css, "_BATCH_MIN", math.inf)
                    plain = css._Search(rows, square.n, checks, None, seed)
                    assert plain.run(cap) == res
                assert plain.nodes == search.nodes
                assert res.lower == (cap + 1 if cap is not None and cap < 8 else 9)

    def test_certificate_covers_every_lighter_word(self, monkeypatch):
        # With no checks at all no word is a target, so the search keeps
        # its seed, the all-ones word, and stops early only once it
        # certifies n; every walk call records the words it covers.  A run
        # that certifies lower must have covered every nonzero word lighter
        # than lower.
        seen = set()
        walk = css._Search._walk

        def recording_walk(search, t, start, left, acc, sig):
            if left <= 2:
                words = []
                for subset in itertools.combinations(t.rows[start:], left):
                    word = acc
                    for row in subset:
                        word ^= row
                    words.append(word)
                seen.update(in_code(t, words))  # each form walks its own coordinates
            walk(search, t, start, left, acc, sig)

        monkeypatch.setattr(css._Search, "_walk", recording_walk)
        for rows, n, _, _ in _oracle_searches(32, 20):
            basis, _ = gf2._rref_bitrows(rows)
            if len(basis) > 13:
                continue
            span, word = [], 0
            for i in range(1, 1 << len(basis)):
                word ^= basis[(i & -i).bit_length() - 1]
                span.append(word)
            for cap in range(1, 8):
                for prebuilt in (False, True):
                    seen.clear()
                    search = css._Search(rows, n, [], None, gf2._mask(n))
                    if prebuilt:
                        search._pair()
                    res = search.run(cap)
                    assert res.upper == n
                    light = {w for w in span if w.bit_count() < res.lower}
                    assert light <= seen
                    assert search.nodes >= len(seen)

    def test_class_tables_list_each_leaf(self):
        # The first counts[s] words of each class are exactly the leaf's
        # words (rows, or sums of two rows, whose first row index is at
        # least s) with that signature.
        rng = random.Random(47)
        for k in range(2, 16):
            rows = [rng.getrandbits(24) for _ in range(k)]
            checks = [rng.getrandbits(24) for _ in range(rng.randrange(4))]
            t = css._Rows(rows, checks)
            t.prepare(3, 1)
            for table, width in ((t.singles, 1), (t.pairs, 2)):
                for start in range(k + 1):
                    got = sorted(
                        (sig, word)
                        for sig, words, counts in table
                        for word in words[:counts[start]]
                    )
                    want = []
                    for subset in itertools.combinations(rows[start:], width):
                        word = subset[0] ^ (subset[1] if width == 2 else 0)
                        want.append((css._signature(word, checks), word))
                    assert got == sorted(want)

    def test_pair_table_size_bound(self):
        # A pair table holds K(K - 1)/2 words, at most 32 K: K = 65 gets one
        # at pass-1 level 3, K = 66 does not.  With no checks nothing is a
        # target, so the all-ones seed stays, and five non-pivot columns
        # leave Z too large for pass 2.
        rng = random.Random(43)
        for k, built in ((65, True), (66, False)):
            rows = [(1 << i) | (rng.getrandbits(5) << k) for i in range(k)]
            search = css._Search(rows, k + 5, [], None, gf2._mask(k + 5))
            res = search.run(3)
            assert (res.lower, res.upper) == (4, k + 5)
            assert (search.forms[0][0].pairs is not None) == built
            assert search.nodes == sum(math.comb(k, r) for r in (1, 2, 3))

    def test_steane_square_exact_nine_uncapped(self):
        square = css_power(steane(), 2)
        for side in ("X", "Z"):
            res = css.min_distance_exact(square, side)
            assert res.exact and res.value == 9
            s = css._side(square, side)
            assert annihilated(s.kernel_of, [res.witness.bits])
            assert not gf2.rowspace_contains(s.stab, res.witness)

    def test_deadline_in_second_pass_keeps_certificate(self):
        # The pair is built after P1(1), P1(2), with a new P, so the first
        # form starts again.  Expiring at P2(1): completed P2(0), P1'(1), and
        # nothing under 1 + 0 + 2 = 3 was missed.  Expiring at P2(0): the new
        # forms certify only 1, and the old P1(2) still certifies 3.
        square = css_power(steane(), 2)
        kernel = gf2.kernel_basis(square.h_x)
        for expire_at, nodes in ((1, 34 + 561 + 1 + 34), (0, 34 + 561)):
            checks = css._side(square, "Z").checks
            seed = _lightest_target(kernel.data, checks)
            search = css._Search(list(kernel.data), square.n, checks, None, seed)
            level = search._level

            def expiring_level(g, z, j):
                if j == expire_at and z is not css._NO_ROWS:  # a level of the second form
                    search.deadline = time.monotonic() - 1.0
                level(g, z, j)

            search._level = expiring_level
            res = search.run(None)
            g, z = search.forms[1]
            assert (len(search.forms[0][0]), len(g), len(z)) == (34, 33, 1)
            assert res.lower == 3 and not res.exact
            assert search.nodes == nodes
            assert res.upper == res.witness.weight() >= 9
            assert not gf2.rowspace_contains(square.h_z, res.witness)

    def test_expired_deadline_builds_one_candidate(self, monkeypatch):
        # The deadline passes as P1(2) completes: the pair keeps candidate 0,
        # the natural P with |Z| = 10, and the next leaf stops the search
        # with the certificate of P1(2).
        candidates = []
        second_form = css._Search._second_form

        def counting(search, *args):
            found = second_form(search, *args)
            candidates.append(len(found[1]))
            return found

        monkeypatch.setattr(css._Search, "_second_form", counting)
        square = css_power(steane(), 2)
        s = css._side(square, "Z")
        seed = _lightest_target(s.kernel, s.checks)
        search = css._Search(s.kernel, square.n, s.checks, None, seed)
        natural = list(search.forms[0][0].rows)
        level = search._level

        def expire_after_level_two(g, z, j):
            level(g, z, j)
            if j == 2 and z is css._NO_ROWS:
                search.deadline = time.monotonic() - 1.0

        search._level = expire_after_level_two
        res = search.run(None)
        assert candidates == [10]
        g, z = search.forms[1]
        assert search.forms[0][0].rows == natural and (len(g), len(z)) == (24, 10)
        assert res.lower == 3 and not res.exact
        assert search.nodes == 34 + 561
        # Expired before the search starts: no pair, and lower is 1.
        candidates.clear()
        search = css._Search(s.kernel, square.n, s.checks, time.monotonic() - 1.0, seed)
        res = search.run(None)
        assert (res.lower, res.exact, candidates, len(search.forms)) == (1, False, [], 1)

    def test_pair_beats_the_natural_order(self):
        # Candidate 0 leaves the square |Z| = 10 and the cube 136; the pair
        # kept has disjoint P and N, G reduced on N, Z zero on N, and never
        # more Z rows than candidate 0.  On the square, that cuts the distance
        # search from 639 434 words per side to under 70 000.  Each form is
        # read in its own coordinates, and so are its row signatures.
        for ell, natural_z, nodes in ((2, 10, 70_000), (3, 136, None)):
            code = css_power(steane(), ell)
            n = code.n
            for side in "XZ":
                s = css._side(code, side)
                search = css._Search(s.kernel, n, s.checks, None, _lightest_target(s.kernel, s.checks))
                _, z0 = reference_second_form(search.forms[0][0].rows, search.pivots, n)
                assert len(z0) == natural_z
                search._pair()
                (first, _), (g, z) = search.forms
                k = len(s.kernel)
                assert len(search.pivots) == len(set(search.pivots)) == k
                p_bits = in_form(first, [1 << p for p in search.pivots], n)
                assert [row & sum(p_bits) for row in first.rows] == p_bits
                (n_mask,) = in_form(g, [gf2._mask(n) & ~sum(1 << p for p in search.pivots)], n)
                assert all(row & n_mask == 0 for row in z.rows)
                g_on_n = tuple(row & n_mask for row in g.rows)
                assert gf2.rank(BinMatrix(len(g), n, g_on_n)) == len(g)
                assert len(g) + len(z) == k
                for form, rows in ((first, first.rows), (g, g.rows + z.rows)):
                    kernel = in_form(form, s.kernel, n)
                    assert gf2.rank(BinMatrix(2 * k, n, tuple(rows) + tuple(kernel))) == k
                for form in (first, g, z):
                    checks = in_form(form, s.checks, n)
                    assert form.sigs == [css._signature(row, checks) for row in form.rows]
                assert z.order is g.order
                assert max(0, 2 * k - n) <= len(z) < natural_z
                if nodes is not None:
                    res = search.run(None)
                    assert res.exact and res.value == 9 and search.nodes <= nodes


def reference_random_upper(code, side, trials, seed):
    """The permute-and-eliminate random upper bound, kept as an oracle.

    Each trial moves the kernel rows and checks so that column order[i]
    sits at bit i, then takes the lowest-bit-pivot RREF.
    """
    s = css._side(code, side)
    rng = random.Random(seed)
    best = None
    position = [0] * code.n
    for _ in range(max(1, trials)):
        order = list(range(code.n))
        rng.shuffle(order)
        for i, c in enumerate(order):
            position[c] = i
        rows, _ = gf2._rref_bitrows(permute_bits(s.kernel, position))
        moved_checks = permute_bits(s.checks, position)
        if len(rows) <= 80:
            rows += [a ^ b for i, a in enumerate(rows) for b in rows[i + 1:]]
        for word in rows:
            w = word.bit_count()
            if (best is None or w < best) and css._signature(word, moved_checks):
                best = w
    return best


def _positions(order):
    """position[c] = i for column c = order[i]."""
    position = [0] * len(order)
    for i, c in enumerate(order):
        position[c] = i
    return position


def in_code(t, words):
    """Words in the coordinates of the search form ``t``, in code coordinates.

    Bit b of a form with a column order holds column order[n - 1 - b].
    """
    return list(words) if t.order is None else permute_bits(words, t.order[::-1])


def in_form(t, words, n):
    """Words in code coordinates, moved into those of the search form ``t``."""
    if t.order is None:
        return list(words)
    return permute_bits(words, [n - 1 - i for i in _positions(t.order)])


def reference_first_form(rows, n, order):
    """(rows, P) of the RREF under the column priority ``order``, by permute,
    eliminate and unpermute: P lists the pivot columns, rows in the same order."""
    reduced, moved = gf2._rref_bitrows(permute_bits(rows, _positions(order)))
    return permute_bits(reduced, order), [order[p] for p in moved]


def reference_second_form(rows, pivots, n, order=None):
    """(G, Z) by permute, eliminate and unpermute, with N's columns first.

    Each of N and P keeps its place in ``order``, the natural order if None.
    """
    order = range(n) if order is None else order
    pivot_set = set(pivots)
    order = [c for c in order if c not in pivot_set] + [c for c in order if c in pivot_set]
    reduced, moved_pivots = gf2._rref_bitrows(permute_bits(rows, _positions(order)))
    reduced = permute_bits(reduced, order)
    free = n - len(pivots)
    g = [row for row, p in zip(reduced, moved_pivots) if p < free]
    z = [row for row, p in zip(reduced, moved_pivots) if p >= free]
    return g, z


def reference_pair(rows, n):
    """(first rows, P, G, Z) of the pair ``_Search._pair`` keeps, from the
    reference forms of the natural order and the seeded shuffles."""
    rng = random.Random(css._PAIR_SEED)
    floor = max(0, 2 * len(rows) - n)
    first, pivots = reference_first_form(rows, n, list(range(n)))
    best = (first, pivots, *reference_second_form(rows, pivots, n))
    for _ in range(1, css._PAIR_CANDIDATES):
        if len(best[3]) <= floor:
            break
        order = list(range(n))
        rng.shuffle(order)
        first, pivots = reference_first_form(rows, n, order)
        found = (first, pivots, *reference_second_form(rows, pivots, n, order))
        if len(found[3]) < len(best[3]):
            best = found
    return best


class TestRandomUpper:
    def test_steane_finds_three(self):
        upper, word = css.min_distance_random_upper(steane(), "Z", 100, 5)
        assert upper == word.weight() == 3

    def test_matches_permute_and_eliminate_oracle(self):
        # Kernels of at most 80 rows take the pair scan; the cube's 361 do not.
        codes = [css_power(steane(), ell) for ell in (1, 2, 3)]
        # fg:pg,q=2 has k = 0, so it checks that both refuse it; fg:pg,q=4 has k = 2.
        codes += [families.parse_family_spec(spec) for spec in (
            "rm:m=4,r1=1,r2=1", "cyclic:n=7,g1=1011,g2=1011", "fg:pg,q=2", "fg:pg,q=4")]
        rng = random.Random(41)
        while len(codes) < 47:
            n = rng.randrange(4, 16)
            try:
                codes.append(random_css_code(rng, n, rng.randrange(1, n // 2 + 1),
                                             rng.randrange(1, n // 2 + 1)))
            except RuntimeError:
                continue
        sizes = {len(css._side(code, side).kernel) for code in codes for side in "XZ"}
        assert min(sizes) <= 80 < max(sizes)
        for code in codes:
            trials = 3 if code.n > 100 else 10
            for side in ("X", "Z"):
                if not css._side(code, side).k:
                    with pytest.raises(KIsZero):
                        css.min_distance_random_upper(code, side, trials, 0)
                    continue
                for seed in range(20):
                    upper, word = css.min_distance_random_upper(code, side, trials, seed)
                    assert upper == reference_random_upper(code, side, trials, seed), (
                        code.n, side, seed)
                    # The word is a logical of that weight, in code coordinates.
                    s = css._side(code, side)
                    assert word.weight() == upper
                    assert annihilated(s.kernel_of, [word.bits])
                    assert not gf2.rowspace_contains(s.stab, word)

    def test_trials_do_not_permute_or_reeliminate(self, monkeypatch):
        code = css_power(steane(), 2)
        expected = reference_random_upper(code, "Z", 20, 3)
        css._side(code, "Z")  # the side's own eliminations run before the trials

        def forbidden(*args, **kwargs):
            raise AssertionError("a trial eliminated rows the old way")

        monkeypatch.setattr(gf2, "_rref_bitrows", forbidden)
        assert css.min_distance_random_upper(code, "Z", 20, 3)[0] == expected

    def test_at_least_exact(self):
        rng = random.Random(6)
        for _ in range(15):
            code = random_css_code(rng, rng.randrange(4, 9), 1, 2)
            for side in ("X", "Z"):
                exact = css.min_distance_exact(code, side).value
                upper, _ = css.min_distance_random_upper(code, side, 30, 7)
                assert upper >= exact

    def test_deterministic(self):
        code = steane()
        a = css.min_distance_random_upper(code, "X", 50, 11)
        b = css.min_distance_random_upper(code, "X", 50, 11)
        assert a == b


class TestSecondForm:
    def test_matches_permute_eliminate_unpermute(self):
        bases = []
        for ell in (2, 3):
            code = css_power(steane(), ell)
            bases += [(list(css._side(code, side).kernel), code.n) for side in "XZ"]
        bases += [(rows, n) for rows, n, _, _ in _oracle_searches(43, 20)]
        # The reference forms are in code coordinates; each is moved into
        # the coordinates of the form it is compared with.
        rng = random.Random(17)
        changed = 0
        for rows, n in bases:
            search = css._Search(rows, n, None, None, _lightest_target(rows, None))
            natural = search.forms[0][0].rows
            supports = [gf2._support_of(row) for row in natural]
            # The per-candidate builder, on the natural order and on shuffles.
            for order in [list(range(n))] + [rng.sample(range(n), n) for _ in range(2)]:
                _, pivots = reference_first_form(natural, n, order)
                g, z = search._second_form(supports, pivots, order)
                assert z.order is g.order and g.sigs + z.sigs == [0] * len(natural)
                pivot_set = set(pivots)
                assert g.order == [c for c in order if c not in pivot_set] + [
                    c for c in order if c in pivot_set]
                ref_g, ref_z = reference_second_form(natural, pivots, n, order)
                assert (g.rows, z.rows) == (in_form(g, ref_g, n), in_form(z, ref_z, n))
            # The pair kept, first form included.
            first, pivots, g, z = reference_pair(natural, n)
            changed += search._pair()
            (t, _), (tg, tz) = search.forms
            assert search.pivots == pivots
            assert t.rows == in_form(t, first, n)
            assert (tg.rows, tz.rows) == (in_form(tg, g, n), in_form(tz, z, n))
        assert 0 < changed < len(bases)


class _CodeCoordinateSearch(css._Search):
    """The search with every form moved back to code coordinates, its
    signatures read off the unmoved checks: the path before each form kept
    its own coordinates, kept as the oracle of the moves."""

    def _pair(self):
        changed = super()._pair()
        self.forms = [tuple(map(self._in_code, form)) for form in self.forms]
        return changed

    def _in_code(self, t):
        if t.order is None:
            return t
        return css._Rows(in_code(t, t.rows), self.checks)


def _coordinate_cases(seed):
    """(name, rows, n, checks, seeds): distance searches of random codes
    with n <= 40 and of random products, seeded with the heaviest and the
    lightest logical kernel row, and stabilizer minimum searches (no checks)."""
    rng = random.Random(seed)
    codes = []
    while len(codes) < 24:
        n = rng.randrange(8, 41)
        try:
            codes.append(random_css_code(rng, n, rng.randrange(1, 2 * n // 3),
                                         rng.randrange(1, n // 3 + 1)))
        except RuntimeError:
            continue
    while len(codes) < 32:
        factors = []
        for _ in range(2):
            n = rng.randrange(3, 9)
            try:
                factors.append(random_css_code(rng, n, rng.randrange(1, n // 2 + 1),
                                               rng.randrange(1, n // 2 + 1)))
            except RuntimeError:
                break
        if len(factors) == 2:
            codes.append(css_tensor(*factors))
    cases = []
    for i, code in enumerate(codes):
        for side in "XZ":
            s = css._side(code, side)
            if s.k:
                cases.append((f"code {i} {side}", s.kernel, code.n, s.checks, _row_seeds(s)))
            stab = [row for row in s.stab.data if row]
            if stab:
                seeds = (max(stab, key=int.bit_count), min(stab))
                cases.append((f"code {i} {side} stab", stab, code.n, None, seeds))
    return cases


def _row_seeds(s):
    """The heaviest and the lightest logical kernel row of a side."""
    logicals = [row for row in s.kernel if css._signature(row, s.checks)]
    return max(logicals, key=int.bit_count), min(logicals, key=int.bit_count)


class TestOwnCoordinates:
    def test_matches_the_code_coordinate_search(self, monkeypatch):
        # Forms searched in their own coordinates give the result, witness
        # included, and the node count of the same forms moved back to code
        # coordinates, at caps 2-4, with the pair built on demand and up front.
        moves = []
        real_in_code = css._in_code

        def counting_in_code(word, order):
            moves.append(word)
            return real_in_code(word, order)

        monkeypatch.setattr(css, "_in_code", counting_in_code)
        cases = _coordinate_cases(59)
        for ell in (2, 3):
            code = css_power(steane(), ell)
            s = css._side(code, "X")
            cases.append((f"steane^{ell} X", s.kernel, code.n, s.checks, _row_seeds(s)))
        assert max(n for _, _, n, _, _ in cases if n <= 40) > 30
        reached = changed = unprompted = 0
        for name, rows, n, checks, seeds in cases:
            for cap, seed, prebuilt in itertools.product((2, 3, 4), seeds, (False, True)):
                searches = [css._Search(rows, n, checks, None, seed),
                            _CodeCoordinateSearch(rows, n, checks, None, seed)]
                runs = []
                for search in searches:
                    if prebuilt:
                        search._pair()
                    runs.append((search.run(cap), search.nodes, len(search.forms)))
                assert runs[0] == runs[1], (name, cap, seed, prebuilt)
                if runs[0][2] == 2:
                    reached += 1
                    unprompted += not prebuilt
                    changed += searches[0].forms[0][0].order is not None
        # Runs reached the pair, also unprompted, many kept a first form in
        # new coordinates, and found best words there that moved back.
        assert reached >= 500 and unprompted >= 50 and changed >= 100 and len(moves) >= 100


def _subset_sums(rows):
    """Every sum of a subset of ``rows``; entry i sums the rows at the bits of i."""
    sums = [0]
    for row in rows:
        sums += [word ^ row for word in sums]
    return sums


def _minimum_oracle(s, of):
    """(is_word, lightest weight or None) of one kind of word on a side, by
    enumeration: logicals over all of F2^n, stabilizers over the row space,
    relations y (bit i weighting stabilizer row i) over all of F2^rows."""
    span = _subset_sums(s.stab.data)
    if of == "logical":
        def is_word(w):
            return w not in span and not any((w & r).bit_count() & 1 for r in s.kernel_of.data)
        space = range(1 << s.stab.cols)
    elif of == "stabilizer":
        def is_word(w):
            return w != 0 and w in span
        space = span
    else:
        def is_word(y):
            return y != 0 and span[y] == 0
        space = range(1 << s.stab.rows)
    return is_word, min((w.bit_count() for w in space if is_word(w)), default=None)


class TestSideMinimum:
    def test_matches_enumeration(self):
        # Random codes of n <= 10 with k = 0 sides, sides with no nonzero
        # stabilizer, and independent and dependent stabilizer rows.  Capped
        # and expired searches run first on a fresh side: none is kept, and
        # each lower bound is certified.  Then the uncapped search is exact,
        # kept, and returned again as the same object.  Every witness is a
        # word of its kind and weighs the reported upper bound.
        rng = random.Random(2031)
        cases = set()
        for _ in range(120):
            n = rng.randrange(1, 11)
            try:
                code = random_css_code(rng, n, rng.randrange(n + 1), rng.randrange(n + 1), min_k=0)
            except RuntimeError:
                continue
            for side in "XZ":
                s = css._side(css.from_matrices(code.h_x, code.h_z), side)
                for of in ("logical", "stabilizer", "relation"):
                    is_word, d = _minimum_oracle(s, of)
                    cases.add((of, d is None))
                    cap = rng.randrange(4)
                    for args in ((cap, None), (None, time.monotonic() - 1.0)):
                        res = s.minimum(of, *args)
                        assert of not in s.kept
                        if d is None:
                            assert res is None
                            continue
                        assert res.lower <= d <= res.upper
                        assert is_word(res.witness.bits) and res.witness.weight() == res.upper
                        assert not res.exact or res.lower == res.upper
                        if args[0] is not None and not res.exact:
                            assert res.lower == cap + 1
                    res = s.minimum(of)
                    assert s.minimum(of) is res is s.kept[of]
                    if d is None:
                        assert res is None
                    else:
                        assert res.exact and res.value == d
                        assert is_word(res.witness.bits) and res.witness.weight() == d
        assert cases == {(of, none) for of in ("logical", "stabilizer", "relation")
                         for none in (False, True)}
        with pytest.raises(ValueError):
            css._side(steane(), "X").minimum("cycle")


class TestStabilizerWeight:
    def test_steane_simplex(self):
        res = css.stabilizer_min_weight(steane(), "X")
        assert res.exact and res.value == 4

    def test_single_row(self):
        h = BinMatrix.from_rows([[1, 1, 1, 0, 0]])
        code = css.from_matrices(h, BinMatrix.zeros(0, 5))
        assert css.stabilizer_min_weight(code, "X").value == 3

    def test_unit_rows(self):
        h = BinMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
        code = css.from_matrices(h, BinMatrix.zeros(0, 3))
        assert css.stabilizer_min_weight(code, "X").value == 1

    def test_empty_raises(self):
        with pytest.raises(EmptyStabilizerGroup):
            css.stabilizer_min_weight(no_stabilizer_code(3), "X")

    def test_stratified_matches_gray(self):
        # The oracle walks all 2^rank - 1 nonzero stabilizers by Gray code.
        # Uncapped, the search is exact and its witness is the first
        # lightest row unless a combination is strictly lighter; capped, it
        # brackets the minimum and is exact or certifies cap + 1.
        rng = random.Random(8)
        ranks = set()
        while len(ranks) < 12:
            n = rng.randrange(4, 27)
            try:
                code = random_css_code(rng, n, rng.randrange(1, 13), rng.randrange(0, 13), min_k=0)
            except RuntimeError:
                continue
            for side in ("X", "Z"):
                stab = code.h_x if side == "X" else code.h_z
                basis, _ = gf2._rref_bitrows(stab.data)
                if not basis:
                    continue
                ranks.add(len(basis))
                oracle = _brute_force_min(basis, _every_nonzero)
                res = css.stabilizer_min_weight(code, side)
                assert res.exact and res.value == oracle
                assert gf2.rowspace_contains(stab, res.witness)
                assert res.witness.weight() == oracle
                lightest = min(filter(None, stab.data), key=int.bit_count)
                if lightest.bit_count() == oracle:
                    assert res.witness.bits == lightest
                for cap in (1, 2, 3):
                    capped = css.stabilizer_min_weight(code, side, weight_cap=cap)
                    assert capped.lower <= oracle <= capped.upper
                    assert capped.exact or capped.lower == cap + 1
        assert ranks == set(range(1, 13))


class TestDegeneracy:
    def test_steane_not_degenerate(self):
        assert css.analyze(steane()).degenerate is False

    def test_light_stabilizer_degenerate(self):
        # nine-qubit block code: weight-2 checks on one side, distance 3
        pairs = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]
        h_z = BinMatrix.from_support(6, 9, [list(p) for p in pairs])
        h_x = BinMatrix.from_support(2, 9, [list(range(0, 6)), list(range(3, 9))])
        code = css.from_matrices(h_x, h_z)
        assert css.dimension_k(code) == 1
        assert css.min_distance_exact(code, "X").value == 3
        assert css.min_distance_exact(code, "Z").value == 3
        assert css.analyze(code).degenerate is True

    def test_k_zero_undecided(self):
        h = BinMatrix.identity(3)
        code = css.from_matrices(h, BinMatrix.zeros(0, 3))
        assert css.analyze(code).degenerate is None


class TestWeightProfile:
    def test_steane(self):
        profile = css.weight_profile(steane())
        assert profile.max_row_weight_x == 4
        assert profile.max_row_weight_z == 4
        assert profile.max_col_weight_x == 3

    def test_zero_matrix(self):
        profile = css.weight_profile(no_stabilizer_code(4))
        assert profile.max_row_weight_x == 0
        assert profile.mean_row_weight_x == 0.0


class TestAnalyze:
    def test_steane_report(self):
        report = css.analyze(steane(), seed=3)
        assert (report.n, report.k) == (7, 1)
        assert report.d_x.exact and report.d_x.value == 3
        assert report.d_z.exact and report.d_z.value == 3
        assert report.degenerate is False

    def test_tight_cap_keeps_flags_honest(self):
        report = css.analyze(steane(), exact_up_to=1, seed=3)
        assert not report.d_x.exact
        assert report.d_x.lower == 2
        assert report.d_x.upper == 3

    def test_k_zero_report(self):
        h = BinMatrix.identity(3)
        code = css.from_matrices(h, BinMatrix.zeros(0, 3))
        report = css.analyze(code, seed=3)
        assert report.k == 0 and report.d_x is None and report.d_z is None

    def test_every_distance_has_a_witness(self):
        # Steane and its square, as built (the square searched on side X
        # and mirrored) and as loaded from a file (both sides searched).
        # Every distance with an upper bound carries a logical of that
        # weight; capped at 4 or 6 the square's distances are not exact.
        square = css_power(steane(), 2)
        exact = 0
        for code in (steane(), generic_copy(steane()), square, generic_copy(square)):
            for cap in (4, 6, 9):
                report = css.analyze(code, exact_up_to=cap, trials=50, seed=101)
                for side, d in (("X", report.d_x), ("Z", report.d_z)):
                    s = css._side(generic_copy(code), side)
                    exact += d.exact
                    assert d.upper == d.witness.weight()
                    assert annihilated(s.kernel_of, [d.witness.bits])
                    assert not gf2.rowspace_contains(s.stab, d.witness)
        assert exact == 16

    def test_trials_run_only_for_open_distances(self, monkeypatch):
        # The square's lightest logical kernel row weighs 9 on both sides,
        # so a search capped at 9 settles the distance with no trial; capped
        # at 4 it leaves 5..9 open, each searched side runs the trials, and
        # the seed row stays the witness.  On the n = 9 code side X is
        # exact at cap 1 (d = 1), and side Z's search leaves 2..3 open
        # (lightest logical row 3, d = 2); the trials' word of weight 2
        # closes it.
        calls = []
        real = css.min_distance_random_upper

        def counting(code, side, trials, seed):
            calls.append(side)
            return real(code, side, trials, seed)

        monkeypatch.setattr(css, "min_distance_random_upper", counting)
        loaded = generic_copy(css_power(steane(), 2))
        report = css.analyze(loaded, exact_up_to=9, trials=50, seed=101)
        assert calls == [] and report.d_x.exact and report.d_z.value == 9
        report = css.analyze(loaded, exact_up_to=4, trials=50, seed=101)
        assert calls == ["X", "Z"]
        for side, d in (("X", report.d_x), ("Z", report.d_z)):
            assert (d.lower, d.upper, d.exact) == (5, 9, False)
            assert d.witness.bits in css._side(loaded, side).kernel
        calls.clear()
        sweep(steane(), 1)
        assert calls == []
        h_x = BinMatrix.from_support(4, 9, [[0, 3, 4, 5, 8], [1, 2], [1, 2, 3, 4, 5, 7],
                                            [2, 4, 5, 6, 7, 8]])
        code = css.from_matrices(h_x, BinMatrix.from_support(1, 9, [[0, 4, 7]]))
        s = css._side(code, "Z")
        res = css.min_distance_exact(code, "Z", 1)
        assert res[:3] == (2, 3, False) and res.witness.bits == _lightest_target(s.kernel, s.checks)
        report = css.analyze(code, exact_up_to=1, trials=10, seed=1)
        assert calls == ["Z"]
        assert report.d_x.value == 1 and report.d_z.value == 2 == report.d_z.witness.weight()
        assert annihilated(code.h_x, [report.d_z.witness.bits])
        assert not gf2.rowspace_contains(code.h_z, report.d_z.witness)

    def test_bounds_match_the_trials_first_flow(self):
        # The oracle is the trials-first flow: each search (a css._Search
        # built here) seeded with the word of the random upper bound.  analyze
        # seeds it with the lightest logical kernel row, of weight u, and
        # runs the trials only when the search stays open.  A search walks
        # the same levels under any seed heavier than the distance, and
        # every candidate upper bound of the oracle is one of analyze's, so
        # analyze reports the oracle's lower bound and the lesser of u and
        # the oracle's upper bound, exact once they meet.
        rng = random.Random(2707)
        codes = []
        for _ in range(100):
            n = rng.randrange(3, 16)
            codes.append(random_css_code(rng, n, rng.randrange(n // 2 + 1), rng.randrange(n // 2 + 1)))
        products = 0
        while products < 10:
            try:
                code = css.from_complex(rand.random_complex3(rng, 4), rand.random_complex3(rng, 4))
            except ValueError:
                continue
            if css.dimension_k(code) >= 1:
                codes.append(code)
                products += 1
        for code in codes:
            perm = css._mirror(code)
            for cap in (1, 2, 3, 6, None):
                for trials, seed in ((1, 5), (10, 6)):
                    want = {}
                    for side in ("X", "Z") if perm is None else ("X",):
                        s = css._side(code, side)
                        _, word = css.min_distance_random_upper(code, side, trials, seed)
                        old = css._Search(s.kernel, code.n, s.checks, None, word.bits).run(cap)
                        u = min(r.bit_count() for r in s.kernel if css._signature(r, s.checks))
                        upper = min(u, old.upper)
                        want[side] = (old.lower, upper, old.exact or old.lower >= upper)
                        stab = None
                        if not s.stab.is_zero():
                            stab = css.stabilizer_min_weight(code, side, cap)[:3]
                        want["stab" + side] = stab
                    if perm is not None:
                        want["Z"], want["stabZ"] = want["X"], want["stabX"]
                    report = css.analyze(code, cap, trials, seed, None)
                    assert bounds(report) == [want[f] for f in ("X", "Z", "stabX", "stabZ")]

    def test_steane_times_tillich_zemor_exact_nine(self):
        # n = 127, K = 64 on each side.  The natural P leaves |Z| = 20 and a
        # search of 130 463 919 words per side; the pair kept leaves at most
        # 3 Z rows and under 2 M words.
        code = css_tensor(steane(), families.parse_family_spec("tz:rep3,rep3"))
        report = css.analyze(code, exact_up_to=9, trials=20, seed=3)
        for side, d in (("X", report.d_x), ("Z", report.d_z)):
            s = css._side(code, side)
            assert d.exact and d.value == 9 == d.witness.weight()
            assert annihilated(s.kernel_of, [d.witness.bits])
            assert not gf2.rowspace_contains(s.stab, d.witness)
            search = css._Search(s.kernel, code.n, s.checks, None, _lightest_target(s.kernel, s.checks))
            assert search.run(None).value == 9
            assert len(search.forms[1][1]) <= 3 and search.nodes < 2_000_000

    def test_json_round_trip(self):
        report = css.analyze(steane(), seed=3)
        blob = json.dumps(report.to_json_dict())
        parsed = json.loads(blob)
        assert parsed["n"] == 7 and parsed["d_x"]["exact"] is True


def self_orthogonal_code(rng: random.Random, n: int) -> CssCode:
    """A random code with h_x = h_z = h, h h^T = 0 and no zero column of h.

    h has (n - 1) // 2 independent rows, so k = n - 2 rank(h) >= 1.  Each
    row is a random word orthogonal to the rows so far and to the all-ones
    word (so of even weight, orthogonal to itself).  n is 6, 7 or 8: at
    n = 5 no two such rows cover every column.
    """
    while True:
        rows: list[int] = []
        for _ in range((n - 1) // 2):
            constraints = BinMatrix(len(rows) + 1, n, (*rows, (1 << n) - 1))
            word = 0
            for b in gf2.kernel_basis(constraints).data:
                if rng.random() < 0.5:
                    word ^= b
            rows.append(word)
        h = BinMatrix(len(rows), n, tuple(rows))
        if gf2.rank(h) == h.rows and all(h.col_weights()):
            return css.from_matrices(h, h)


def generic_copy(code: CssCode) -> CssCode:
    """The code as a loaded file arrives: no factor record."""
    return css.from_matrices(code.h_x, code.h_z)


def bounds(report: css.CodeReport) -> list:
    fields = (report.d_x, report.d_z, report.min_stabilizer_weight_x,
              report.min_stabilizer_weight_z)
    return [None if d is None else (d.lower, d.upper, d.exact) for d in fields]


class TestSideMirror:
    def test_uncapped_reports_match_the_generic_path(self):
        rng = random.Random(2206)
        codes = [steane()] + [self_orthogonal_code(rng, rng.choice((6, 7, 8))) for _ in range(30)]
        assert all(css.dimension_k(c) >= 1 for c in codes)
        for base in codes:
            square = css_power(base, 2)
            assert square._factors is not None and css._mirror(square) is not None
            mirrored = css.analyze(square, exact_up_to=None, trials=5, seed=7)
            assert "Z" not in square._sides
            generic = css.analyze(generic_copy(square), exact_up_to=None, trials=5, seed=7)
            assert bounds(mirrored) == bounds(generic)
            assert all(d is None or d.exact for d in (mirrored.d_x, mirrored.d_z))

    @pytest.mark.parametrize("base, ell", [(steane(), 3), (families.hamming_css(4), 2)],
                             ids=["steane-cube", "hamming4-square"])
    def test_capped_brackets_overlap_the_generic_ones(self, base, ell):
        power = css_power(base, ell)
        assert css._mirror(power) is not None
        mirrored = css.analyze(power, exact_up_to=2, trials=10, seed=5)
        generic = css.analyze(generic_copy(power), exact_up_to=2, trials=10, seed=5)
        for a, b in ((mirrored.d_z, generic.d_z),
                     (mirrored.min_stabilizer_weight_z, generic.min_stabilizer_weight_z)):
            assert a.lower <= b.upper and b.lower <= a.upper

    def test_mapped_witness_is_a_z_logical(self):
        rng = random.Random(31)
        bases = [steane()] + [self_orthogonal_code(rng, rng.choice((6, 7, 8))) for _ in range(10)]
        for base in bases:
            square = css_power(base, 2)
            perm = css._mirror(square)
            d_x = css.min_distance_exact(square, "X")
            d_z = css._mirrored(d_x, perm)
            w = d_z.witness
            assert w.weight() == d_z.upper == d_x.value
            assert annihilated(square.h_x, [w.bits])
            assert not gf2.rowspace_contains(square.h_z, w)
            stab = css._mirrored(css.stabilizer_min_weight(square, "X"), perm)
            assert stab.witness.weight() == stab.value
            assert gf2.rowspace_contains(square.h_z, stab.witness)
            report = css.analyze(square, exact_up_to=None, trials=1, seed=1)
            assert report.d_z == css._mirrored(report.d_x, perm)

    def test_no_mirror_without_self_dual_factors(self):
        tz = families.parse_family_spec("tz:rep3,rep3")
        assert tz._factors is not None and css._mirror(tz) is None
        rng = random.Random(4)
        other = random_css_code(rng, 6, 2, 1)
        assert other.h_x != other.h_z
        product = css_tensor(steane(), other)
        assert css._mirror(product) is None
        assert css._mirror(generic_copy(css_power(steane(), 2))) is None

    def test_certificate_refuses_a_wrong_permutation(self, monkeypatch):
        square = css_power(steane(), 2)
        monkeypatch.setattr(css, "_dual_permutation", lambda factors: list(range(square.n)))
        calls = []
        real = gf2._kernel_bitrows

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(gf2, "_kernel_bitrows", counting)
        report = css.analyze(square, exact_up_to=4, trials=5, seed=2)
        assert css._mirror(square) is None and len(calls) == 4
        monkeypatch.undo()
        assert bounds(report) == bounds(css.analyze(generic_copy(square), 4, 5, 2))

    def test_record_stays_out_of_serialized_forms(self):
        square = css_power(steane(), 2)
        plain = generic_copy(square)
        assert square._factors == (css.to_complex(steane()),) * 2 and plain._factors is None
        assert square == plain and hash(square) == hash(plain) and repr(square) == repr(plain)
        texts = []
        for code in (square, plain):
            out = io.StringIO()
            css.dump_code(code, out, "sq")
            texts.append(out.getvalue())
        assert texts[0] == texts[1]
        for clone in (copy.copy(square), copy.deepcopy(square),
                      pickle.loads(pickle.dumps(square))):
            assert clone == square and clone._factors is None


class TestCodeJson:
    def test_round_trip_bit_exact(self):
        rng = random.Random(9)
        for _ in range(20):
            code = random_css_code(rng, rng.randrange(3, 9), 2, 2, min_k=0)
            blob = json.dumps(css.code_to_json(code, "test"))
            assert css.code_from_json(json.loads(blob)) == code

    def test_file_text_is_the_indented_dump(self):
        """dump_code writes json.dumps(..., indent=2, sort_keys=True) byte for byte."""
        rng = random.Random(1860)
        names = ["", "steane", 'say "hi"', "back\\slash", "two\nlines", "tab\t\x00",
                 "ñandú ∂ 𝔽₂ \u2028", "power(ell=2,reduced=False)",
                 None, 5, 2.5, True, [1, "a", {"z": [], "b": True}], {"b": {"c": [2.5]}, "a": "x"}]
        chunk = css._DUMP_CHUNK_ROWS
        tall = random_matrix(rng, 2 * chunk + 3, 40, density=0.1)
        tall = BinMatrix(tall.rows + 1, 40, tall.data[:chunk] + (0,) + tall.data[chunk:])
        codes = [CssCode(1, BinMatrix.zeros(0, 1), BinMatrix.zeros(0, 1)),
                 CssCode(1, BinMatrix(2, 1, (1, 0)), BinMatrix.zeros(1, 1)),
                 CssCode(0, BinMatrix.zeros(0, 0), BinMatrix.zeros(2, 0)),
                 CssCode(40, tall, BinMatrix.zeros(chunk, 40)),
                 CssCode(40, BinMatrix.zeros(0, 40), BinMatrix(chunk, 40, tall.data[:chunk])),
                 steane()]
        # Codes built from supports: products, powers (the cube's 522 rows
        # cross two chunk boundaries), hypergraph products and a reduced
        # power with all-zero check rows.
        products = [css_power(steane(), 2), css_power(steane(), 3),
                    css_tensor(steane(), random_css_code(rng, 5, 2, 1)),
                    css_power(random_css_code(rng, 4, 1, 1), 3),
                    families.parse_family_spec("tz:rep3,rep3"),
                    families.parse_family_spec("tz:rep2,rep5"),
                    families.parse_family_spec("tz:hamming3,rep2"),
                    tillich_zemor(random_matrix(rng, 13, 17, 0.2),
                                  random_matrix(rng, 11, 16, 0.2)),
                    css.from_complex(chain.ChainComplex.zero((3, 3, 3)))]
        assert all(type(c.h_x) is gf2._SupportMatrix for c in products)
        assert any(c.h_x.rows > 2 * chunk for c in products)
        assert any(c.h_z.rows > chunk and c.h_z.rows % chunk for c in products)
        codes += products
        while len(codes) < 240:
            n = rng.choice([1, 2, 3, 5, 8, 13, 40])
            code = random_css_code(rng, n, rng.randrange(0, 4), rng.randrange(0, 4), min_k=0)
            if rng.random() < 0.3:  # an all-zero check row
                code = CssCode(n, BinMatrix(code.h_x.rows + 1, n, code.h_x.data + (0,)), code.h_z)
            codes.append(code)
        for i, code in enumerate(codes):
            name = names[i % len(names)]
            expected = json.dumps(css.code_to_json(code, name), indent=2, sort_keys=True) + "\n"
            out = io.StringIO()
            css.dump_code(code, out, name)
            assert out.getvalue() == expected
        assert all(type(c.h_x) is gf2._SupportMatrix for c in products)  # no int row read

    def test_writing_the_ell_four_power_stays_small(self, tmp_path):
        """The 1.86 MB file of the Steane l = 4 power is written with a
        traced peak below half its size: no whole text, no support lists."""
        code = css_power(steane(), 4)
        path = tmp_path / "p4.json"
        with open(path, "w", encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                css.dump_code(code, fh, "power(ell=4,reduced=False)")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        size = path.stat().st_size
        assert size == 1_858_386
        assert peak < size / 2

    def test_loading_the_cube_builds_no_product_row(self, monkeypatch):
        """A written l = 3 power loads with both checks kept as supports,
        through the orthogonality check, and dumps back byte for byte."""
        code = css_power(steane(), 3)
        out = io.StringIO()
        css.dump_code(code, out, "cube")
        text = out.getvalue()
        real = gf2._SupportMatrix.data

        def refuse(self):
            if self.cols == code.n:
                raise AssertionError("built an int row of a loaded check")
            return real.fget(self)

        monkeypatch.setattr(gf2._SupportMatrix, "data", property(refuse))
        loaded = css.code_from_json(json.loads(text))
        assert type(loaded.h_x) is type(loaded.h_z) is gf2._SupportMatrix
        again = io.StringIO()
        css.dump_code(loaded, again, "cube")
        assert again.getvalue() == text
        monkeypatch.undo()
        assert loaded == code
        bad = json.loads(text)
        bad["h_z"]["support"][0].append(bad["h_z"]["support"][0].pop(0) + 1)
        with pytest.raises(OrthogonalityViolation):
            css.code_from_json(bad)

    def test_from_support_keeps_its_input_rules(self):
        """Repeated and unsorted indices are accepted, bools act as 0 and 1,
        and the rows come out as ascending int supports."""
        m = BinMatrix.from_support(3, 5, [[4, 1, 4, True], [False, 0], []])
        assert type(m) is gf2._SupportMatrix
        assert m.support() == [(1, 4), (0,), ()]
        assert all(type(j) is int for row in m.support() for j in row)
        assert m == BinMatrix(3, 5, (0b10010, 0b1, 0))

    @pytest.mark.parametrize("rows, cols, support, error", [
        (1, 3, 5, TypeError),  # the CLI's support-not-a-list file
        (2, 3, [[0]], gf2.DimensionMismatch),
        (1, 3, [[3]], ValueError),
        (1, 3, [[-1]], ValueError),
        (1, 3, [[7.5]], ValueError),
        (1, 3, [[0, 5, "a"]], ValueError),  # the first bad index decides
        (1, -1, [[]], ValueError),
        (1, 3, [[1.5]], TypeError),
        (1, 3, [[1.0]], TypeError),
        (1, 3, [["1"]], TypeError),
        (1, 3, [[None]], TypeError),
        (1, 3, [[[1]]], TypeError),
        (1, 3, [5], TypeError),
        (1, 3, [{"a": 1}], TypeError),
    ], ids=["support-not-a-list", "row-count", "index-too-big", "index-negative",
            "float-out-of-range", "first-bad-index-decides", "negative-cols", "fraction",
            "integral-float", "string", "null", "nested-list", "row-not-a-list",
            "row-an-object"])
    def test_from_support_rejects_malformed_rows(self, rows, cols, support, error):
        with pytest.raises(error) as caught:
            BinMatrix.from_support(rows, cols, support)
        assert type(caught.value) is error
        obj = {"h_x": {"rows": rows, "cols": cols, "support": support},
               "h_z": {"rows": 0, "cols": 3, "support": []}}
        with pytest.raises(ValueError, match="^malformed field 'h_x'"):
            css.code_from_json(obj)

    def test_declared_n_checked(self):
        obj = css.code_to_json(steane(), "steane")
        obj["n"] = 8
        with pytest.raises(ValueError):
            css.code_from_json(obj)
