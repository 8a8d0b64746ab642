"""Chain complex tests: validity, homology, tensor windows, reduce."""

from __future__ import annotations

import copy
import hashlib
import itertools
import json
import pickle
import random

import pytest

from csstensor import chain, gf2, tensorops, verify
from csstensor.chain import BoundarySquareNonzero, ChainComplex, ShapeMismatch
from csstensor.families import hamming_parity_check
from csstensor.gf2 import BinMatrix
from csstensor.rand import random_complex, random_complex3, random_matrix
from test_gf2 import permute_bits
from test_tensorops import reduced_power_complex


def steane_complex() -> ChainComplex:
    h = hamming_parity_check(3)
    return ChainComplex((3, 7, 3), (h, gf2.transpose(h)))


def pivot_cancellation(x: ChainComplex) -> ChainComplex:
    """Reduce by cancelling unit pivots until every boundary map is zero.

    Each step takes the entry 1 with the lowest (degree, row, column)
    triple, removes that row/column pair of basis vectors and applies the
    Schur complement update to the pivot's own matrix; the two
    neighbouring maps only lose the paired row/column.
    """
    chain.validate(x)
    dims = list(x.dims)
    top = x.top_degree()
    bnd = {i: list(x.boundary(i).data) for i in range(1, top + 1)}

    def lowest_pivot():
        for d in range(1, top + 1):
            for r, row in enumerate(bnd[d]):
                if row:
                    return d, r, (row & -row).bit_length() - 1
        return None

    while (piv := lowest_pivot()) is not None:
        d, r, c = piv
        rows = bnd[d]
        piv_row = rows[r]
        for t in range(len(rows)):
            if t != r and rows[t] >> c & 1:
                rows[t] ^= piv_row
        del rows[r]
        low = (1 << c) - 1
        bnd[d] = [(row & low) | ((row >> 1) & ~low) for row in rows]
        if d + 1 <= top:
            del bnd[d + 1][c]
        if d - 1 >= 1:
            low_r = (1 << r) - 1
            bnd[d - 1] = [(row & low_r) | ((row >> 1) & ~low_r) for row in bnd[d - 1]]
        dims[d] -= 1
        dims[d - 1] -= 1
    boundaries = tuple(
        gf2.BinMatrix(dims[i - 1], dims[i], tuple(bnd[i])) for i in range(1, top + 1)
    )
    return ChainComplex(tuple(dims), boundaries)


def euler_characteristic(x: ChainComplex) -> int:
    return sum((-1) ** i * d for i, d in enumerate(x.dims))


def associativity_permutation(dx, dy, dz) -> list[tuple[int, ...]]:
    """Basis permutations carrying (X (x) Y) (x) Z onto X (x) (Y (x) Z).

    Entry ``perm[n][p]`` is the position in the right-associated basis of
    the left-associated basis vector ``p`` at degree ``n``.  Both orderings
    list the same (i, j, k) blocks, sorted by (i + j, i) on the left and by
    (i, j) on the right, with identical row-major indices inside a block.
    """
    tops = (len(dx) - 1, len(dy) - 1, len(dz) - 1)
    yz_layout = {}
    for mp in range(tops[1] + tops[2] + 1):
        table = {}
        off = 0
        for (j, k) in chain._compositions(tops[1:], mp):
            table[(j, k)] = off
            off += dy[j] * dz[k]
        yz_layout[mp] = (table, off)

    perms: list[tuple[int, ...]] = []
    for n in range(sum(tops) + 1):
        # Right association: X_i (x) (Y (x) Z)_{n-i} blocks by ascending i,
        # where a triple's vectors stride by the full (Y (x) Z) dimension.
        right_block_off = {}
        off = 0
        for i in range(len(dx)):
            mp = n - i
            if mp in yz_layout:
                right_block_off[i] = off
                off += dx[i] * yz_layout[mp][1]
        # Left association: the blocks in left-fold order, with (x, y, z)
        # row-major inside; every triple occupies a contiguous run.
        perm: list[int] = []
        for (i, j, k) in chain._compositions(tops, n):
            inner_off_table, inner_total = yz_layout[n - i]
            base = right_block_off[i] + inner_off_table[(j, k)]
            for x in range(dx[i]):
                for y in range(dy[j]):
                    row = base + x * inner_total + y * dz[k]
                    perm.extend(range(row, row + dz[k]))
        perms.append(tuple(perm))
    return perms


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def left_fold_compositions(tops, degree):
    """Brute force: every degree tuple, sorted by prefix sums, longest first."""
    brute = [c for c in itertools.product(*(range(t + 1) for t in tops)) if sum(c) == degree]
    return sorted(brute, key=lambda c: tuple(reversed(list(itertools.accumulate(c[:-1])))))


def kron_product(x: ChainComplex, y: ChainComplex) -> ChainComplex:
    """X (x) Y from gf2.kron with explicit identity matrices.

    Degree k lists the summands X_i (x) Y_{k-i} by ascending i; the block
    from (i, j) is kron(d_i, I) into (i - 1, j) and kron(I, d_j) into
    (i, j - 1), placed at the summands' row and column offsets.
    """

    def layout(k):
        offsets, off = {}, 0
        for i, a in enumerate(x.dims):
            if 0 <= k - i < len(y.dims):
                offsets[i, k - i] = off
                off += a * y.dims[k - i]
        return offsets, off

    layouts = [layout(k) for k in range(len(x.dims) + len(y.dims) - 1)]
    boundaries = []
    for k in range(1, len(layouts)):
        (sources, cols), (targets, height) = layouts[k], layouts[k - 1]
        rows = [0] * height
        for (i, j), col_off in sources.items():
            blocks = []
            if i:
                ident = gf2.BinMatrix.identity(y.dims[j])
                blocks.append(((i - 1, j), gf2.kron(x.boundaries[i - 1], ident)))
            if j:
                ident = gf2.BinMatrix.identity(x.dims[i])
                blocks.append(((i, j - 1), gf2.kron(ident, y.boundaries[j - 1])))
            for target, block in blocks:
                for r, row in enumerate(block.data, targets[target]):
                    rows[r] ^= row << col_off
        boundaries.append(gf2.BinMatrix(height, cols, tuple(rows)))
    return ChainComplex(tuple(off for _, off in layouts), tuple(boundaries))


class TestValidate:
    def test_single_space_ok(self):
        chain.validate(ChainComplex.single(1))

    def test_steane_ok(self):
        chain.validate(steane_complex())

    def test_square_nonzero_detected(self):
        one = gf2.BinMatrix.from_rows([[1]])
        bad = ChainComplex((1, 1, 1), (one, one))
        with pytest.raises(BoundarySquareNonzero) as err:
            chain.validate(bad)
        assert err.value.degree == 2

    def test_shape_mismatch_detected(self):
        with pytest.raises(ShapeMismatch) as err:
            chain.validate(ChainComplex((2, 3), (gf2.BinMatrix.zeros(1, 3),)))
        assert err.value.degree == 1


class TestHomology:
    def test_single_space(self):
        assert chain.homology_dims(ChainComplex.single(5)) == (5,)

    def test_steane_profile(self):
        assert chain.homology_dims(steane_complex()) == (0, 1, 0)

    def test_exact_two_term(self):
        x = ChainComplex((3, 3), (gf2.BinMatrix.identity(3),))
        assert chain.homology_dims(x) == (0, 0)

    def test_end_ranks_match_enumeration(self):
        # the maps at either end are zero; homology_dims ranks only the rest
        rng = random.Random(31)
        cases = [ChainComplex.single(0), ChainComplex.single(4)]
        cases += [
            ChainComplex((rows, cols), (random_matrix(rng, rows, cols),))
            for rows, cols in [(0, 3), (3, 0), (0, 0), (2, 5), (5, 2), (4, 4)]
        ]
        empty_ends = [(0, 3, 2), (2, 3, 0), (0, 0, 0), (0, 4, 0)]
        cases += [random_complex(rng, dims) for dims in empty_ends]
        for x in cases:
            ranks = [
                verify._rank_by_enumeration(x.boundary(i)) for i in range(len(x.dims) + 1)
            ]
            expected = tuple(d - ranks[i] - ranks[i + 1] for i, d in enumerate(x.dims))
            assert chain.homology_dims(x) == expected, x.dims

    def test_euler_characteristic_alternating_sum(self):
        rng = random.Random(3)
        for _ in range(50):
            x = random_complex3(rng, 5)
            h = chain.homology_dims(x)
            euler = sum((-1) ** i * d for i, d in enumerate(x.dims))
            assert sum((-1) ** i * v for i, v in enumerate(h)) == euler


class TestTensor:
    def test_unit_is_identity(self):
        x = steane_complex()
        unit = ChainComplex.single(1)
        assert chain.tensor() == unit
        assert chain.tensor(x, unit) == x
        assert chain.tensor(unit, x) == x

    def test_dims_convolve(self):
        x = steane_complex()
        product = chain.tensor(x, x)
        assert product.dims == (9, 42, 67, 42, 9)
        assert product.dims == chain.tensor_dims(x.dims, x.dims)

    def test_tensor_dims_variadic(self):
        # Like chain.tensor: the empty product is F at degree 0, one profile
        # is itself, and more fold pairwise from the left.
        assert chain.tensor_dims() == (1,) == chain.tensor().dims
        rng = random.Random(23)
        for _ in range(60):
            profiles = [
                tuple(rng.randrange(0, 5) for _ in range(rng.randrange(1, 6)))
                for _ in range(rng.randrange(1, 5))
            ]
            assert chain.tensor_dims(profiles[0]) == profiles[0]
            folded = (1,)
            for p in profiles:
                folded = convolve(folded, p)
            assert chain.tensor_dims(*profiles) == folded
            pairwise = profiles[0]
            for p in profiles[1:]:
                pairwise = chain.tensor_dims(pairwise, p)
            assert pairwise == folded
        factors = [random_complex3(rng, 3) for _ in range(3)]
        assert chain.tensor(*factors).dims == chain.tensor_dims(*(f.dims for f in factors))

    def test_product_valid_and_kunneth(self):
        rng = random.Random(4)
        for _ in range(60):
            x = random_complex3(rng, 5)
            y = random_complex3(rng, 5)
            product = chain.tensor(x, y)
            chain.validate(product)
            assert chain.homology_dims(product) == convolve(
                chain.homology_dims(x), chain.homology_dims(y)
            )

    def test_euler_multiplies(self):
        rng = random.Random(5)
        for _ in range(20):
            x = random_complex3(rng, 4)
            y = random_complex3(rng, 4)
            assert euler_characteristic(chain.tensor(x, y)) == (
                euler_characteristic(x) * euler_characteristic(y)
            )

    def test_matches_explicit_kron_oracle(self):
        rng = random.Random(32)
        pairs = [(random_complex3(rng, 4), random_complex3(rng, 4)) for _ in range(40)]
        zero_dims = [(0, 2, 3), (3, 2, 0), (0, 0, 0), (0, 3, 0), (2, 0, 2)]
        pairs += [(random_complex(rng, d), random_complex3(rng, 3)) for d in zero_dims]
        pairs += [(random_complex3(rng, 3), random_complex(rng, d)) for d in zero_dims]
        pairs += [
            (ChainComplex.single(2), random_complex3(rng, 3)),
            (random_complex3(rng, 3), ChainComplex.single(3)),
            (ChainComplex((2, 3), (random_matrix(rng, 2, 3),)), random_complex3(rng, 3)),
        ]
        assert len(pairs) >= 50
        for x, y in pairs:
            assert chain.tensor(x, y) == kron_product(x, y), (x.dims, y.dims)

    def test_associativity_up_to_permutation(self):
        rng = random.Random(6)
        for _ in range(40):
            x, y, z = (random_complex3(rng, 3) for _ in range(3))
            lhs = chain.tensor(chain.tensor(x, y), z)
            rhs = chain.tensor(x, chain.tensor(y, z))
            assert lhs.dims == rhs.dims
            assert chain.homology_dims(lhs) == chain.homology_dims(rhs)
            perms = associativity_permutation(x.dims, y.dims, z.dims)
            for i in range(1, len(lhs.dims)):
                cols_moved = permute_bits(lhs.boundary(i).data, perms[i])
                moved = [0] * len(cols_moved)
                for row, target in zip(cols_moved, perms[i - 1]):
                    moved[target] = row
                assert tuple(moved) == rhs.boundary(i).data


class TestWindow:
    def test_compositions_in_left_fold_order(self):
        # the left fold sorts summands by their prefix sums, longest first
        def fold_key(c):
            return tuple(reversed(list(itertools.accumulate(c[:-1]))))

        for tops in [(2,), (2, 2), (1, 2), (2, 0, 1), (2, 2, 2), (1, 3, 2, 2)]:
            for degree in range(-1, sum(tops) + 2):
                brute = [
                    c
                    for c in itertools.product(*(range(t + 1) for t in tops))
                    if sum(c) == degree
                ]
                assert chain._compositions(tops, degree) == sorted(brute, key=fold_key)

    def test_compositions_match_brute_force(self):
        for length in range(6):
            for tops in itertools.product(range(3), repeat=length):
                for degree in range(-1, sum(tops) + 2):
                    expected = left_fold_compositions(tops, degree)
                    assert chain._compositions(tops, degree) == expected
                    assert chain._compositions(list(tops), degree) == expected

    def test_compositions_survive_caller_mutation(self):
        for tops, degree in [((2, 2), 2), ((2, 2, 2), 3), ((1,), 1), ((), 0)]:
            first = chain._compositions(tops, degree)
            expected = list(first)
            first.append((9,) * len(tops))
            first.reverse()
            again = chain._compositions(tops, degree)
            assert again == expected and again is not first
            again.clear()
            assert chain._compositions(tops, degree) == expected
        # a mutated prefix list does not leak into longer tuples either
        chain._compositions((2, 2), 1).clear()
        assert chain._compositions((2, 2, 1), 2) == left_fold_compositions((2, 2, 1), 2)

    def test_multi_factor_is_left_fold(self):
        rng = random.Random(13)
        for _ in range(30):
            x, y, z = (random_complex3(rng, 4) for _ in range(3))
            assert chain.tensor(x, y, z) == chain.tensor(chain.tensor(x, y), z)
        w = random_complex3(rng, 3)
        assert chain.tensor(x, y, z, w) == chain.tensor(chain.tensor(x, y, z), w)

    def test_every_window_is_a_slice(self):
        rng = random.Random(14)
        for factors in range(1, 4):
            for _ in range(8):
                xs = [random_complex3(rng, 4) for _ in range(factors)]
                full = chain.tensor(*xs)
                if factors == 1:
                    assert full == xs[0]
                for lo in range(len(full.dims)):
                    for hi in range(lo, len(full.dims)):
                        window = chain.tensor(*xs, lo=lo, hi=hi)
                        assert window.dims == full.dims[lo : hi + 1]
                        assert window.boundaries == full.boundaries[lo:hi]

    def test_steane_cube_window_pinned(self):
        # block ordering of the ell = 3 power, fixed bit for bit
        w = tensorops.power_complex_window(steane_complex(), 3, 2, 4)
        assert w.dims == (522, 721, 522)
        payload = json.dumps([w.dims, [b.support() for b in w.boundaries]], separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == (
            "90a56a45d7f1ad3874d7ba7a3b488a8ba9f18b7ec3b50733b1b656262357d334"
        )


class TestTensorChecks:
    """The map at one degree and the transposed map above it, without the window."""

    @staticmethod
    def random_factor(rng):
        """A valid complex of one to five terms, zero dims included."""
        kind = rng.randrange(4)
        if kind == 0:
            return ChainComplex.single(rng.randrange(0, 4))
        if kind == 1:
            dims = (rng.randrange(0, 4), rng.randrange(0, 4))
            return ChainComplex(dims, (random_matrix(rng, *dims),))
        if kind == 2:
            return random_complex(rng, tuple(rng.randrange(0, 5) for _ in range(3)))
        return chain.tensor(random_complex3(rng, 2), random_complex3(rng, 2))

    def test_pair_is_the_window_maps(self):
        rng = random.Random(41)
        for count in range(1, 5):
            for _ in range(25 if count < 4 else 8):
                xs = [self.random_factor(rng) for _ in range(count)]
                top = sum(x.top_degree() for x in xs)
                for degree in range(top + 1):
                    w = chain.tensor(*xs, lo=max(0, degree - 1), hi=min(top, degree + 1))
                    lower = degree - max(0, degree - 1)
                    expected = (w.boundary(lower), gf2.transpose(w.boundary(lower + 1)))
                    assert chain.tensor_checks(*xs, degree=degree) == expected, (
                        [x.dims for x in xs], degree,
                    )

    def test_steane_square_and_unit(self):
        x = steane_complex()
        h_x, h_z = chain.tensor_checks(x, x, degree=2)
        w = chain.tensor(x, x, lo=1, hi=3)
        assert (h_x, h_z) == (w.boundary(1), gf2.transpose(w.boundary(2)))
        assert (h_x.rows, h_x.cols, h_z.rows) == (42, 67, 42)
        assert chain.tensor_checks(degree=0) == (BinMatrix.zeros(0, 1), BinMatrix.zeros(0, 1))

    def test_degree_range_error(self):
        with pytest.raises(ValueError):
            chain.tensor_checks(steane_complex(), degree=3)
        with pytest.raises(ValueError):
            chain.tensor_checks(steane_complex(), steane_complex(), degree=-1)


def int_place_kron(rows: list[int], r0: int, c0: int, left: int, m: BinMatrix, right: int) -> None:
    """XOR ``kron(I_left, m, I_right)`` into int ``rows`` with its corner at (r0, c0).

    The int block writer that product assembly used before it wrote
    supports: each row of ``m`` is spread to stride ``right`` once and
    XOR-ed into its target rows at shifts ``c0 + a * m.cols * right + b``.
    """
    spread = []
    for row in m.data:
        bits = 0
        while row:
            t = row.bit_length() - 1
            bits |= 1 << (t * right)
            row ^= 1 << t
        spread.append(bits)
    s = r0
    for a in range(left):
        shift = a * m.cols * right + c0
        for srow in spread:
            for b in range(shift, shift + right):
                rows[s] ^= srow << b
                s += 1


def int_boundary_rows(factors, src, tgt, transposed=False) -> list[int]:
    """The int oracle of ``chain._boundary_rows``: the same blocks, XOR-ed as
    ints, the transposed map from factor maps transposed by ``gf2.transpose``."""
    tgt_offset, off = {}, 0
    for c, width in tgt.items():
        tgt_offset[c] = off
        off += width
    if transposed:
        maps = [tuple(map(gf2.transpose, f.boundaries)) for f in factors]
        rows = [0] * sum(src.values())
    else:
        maps = [f.boundaries for f in factors]
        rows = [0] * off
    src_off = 0
    for c, width in src.items():
        if width:
            left = 1
            for p, f in enumerate(factors):
                v = c[p]
                if v:
                    right = width // (left * f.dims[v])
                    t = tgt_offset[c[:p] + (v - 1,) + c[p + 1:]]
                    r0, c0 = (src_off, t) if transposed else (t, src_off)
                    int_place_kron(rows, r0, c0, left, maps[p][v - 1], right)
                left *= f.dims[v]
        src_off += width
    return rows


class TestSupportAssembler:
    """The support-writing block loop against the int one it replaced."""

    @staticmethod
    def products(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            xs = [TestTensorChecks.random_factor(rng) for _ in range(rng.randrange(1, 4))]
            if len(xs) > 1 and rng.random() < 0.3:
                xs = [xs[0]] * len(xs)  # a power: one factor object shared
            yield xs

    @staticmethod
    def oracle(xs, degree):
        """(boundary ``degree``, transposed boundary ``degree + 1``) as int rows."""
        below, here, above = (chain._summand_sizes(xs, k) for k in range(degree - 1, degree + 2))
        return (int_boundary_rows(xs, here, below),
                int_boundary_rows(xs, above, here, transposed=True))

    def test_checks_match_the_int_oracle_at_every_degree(self):
        seen = 0
        for xs in self.products(71, 120):
            top = sum(x.top_degree() for x in xs)
            for degree in range(top + 1):
                checks = chain.tensor_checks(*xs, degree=degree)
                for m, rows in zip(checks, self.oracle(xs, degree)):
                    assert type(m) is gf2._SupportMatrix
                    assert m.support() == [tuple(gf2._support_of(r)) for r in rows]
                    assert m.data == tuple(rows) and type(m) is BinMatrix
                    seen += m.rows
        assert seen > 5000

    def test_windows_match_the_int_oracle(self):
        for xs in self.products(72, 80):
            w = chain.tensor(*xs)
            sizes = [chain._summand_sizes(xs, k) for k in range(len(w.dims))]
            for k in range(1, len(w.dims)):
                rows = int_boundary_rows(xs, sizes[k], sizes[k - 1])
                b = w.boundary(k)
                assert b.support() == [tuple(gf2._support_of(r)) for r in rows]
                assert b.data == tuple(rows)

    def test_value_semantics_match_the_int_twin(self):
        for xs in self.products(73, 40):
            degree = sum(x.top_degree() for x in xs) // 2
            for side, rows in enumerate(self.oracle(xs, degree)):
                lazy = [chain.tensor_checks(*xs, degree=degree)[side] for _ in range(7)]
                twin = BinMatrix(lazy[0].rows, lazy[0].cols, tuple(rows))
                assert lazy[0] == twin and twin == lazy[1] and not lazy[2] != twin
                assert hash(lazy[3]) == hash(twin) and repr(lazy[4]) == repr(twin)
                assert {lazy[5]: 1}[twin] == 1
                for clone in (copy.copy(lazy[6]), copy.deepcopy(lazy[6]),
                              pickle.loads(pickle.dumps(lazy[6]))):
                    assert clone == twin and type(clone) is BinMatrix
                assert all(type(m) is BinMatrix for m in lazy)

    def test_accessors_build_no_int_row(self, monkeypatch):
        cases = []
        for xs in self.products(74, 60):
            for degree in range(sum(x.top_degree() for x in xs) + 1):
                ints = self.oracle(xs, degree)  # reads, so builds, every factor's ints
                sups = [[tuple(gf2._support_of(r)) for r in rows] for rows in ints]
                cases.append((xs, degree, sups))

        def refuse(self):
            raise AssertionError("int rows built")

        monkeypatch.setattr(gf2._SupportMatrix, "data", property(refuse))
        for xs, degree, supports in cases:
            for m, sups in zip(chain.tensor_checks(*xs, degree=degree), supports):
                assert m.support() == sups
                assert m.row_weights() == list(map(len, sups))
                columns = [0] * m.cols
                for sup in sups:
                    for j in sup:
                        columns[j] += 1
                assert m.col_weights() == columns
                assert m.is_zero() == (not any(sups))
                assert gf2.transpose(m).support() == [
                    tuple(i for i, sup in enumerate(sups) if j in sup) for j in range(m.cols)
                ]
                assert type(m) is gf2._SupportMatrix


class TestTruncate:
    """A window of one factor is a truncation."""

    def test_full_range_identity(self):
        x = steane_complex()
        assert chain.tensor(x, lo=0, hi=2) == x

    def test_steane_square_window(self):
        t = chain.tensor(steane_complex(), steane_complex(), lo=1, hi=3)
        assert t.dims == (42, 67, 42)

    def test_middle_homology_preserved(self):
        square = chain.tensor(steane_complex(), steane_complex())
        t = chain.tensor(steane_complex(), steane_complex(), lo=1, hi=3)
        assert chain.homology_dims(square)[2] == 1
        assert chain.homology_dims(t)[1] == 1

    def test_range_error(self):
        with pytest.raises(ValueError):
            chain.tensor(steane_complex(), lo=1, hi=3)
        with pytest.raises(ValueError):
            chain.tensor(steane_complex(), steane_complex(), lo=3, hi=2)


class TestReduce:
    def test_exact_complex_collapses(self):
        x = ChainComplex((4, 4), (gf2.BinMatrix.identity(4),))
        r = chain.reduce(x)
        assert r.dims == (0, 0)

    def test_no_boundary_fixed_point(self):
        x = ChainComplex.single(5)
        assert chain.reduce(x) == x
        z = ChainComplex((2, 3), (gf2.BinMatrix.zeros(2, 3),))
        assert chain.reduce(z) == z

    def test_homology_preserved_and_dims_shrink(self):
        rng = random.Random(7)
        for _ in range(80):
            x = random_complex3(rng, 6)
            r = chain.reduce(x)
            chain.validate(r)
            assert chain.homology_dims(r) == chain.homology_dims(x)
            assert all(a <= b for a, b in zip(r.dims, x.dims))

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(30):
            r = chain.reduce(random_complex3(rng, 6))
            assert chain.reduce(r).dims == r.dims

    def test_euler_preserved(self):
        rng = random.Random(9)
        for _ in range(30):
            x = random_complex3(rng, 6)
            assert euler_characteristic(chain.reduce(x)) == euler_characteristic(x)

    def test_steane_square_reduction(self):
        t = chain.tensor(steane_complex(), steane_complex(), lo=1, hi=3)
        r = chain.reduce(t)
        assert chain.homology_dims(r) == chain.homology_dims(t) == (9, 1, 9)
        # fully reduced: all maps zero, dims equal the homology profile
        assert r.dims == (9, 1, 9)
        assert all(r.boundary(i).is_zero() for i in range(1, 3))

    def test_deterministic(self):
        rng = random.Random(10)
        x = random_complex3(rng, 6)
        assert chain.reduce(x) == chain.reduce(x)

    def test_matches_pivot_cancellation_on_random_complexes(self):
        rng = random.Random(13)
        for _ in range(2000):
            x = random_complex3(rng, 6)
            assert chain.reduce(x) == pivot_cancellation(x)

    def test_matches_pivot_cancellation_on_products_and_windows(self):
        rng = random.Random(14)
        for _ in range(200):
            x, y = random_complex3(rng, 4), random_complex3(rng, 4)
            product = chain.tensor(x, y)
            assert chain.reduce(product) == pivot_cancellation(product)
            lo = rng.randrange(0, 4)
            window = chain.tensor(x, y, lo=lo, hi=rng.randrange(lo, 5))
            assert chain.reduce(window) == pivot_cancellation(window)
        square = chain.tensor(steane_complex(), steane_complex(), lo=1, hi=3)
        assert chain.reduce(square) == pivot_cancellation(square)

    def test_matches_pivot_cancellation_in_reduced_power(self, monkeypatch):
        reduce = chain.reduce
        seen = []

        def recording(x):
            seen.append(x)
            return reduce(x)

        monkeypatch.setattr(chain, "reduce", recording)
        reduced_power_complex(steane_complex(), 3)
        assert len(seen) == 3
        for x in seen:
            assert reduce(x) == pivot_cancellation(x)

    def test_verify_checks_reduce_without_homology_dims(self, monkeypatch):
        def failures(results):
            return {r.name: r.failures for r in results}

        clean = failures(verify.reduce_suite(103, 200))
        assert clean["chain/reduce_homology"] == 0
        homology_dims = chain.homology_dims

        def off_by_one(x):
            h = list(homology_dims(x))
            h[1] = max(h[1] - 1, 0)
            return tuple(h)

        monkeypatch.setattr(chain, "homology_dims", off_by_one)
        assert failures(verify.reduce_suite(103, 200))["chain/reduce_homology"] > 0

    def test_five_term_complexes(self):
        rng = random.Random(12)
        for _ in range(10):
            product = chain.tensor(random_complex3(rng, 4), random_complex3(rng, 4))
            r = chain.reduce(product)
            chain.validate(r)
            assert chain.homology_dims(r) == chain.homology_dims(product)
            assert all(r.boundary(i).is_zero() for i in range(1, len(r.dims)))
