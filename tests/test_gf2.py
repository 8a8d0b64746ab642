"""Bit-packed GF(2) kernel tests."""

from __future__ import annotations

import copy
import pickle
import random

import pytest

from csstensor import gf2, rand
from csstensor.families import steane
from csstensor.gf2 import BinMatrix, BinVector
from csstensor.rand import random_matrix
from csstensor.tensorops import css_power


def hamming3() -> BinMatrix:
    rows = []
    for b in range(3):
        bits = 0
        for j in range(7):
            if ((j + 1) >> b) & 1:
                bits |= 1 << j
        rows.append(bits)
    return BinMatrix(3, 7, tuple(rows))


class TestRank:
    def test_identity(self):
        assert gf2.rank(BinMatrix.identity(3)) == 3

    def test_zero(self):
        assert gf2.rank(BinMatrix.zeros(4, 6)) == 0

    def test_hamming(self):
        assert gf2.rank(hamming3()) == 3

    def test_empty_shapes(self):
        assert gf2.rank(BinMatrix.zeros(0, 5)) == 0
        assert gf2.rank(BinMatrix.zeros(5, 0)) == 0


class TestKernel:
    def test_injective(self):
        k = gf2.kernel_basis(BinMatrix.identity(3))
        assert (k.rows, k.cols) == (0, 3)

    def test_zero_map(self):
        k = gf2.kernel_basis(BinMatrix.zeros(2, 3))
        assert k.rows == 3
        assert gf2.rank(k) == 3

    def test_no_rows_gives_full_domain(self):
        k = gf2.kernel_basis(BinMatrix.zeros(0, 4))
        assert k.rows == 4 and gf2.rank(k) == 4

    def test_hamming_kernel(self):
        h = hamming3()
        k = gf2.kernel_basis(h)
        assert k.rows == 4
        assert gf2.matmul(k, gf2.transpose(h)).is_zero()

    def test_h_times_kernel_transpose_is_zero(self):
        h = hamming3()
        assert gf2.matmul(h, gf2.transpose(gf2.kernel_basis(h))).is_zero()


class TestRowspaceContains:
    def test_zero_vector(self):
        m = random_matrix(random.Random(1), 3, 5)
        assert gf2.rowspace_contains(m, BinVector(5, 0))

    def test_identity(self):
        assert gf2.rowspace_contains(BinMatrix.identity(3), BinVector.from_support(3, [0, 1]))

    def test_weight_one_not_in_simplex(self):
        # the row space of the Hamming check has minimum weight 4
        assert not gf2.rowspace_contains(hamming3(), BinVector(7, 1))

    def test_dimension_mismatch(self):
        with pytest.raises(gf2.DimensionMismatch):
            gf2.rowspace_contains(BinMatrix.identity(3), BinVector(4, 1))

    def test_agrees_with_enumeration(self):
        rng = random.Random(42)
        for _ in range(100):
            rows = rng.randrange(0, 7)
            cols = rng.randrange(1, 8)
            m = random_matrix(rng, rows, cols)
            v = random_matrix(rng, 1, cols).data[0]
            expected = any(
                _combine(m.data, picks) == v for picks in range(1 << rows)
            )
            assert gf2.rowspace_contains(m, BinVector(cols, v)) == expected


def _combine(rows: tuple[int, ...], picks: int) -> int:
    out = 0
    for i, r in enumerate(rows):
        if (picks >> i) & 1:
            out ^= r
    return out


# -- reference oracle ------------------------------------------------------
#
# The column-scan Gauss-Jordan elimination the library used before its
# pivot-keyed routine, kept here as the reference.  The RREF of a row space
# under a column order is unique, so both must agree row for row.


def reference_rref(bitrows, cols, order=None):
    work = list(bitrows)
    pivots = []
    for col in range(cols) if order is None else order:
        bit = 1 << col
        pivot = next((r for r in range(len(pivots), len(work)) if work[r] & bit), None)
        if pivot is None:
            continue
        row_idx = len(pivots)
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        for r in range(len(work)):
            if r != row_idx and work[r] & bit:
                work[r] ^= work[row_idx]
        pivots.append(col)
    return work[: len(pivots)], pivots


def reference_kernel(bitrows, cols):
    rows, pivots = reference_rref(bitrows, cols)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = 1 << f
        for row, p in zip(rows, pivots):
            if (row >> f) & 1:
                vec |= 1 << p
        basis.append(vec)
    return basis


def permute_bits(bitrows, perm):
    """Move bit j of every row to bit perm[j], one set bit at a time."""
    out = []
    for row in bitrows:
        bits = 0
        while row:
            t = row.bit_length() - 1
            bits |= 1 << perm[t]
            row ^= 1 << t
        out.append(bits)
    return out


def reference_reduce(vec, bitrows, cols):
    for row, col in zip(*reference_rref(bitrows, cols)):
        if (vec >> col) & 1:
            vec ^= row
    return vec


def oracle_matrices():
    """Seeded shapes: empty, zero and duplicate rows, rank-deficient, tall, wide."""
    rng = random.Random(2024)
    mats = [BinMatrix.zeros(0, 5), BinMatrix.zeros(4, 0), BinMatrix.zeros(0, 0),
            BinMatrix.zeros(3, 6), BinMatrix(3, 4, (0b1011, 0b1011, 0b1011))]
    for _ in range(150):
        rows, cols = rng.randrange(0, 41), rng.randrange(1, 71)
        kind = rng.randrange(4)
        if kind == 0:
            m = random_matrix(rng, rows, cols, density=rng.choice([0.05, 0.2, 0.5]))
        elif kind == 1:  # rank at most `inner`: a product through a thin space
            inner = rng.randrange(0, 6)
            m = gf2.matmul(random_matrix(rng, rows, inner), random_matrix(rng, inner, cols))
        else:  # zero and repeated rows drawn from a small pool
            pool = [0] + list(random_matrix(rng, rng.randrange(1, 5), cols, 0.3).data)
            m = BinMatrix(rows, cols, tuple(rng.choice(pool) for _ in range(rows)))
        mats.append(m)
    return mats


class TestReferenceOracle:
    def test_rref_identical_rows_and_pivots(self):
        for m in oracle_matrices():
            assert gf2._rref_bitrows(m.data) == reference_rref(m.data, m.cols)
            assert gf2.rank(m) == len(reference_rref(m.data, m.cols)[1])

    def test_column_order_is_permute_eliminate_unpermute(self):
        rng = random.Random(7)
        for m in oracle_matrices():
            order = list(range(m.cols))
            rng.shuffle(order)
            position = [0] * m.cols
            for i, c in enumerate(order):
                position[c] = i
            rows, pivots = gf2._rref_bitrows(permute_bits(m.data, position))
            assert (permute_bits(rows, order), [order[p] for p in pivots]) == (
                reference_rref(m.data, m.cols, order)
            )

    def test_priority_rref_is_reference_mirrored(self):
        # The rows come back with column order[i] at bit n - 1 - i; moved
        # back, they and their pivots are the column scan under ``order``.
        rng = random.Random(13)
        for m in oracle_matrices():
            order = list(range(m.cols))
            rng.shuffle(order)
            supports = [gf2._support_of(row) for row in m.data]
            rows, pivots, bit = gf2._rref_by_priority(supports, order)
            assert (permute_bits(rows, order[::-1]), [order[i] for i in pivots]) == (
                reference_rref(m.data, m.cols, order)
            )
            assert bit == [1 << (m.cols - 1 - order.index(c)) for c in range(m.cols)]

    def test_kernel_and_membership(self):
        # Each vector also joins m as one more row, so the back-substitution
        # runs on rows and pivots that m alone does not give.
        rng = random.Random(11)
        for m in oracle_matrices():
            assert list(gf2.kernel_basis(m).data) == reference_kernel(m.data, m.cols)
            members = [rng.getrandbits(m.cols) for _ in range(4)]
            members += [r ^ rng.choice(m.data) for r in m.data[:4]]
            for v in members:
                residue = reference_reduce(v, m.data, m.cols)
                grown = m.data + (v,)
                assert gf2._rref_bitrows(grown) == reference_rref(grown, m.cols)
                basis, _ = gf2._kernel_bitrows(grown, gf2._mask(m.cols))
                assert basis == reference_kernel(grown, m.cols)
                assert gf2.rowspace_contains(m, BinVector(m.cols, v)) == (residue == 0)

    def test_steane_cube_checks(self):
        code = css_power(steane(), 3)
        assert code.n == 721
        for m in (code.h_x, code.h_z):
            assert gf2._rref_bitrows(m.data) == reference_rref(m.data, m.cols)
            assert list(gf2.kernel_basis(m).data) == reference_kernel(m.data, m.cols)


# -- low-bit loop oracle ---------------------------------------------------
#
# The library's order-free bit loops strip a row's top bit.  These are the
# loops they replaced, which strip the lowest bit with ``x & -x``; both must
# give the same supports, products, reduced rows, residues and kernels.


def lowbit_support(bits):
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def lowbit_matmul(a, b):
    out = []
    for row in a.data:
        acc = 0
        while row:
            low = row & -row
            acc ^= b.data[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return BinMatrix(a.rows, b.cols, tuple(out))


def lowbit_rref(bitrows):
    echelon = gf2._echelon(bitrows)
    pivots = sorted(echelon)
    done = 0
    for p in reversed(pivots):
        row = echelon[p]
        hit = row & done
        while hit:
            low = hit & -hit
            row ^= echelon[low.bit_length() - 1]
            hit ^= low
        echelon[p] = row
        done |= 1 << p
    return [echelon[p] for p in pivots], pivots


def lowbit_kernel(bitrows, columns):
    rows, pivots = lowbit_rref(bitrows)
    free = columns & ~sum(1 << p for p in pivots)
    basis = {}
    rest = free
    while rest:
        low = rest & -rest
        basis[low.bit_length() - 1] = low
        rest ^= low
    for p, row in zip(pivots, rows):
        bit = 1 << p
        rest = row ^ bit
        while rest:
            low = rest & -rest
            basis[low.bit_length() - 1] |= bit
            rest ^= low
    return list(basis.values()), free


WIDTHS = (1, 63, 64, 65, 721, 8179)


def bit_loop_matrices():
    """Random rows at word-boundary and power widths, with zero rows, and
    the checks of the Steane cube."""
    rng = random.Random(8179)
    mats = []
    for cols in WIDTHS:
        for density in (2 / cols, 0.05, 0.5):
            m = random_matrix(rng, rng.randrange(1, 25), cols, density=min(density, 1.0))
            zero_at = rng.randrange(m.rows + 1)
            data = m.data[:zero_at] + (0,) + m.data[zero_at:]
            mats.append(BinMatrix(len(data), cols, data))
        mats.append(BinMatrix.zeros(3, cols))
    cube = css_power(steane(), 3)
    return mats + [cube.h_x, cube.h_z]


class TestLowBitOracle:
    def test_support_and_matmul(self):
        rng = random.Random(3)
        for m in bit_loop_matrices():
            for r in m.data:
                assert gf2._support_of(r) == lowbit_support(r)
            other = random_matrix(rng, m.cols, rng.randrange(0, 70), density=0.1)
            assert gf2.matmul(m, other) == lowbit_matmul(m, other)
            assert gf2.matmul(m, gf2.transpose(m)) == lowbit_matmul(m, gf2.transpose(m))

    def test_rref_reduce_and_kernel(self):
        # Each vector also joins m as one more row, so the back-substitution
        # runs on rows and pivots that m alone does not give.
        rng = random.Random(4)
        for m in bit_loop_matrices():
            assert gf2._rref_bitrows(m.data) == lowbit_rref(m.data)
            columns = gf2._mask(m.cols)
            assert gf2._kernel_bitrows(m.data, columns) == lowbit_kernel(m.data, columns)
            vecs = [0, rng.getrandbits(m.cols)] + [r ^ rng.getrandbits(m.cols) for r in m.data[:3]]
            for v in vecs + list(m.data[:5]):
                grown = m.data + (v,)
                assert gf2._rref_bitrows(grown) == lowbit_rref(grown)
                assert gf2._kernel_bitrows(grown, columns) == lowbit_kernel(grown, columns)


class TestTranspose:
    def test_entries_against_the_input(self):
        """Entry (i, j) of the input is entry (j, i) of the output, on every
        bit-loop matrix, on empty shapes and on matrices with zero rows."""
        rng = random.Random(5)
        sparse = random_matrix(rng, 30, 70, density=0.05)
        mats = bit_loop_matrices() + [
            BinMatrix.zeros(0, 0), BinMatrix.zeros(0, 5), BinMatrix.zeros(5, 0),
            BinMatrix.zeros(4, 9), BinMatrix(3, 9, (0, 1 << 8, 0)),
            BinMatrix(31, 70, sparse.data[:12] + (0,) + sparse.data[12:]),
        ]
        for m in mats:
            t = gf2.transpose(m)
            assert (t.rows, t.cols) == (m.cols, m.rows)
            for i, row in enumerate(m.data):
                for j in range(m.cols):
                    assert (row >> j) & 1 == (t.data[j] >> i) & 1


DENSITIES = (0.0, 0.02, 0.1, 0.3, 0.7, 1.0)


def twin_cases():
    """Random (rows, cols, int rows) up to 70 columns, empty to full, with
    zero rows and the empty shapes."""
    rng = random.Random(2570)
    cases = [(0, 0, ()), (0, 6, ()), (4, 0, (0,) * 4), (3, 9, (0, 1 << 8, 0))]
    for _ in range(150):
        m = random_matrix(rng, rng.randrange(0, 13), rng.randrange(1, 71), rng.choice(DENSITIES))
        cases.append((m.rows, m.cols, m.data))
    return rng, cases


def faces(rows, cols, data, rng):
    """Fresh copies of one matrix: built from its ints, through
    ``_of_supports``, and through ``from_support`` from shuffled supports
    with repeated indices."""
    supports = [[j for j in range(cols) if row >> j & 1] for row in data]
    messy = []
    for sup in supports:
        row = sup + rng.sample(sup, len(sup) // 2)
        rng.shuffle(row)
        messy.append(row)
    return [BinMatrix(rows, cols, data), BinMatrix._of_supports(rows, cols, supports),
            BinMatrix.from_support(rows, cols, messy)]


FACE_TYPES = (BinMatrix, gf2._SupportMatrix, gf2._SupportMatrix)


class TestTwinFaces:
    """A matrix built from ints and its twins built from supports agree on
    every reader, each twin read from the one face it was built with."""

    def test_readers_agree(self):
        rng, cases = twin_cases()
        for rows, cols, data in cases:
            supports = [tuple(j for j in range(cols) if row >> j & 1) for row in data]
            columns = [tuple(i for i, row in enumerate(data) if row >> j & 1) for j in range(cols)]
            for m, kind in zip(faces(rows, cols, data, rng), FACE_TYPES):
                assert m.row_weights() == list(map(len, supports))
                assert m.col_weights() == list(map(len, columns))
                assert m.is_zero() == (not any(data))
                assert m.support() == supports
                t = gf2.transpose(m)
                assert type(t) is gf2._SupportMatrix and (t.rows, t.cols) == (cols, rows)
                assert t.support() == columns and t.row_weights() == m.col_weights()
                assert type(m) is kind  # no reader above built the ints
                assert t.data == tuple(sum(1 << i for i in col) for col in columns)
                assert gf2.transpose(t) == m and m.data == data

    def test_matmul_each_operand_kind(self):
        rng, cases = twin_cases()
        for rows, cols, data in cases:
            inner = rng.randrange(0, 71)
            b = random_matrix(rng, cols, inner, rng.choice(DENSITIES))
            expected = []
            for row in data:
                acc = 0
                for t in range(cols):
                    if row >> t & 1:
                        acc ^= b.data[t]
                expected.append(acc)
            expected = BinMatrix(rows, inner, tuple(expected))
            for a, kind in zip(faces(rows, cols, data, rng), FACE_TYPES):
                for right in faces(cols, inner, b.data, rng):
                    product = gf2.matmul(a, right)
                    assert type(product) is BinMatrix and product == expected
                assert type(a) is kind  # the left operand is read as supports

    def test_equality_and_hash(self):
        rng, cases = twin_cases()
        for rows, cols, data in cases:
            twins = faces(rows, cols, data, rng) + faces(rows, cols, data, rng)
            for x in twins[:3]:
                for y in twins[3:]:
                    assert x == y and y == x and not x != y and hash(x) == hash(y)
            if rows and cols:
                i, j = rng.randrange(rows), rng.randrange(cols)
                flipped = data[:i] + (data[i] ^ 1 << j,) + data[i + 1:]
                for x, y in zip(faces(rows, cols, data, rng), faces(rows, cols, flipped, rng)):
                    assert x != y and not x == y
            assert faces(rows, cols, data, rng)[1] != BinMatrix.zeros(rows, cols + 1)


class TestKron:
    def test_unit(self):
        a = random_matrix(random.Random(2), 3, 4)
        assert gf2.kron(BinMatrix.identity(1), a) == a
        assert gf2.kron(a, BinMatrix.identity(1)) == a

    def test_identity_product(self):
        assert gf2.kron(BinMatrix.identity(2), BinMatrix.identity(2)) == BinMatrix.identity(4)

    def test_hand_expansion(self):
        a = BinMatrix.from_rows([[1, 1]])
        b = BinMatrix.from_rows([[1], [1]])
        assert gf2.kron(a, b) == BinMatrix.from_rows([[1, 1], [1, 1]])

    def test_index_ordering_left_major(self):
        a = BinMatrix.from_rows([[0, 1]])
        b = BinMatrix.from_rows([[1, 0]])
        k = gf2.kron(a, b)
        # entry ((0,0),(1,0)) at column 1*2+0 = 2
        assert k.support() == [(2,)]

    def test_associative(self):
        rng = random.Random(3)
        for _ in range(20):
            a = random_matrix(rng, rng.randrange(1, 3), rng.randrange(1, 3))
            b = random_matrix(rng, rng.randrange(1, 3), rng.randrange(1, 3))
            c = random_matrix(rng, rng.randrange(1, 3), rng.randrange(1, 3))
            assert gf2.kron(gf2.kron(a, b), c) == gf2.kron(a, gf2.kron(b, c))

    def test_mixed_product(self):
        rng = random.Random(4)
        for _ in range(30):
            a = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
            b = random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
            c = random_matrix(rng, a.cols, rng.randrange(1, 4))
            d = random_matrix(rng, b.cols, rng.randrange(1, 4))
            lhs = gf2.matmul(gf2.kron(a, b), gf2.kron(c, d))
            rhs = gf2.kron(gf2.matmul(a, c), gf2.matmul(b, d))
            assert lhs == rhs


class TestMatmulTransposeStack:
    def test_identity_matmul(self):
        m = random_matrix(random.Random(5), 3, 4)
        assert gf2.matmul(BinMatrix.identity(3), m) == m

    def test_transpose_zero(self):
        assert gf2.transpose(BinMatrix.zeros(2, 3)) == BinMatrix.zeros(3, 2)

    def test_transpose_involution(self):
        m = random_matrix(random.Random(6), 4, 7)
        assert gf2.transpose(gf2.transpose(m)) == m

    def test_dimension_mismatch(self):
        with pytest.raises(gf2.DimensionMismatch):
            gf2.matmul(BinMatrix.identity(3), BinMatrix.identity(4))


class TestInvariants:
    def test_rank_nullity_and_transpose_rank(self):
        rng = random.Random(7)
        for _ in range(300):
            m = random_matrix(rng, rng.randrange(0, 9), rng.randrange(1, 9))
            assert gf2.rank(m) + gf2.kernel_basis(m).rows == m.cols
            assert gf2.rank(m) == gf2.rank(gf2.transpose(m))

    def test_permutations_roundtrip(self):
        rng = random.Random(8)
        m = random_matrix(rng, 5, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        moved = permute_bits(m.data, perm)
        for i in range(5):
            for j in range(6):
                assert (moved[i] >> perm[j]) & 1 == (m.data[i] >> j) & 1
        inverse = [perm.index(j) for j in range(6)]
        assert tuple(permute_bits(moved, inverse)) == m.data


class TestValidation:
    def test_row_width_enforced(self):
        with pytest.raises(ValueError):
            BinMatrix(1, 2, (0b100,))
        for cols in WIDTHS:
            BinMatrix(2, cols, (1 << (cols - 1), 0))
            with pytest.raises(ValueError):
                BinMatrix(1, cols, (1 << cols,))
            with pytest.raises(ValueError):
                BinMatrix(1, cols, ((1 << cols) | 1,))
        assert BinMatrix(2, 0, (0, 0)).rows == 2
        for row in (1, 2, 1 << 70):
            with pytest.raises(ValueError):
                BinMatrix(1, 0, (row,))
        for row in (-1, -2, -(1 << 5)):
            with pytest.raises(ValueError):
                BinMatrix(1, 8, (row,))

    def test_row_width_checked_on_every_row(self):
        # a bad row anywhere among valid ones raises the one message
        valid = [0b101, 0b011, 0b110, 0b111]
        for bad in (0b1000, 1 << 70, -1):
            for pos in (0, 2, len(valid) - 1):
                data = list(valid)
                data[pos] = bad
                with pytest.raises(ValueError, match="^row has bits beyond declared width$"):
                    BinMatrix(len(data), 3, tuple(data))
        with pytest.raises(ValueError, match="^row has bits beyond declared width$"):
            BinMatrix(5, 3, (0b111, -4, 0b001, 0, 0b100))
        assert BinMatrix(0, 5, ()).data == ()
        assert BinMatrix(4, 3, tuple(valid)).data == tuple(valid)

    def test_vector_weight(self):
        v = BinVector.from_support(5, [0, 3])
        assert v.weight() == 2 and v.support() == [0, 3]


def produced_matrices():
    """Random shapes, the empty ones among them, each with the matrices every
    producer that skips ``BinMatrix.__init__``'s checks builds from it."""
    rng = random.Random(3202)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1)]
    shapes += [(rng.randrange(0, 7), rng.randrange(0, 9)) for _ in range(60)]
    for rows, cols in shapes:
        a = random_matrix(rng, rows, cols, rng.choice(DENSITIES))
        b = random_matrix(rng, cols, rng.randrange(0, 6), rng.choice(DENSITIES))
        yield [
            a, b, BinMatrix.zeros(rows, cols), BinMatrix.identity(cols), gf2.matmul(a, b),
            gf2.kron(a, b), gf2.kron(b, a), gf2.kernel_basis(a),
            rand._random_combinations(rng, gf2.kernel_basis(a), rng.randrange(0, 5)),
            *rand.random_complex(rng, (rows, cols, rng.randrange(0, 5))).boundaries,
        ]
        code = rand.random_css_code(rng, cols, rng.randrange(0, 4), rng.randrange(0, 4), min_k=0)
        yield [code.h_x, code.h_z]


class TestUncheckedProducers:
    """Matrices built by ``_of_rows`` are the values the checked
    constructor builds from the same rows."""

    def test_equal_to_the_checked_twin(self):
        for matrices in produced_matrices():
            for m in matrices:
                twin = BinMatrix(m.rows, m.cols, m.data)
                assert type(m) is BinMatrix and type(m.data) is tuple
                assert all(type(row) is int for row in m.data)
                assert m == twin and twin == m and hash(m) == hash(twin)
                assert repr(m) == repr(twin) and m.support() == twin.support()

    def test_immutable_copied_and_pickled_like_the_twin(self):
        for matrices in produced_matrices():
            for m in matrices:
                twin = BinMatrix(m.rows, m.cols, m.data)
                for field in ("rows", "cols", "data", "_supports"):
                    with pytest.raises(AttributeError):
                        setattr(m, field, getattr(m, field))
                    with pytest.raises(AttributeError):
                        delattr(m, field)
                for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
                    assert type(other) is BinMatrix
                    assert other == twin and hash(other) == hash(twin)
                assert {m: 1}[twin] == 1

    def test_negative_sizes_still_raise(self):
        rng = random.Random(5)
        calls = [
            lambda: BinMatrix.zeros(-1, 2),
            lambda: BinMatrix.zeros(2, -1),
            lambda: BinMatrix.identity(-1),
            lambda: random_matrix(rng, -1, 3),
            lambda: random_matrix(rng, 3, -1),
            lambda: rand.random_complex(rng, (-1, 2, 2)),
            lambda: rand.random_complex(rng, (2, -1, 2)),
            lambda: rand.random_complex(rng, (2, 2, -1)),
            lambda: rand.random_css_code(rng, -1, 1, 1),
            lambda: rand.random_css_code(rng, 4, -1, 1),
            lambda: rand.random_css_code(rng, 4, 1, -1),
            lambda: BinMatrix(-1, 2, ()),
            lambda: BinMatrix.from_support(0, -1, []),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^negative dimension$"):
                call()
