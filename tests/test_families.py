"""Code family generators."""

from __future__ import annotations

import math

import pytest

from csstensor import chain, css, families, gf2
from csstensor.css import KIsZero, OrthogonalityViolation
from csstensor.families import (
    FamilyParseError,
    NotADivisor,
    classical_as_complex,
    cyclic_css,
    cyclic_parity_circulant,
    finite_geometry_css,
    finite_geometry_incidence,
    hamming_parity_check,
    parse_family_spec,
    quantum_reed_muller,
    reed_muller_generator,
    steane,
    tillich_zemor,
)
from csstensor.gf2 import BinMatrix


def quantum_reed_muller_k(m: int, r1: int, r2: int) -> int:
    """k of ``quantum_reed_muller(m, r1, r2)``: 2^m minus both RM dimensions."""
    return (1 << m) - sum(math.comb(m, i) for i in range(r1 + 1)) - sum(
        math.comb(m, i) for i in range(r2 + 1)
    )


class TestHamming:
    def test_m2_columns(self):
        assert hamming_parity_check(2) == BinMatrix.from_rows([[1, 0, 1], [0, 1, 1]])

    def test_m3_rank_and_weight(self):
        h = hamming_parity_check(3)
        assert gf2.rank(h) == 3
        assert set(h.row_weights()) == {4}

    def test_kernel_dimension(self):
        for m in (2, 3, 4):
            h = hamming_parity_check(m)
            assert gf2.kernel_basis(h).rows == (1 << m) - 1 - m

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            hamming_parity_check(1)


class TestSteane:
    def test_parameters(self):
        code = steane()
        assert code.n == 7
        assert css.dimension_k(code) == 1
        assert css.min_distance_exact(code, "X").value == 3
        assert css.min_distance_exact(code, "Z").value == 3

    def test_orthogonality(self):
        code = steane()
        assert gf2.matmul(code.h_x, gf2.transpose(code.h_z)).is_zero()


class TestClassicalAsComplex:
    def test_ker_side_homology(self):
        x = classical_as_complex(hamming_parity_check(3), "ker")
        assert chain.homology_dims(x) == (0, 4)

    def test_im_side_homology(self):
        x = classical_as_complex(hamming_parity_check(3), "im")
        assert chain.homology_dims(x) == (4, 0)

    def test_zero_matrix_full_homology(self):
        z = BinMatrix.zeros(2, 5)
        assert chain.homology_dims(classical_as_complex(z, "ker")) == (2, 5)
        assert chain.homology_dims(classical_as_complex(z, "im")) == (5, 2)


class TestTillichZemor:
    def test_hamming_square(self):
        h = hamming_parity_check(3)
        code = tillich_zemor(h, h)
        assert code.n == 58
        assert css.dimension_k(code) == 16

    def test_repetition_check(self):
        h = BinMatrix.from_rows([[1, 1]])
        code = tillich_zemor(h, h)
        assert code.n == 5
        assert css.dimension_k(code) == 1
        assert css.min_distance_exact(code, "X").value == 2
        assert css.min_distance_exact(code, "Z").value == 2

    def test_full_rank_parameter_formula(self):
        import random

        from csstensor.rand import random_matrix

        rng = random.Random(5)
        found = 0
        while found < 10:
            r, n = rng.randrange(1, 4), rng.randrange(2, 6)
            h = random_matrix(rng, r, n)
            if gf2.rank(h) != r or n <= r:
                continue
            found += 1
            code = tillich_zemor(h, h)
            assert code.n == n * n + r * r
            assert css.dimension_k(code) == (n - r) ** 2

    def test_checks_equal_the_product_complex_and_are_orthogonal(self):
        import random

        from csstensor.rand import random_matrix

        rng = random.Random(8)
        for _ in range(60):
            h1 = random_matrix(rng, rng.randrange(0, 4), rng.randrange(0, 6))
            h2 = random_matrix(rng, rng.randrange(0, 4), rng.randrange(0, 6))
            x = classical_as_complex(h1, "ker")
            y = classical_as_complex(h2, "im")
            code = tillich_zemor(h1, h2)
            assert code == css.from_complex(chain.tensor(x, y))
            assert css.from_matrices(code.h_x, code.h_z) == code

    def test_rank_deficient_kunneth(self):
        h = BinMatrix.from_rows([[1, 1, 0], [1, 1, 0]])  # rank 1
        code = tillich_zemor(h, h)
        # ker side: h = (cork, k) = (1, 2); im side: (2, 1)
        assert css.dimension_k(code) == 1 * 1 + 2 * 2


class TestReedMuller:
    def test_order_zero(self):
        g = reed_muller_generator(0, 3)
        assert g.rows == 1 and g.data[0] == (1 << 8) - 1

    def test_rm13_minimum_weight(self):
        g = reed_muller_generator(1, 3)
        assert (g.rows, g.cols) == (4, 8)
        weights = []
        for picks in range(1, 1 << 4):
            word = 0
            for i in range(4):
                if (picks >> i) & 1:
                    word ^= g.data[i]
            weights.append(word.bit_count())
        assert min(weights) == 4

    def test_full_order(self):
        g = reed_muller_generator(3, 3)
        assert gf2.rank(g) == 8

    def test_quantum_rm_parameters(self):
        code = quantum_reed_muller(4, 1, 1)
        assert code.n == 16
        assert css.dimension_k(code) == 6 == quantum_reed_muller_k(4, 1, 1)

    def test_k_zero_allowed_distance_refused(self):
        code = quantum_reed_muller(3, 1, 1)
        assert css.dimension_k(code) == 0
        with pytest.raises(KIsZero):
            css.min_distance_exact(code, "Z")

    def test_violation_detected(self):
        with pytest.raises(OrthogonalityViolation):
            quantum_reed_muller(3, 1, 2)

    def test_orthogonality_range(self):
        for m in range(2, 6):
            for r1 in range(m):
                for r2 in range(m - 1 - r1 + 1):
                    if r1 + r2 <= m - 1:
                        quantum_reed_muller(m, r1, r2)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            reed_muller_generator(4, 3)


class TestCyclic:
    def test_steane_equivalent(self):
        code = cyclic_css(7, 0b1011, 0b1011)
        reference = steane()
        assert code.n == reference.n == 7
        assert css.dimension_k(code) == 1
        for side in ("X", "Z"):
            assert (
                css.min_distance_exact(code, side).value
                == css.min_distance_exact(reference, side).value
            )

    def test_circulant_rank_is_generator_degree(self):
        # divisors of x^7 - 1: 1, x+1, two cubics, and products
        for g in (0b1, 0b11, 0b1011, 0b1101):
            m = cyclic_parity_circulant(7, g)
            assert gf2.rank(m) == families.poly_degree(g)

    def test_not_a_divisor(self):
        with pytest.raises(NotADivisor):
            cyclic_parity_circulant(7, 0b111)

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            cyclic_parity_circulant(6, 0b11)

    def test_g_one_full_space_validator_decides(self):
        # g1 = 1 generates everything; its parity circulant is zero, so any
        # partner passes; the resulting k equals the partner code dimension
        code = cyclic_css(7, 1, 0b1011)
        assert css.dimension_k(code) == 4

    def test_incompatible_pair_rejected(self):
        # x^7-1 as generator makes the dual the full space: never orthogonal
        with pytest.raises(OrthogonalityViolation):
            cyclic_css(7, (1 << 7) | 1, (1 << 7) | 1)

    def test_constant_row_weight(self):
        m = cyclic_parity_circulant(7, 0b1011)
        assert len(set(m.row_weights())) == 1


class TestFiniteGeometry:
    def test_fano(self):
        n = finite_geometry_incidence("pg", 2)
        assert (n.rows, n.cols) == (7, 7)
        assert set(n.row_weights()) == {3}
        assert set(n.col_weights()) == {3}

    def test_pg3(self):
        n = finite_geometry_incidence("pg", 3)
        assert (n.rows, n.cols) == (13, 13)
        assert set(n.row_weights()) == {4}

    def test_pg_pairwise_intersections(self):
        for q in (2, 3, 4):
            n = finite_geometry_incidence("pg", q)
            for i in range(n.rows):
                for j in range(i + 1, n.rows):
                    assert (n.data[i] & n.data[j]).bit_count() == 1

    def test_pg_prime_power_orders(self):
        for q in (4, 8, 9):
            n = finite_geometry_incidence("pg", q)
            assert n.rows == q * q + q + 1
            assert set(n.row_weights()) == {q + 1}
            assert set(n.col_weights()) == {q + 1}

    def test_eg22(self):
        n = finite_geometry_incidence("eg", 2)
        assert (n.rows, n.cols) == (6, 4)
        assert set(n.row_weights()) == {2}
        assert set(n.col_weights()) == {3}

    def test_eg_q3(self):
        n = finite_geometry_incidence("eg", 3)
        assert (n.rows, n.cols) == (12, 9)
        assert set(n.row_weights()) == {3}
        assert set(n.col_weights()) == {4}

    def test_unsupported_order(self):
        with pytest.raises(ValueError):
            finite_geometry_incidence("pg", 6)

    def test_naive_fano_pairing_rejected_with_witness(self):
        with pytest.raises(OrthogonalityViolation) as err:
            finite_geometry_css("pg", 2, ("incidence", "incidence"))
        assert err.value.witness is not None

    def test_default_pairing_accepted_even_orders(self):
        for q in (2, 4):
            code = finite_geometry_css("pg", q)
            assert code.n == q * q + q + 1

    def test_empty_selection_full_k(self):
        code = finite_geometry_css("pg", 2, ("none", "none"))
        assert css.dimension_k(code) == code.n == 7
        code = finite_geometry_css("eg", 2, ("none", "none"))
        assert css.dimension_k(code) == code.n == 4

    def test_pg_transposes_are_the_default(self):
        # a PG incidence is symmetric, so transposing changes nothing
        default = parse_family_spec("fg:pg,q=2")
        assert parse_family_spec("fg:pg,q=2,hx=complement-transpose,hz=transpose") == default


class TestParseFamilySpec:
    def test_steane(self):
        code = parse_family_spec("steane")
        assert code.n == 7

    def test_tz(self):
        code = parse_family_spec("tz:hamming3,hamming3")
        assert code.n == 58 and css.dimension_k(code) == 16

    def test_rm(self):
        code = parse_family_spec("rm:m=4,r1=1,r2=1")
        assert code.n == 16 and css.dimension_k(code) == 6

    def test_cyclic(self):
        code = parse_family_spec("cyclic:n=7,g1=1101,g2=1101")
        assert code.n == 7 and css.dimension_k(code) == 1

    def test_fg(self):
        code = parse_family_spec("fg:pg,q=2")
        assert code.n == 7

    def test_rep(self):
        code = parse_family_spec("tz:rep3,rep3")
        assert code.n == 13 and css.dimension_k(code) == 1

    def test_parse_errors(self):
        for bad in ("nope", "rm:m=4", "tz:hamming3", "cyclic:n=7,g1=xx,g2=1011"):
            with pytest.raises(FamilyParseError):
                parse_family_spec(bad)

    def test_construction_error_not_parse_error(self):
        with pytest.raises(OrthogonalityViolation):
            parse_family_spec("rm:m=3,r1=1,r2=2")


SPEC_TABLE_VALID = [
    ("steane", 7, 1),
    ("hamming:m=4", 15, 7),
    ("tz:hamming3,hamming3", 58, 16),
    ("tz:rep3,rep3", 13, 1),
    ("rm:m=4,r1=1,r2=1", 16, 6),
    ("cyclic:n=7,g1=1011,g2=1011", 7, 1),
    ("fg:pg,q=2", 7, 0),
    ("fg:pg,q=2,hx=complement,hz=incidence", 7, 0),
    ("fg:pg,q=2,hx=complement-transpose,hz=transpose", 7, 0),
    ("fg:eg,q=2,hx=transpose,hz=none", 6, 3),
    ("fg:eg,q=2,hx=none,hz=complement-transpose", 6, 3),
    ("fg:eg,q=3,hx=transpose,hz=none", 12, 3),
]

# Exception types and messages as the two-phase parser (parse, then build) gave them.
SPEC_TABLE_BAD = [
    ("nope", FamilyParseError, "unknown family 'nope'"),
    ("mystery:x=1", FamilyParseError, "unknown family 'mystery'"),
    ("rm:m=4", FamilyParseError, "family 'rm' is missing 'r1'"),
    ("rm:m4", FamilyParseError, "expected key=value, got 'm4'"),
    ("steane:x", FamilyParseError, "expected key=value, got 'x'"),
    ("tz:hamming3", FamilyParseError, "tz needs two classical codes"),
    ("tz:foo,bar", FamilyParseError,
     "bad parameters for 'tz': unknown classical code token 'foo'"),
    ("tz:rep1,rep3", FamilyParseError, "bad parameters for 'tz': rep needs length >= 2"),
    ("cyclic:n=7,g1=xx,g2=1011", FamilyParseError,
     "bad parameters for 'cyclic': invalid literal for int() with base 2: 'xx'"),
    ("fg:pg", FamilyParseError, "family 'fg' is missing 'q'"),
    ("fg:xx,q=2", FamilyParseError,
     "bad parameters for 'fg': kind must be 'pg' or 'eg', got 'xx'"),
    ("fg:pg,q=6", FamilyParseError, "bad parameters for 'fg': unsupported field order 6"),
    ("fg:pg,q=2,hx=dual", FamilyParseError,
     "bad parameters for 'fg': unknown variant 'dual'; pick from ('incidence', 'transpose', "
     "'complement', 'complement-transpose', 'none')"),
    ("hamming:m=1", FamilyParseError, "bad parameters for 'hamming': m must be >= 2"),
    ("rm:m=3,r1=1,r2=2", OrthogonalityViolation,
     "h_x row 1 and h_z row 6 overlap on an odd number of qubits"),
    ("cyclic:n=7,g1=111,g2=1011", NotADivisor, "g (bits 111) does not divide x^7 - 1"),
]


class TestParseFamilySpecTable:
    @pytest.mark.parametrize("spec, n, k", SPEC_TABLE_VALID, ids=[r[0] for r in SPEC_TABLE_VALID])
    def test_valid(self, spec, n, k):
        code = parse_family_spec(spec)
        assert (code.n, css.dimension_k(code)) == (n, k)

    @pytest.mark.parametrize("spec, error, message", SPEC_TABLE_BAD,
                             ids=[r[0] for r in SPEC_TABLE_BAD])
    def test_bad(self, spec, error, message):
        with pytest.raises(ValueError) as exc:
            parse_family_spec(spec)
        assert type(exc.value) is error
        assert str(exc.value) == message
