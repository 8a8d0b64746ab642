"""Generators for the code families handled by this package.

Every constructor funnels through a validated CSS constructor:
``css.from_matrices``, so any pairing that violates ``h_x . h_z^T = 0``
fails loudly with a witness row pair instead of producing a non-code,
or, for hypergraph products, ``css.from_complex``.  ``parse_family_spec``
reads a family spec string with one grammar from one table,
``_FAMILIES``, where each family declares its tokens, keys and builder.
"""

from __future__ import annotations

import itertools

from . import css, gf2
from .chain import ChainComplex
from .css import CssCode
from .gf2 import BinMatrix


class FamilyParseError(ValueError):
    """A family spec string could not be parsed."""


class NotADivisor(ValueError):
    """The given polynomial does not divide x^n - 1 over GF(2)."""


# -- Hamming / Steane -----------------------------------------------------


def hamming_parity_check(m: int) -> BinMatrix:
    """m x (2^m - 1) parity check whose columns are the nonzero m-bit words.

    Column j holds the binary representation of j + 1, so row b is set
    exactly where bit b of the column index (1-based) is set.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if m > 24:
        raise ValueError("m too large for dense construction")
    n = (1 << m) - 1
    rows = []
    for b in range(m):
        bits = 0
        for j in range(n):
            if ((j + 1) >> b) & 1:
                bits |= 1 << j
        rows.append(bits)
    return BinMatrix(m, n, tuple(rows))


def hamming_css(m: int) -> CssCode:
    """Self-dual-check CSS code from a Hamming parity check (needs m >= 3)."""
    h = hamming_parity_check(m)
    return css.from_matrices(h, h)


def steane() -> CssCode:
    """The [[7, 1, 3]] code: both checks equal to the m = 3 Hamming matrix."""
    return hamming_css(3)


# -- classical codes as complexes ------------------------------------------


def classical_as_complex(h: BinMatrix, orientation: str = "ker") -> ChainComplex:
    """A parity check as a 2-term complex.

    ``ker`` puts the code space at degree 1 (F^n -> F^r with map h);
    ``im`` uses the transposed grading (F^r -> F^n with map h^T).
    """
    if orientation == "ker":
        return ChainComplex((h.rows, h.cols), (h,))
    if orientation == "im":
        return ChainComplex((h.cols, h.rows), (gf2.transpose(h),))
    raise ValueError(f"orientation must be 'ker' or 'im', got {orientation!r}")


def tillich_zemor(h1: BinMatrix, h2: BinMatrix) -> CssCode:
    """Hypergraph product of two classical codes as a tensor of 2-term complexes.

    For full-rank r x n checks paired with themselves this gives
    n^2 + r^2 qubits and (n - r)^2 logical qubits.  A 2-term complex has
    no two maps to compose, so both factors are valid and the product's
    checks are orthogonal without a check (see the ``chain`` module).
    """
    return css.from_complex(classical_as_complex(h1, "ker"), classical_as_complex(h2, "im"))


# -- Reed-Muller ------------------------------------------------------------


def reed_muller_generator(r: int, m: int) -> BinMatrix:
    """Generator matrix of RM(r, m): evaluations of monomials of degree <= r.

    Monomials are ordered by degree, then lexicographically by their
    variable index tuple; column p assigns bit i of p to variable i.
    """
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    n = 1 << m
    monomials = [c for deg in range(r + 1) for c in itertools.combinations(range(m), deg)]
    rows = []
    for mono in monomials:
        bits = 0
        for p in range(n):
            if all((p >> i) & 1 for i in mono):
                bits |= 1 << p
        rows.append(bits)
    return BinMatrix(len(rows), n, tuple(rows))


def quantum_reed_muller(m: int, r1: int, r2: int) -> CssCode:
    """CSS code with h_x = RM(r1, m) and h_z = RM(r2, m) generators.

    Needs r1 + r2 <= m - 1 so the rows are orthogonal (every monomial of
    degree < m sums to zero over all points); violating the precondition
    trips the orthogonality validator.  k = 2^m - sum_{i<=r1} C(m, i)
    - sum_{i<=r2} C(m, i).
    """
    return css.from_matrices(reed_muller_generator(r1, m), reed_muller_generator(r2, m))


# -- cyclic codes ------------------------------------------------------------
#
# Polynomials over GF(2) pack their coefficients into an int, lowest
# degree first (bit i = coefficient of x^i).


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_divmod(f: int, g: int) -> tuple[int, int]:
    """Quotient and remainder of f divided by a nonzero g."""
    q, dg = 0, poly_degree(g)
    while f and poly_degree(f) >= dg:
        shift = poly_degree(f) - dg
        q |= 1 << shift
        f ^= g << shift
    return q, f


def poly_reverse(p: int, degree: int) -> int:
    out = 0
    for i in range(degree + 1):
        if (p >> i) & 1:
            out |= 1 << (degree - i)
    return out


def circulant(first_row: int, n: int) -> BinMatrix:
    """All n cyclic shifts of a length-n coefficient row."""
    mask = (1 << n) - 1
    rows = []
    row = first_row & mask
    for _ in range(n):
        rows.append(row)
        row = ((row << 1) | (row >> (n - 1))) & mask
    return BinMatrix(n, n, tuple(rows))


def cyclic_parity_circulant(n: int, g: int) -> BinMatrix:
    """Parity-check circulant of the cyclic code generated by g.

    Rows are the n shifts of the reciprocal of h = (x^n - 1) / g, reduced
    modulo x^n - 1 (zero for g = 1); the row space is the dual code, so
    the rank equals deg(g).  All n shifts are kept to preserve cyclic
    symmetry and constant row weight.
    """
    if n % 2 == 0:
        raise ValueError("n must be odd")
    modulus = (1 << n) | 1
    # Dividing by a zero g would never end.
    h, rest = poly_divmod(modulus, g) if g else (0, modulus)
    if rest:
        raise NotADivisor(f"g (bits {g:b}) does not divide x^{n} - 1")
    _, first_row = poly_divmod(poly_reverse(h, poly_degree(h)), modulus)
    return circulant(first_row, n)


def cyclic_css(n: int, g1: int, g2: int) -> CssCode:
    """CSS code from two cyclic codes via their parity circulants.

    Both generators must divide x^n - 1 (checked by polynomial division);
    the CSS condition, equivalently dual containment of the two cyclic
    codes, is validated numerically and reported with a witness row pair
    on failure.
    """
    h_x = cyclic_parity_circulant(n, g1)
    h_z = cyclic_parity_circulant(n, g2)
    return css.from_matrices(h_x, h_z)


# -- finite geometries --------------------------------------------------------


_PRIMITIVE_POLYS = {
    # coefficients low degree first over the prime subfield, as digit ints
    4: (2, [1, 1, 1]),  # x^2 + x + 1 over GF(2)
    8: (2, [1, 1, 0, 1]),  # x^3 + x + 1
    9: (3, [2, 2, 1]),  # x^2 + 2x + 2 over GF(3)
    16: (2, [1, 1, 0, 0, 1]),  # x^4 + x + 1
}

SUPPORTED_GEOMETRY_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def _field_tables(q: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables ``add[a][b]``, ``mul[a][b]`` of GF(q), q <= 16.

    Elements are integers 0..q-1 read as base-p digit vectors over the
    prime subfield, which fixes a canonical element order shared by every
    run; products are reduced by the fixed primitive polynomial of q.  A
    prime q is the one-digit case: a product of two digits never reaches
    degree 1, so its polynomial x is never used.
    """
    if q not in SUPPORTED_GEOMETRY_ORDERS:
        raise ValueError(f"unsupported field order {q}")
    p, poly = _PRIMITIVE_POLYS.get(q, (q, [0, 1]))
    e = len(poly) - 1

    def digits(a: int) -> list[int]:
        return [a // p**i % p for i in range(e)]

    def undigits(ds: list[int]) -> int:
        return sum(d * p**i for i, d in enumerate(ds))

    def poly_mul(a: int, b: int) -> int:
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        # reduce by the primitive polynomial (monic of degree e)
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * poly[j]) % p
        return undigits(prod[:e])

    add = [
        [undigits([(x + y) % p for x, y in zip(digits(a), digits(b))]) for b in range(q)]
        for a in range(q)
    ]
    return add, [[poly_mul(a, b) for b in range(q)] for a in range(q)]


def _pg_points(q: int) -> list[tuple[int, int, int]]:
    """Normalized homogeneous triples, first nonzero coordinate = 1."""
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts += [(0, 1, b) for b in range(q)]
    pts.append((0, 0, 1))
    return pts


def finite_geometry_incidence(kind: str, q: int) -> BinMatrix:
    """Line-by-point incidence matrix of PG(2, q) or EG(2, q).

    PG lines reuse the canonical point order by duality; EG points are
    affine pairs (a, b) ordered by a * q + b, with the q^2 sloped lines
    first and the q vertical lines last.  Determinism comes from the
    fixed primitive polynomial per field order.
    """
    add, mul = _field_tables(q)
    if kind == "pg":
        pts = _pg_points(q)
        rows = []
        for (u, v, w) in pts:
            bits = 0
            for jPt, (x, y, z) in enumerate(pts):
                s = add[add[mul[u][x]][mul[v][y]]][mul[w][z]]
                if s == 0:
                    bits |= 1 << jPt
            rows.append(bits)
        return BinMatrix(len(pts), len(pts), tuple(rows))
    if kind == "eg":
        n_pts = q * q

        def pt(a: int, b: int) -> int:
            return a * q + b

        rows = []
        for m in range(q):
            for c in range(q):
                bits = 0
                for a in range(q):
                    b = add[mul[m][a]][c]
                    bits |= 1 << pt(a, b)
                rows.append(bits)
        for c in range(q):
            bits = 0
            for b in range(q):
                bits |= 1 << pt(c, b)
            rows.append(bits)
        return BinMatrix(q * q + q, n_pts, tuple(rows))
    raise ValueError(f"kind must be 'pg' or 'eg', got {kind!r}")


def _complement(m: BinMatrix) -> BinMatrix:
    mask = (1 << m.cols) - 1
    return BinMatrix(m.rows, m.cols, tuple(r ^ mask for r in m.data))


_GEOMETRY_VARIANTS = {
    "incidence": lambda m: m,
    "transpose": gf2.transpose,
    "complement": _complement,
    "complement-transpose": lambda m: _complement(gf2.transpose(m)),
    "none": lambda m: None,
}


def finite_geometry_css(
    kind: str, q: int, pairing: tuple[str, str] = ("complement", "incidence")
) -> CssCode:
    """CSS code from a finite-geometry incidence matrix and a pairing choice.

    Each pairing entry picks the matrix used as h_x / h_z from the
    incidence matrix.  Any choice that fails the CSS condition is
    rejected with an orthogonality witness; the default pairs the
    complement of the PG(2, q) incidence with the incidence itself,
    which is orthogonal exactly for even q (two projective lines meet in
    one point, and line size q + 1 is odd).  "none" is an empty check as
    wide as its partner (as the incidence when both are "none").
    """
    incidence = finite_geometry_incidence(kind, q)
    for variant in pairing:
        if variant not in _GEOMETRY_VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; pick from {tuple(_GEOMETRY_VARIANTS)}")
    pair = [_GEOMETRY_VARIANTS[variant](incidence) for variant in pairing]
    cols = next((m.cols for m in pair if m is not None), incidence.cols)
    h_x, h_z = (BinMatrix.zeros(0, cols) if m is None else m for m in pair)
    return css.from_matrices(h_x, h_z)


# -- family spec strings -------------------------------------------------------


def _classical_matrix(token: str) -> BinMatrix:
    if token.startswith("hamming"):
        return hamming_parity_check(int(token[len("hamming") :]))
    if token.startswith("rep"):
        n = int(token[len("rep") :])
        if n < 2:
            raise FamilyParseError("rep needs length >= 2")
        rows = [(1 << i) | (1 << (i + 1)) for i in range(n - 1)]
        return BinMatrix(n - 1, n, tuple(rows))
    raise FamilyParseError(f"unknown classical code token {token!r}")


# name: (number of positional tokens, what they are, keys with their
# defaults, builder).  A key whose default is None is required.  The builder
# takes the tokens, then the keys by name, all as the strings the spec gave.
_FAMILIES = {
    "steane": (0, "", {}, steane),
    "hamming": (0, "", {"m": None}, lambda m: hamming_css(int(m))),
    "tz": (2, "two classical codes", {},
           lambda h1, h2: tillich_zemor(_classical_matrix(h1), _classical_matrix(h2))),
    "rm": (0, "", dict.fromkeys(("m", "r1", "r2")),
           lambda m, r1, r2: quantum_reed_muller(int(m), int(r1), int(r2))),
    "cyclic": (0, "", dict.fromkeys(("n", "g1", "g2")),
               lambda n, g1, g2: cyclic_css(int(n), int(g1[::-1], 2), int(g2[::-1], 2))),
    "fg": (1, "a geometry kind, pg or eg", {"q": None, "hx": "complement", "hz": "incidence"},
           lambda kind, q, hx, hz: finite_geometry_css(kind, int(q), (hx, hz))),
}


def parse_family_spec(spec: str) -> CssCode:
    """Parse and build a family string.

    A spec is ``name[:tokens,key=value,...]``: the family's positional
    tokens come first, then ``key=value`` pairs, each a key the family
    declares, at most once.  Formats: ``steane``, ``hamming:m=4``,
    ``tz:hamming3,rep3``, ``rm:m=4,r1=1,r2=1``,
    ``cyclic:n=7,g1=1011,g2=1011`` (coefficient bits, lowest degree
    first), ``fg:pg,q=2[,hx=...,hz=...]``.

    A bad string, an undeclared, repeated or missing key, or a bad
    parameter raises FamilyParseError; a code that fails a validity
    predicate raises its constructor's own error.
    """
    head, _, body = spec.partition(":")
    name = head.strip()
    if name not in _FAMILIES:
        raise FamilyParseError(f"unknown family {name!r}")
    n_tokens, what, keys, build = _FAMILIES[name]
    parts = [part.strip() for part in body.split(",")] if body else []
    if len(parts) < n_tokens:
        raise FamilyParseError(f"{name} needs {what}")
    given: dict[str, str] = {}
    for part in parts[n_tokens:]:
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:
            raise FamilyParseError(f"expected key=value, got {part!r}")
        if key not in keys or key in given:
            verb = "repeats" if key in given else "has no"
            raise FamilyParseError(f"family {name!r} {verb} key {key!r}")
        given[key] = value.strip()
    values = {**keys, **given}
    missing = [key for key, value in values.items() if value is None]
    if missing:
        raise FamilyParseError(f"family {name!r} is missing {missing[0]!r}")
    try:
        return build(*parts[:n_tokens], **values)
    except ValueError as exc:
        if isinstance(exc, (css.OrthogonalityViolation, NotADivisor)):
            raise
        raise FamilyParseError(f"bad parameters for {name!r}: {exc}") from exc
