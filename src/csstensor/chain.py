"""Chain complexes over GF(2).

A complex is a graded list of F2 spaces with boundary maps composing to
zero.  Degree 0 is the rightmost space: a length-3 complex reads
``C_2 -> C_1 -> C_0`` with ``boundary(i)`` mapping degree i to degree
i - 1 (shape ``dims[i-1] x dims[i]``).  Working in characteristic 2, all
Koszul signs are dropped: the usual alternating signs in the tensor
differential are identically 1.

Summand ordering inside a tensor product is fixed once and for all:
``(X (x) Y)_k`` lists ``X_i (x) Y_j`` by increasing left degree ``i``, and
each summand uses left-factor-major Kronecker indexing.  A product of
more factors is the left fold of pairwise products.  This makes every
block matrix reproducible bit for bit.  One loop, ``_place_kron``, writes
each Kronecker block straight into the product's rows in one pass, and
two builders share it.  ``tensor`` assembles a window of degrees lo..hi:
truncations and the windows ``verify`` checks.
``tensor_checks`` gives the two maps at one degree, the second one
transposed, which is what a code needs as (h_x, h_z): it writes the
transposed map from the transposed factor maps, so no top boundary is
built and nothing product-wide is transposed.  ``css.from_complex`` reads
every code through it: a lone length-3 complex, a product code, a power
and a hypergraph product alike.

A product of valid factors is valid without a product-wide check.  The
product boundary is the sum over p of 1 (x) ... (x) d_p (x) ... (x) 1;
terms on different factors act on different tensor slots and commute,
so each cross term of its square appears twice and cancels in
characteristic 2, leaving the sum of the 1 (x) ... (x) d_p^2 (x) ... (x) 1,
which is zero.  ``validate`` on the factors thus certifies the product.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import gf2
from .gf2 import BinMatrix, _set

HomologyProfile = tuple[int, ...]


class ShapeMismatch(ValueError):
    """A boundary matrix does not match the declared dimensions."""

    def __init__(self, degree: int, message: str):
        super().__init__(message)
        self.degree = degree


class BoundarySquareNonzero(ValueError):
    """The composite of two consecutive boundary maps is nonzero."""

    def __init__(self, degree: int, message: str):
        super().__init__(message)
        self.degree = degree


class ChainComplex(gf2._Value):
    """Immutable chain complex; ``boundaries[i - 1]`` is the map out of degree i."""

    __slots__ = _fields = ("dims", "boundaries")

    def __init__(self, dims: tuple[int, ...], boundaries: tuple[BinMatrix, ...]) -> None:
        if not dims:
            raise ValueError("a complex needs at least one space")
        if len(boundaries) != len(dims) - 1:
            raise ValueError(f"expected {len(dims) - 1} boundary maps, got {len(boundaries)}")
        _set(self, "dims", dims)
        _set(self, "boundaries", boundaries)

    @classmethod
    def single(cls, n: int) -> ChainComplex:
        """The complex 0 -> F^n -> 0 concentrated at degree 0."""
        return cls((n,), ())

    @classmethod
    def zero(cls, dims: tuple[int, ...]) -> ChainComplex:
        """The complex with zero maps on the given dims."""
        return cls(dims, tuple(BinMatrix.zeros(dims[i - 1], dims[i]) for i in range(1, len(dims))))

    def top_degree(self) -> int:
        return len(self.dims) - 1

    def dim(self, i: int) -> int:
        if 0 <= i < len(self.dims):
            return self.dims[i]
        return 0

    def boundary(self, i: int) -> BinMatrix:
        """The map C_i -> C_{i-1}; out-of-range degrees give zero maps."""
        if 1 <= i <= self.top_degree():
            return self.boundaries[i - 1]
        return BinMatrix.zeros(self.dim(i - 1), self.dim(i))


def validate(x: ChainComplex) -> None:
    """Raise ShapeMismatch or BoundarySquareNonzero at the first failing degree."""
    for i, b in enumerate(x.boundaries, 1):
        if b.cols != x.dims[i] or b.rows != x.dims[i - 1]:
            raise ShapeMismatch(
                i,
                f"boundary {i} has shape {b.rows}x{b.cols}, "
                f"expected {x.dims[i - 1]}x{x.dims[i]}",
            )
    for i, (b1, b2) in enumerate(zip(x.boundaries, x.boundaries[1:]), 2):
        if not gf2.matmul(b1, b2).is_zero():
            raise BoundarySquareNonzero(i, f"boundary {i - 1} o boundary {i} != 0")


def homology_dims(x: ChainComplex) -> HomologyProfile:
    """dim H_i = dims[i] - rank(boundary i) - rank(boundary i+1); end maps have rank 0."""
    validate(x)
    ranks = [0, *map(gf2.rank, x.boundaries), 0]
    return tuple(d - ranks[i] - ranks[i + 1] for i, d in enumerate(x.dims))


def tensor_dims(dx: Sequence[int], dy: Sequence[int]) -> tuple[int, ...]:
    """Dimension convolution of the two graded spaces."""
    out = [0] * (len(dx) + len(dy) - 1)
    for i, a in enumerate(dx):
        for j, b in enumerate(dy):
            out[i + j] += a * b
    return tuple(out)


_COMPOSITIONS: dict[tuple[tuple[int, ...], int], tuple[tuple[int, ...], ...]] = {}


def _compositions(tops: Sequence[int], degree: int) -> list[tuple[int, ...]]:
    """Summand degree tuples (c_1, ..., c_l) of ``degree`` in left-fold order.

    0 <= c_p <= tops[p].  The left fold ((X_1 (x) X_2) (x) ...) (x) X_l
    lists its summands by ascending prefix sums, the longest prefix
    (c_1 + ... + c_{l-1}) first, then recursively inside that prefix.
    Each answer is kept per ``(tuple(tops), degree)``; callers get a copy.
    """
    if not tops:
        return [()] if degree == 0 else []
    key = (tuple(tops), degree)
    found = _COMPOSITIONS.get(key)
    if found is None:
        head = key[0][:-1]
        found = _COMPOSITIONS[key] = tuple(
            prefix + (degree - s,)
            for s in range(max(0, degree - tops[-1]), min(sum(head), degree) + 1)
            for prefix in _compositions(head, s)
        )
    return list(found)


def _summand_sizes(factors: Sequence[ChainComplex], degree: int) -> dict[tuple[int, ...], int]:
    """Width of each summand of the product at ``degree``, in left-fold order."""
    tops = tuple(f.top_degree() for f in factors)
    sizes = {}
    for c in _compositions(tops, degree):
        width = 1
        for f, v in zip(factors, c):
            width *= f.dims[v]
        sizes[c] = width
    return sizes


def _place_kron(rows: list[int], r0: int, c0: int, left: int, m: BinMatrix, right: int) -> None:
    """XOR ``kron(I_left, m, I_right)`` into ``rows`` with its corner at (r0, c0).

    Each row of ``m`` is spread to stride ``right`` once and XOR-ed into
    its target rows at shifts ``c0 + a * m.cols * right + b``.
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


def _boundary_rows(
    factors: Sequence[ChainComplex],
    src: dict[tuple[int, ...], int],
    tgt: dict[tuple[int, ...], int],
    transposed: bool = False,
) -> list[int]:
    """Rows of the product boundary from the ``src`` summands to the ``tgt`` ones.

    On a summand c the boundary is the sum over factors p of
    ``kron(I, d_p, I)`` into the summand with c_p lowered by one; no signs
    in characteristic 2.  ``transposed`` writes the transposed map instead,
    block by block from the factor maps transposed once per distinct factor,
    as ``kron(I, d, I)^T = kron(I, d^T, I)``: nothing product-wide is transposed.
    """
    tgt_offset = {}
    off = 0
    for c, width in tgt.items():
        tgt_offset[c] = off
        off += width
    if transposed:
        flipped = {f: tuple(map(gf2.transpose, f.boundaries)) for f in dict.fromkeys(factors)}
        maps = [flipped[f] for f in factors]
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
                    t = tgt_offset[c[:p] + (v - 1,) + c[p + 1 :]]
                    r0, c0 = (src_off, t) if transposed else (t, src_off)
                    _place_kron(rows, r0, c0, left, maps[p][v - 1], right)
                left *= f.dims[v]
        src_off += width
    return rows


def _check_degree(factors: Sequence[ChainComplex], lo: int, hi: int) -> None:
    top = sum(f.top_degree() for f in factors)
    if not (0 <= lo <= hi <= top):
        raise ValueError(f"window {lo}..{hi} outside degrees 0..{top}")


def tensor(*factors: ChainComplex, lo: int = 0, hi: int | None = None) -> ChainComplex:
    """Degrees lo..hi of the left-fold tensor product of the factors.

    Summands follow ``_compositions`` and use left-factor-major Kronecker
    indexing, so the result is bit-identical to folding pairwise products
    and then cutting the window; only the window is ever assembled, block
    by block through ``_place_kron``.  With one factor the window is a
    truncation, and the empty product is the unit complex 0 -> F -> 0.
    """
    if hi is None:
        hi = sum(f.top_degree() for f in factors)
    _check_degree(factors, lo, hi)
    sizes = [_summand_sizes(factors, k) for k in range(lo, hi + 1)]
    dims = tuple(sum(s.values()) for s in sizes)
    boundaries = tuple(
        BinMatrix(dims[k - 1], dims[k], tuple(_boundary_rows(factors, sizes[k], sizes[k - 1])))
        for k in range(1, len(dims))
    )
    return ChainComplex(dims, boundaries)


def tensor_checks(*factors: ChainComplex, degree: int) -> tuple[BinMatrix, BinMatrix]:
    """(boundary ``degree``, transposed boundary ``degree + 1``) of the product.

    These equal ``boundary(degree)`` and the transpose of
    ``boundary(degree + 1)`` of ``tensor(*factors)``, zero maps out of
    range, but only the summands at the three degrees are sized, and the
    second map is written block by block from the transposed factor maps:
    no window top boundary is built and nothing product-wide is
    transposed.  At the middle degree this is the check pair (h_x, h_z)
    that ``css.from_complex``, the one reader of codes, returns.  Nothing
    is validated here: the pair is orthogonal when every factor passes
    ``validate`` (see the module docstring).
    """
    _check_degree(factors, degree, degree)
    below, here, above = (_summand_sizes(factors, k) for k in (degree - 1, degree, degree + 1))
    dim_below, dim, dim_above = (sum(s.values()) for s in (below, here, above))
    return (
        BinMatrix(dim_below, dim, tuple(_boundary_rows(factors, here, below))),
        BinMatrix(dim_above, dim, tuple(_boundary_rows(factors, above, here, transposed=True))),
    )


def reduce(x: ChainComplex) -> ChainComplex:
    """The minimal representative: the zero complex on the homology profile.

    Cancelling a unit pivot (a row/column pair of basis vectors joined by
    an entry 1, with the Schur complement update on its map) is Gaussian
    elimination on the complex and keeps its homology.  Cancelling until
    every boundary map is zero therefore ends, in any pivot order, at the
    complex with zero maps and dims ``homology_dims(x)``, which is built
    here directly from the ranks.
    """
    return ChainComplex.zero(homology_dims(x))

