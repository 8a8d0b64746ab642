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
block matrix reproducible bit for bit.  ``tensor`` is the one assembler:
products of codes, powers and truncations are all windows of it, and it
writes each Kronecker block straight into the product's rows in one pass.
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


def is_valid(x: ChainComplex) -> bool:
    try:
        validate(x)
        return True
    except (ShapeMismatch, BoundarySquareNonzero):
        return False


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


def tensor(*factors: ChainComplex, lo: int = 0, hi: int | None = None) -> ChainComplex:
    """Degrees lo..hi of the left-fold tensor product of the factors.

    Summands follow ``_compositions`` and use left-factor-major Kronecker
    indexing, so the result is bit-identical to folding pairwise products
    and then cutting the window; only the window is ever assembled.  The
    boundary on a summand is the sum over factors p of
    ``kron(I, d_p, I)`` into the summand with c_p lowered by one; no signs
    in characteristic 2.  For ``kron(I_left, d, I_right)`` each row of ``d``
    is spread to stride ``right`` once and XOR-ed into its target rows at
    shifts ``a * d.cols * right + b``.  With one factor the window is a
    truncation, and the empty product is the unit complex 0 -> F -> 0.
    """
    tops = tuple(f.top_degree() for f in factors)
    top = sum(tops)
    if hi is None:
        hi = top
    if not (0 <= lo <= hi <= top):
        raise ValueError(f"window {lo}..{hi} outside degrees 0..{top}")

    def size(c: tuple[int, ...]) -> int:
        out = 1
        for f, v in zip(factors, c):
            out *= f.dims[v]
        return out

    sizes = [{c: size(c) for c in _compositions(tops, k)} for k in range(lo, hi + 1)]
    dims = tuple(sum(s.values()) for s in sizes)
    boundaries = []
    for k in range(1, len(dims)):
        tgt_offset = {}
        off = 0
        for c, width in sizes[k - 1].items():
            tgt_offset[c] = off
            off += width
        rows = [0] * dims[k - 1]
        col_off = 0
        for c, width in sizes[k].items():
            if width:
                left = 1
                for p, f in enumerate(factors):
                    v = c[p]
                    if v:
                        m = f.boundaries[v - 1]
                        right = width // (left * f.dims[v])
                        spread = []
                        for row in m.data:
                            bits = 0
                            while row:
                                t = row.bit_length() - 1
                                bits |= 1 << (t * right)
                                row ^= 1 << t
                            spread.append(bits)
                        s = tgt_offset[c[:p] + (v - 1,) + c[p + 1 :]]
                        for a in range(left):
                            shift = a * m.cols * right + col_off
                            for srow in spread:
                                for b in range(shift, shift + right):
                                    rows[s] ^= srow << b
                                    s += 1
                    left *= f.dims[v]
            col_off += width
        boundaries.append(BinMatrix(dims[k - 1], dims[k], tuple(rows)))
    return ChainComplex(dims, tuple(boundaries))


def reduce(x: ChainComplex) -> ChainComplex:
    """The minimal representative: the zero complex on the homology profile.

    Cancelling a unit pivot (a row/column pair of basis vectors joined by
    an entry 1, with the Schur complement update on its map) is Gaussian
    elimination on the complex and keeps its homology.  Cancelling until
    every boundary map is zero therefore ends, in any pivot order, at the
    complex with zero maps and dims ``homology_dims(x)``, which is built
    here directly from the ranks.
    """
    h = homology_dims(x)
    return ChainComplex(h, tuple(BinMatrix.zeros(h[i - 1], h[i]) for i in range(1, len(h))))

