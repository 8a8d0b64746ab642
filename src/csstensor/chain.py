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
each Kronecker block straight into the product's rows, and two functions
share it.  ``tensor`` assembles a window of degrees lo..hi: truncations
and the windows ``verify`` checks.  ``tensor_checks`` gives the two maps
at one degree, the second one transposed, which is what a code needs as
(h_x, h_z): it writes the transposed map from the transposed factor maps,
so no top boundary is built and nothing product-wide is transposed.
``css.from_complex`` reads every code through it: a lone length-3
complex, a product code, a power and a hypergraph product alike.

Product rows are built as supports, lists of column indices, and both
functions return ``BinMatrix``es made from them (``BinMatrix._of_supports``),
whose int rows wait until something reads them: a check row of the l-th
Steane power has at most 3l + 1 ones among n columns (n = 8179 at l = 4).
Each block appends its columns to each of its rows, and that is the sum
of the blocks because no two blocks of one row share a column: the
blocks of a row lie in distinct summands (the source summands of a
target row, or the summands c - e_p, one per factor p, of a transposed
row), and inside one block the columns of a row come from distinct
columns of one factor row.  The rows come out ascending with no sort.
Inside a block the columns ascend with the factor row's.  A target row
meets its source summands in the order of their offsets; a transposed
row meets the summands c - e_p by ascending p, and those offsets ascend
with p too: lowering slot p lowers the prefix sums from p on, and
``_compositions`` orders summands by prefix sums, the longest prefix
first, so the summand that lowers the later slot keeps more of them and
comes later.

A product of valid factors is valid without a product-wide check.  The
product boundary is the sum over p of 1 (x) ... (x) d_p (x) ... (x) 1;
terms on different factors act on different tensor slots and commute,
so each cross term of its square appears twice and cancels in
characteristic 2, leaving the sum of the 1 (x) ... (x) d_p^2 (x) ... (x) 1,
which is zero.  ``validate`` on the factors thus certifies the product.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import index

from . import gf2
from .gf2 import BinMatrix, _slot_setters

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
        dims, boundaries = tuple(map(index, dims)), tuple(boundaries)
        if not dims:
            raise ValueError("a complex needs at least one space")
        if len(boundaries) != len(dims) - 1:
            raise ValueError(f"expected {len(dims) - 1} boundary maps, got {len(boundaries)}")
        _set_dims(self, dims)
        _set_boundaries(self, boundaries)

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


_set_dims, _set_boundaries = _slot_setters(ChainComplex)


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
        if any(gf2.matmul(b1, b2).data):
            raise BoundarySquareNonzero(i, f"boundary {i - 1} o boundary {i} != 0")


def homology_dims(x: ChainComplex) -> HomologyProfile:
    """dim H_i = dims[i] - rank(boundary i) - rank(boundary i+1); end maps have rank 0."""
    validate(x)
    ranks = [0, *map(gf2.rank, x.boundaries), 0]
    return tuple(d - ranks[i] - ranks[i + 1] for i, d in enumerate(x.dims))


def tensor_dims(*profiles: Sequence[int]) -> tuple[int, ...]:
    """Dimension convolution of graded spaces, left to right; ``(1,)`` for none.

    The dims of the tensor product of complexes with these dims, like
    ``tensor(*factors)``; over a field, by Kuenneth, also its homology
    from theirs.
    """
    out = (1,)
    for p in profiles:
        conv = [0] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(p):
                conv[i + j] += a * b
        out = tuple(conv)
    return out


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


def _place_kron(
    rows: list[list[int]], r0: int, c0: int, left: int,
    sups: Sequence[Sequence[int]], cols: int, right: int,
) -> None:
    """Append the columns of ``kron(I_left, m, I_right)`` to ``rows``, corner at (r0, c0).

    ``m`` is given by its row supports ``sups`` and its width ``cols``.  Row
    ``r0 + (a * len(sups) + i) * right + b`` gains the columns
    ``c0 + (a * cols + t) * right + b`` for t in row i of m, ascending.
    With ``right == 1`` each row takes one extend; otherwise the ``right``
    rows of a factor row share each t and take it in one C-level pass.
    """
    s = r0
    width = cols * right
    if right == 1:
        for a in range(left):
            shift = c0 + a * width
            for sup in sups:
                if sup:
                    rows[s].extend([shift + t for t in sup])
                s += 1
        return
    append = list.append
    for a in range(left):
        shift = c0 + a * width
        for sup in sups:
            if sup:
                block = rows[s:s + right]
                for t in sup:
                    start = shift + t * right
                    any(map(append, block, range(start, start + right)))  # append returns None
            s += right


def _boundary_rows(
    factors: Sequence[ChainComplex],
    src: dict[tuple[int, ...], int],
    tgt: dict[tuple[int, ...], int],
    transposed: bool = False,
) -> list[list[int]]:
    """Row supports of the product boundary from the ``src`` summands to the ``tgt`` ones.

    On a summand c the boundary is the sum over factors p of
    ``kron(I, d_p, I)`` into the summand with c_p lowered by one; no signs
    in characteristic 2.  ``transposed`` writes the transposed map instead,
    block by block from the column supports of the factor maps, as
    ``kron(I, d, I)^T = kron(I, d^T, I)``: nothing product-wide is
    transposed.  Each factor map is read once per call, however many
    factors share it, and every row comes out ascending (see the module
    docstring).
    """
    tgt_offset = {}
    off = 0
    for c, width in tgt.items():
        tgt_offset[c] = off
        off += width
    read = {}
    rows = [[] for _ in range(sum(src.values()) if transposed else off)]
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
                    m = read.get((id(f), v))
                    if m is None:
                        d = f.boundaries[v - 1]
                        m = read[id(f), v] = (
                            (gf2._column_supports(d), d.rows) if transposed
                            else (d.support(), d.cols)
                        )
                    _place_kron(rows, r0, c0, left, *m, right)
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
    by block through ``_place_kron``, into matrices built from supports.
    With one factor the window is a truncation, and the empty product is
    the unit complex 0 -> F -> 0.
    """
    if hi is None:
        hi = sum(f.top_degree() for f in factors)
    _check_degree(factors, lo, hi)
    sizes = [_summand_sizes(factors, k) for k in range(lo, hi + 1)]
    dims = tuple(sum(s.values()) for s in sizes)
    boundaries = tuple(
        BinMatrix._of_supports(
            dims[k - 1], dims[k], _boundary_rows(factors, sizes[k], sizes[k - 1])
        )
        for k in range(1, len(dims))
    )
    return ChainComplex(dims, boundaries)


def tensor_checks(*factors: ChainComplex, degree: int) -> tuple[BinMatrix, BinMatrix]:
    """(boundary ``degree``, transposed boundary ``degree + 1``) of the product.

    These equal ``boundary(degree)`` and the transpose of
    ``boundary(degree + 1)`` of ``tensor(*factors)``, zero maps out of
    range, but only the summands at the three degrees are sized, and the
    second map is written block by block from the transposed factor maps:
    no window top boundary is built, nothing product-wide is transposed,
    and both come as supports, with no int row built until one is read.
    At the middle degree this is the check pair (h_x, h_z)
    that ``css.from_complex``, the one reader of codes, returns.  Nothing
    is validated here: the pair is orthogonal when every factor passes
    ``validate`` (see the module docstring).
    """
    _check_degree(factors, degree, degree)
    below, here, above = (_summand_sizes(factors, k) for k in (degree - 1, degree, degree + 1))
    dim_below, dim, dim_above = (sum(s.values()) for s in (below, here, above))
    return (
        BinMatrix._of_supports(dim_below, dim, _boundary_rows(factors, here, below)),
        BinMatrix._of_supports(
            dim_above, dim, _boundary_rows(factors, above, here, transposed=True)
        ),
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

