"""Dense bit-packed linear algebra over GF(2).

Matrices store one Python int per row; bit ``j`` of a row is the entry in
column ``j``.  Arbitrary-precision ints give word-parallel XOR row
operations at any width, so rank/kernel/product all reduce to integer
bit twiddling.  A matrix built from row supports (a product, a transpose,
a loaded file; see ``BinMatrix``) keeps them and builds its ints on first
read, so a sparse product can be built, written and loaded without any.
All values are immutable and safe to share between threads.  The value
types are plain ``__slots__`` classes on ``_Value``: ``__init__`` checks
its arguments and sets each field once through its slot's setter, any
later assignment raises ``AttributeError``, and equality, hash and repr
read the fields named in ``_fields``.  ``BinMatrix`` alone also has
constructors that check nothing, for producers that build their own rows.

All elimination is pivot-keyed: two echelon loops, one back-substitution.
In natural order (columns scanned lowest first) ``_echelon`` keys each row
by its lowest set bit; an incoming row XORs in the row keyed by its current
lowest bit until it is zero or claims a new key.  Any other priority goes
through ``_rref_by_priority``, which reads each column's bit off the order,
builds each row once from its support with the highest-priority column at
the top bit and pivots on the top set bit.  ``_back_substitute`` then
clears the other pivot columns of both, and kernels read the reduced rows
and their pivots straight from ``_rref_bitrows``.  The reduced row echelon
form of a row space under a column priority is unique, so the result is
independent of row order and method: it is the form a column-scan
Gauss-Jordan gives.

Loops over the set bits of a row whose visiting order cannot change the
result (supports, products, transposes, back-substitution) strip the top
bit, ``t = x.bit_length() - 1; x ^= 1 << t``, so every step shrinks the
int; ``x & -x`` would rebuild a full-width int per set bit.  In natural
order pivots stay a row's lowest set bit, which fixes the RREF and every
basis read from it (kernel bases, search pivots, criterion witnesses), and
the free columns of a kernel are still listed lowest first.

Kronecker products use left-factor-major index ordering throughout:
``kron(A, B)`` places entry ``(i1, i2), (j1, j2)`` at row
``i1 * B.rows + i2`` and column ``j1 * B.cols + j2``.  Every tensor-style
construction in this package relies on this single convention.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import index


class DimensionMismatch(ValueError):
    """Operands do not conform (wrong row/column counts)."""


def _mask(n: int) -> int:
    return (1 << n) - 1


def _slot_setters(cls: type) -> tuple:
    """The setters of the slots ``cls`` declares, in ``__slots__`` order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class _Value:
    """Base of the immutable value types: equality, hash and repr over ``_fields``,
    which ``__init__`` stores as tuples or scalars, each through its slot's setter."""

    __slots__ = ("__weakref__",)
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        # Same fields, not same class: a matrix still held as supports
        # equals its twin built from ints (see ``_SupportMatrix``).
        if not isinstance(other, _Value) or other._fields is not self._fields:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Copies and pickles rebuild through __init__: the default restores
        # slots through the __setattr__ above, which refuses.  The key is
        # read first, since reading a lazy field may change the class.
        key = self._key()
        return type(self), key


class BinVector(_Value):
    """A length-``n`` bit vector packed into a single int (bit j = coord j)."""

    __slots__ = _fields = ("n", "bits")

    def __init__(self, n: int, bits: int) -> None:
        n = index(n)
        if n < 0:
            raise ValueError("negative length")
        if bits < 0 or bits >> n:
            raise ValueError("bits outside declared length")
        _set_n(self, n)
        _set_bits(self, bits)

    @classmethod
    def from_support(cls, n: int, support: Iterable[int]) -> BinVector:
        bits = 0
        for j in support:
            if not 0 <= j < n:
                raise ValueError(f"index {j} out of range for length {n}")
            bits |= 1 << j
        return cls(n, bits)

    def weight(self) -> int:
        return self.bits.bit_count()

    def support(self) -> list[int]:
        return _support_of(self.bits)


class BinMatrix(_Value):
    """A ``rows x cols`` matrix over GF(2) with bit-packed rows.

    ``data[i]`` is row ``i``; bits beyond ``cols`` are always zero.
    0 x n and m x 0 matrices are valid and act as empty maps.

    ``BinMatrix(rows, cols, data)`` checks sizes and rows, for any caller and
    for copies and pickles.  ``_of_rows`` (int rows) and ``_of_supports``
    check nothing, so only producers whose rows cannot fail those checks
    call them (``tests/test_api_surface.py`` lists those of ``_of_rows``).

    Products (``chain``), transposes and ``from_support`` make their
    matrices from sorted row supports instead (``_of_supports``), and
    their int rows are made on the first read of ``data``, which is also
    what ``_Value``'s equality, hash, repr, copy and pickle read: a matrix
    built from supports equals its twin built from ints.  A matrix has two
    faces and two conversions between them: ``support`` reads (and keeps) the
    supports of int rows, ``_SupportMatrix.data`` builds the ints of
    supports.  Every other reader reads one face, so a power is built,
    written and loaded without an n-bit row.
    """

    __slots__ = ("rows", "cols", "data", "_supports")
    _fields = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Iterable[int]) -> None:
        rows, cols = index(rows), index(cols)
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        data = tuple(map(index, data))
        if len(data) != rows:
            raise ValueError("row count does not match data")
        if data and (min(data) < 0 or max(data).bit_length() > cols):
            raise ValueError("row has bits beyond declared width")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_data(self, data)
        _set_supports(self, None)

    @staticmethod
    def _of_rows(rows: int, cols: int, data: tuple[int, ...]) -> BinMatrix:
        """The matrix with this tuple of ``rows`` ints below ``1 << cols`` (not checked)."""
        m = _new(BinMatrix)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_data(m, data)
        _set_supports(m, None)
        return m

    @staticmethod
    def _of_supports(rows: int, cols: int, supports: Iterable[Iterable[int]]) -> BinMatrix:
        """The matrix with these row supports, which must be ascending, in
        range and free of repeats (not checked); ``data`` waits for a read."""
        m = _new(_SupportMatrix)
        _set_rows(m, rows)
        _set_cols(m, cols)
        _set_supports(m, tuple(map(tuple, supports)))
        return m

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BinMatrix:
        rows, cols = index(rows), index(cols)
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        return cls._of_rows(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> BinMatrix:
        n = index(n)
        if n < 0:
            raise ValueError("negative dimension")
        return cls._of_rows(n, n, tuple([1 << i for i in range(n)]))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> BinMatrix:
        """Build from a list of 0/1 entry lists."""
        if cols is None:
            cols = len(rows[0]) if rows else 0
        data = []
        for row in rows:
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            bits = 0
            for j, e in enumerate(row):
                if e & 1:
                    bits |= 1 << j
            data.append(bits)
        return cls(len(rows), cols, tuple(data))

    @classmethod
    def from_support(cls, rows: int, cols: int, support: Sequence[Sequence[int]]) -> BinMatrix:
        """The matrix with ones at these column indices, row by row.

        Indices may repeat and come in any order.  One out of range raises
        ``ValueError``, any other that is no integer ``TypeError``.  The rows
        are kept as supports until ``data`` is read.
        """
        rows, cols = index(rows), index(cols)
        if len(support) != rows:
            raise DimensionMismatch("support list length != rows")
        if cols < 0:
            raise ValueError("negative dimension")
        checked = []
        for sup in support:
            row = set()
            for j in sup:
                if not 0 <= j < cols:
                    raise ValueError(f"column index {j} out of range")
                row.add(index(j))
            checked.append(sorted(row))
        return cls._of_supports(rows, cols, checked)

    # -- accessors ------------------------------------------------------

    def row_weights(self) -> list[int]:
        return list(map(len, self.support()))

    def col_weights(self) -> list[int]:
        return list(map(len, _column_supports(self)))

    def support(self) -> list[tuple[int, ...]]:
        """Each row's column indices, ascending, one tuple per row.

        A matrix built from ints reads them off its rows on the first call
        and keeps them, as a product keeps those it was built from.
        """
        if self._supports is None:
            _set_supports(self, tuple([
                _BYTE_SUPPORTS[r] if r < 256 else tuple(_support_of(r)) for r in self.data
            ]))
        return list(self._supports)

    def is_zero(self) -> bool:
        return not any(self.support())


class _SupportMatrix(BinMatrix):
    """A ``BinMatrix`` built from supports whose ``data`` slot is still unset.

    Reading ``data`` builds the int rows, fills the slot and turns the
    object into a plain ``BinMatrix``.  Keeping the lazy read off
    ``BinMatrix`` itself keeps attribute reads of every other matrix on
    the interpreter's fast slot path.  It needs nothing else: ``_Value``'s
    equality, hash, repr and pickling read ``data`` before the class.
    """

    __slots__ = ()

    @property
    def data(self) -> tuple[int, ...]:
        rows = []
        for support in self._supports:
            bits = 0
            for j in support:
                bits |= 1 << j
            rows.append(bits)
        data = tuple(rows)
        _set_data(self, data)
        object.__setattr__(self, "__class__", BinMatrix)
        return data


_new = object.__new__
_set_n, _set_bits = _slot_setters(BinVector)
# ``_set_data`` also fills the slot ``_SupportMatrix.data`` shadows.
_set_rows, _set_cols, _set_data, _set_supports = _slot_setters(BinMatrix)


def _support_of(bits: int) -> list[int]:
    out = []
    while bits:
        t = bits.bit_length() - 1
        out.append(t)
        bits ^= 1 << t
    out.reverse()
    return out


# The support of every row below 256, so ``support`` reads such a row
# with one lookup.
_BYTE_SUPPORTS = tuple(tuple(_support_of(r)) for r in range(256))


# -- elimination core ---------------------------------------------------


def _echelon(bitrows: Sequence[int]) -> dict[int, int]:
    """Echelon form of int rows as a dict from pivot column to row.

    Rows are fed last to first: on the Kronecker-structured power checks
    that keeps fill-in several times lower than the forward order.
    """
    echelon: dict[int, int] = {}
    for row in reversed(bitrows):
        while row:
            p = (row & -row).bit_length() - 1
            other = echelon.get(p)
            if other is None:
                echelon[p] = row
                break
            row ^= other
    return echelon


def _rref_bitrows(bitrows: Sequence[int]) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of int rows: (nonzero rows, pivot cols)."""
    echelon = _echelon(bitrows)
    pivots = sorted(echelon)
    _back_substitute(echelon, reversed(pivots))
    return [echelon[p] for p in pivots], pivots


def _back_substitute(rows: dict[int, int] | list[int], pivots: Iterable[int]) -> None:
    """Clear the other pivot bits of each echelon row ``rows[p]``, in place.

    ``pivots`` runs away from each row's pivot: no row has a set bit on the
    side of its pivot the walk has yet to reach, so a reduced row XOR-ed
    into a later one clears exactly its own pivot bit.
    """
    done = 0
    for p in pivots:
        row = rows[p]
        hit = row & done
        while hit:
            t = hit.bit_length() - 1
            row ^= rows[t]
            hit ^= 1 << t
        rows[p] = row
        done |= 1 << p


def _rref_by_priority(
    supports: Sequence[Sequence[int]], order: Sequence[int]
) -> tuple[list[int], list[int], list[int]]:
    """RREF of the rows with these supports when columns are scanned in ``order``.

    Column ``order[i]`` moves to bit n - 1 - i, so the highest priority is
    the top bit, and each row is built once from its support by summing
    its columns' bits.  Elimination pivots on a row's top set bit, which
    every XOR clears, and takes the rows lightest first; back-substitution
    then runs in ascending pivot order.  Returns the rows in scan order, in
    these moved coordinates, their pivots as priority indices, and the bit
    of each column, with which a caller moves further words alike.  The
    RREF under a priority is unique: bit b read as column
    ``order[n - 1 - b]``, these are the rows of a column scan in ``order``.
    """
    n = len(order)
    bit = [0] * n
    for i, c in enumerate(order):
        bit[c] = 1 << (n - 1 - i)
    by_top = [0] * n
    tops = []
    for support in sorted(supports, key=len):
        row = sum(map(bit.__getitem__, support))
        while row:
            t = row.bit_length() - 1
            other = by_top[t]
            if not other:
                by_top[t] = row
                tops.append(t)
                break
            row ^= other
    tops.sort()
    _back_substitute(by_top, tops)
    tops.reverse()
    return [by_top[p] for p in tops], [n - 1 - p for p in tops], bit


# -- public operations ---------------------------------------------------


def rank(m: BinMatrix) -> int:
    """Dimension of the row space of ``m``."""
    return len(_echelon(m.data))


def kernel_basis(m: BinMatrix) -> BinMatrix:
    """Basis of the right kernel {v : m v = 0}, one vector per row.

    Row count is ``cols - rank(m)``, one vector per free column in
    increasing order.  For a matrix with no rows this is the
    identity-like basis of the whole domain.
    """
    basis, _ = _kernel_bitrows(m.data, _mask(m.cols))
    return BinMatrix._of_rows(len(basis), m.cols, tuple(basis))


def _kernel_bitrows(bitrows: Sequence[int], columns: int) -> tuple[list[int], int]:
    """Kernel basis inside the coordinates of the mask ``columns``.

    Every row must be zero outside ``columns``.  Returns the basis, one
    vector per free column in increasing order, and the mask of the free
    columns.  The vector of a free column f has bit f and otherwise only
    pivot bits, so a kernel vector is fixed by its bits on the free
    columns: they form an information set of the kernel.
    """
    rows, pivots = _rref_bitrows(bitrows)
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
            t = rest.bit_length() - 1
            basis[t] |= bit
            rest ^= 1 << t
    return list(basis.values()), free


def rowspace_contains(m: BinMatrix, v: BinVector) -> bool:
    """Whether ``v`` is an F2-combination of the rows of ``m``.

    ``_echelon`` rows have no bit below their pivot, so ``v`` lies in the
    row space exactly when its lowest bit keys a row at every step.
    """
    if v.n != m.cols:
        raise DimensionMismatch(f"vector length {v.n} != cols {m.cols}")
    echelon, vec = _echelon(m.data), v.bits
    while vec and (row := echelon.get((vec & -vec).bit_length() - 1)) is not None:
        vec ^= row
    return vec == 0


def matmul(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """Matrix product over GF(2) (XOR accumulation)."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions {a.cols} != {b.rows}")
    out = []
    bdata = b.data
    for support in a.support():
        acc = 0
        for t in support:
            acc ^= bdata[t]
        out.append(acc)
    return BinMatrix._of_rows(a.rows, b.cols, tuple(out))


def transpose(m: BinMatrix) -> BinMatrix:
    """The transposed matrix, built from the column supports of ``m``."""
    return BinMatrix._of_supports(m.cols, m.rows, _column_supports(m))


def _column_supports(m: BinMatrix) -> list[list[int]]:
    """The rows holding a one in each column, ascending, one list per column."""
    columns: list[list[int]] = [[] for _ in range(m.cols)]
    for i, sup in enumerate(m.support()):
        for j in sup:
            columns[j].append(i)
    return columns


def kron(a: BinMatrix, b: BinMatrix) -> BinMatrix:
    """Kronecker product, left factor major.

    Entry ((i1, i2), (j1, j2)) = a[i1, j1] * b[i2, j2] at row
    i1 * b.rows + i2 and column j1 * b.cols + j2.
    """
    out = []
    for asup in a.support():
        for brow in b.data:
            bits = 0
            for j1 in asup:
                bits |= brow << (j1 * b.cols)
            out.append(bits)
    return BinMatrix._of_rows(a.rows * b.rows, a.cols * b.cols, tuple(out))

