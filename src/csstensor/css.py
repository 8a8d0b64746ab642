"""CSS codes as binary matrix pairs and their single-code analytics.

A CSS code is a pair (h_x, h_z) of parity-check matrices on the same n
qubits with ``h_x . h_z^T = 0``.  The associated length-3 chain complex is
``F^{r_z} -> F^n -> F^{r_x}`` with boundary 1 equal to h_x and boundary 2
equal to h_z transposed; qubits sit at degree 1.

Distance conventions (fixed here once; both sides are always reported, so
an opposite labelling elsewhere is a swap, not a numerical change):

    d_Z = min weight of v in ker(h_x) outside rowspace(h_z)
    d_X = min weight of v in ker(h_z) outside rowspace(h_x)

Exact searches cover the kernel from two disjoint information sets: the
pivot columns P of a reduced kernel basis and their complement N, chosen
together so that N has nearly full rank.  A word with a ones on P and b
ones on N weighs a + b; once every word with at most p1 ones on P and
every word with at most p2 ones on N has been seen, anything missed
weighs at least p1 + p2 + 2, which certifies the lower bound.  Each step
extends whichever side enumerates fewer words (see ``_Search``).  Weights
and parities do not depend on the column order, so each set's rows stay in
the order their elimination wrote them in, and only a new lightest word
moves back.  A weight cap stops the search once the certified bound
exceeds the cap, so a capped result reports lower = cap + 1.

Each side of a code is analysed once, on first use (``_side``): one
elimination gives the kernel basis, one more the k check words, and every
distance, stabilizer and bound phase reads that ``_Side``.  Its one search
entry, ``_Side.minimum``, gives the side's three minima (logical,
stabilizer, relation), each search started from the lightest target row.
A kernel word is a logical exactly when one of its parities with the
checks is odd (the checks live on an information set of the kernel, where
they annihilate the stabilizers).  The k parities, the word's signature,
are linear, so the search sorts rows and sums of two rows into signature
classes once, skips every class of trivial words, and walks a leaf word by
word only when it holds a logical lighter than the best so far.

A self-dual code is analysed on one side (``_mirror``).  A column
permutation pi that moves the rows of h_x onto those of h_z and the rows
of h_z onto those of h_x, each up to order, keeps weight and maps
rowspace(h_x) onto rowspace(h_z); keeping inner products, it maps
ker(h_z) = rowspace(h_z)^perp onto ker(h_x).  So it carries every X
logical and X stabilizer onto a Z one of the same weight: d_Z = d_X, the
stabilizer minima agree, and each X witness moved by pi is a Z witness.
pi is the identity when h_x = h_z.  For a product of self-dual factors
(palindromic dims, d_i = d_{t+1-i}^T; h_x = h_z for a length-3 factor,
Steane and its powers) it sends each middle-degree summand block
(c_1..c_l) to (t_1 - c_1..t_l - c_l), the dual's block, in the same order
inside the block.  Either way pi is checked on the rows before use.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import islice

from . import chain, gf2
from .chain import ChainComplex
from .gf2 import BinMatrix, BinVector, _slot_setters


class OrthogonalityViolation(ValueError):
    """h_x and h_z have a row pair with odd overlap; carries one witness pair."""

    def __init__(self, witness: tuple[int, int]):
        super().__init__(
            f"h_x row {witness[0]} and h_z row {witness[1]} overlap on an odd number of qubits"
        )
        self.witness = witness


class KIsZero(ValueError):
    """The code has no logical qubits, so no logical class exists."""


class EmptyStabilizerGroup(ValueError):
    """The selected stabilizer matrix has no nonzero row."""


class ResourceCeiling(RuntimeError):
    """Predicted size exceeds the configured ceiling."""

    def __init__(self, predicted: int, ceiling: int):
        super().__init__(f"predicted n = {predicted} exceeds ceiling {ceiling}")
        self.predicted = predicted
        self.ceiling = ceiling


class CssCode(gf2._Value):
    """Checks shapes only; orthogonality is the caller's to establish.

    Only this module calls the bare constructor.  ``from_matrices`` checks
    orthogonality with a product of the two checks; ``from_complex``, the
    one reader of every product, power and hypergraph product, with
    ``chain.validate`` on its factors (see the ``chain`` module).

    ``_factors`` is the tuple of factor complexes a code was read from by
    ``from_complex``, None for ``from_matrices`` and so for loaded files.
    ``dimension_k`` reads k off it by Kuenneth and ``_mirror`` a side
    mirror.  It is an in-process record: code files never hold it, and
    copies and pickles rebuild the code through ``__init__`` without it.
    ``_sides`` keeps each side's ``_Side`` once built (see ``_side``).
    Equality, hash and repr leave both out.
    """

    __slots__ = ("n", "h_x", "h_z", "_factors", "_sides")
    _fields = ("n", "h_x", "h_z")

    def __init__(
        self, n: int, h_x: BinMatrix, h_z: BinMatrix,
        factors: tuple[ChainComplex, ...] | None = None,
    ) -> None:
        if h_x.cols != n or h_z.cols != n:
            raise gf2.DimensionMismatch(
                f"check matrices have {h_x.cols}/{h_z.cols} columns, expected n={n}"
            )
        _set_n(self, n)
        _set_h_x(self, h_x)
        _set_h_z(self, h_z)
        _set_factors(self, factors)
        _set_sides(self, {})


_set_n, _set_h_x, _set_h_z, _set_factors, _set_sides = _slot_setters(CssCode)


def from_matrices(h_x: BinMatrix, h_z: BinMatrix) -> CssCode:
    """Validated constructor; raises OrthogonalityViolation with a witness pair."""
    if h_x.cols != h_z.cols:
        raise gf2.DimensionMismatch(
            f"h_x has {h_x.cols} columns but h_z has {h_z.cols}"
        )
    for i, row in enumerate(gf2.matmul(h_x, gf2.transpose(h_z)).data):
        if row:
            raise OrthogonalityViolation((i, (row & -row).bit_length() - 1))
    return CssCode(h_x.cols, h_x, h_z)


def to_complex(code: CssCode) -> ChainComplex:
    """The associated complex with dims [r_x, n, r_z] and qubits at degree 1."""
    return ChainComplex(
        (code.h_x.rows, code.n, code.h_z.rows),
        (code.h_x, gf2.transpose(code.h_z)),
    )


def from_complex(*factors: ChainComplex, max_n: int | None = None) -> CssCode:
    """The code at the middle degree of the tensor product of the factors.

    The one reader from complexes to codes.  A length-3 complex gives the
    inverse of ``to_complex`` (a loaded complex, a reduced power); two of
    them give the product code C (x) D, l copies the l-th power, and two
    2-term complexes a hypergraph product.  The product's top degree must
    be even and at least 2, so a lone 5-space complex is read at degree 2.
    It checks the resource ceiling (``_check_ceiling``): n, predicted by
    ``chain.tensor_dims`` from the factor dims, above ``max_n`` raises
    ``ResourceCeiling`` before anything is validated or assembled.
    Each distinct factor passes ``chain.validate`` once, which makes the
    product's h_x . h_z^T vanish (see the ``chain`` module): nothing
    product-wide is checked, and ``chain.tensor_checks`` builds both checks.
    The code keeps the factors as its ``_factors`` record (see
    ``dimension_k`` and ``_mirror``).
    """
    top = sum(x.top_degree() for x in factors)
    if top < 2 or top % 2:
        raise ValueError(f"a code is read at the middle of an even top degree >= 2, got {top}")
    if max_n is not None:
        _check_ceiling(chain.tensor_dims(*(x.dims for x in factors)), max_n)
    for x in dict.fromkeys(factors):
        chain.validate(x)
    h_x, h_z = chain.tensor_checks(*factors, degree=top // 2)
    return CssCode(h_x.cols, h_x, h_z, factors)


def _check_ceiling(dims: Sequence[int], max_n: int | None) -> None:
    """The one resource ceiling: ``ResourceCeiling`` when n, the middle of
    the dims of a complex a code is read from, exceeds ``max_n``."""
    n = dims[len(dims) // 2]
    if max_n is not None and n > max_n:
        raise ResourceCeiling(n, max_n)


def dimension_k(code: CssCode) -> int:
    """Number of logical qubits.

    A code read by ``from_complex`` is the middle degree of its factors'
    product, so its k is that degree's homology: by Kuenneth, the middle
    coefficient of ``chain.tensor_dims`` of the factors' homology, each
    distinct factor ranked once and no product check read.  A code with
    no ``_factors`` record (``from_matrices``, loaded files) counts
    n - rank(h_x) - rank(h_z).
    """
    if code._factors is None:
        return code.n - gf2.rank(code.h_x) - gf2.rank(code.h_z)
    homology = {x: chain.homology_dims(x) for x in dict.fromkeys(code._factors)}
    profile = chain.tensor_dims(*[homology[x] for x in code._factors])
    return profile[len(profile) // 2]


# -- low-weight search engine ---------------------------------------------


class DistanceResult(namedtuple("DistanceResult", "lower upper exact witness")):
    """Outcome of a weight-stratified search.

    ``lower`` is always a certified lower bound on the true minimum: the
    search has seen every word lighter than it (see ``_Search``).  When
    ``exact`` holds, ``lower == upper == value``.  A capped search stops
    once its certified bound exceeds the cap, so it reports lower = cap + 1
    and whatever upper the enumeration happened to find.  A cap of at least
    the basis size K is no cap: the search then ends exact, as walking all
    combinations of up to K rows would.  A search starts from a target
    word, so its result always has an int ``upper`` and a ``BinVector``
    ``witness`` of that weight; ``_bracket`` alone merges one with a bound.
    """

    __slots__ = ()

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError("search did not finish; no exact value")
        return self.upper


def distance_to_json(d: DistanceResult | None) -> dict | None:
    """The JSON form of a distance result in reports; None stays None."""
    return None if d is None else {"lower": d.lower, "upper": d.upper, "exact": d.exact}


class _Timeout(Exception):
    pass


# Batching pays from this many words in a leaf on.  It sorts words into at
# most 2^k signature classes, so it runs only for k <= _BATCH_CHECKS_MAX.  A
# pair table holds K(K - 1)/2 words, at most _PAIR_TABLE_FACTOR times the K
# rows of the basis itself.
_BATCH_MIN = 8
_BATCH_CHECKS_MAX = 3
_PAIR_TABLE_FACTOR = 32

# The exact search picks its pair of information sets from this many column
# priorities: the natural order, then shuffles from Random(_PAIR_SEED).
_PAIR_CANDIDATES = 8
_PAIR_SEED = 0


def _signature(word: int, checks: Sequence[int]) -> int:
    """Parities of ``word`` with each check, one bit per check."""
    sig = 0
    for b, c in enumerate(checks):
        sig |= ((word & c).bit_count() & 1) << b
    return sig


def _classes(items: list[tuple[int, int, int]], size: int) -> list:
    """Class table of (first row index, signature, word) items.

    One entry (signature, words, counts) per signature.  The words are
    kept in reverse enumeration order, so the counts[s] words whose first
    row index is at least s, the words of a leaf starting at row s, lead
    the list.
    """
    groups: dict[int, tuple[list[int], list[int]]] = {}
    for first, sig, word in reversed(items):
        group = groups.get(sig)
        if group is None:
            group = groups[sig] = ([], [0] * (size + 1))
        group[0].append(word)
        group[1][first] += 1
    for words, counts in groups.values():
        for s in range(size - 1, -1, -1):
            counts[s] += counts[s + 1]
    return [(sig, words, counts) for sig, (words, counts) in groups.items()]


class _Rows:
    """One row list of a search, the signatures of its rows, its class tables.

    The rows and ``checks`` (the search's, moved once) are written under
    the column priority ``order`` (see ``_in_code``), or in code
    coordinates when it is None.  ``singles`` groups the rows and ``pairs``
    the sums of two rows by signature (see ``_classes``).  Row signatures
    are kept only when the search batches; otherwise they read 0 and
    targets are tested word by word.
    """

    __slots__ = ("rows", "checks", "order", "batch", "sigs", "singles", "pairs")

    def __init__(self, rows: list[int], checks: Sequence[int] | None, batch: bool, order=None):
        self.rows = rows
        self.checks = checks
        self.order = order
        self.batch = batch
        if batch and checks:
            self.sigs = [_signature(row, checks) for row in rows]
        else:
            self.sigs = [0] * len(rows)
        self.singles: list | None = None
        self.pairs: list | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def prepare(self, r: int, repeats: int) -> None:
        """Build the tables that a level of r-subsets, walked ``repeats`` times, reuses."""
        if not self.batch:
            return
        rows, sigs, k = self.rows, self.sigs, len(self.rows)
        if self.singles is None and (r >= 2 or repeats > 1):
            self.singles = _classes(list(zip(range(k), sigs, rows)), k)
        if (
            self.pairs is None
            and (r >= 3 or (r == 2 and repeats > 1))
            and k - 1 <= 2 * _PAIR_TABLE_FACTOR
        ):
            pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
            self.pairs = _classes([(i, sigs[i] ^ sigs[j], rows[i] ^ rows[j]) for i, j in pairs], k)

    def is_target(self, word: int, sig: int) -> bool:
        """Whether a word of these rows is a target; sig is its signature when batching."""
        if self.checks is None:
            return True
        if self.batch:
            return sig != 0
        for c in self.checks:
            if (word & c).bit_count() & 1:
                return True
        return False


# The Z of a form with no span to add; it never batches, so it builds no tables.
_NO_ROWS = _Rows([], None, False)


class _Search:
    """Enumeration of a row space from two disjoint information sets.

    Targets are the words with a nonzero signature: their parities with
    the k ``checks`` (see ``_side``), or every nonzero word when
    ``checks`` is None.  Signatures are linear, so a sum of rows has the
    XOR of their signatures.  The search starts from ``seed``, a target
    (``_Side.minimum`` passes the lightest target row): it is the best
    word until a strictly lighter target turns up, and the search stops
    once the certified bound reaches the best weight.

    The search walks forms (G, Z).  Level j of a form covers every sum of a
    j-subset of G with an element of span(Z), except the zero word; level
    0, the nonzero part of span(Z), is walked as levels 1..|Z| of (Z, ()).
    The first form is (rows, ()).  The pivot set P of the reduced rows is
    an information set: a word of the span is the sum of exactly the rows
    whose pivots it has, so level j covers every word with j ones on P.
    The second form re-eliminates the rows with the complement N of P first
    in the column priority (``gf2._rref_by_priority``) and keeps the
    coordinates it wrote them in, as a rebuilt first form does (see
    ``_Rows``): G holds the rows with pivots in N and Z the rows that are
    zero on all of N.  A sum over a j-subset of G has a one at the pivot of
    each row of the subset, and any word with at most j ones on N is such a
    sum for some subset of at most j rows, so levels 0..j cover it.

    Each form keeps its last completed level, 0 for the first (its level 0
    is empty) and -1 for the second.  A word not yet seen has more ones
    than that on each form's information set, and the sets are disjoint,
    so no target lighter than ``lower`` = sum(level + 1) was missed.  The
    search is exhausted once a form completes level |G|.  Each step raises
    ``lower`` by one with the cheapest next level, C(|G|, j) * 2^|Z| words,
    ties to the first form.

    The second form costs about two eliminations of the K rows, so it is
    built only once the first form's next level exceeds K^2 words, and P
    is chosen with it (``_pair``): every next level of the second form
    walks all 2^|Z| words of span(Z), and |Z| = K - rank(N) depends on P.
    The natural order's P, the rows' own pivots, is one candidate, and
    shuffled column priorities give others; the pair with the fewest Z
    rows is kept.  When it has a new P, the first form is rebuilt and its
    levels start again: they cost at most K^2 words each, and the old
    form's certificate still holds, so ``lower`` never drops.

    A leaf covers acc plus each row, or each pair of rows, of a tail.  With
    K >= _BATCH_MIN and k <= _BATCH_CHECKS_MAX the search batches: a leaf
    reads its tail from class tables and skips the class whose signature
    equals acc's, whose words are all trivial.  Only when a remaining word
    is lighter than ``best_w`` does it walk the tail word by word, in
    enumeration order, so the witness is the first lightest target, as
    without tables, and moves to code coordinates as it becomes
    ``best_word``.  Tables are built for the levels that reuse them, pair
    tables only on bases of at most 2 * _PAIR_TABLE_FACTOR + 1 rows.
    """

    def __init__(self, basis_rows, n, checks: Sequence[int] | None, deadline, seed: int):
        rows, self.pivots = gf2._rref_bitrows(basis_rows)
        self.n = n
        self.checks = checks
        self.batch = len(rows) >= _BATCH_MIN and (
            checks is None or len(checks) <= _BATCH_CHECKS_MAX
        )
        self.deadline = deadline
        self.best_word = seed
        self.best_w = seed.bit_count()
        self.nodes = 0
        self.forms = [(_Rows(rows, checks, self.batch), _NO_ROWS)]

    def _walk(self, t: _Rows, start: int, left: int, acc: int, sig: int) -> None:
        """Cover acc + every left-subset sum of t.rows[start:]; sig is acc's.

        A leaf (one row left, or two from a pair table) first asks its class
        table whether it holds a target lighter than best_w; only then are
        its words visited one by one, in enumeration order.
        """
        rows, sigs = t.rows, t.sigs
        m = len(rows) - start
        if left == 1 or (left == 2 and t.pairs is not None):
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise _Timeout
            table = t.singles if left == 1 else t.pairs
            if (
                table is not None
                and (left == 2 or m >= _BATCH_MIN)
                and not self._lighter_target(table, start, acc, sig)
            ):
                self.nodes += m if left == 1 else m * (m - 1) // 2
                return
        if left > 1:
            for idx in range(start, len(rows) - left + 1):
                self._walk(t, idx + 1, left - 1, acc ^ rows[idx], sig ^ sigs[idx])
            return
        self.nodes += m
        best_w = self.best_w
        for idx in range(start, len(rows)):
            word = acc ^ rows[idx]
            w = word.bit_count()
            if w < best_w and t.is_target(word, sig ^ sigs[idx]):
                best_w = w
                self.best_word = word if t.order is None else _in_code(word, t.order)
        self.best_w = best_w

    def _lighter_target(self, table: list, start: int, acc: int, sig: int) -> bool:
        """Whether a target of the leaf at row ``start`` is lighter than best_w."""
        bound = self.best_w
        skip = sig if self.checks is not None else -1
        for csig, words, counts in table:
            c = counts[start]
            if c and csig != skip:
                for x in words if c == len(words) else islice(words, c):
                    if (acc ^ x).bit_count() < bound:
                        return True
        return False

    def _second_form(
        self, supports: list[list[int]], pivots: list[int], order: list[int]
    ) -> tuple[_Rows, _Rows]:
        """The second form (G, Z) of the information set P = ``pivots``.

        The rows, given by their ``supports``, are eliminated with N, the
        columns outside P, first; each set keeps its place in ``order``.
        The rows with pivots in N are G, the rest Z, both in the
        elimination's own coordinates.
        """
        pivot_set = set(pivots)
        order = [c for c in order if c not in pivot_set] + [c for c in order if c in pivot_set]
        rows, moved, bit = gf2._rref_by_priority(supports, order)
        checks, free = self._checks_in(bit), self.n - len(pivots)
        g = [row for row, p in zip(rows, moved) if p < free]
        z = [row for row, p in zip(rows, moved) if p >= free]
        return _Rows(g, checks, self.batch, order), _Rows(z, checks, self.batch, order)

    def _checks_in(self, bit: list[int]) -> list[int] | None:
        """The checks where column c is ``bit[c]``; None when every word is a target."""
        return None if self.checks is None else _moved(self.checks, bit)

    def _pair(self) -> bool:
        """Build the second form with the P it pairs best with; whether P changed.

        Candidate 0 is the natural order, whose P is the rows' own pivots.
        Each further candidate eliminates the rows under a shuffle of the
        columns from ``Random(_PAIR_SEED)`` for its P, up to
        _PAIR_CANDIDATES in all.  The pair with the fewest Z rows is kept,
        ties to the earlier.  The loop stops early at the floor
        max(0, 2K - n), since rank(N) <= n - K, or once the deadline has
        passed; candidate 0 always runs.  Every form stays in the
        coordinates its elimination wrote it in (see ``_Rows``).
        """
        supports = [gf2._support_of(row) for row in self.forms[0][0].rows]
        floor = max(0, 2 * len(supports) - self.n)
        rng = random.Random(_PAIR_SEED)
        first, best = None, self._second_form(supports, self.pivots, list(range(self.n)))
        for _ in range(1, _PAIR_CANDIDATES):
            size = len(best[1])
            if size <= floor or (self.deadline is not None and time.monotonic() > self.deadline):
                break
            order = list(range(self.n))
            rng.shuffle(order)
            rows, moved, bit = gf2._rref_by_priority(supports, order)
            pivots = [order[i] for i in moved]
            found = self._second_form(supports, pivots, order)
            if len(found[1]) < size:
                first, best = (rows, pivots, order, bit), found
        if first is not None:
            rows, self.pivots, order, bit = first
            self.forms[0] = (_Rows(rows, self._checks_in(bit), self.batch, order), _NO_ROWS)
        self.forms.append(best)
        return first is not None

    def _level(self, g: _Rows, z: _Rows, j: int) -> None:
        """Cover level j of the form (g, z)."""
        if j == 0:
            for r in range(1, len(z) + 1):
                self._level(z, _NO_ROWS, r)
            return
        g.prepare(j, 1 << len(z))
        acc = sig = 0
        for i in range(1 << len(z)):
            if i:  # Gray code: one row of Z changes per step
                b = (i & -i).bit_length() - 1
                acc ^= z.rows[b]
                sig ^= z.sigs[b]
            self._walk(g, 0, j, acc, sig)

    def run(self, weight_cap: int | None) -> DistanceResult:
        k = len(self.forms[0][0])
        if weight_cap is not None and weight_cap >= k:
            weight_cap = None  # the first form alone exhausts the basis within the cap
        levels = [0] + [-1] * (len(self.forms) - 1)
        walked = 0  # the certificate of a first form given up for a new P
        while True:
            lower = max(walked, sum(levels) + len(levels))
            exhausted = any(level == len(g) for level, (g, _) in zip(levels, self.forms))
            if exhausted or self.best_w <= lower:
                break
            if weight_cap is not None and lower > weight_cap:
                break
            if len(self.forms) == 1 and math.comb(k, levels[0] + 1) > k * k:
                if self._pair():
                    walked, levels = lower, [0]
                levels.append(-1)
            costs = [math.comb(len(g), level + 1) << len(z)
                     for level, (g, z) in zip(levels, self.forms)]
            i = costs.index(min(costs))
            try:
                self._level(*self.forms[i], levels[i] + 1)
            except _Timeout:
                break
            levels[i] += 1

        found, witness = self.best_w, BinVector(self.n, self.best_word)
        if found <= lower or exhausted:
            return DistanceResult(found, found, True, witness)
        return DistanceResult(lower, found, False, witness)


def _moved(words: Iterable[int], bit: Sequence[int]) -> list[int]:
    """The words with column c moved to ``bit[c]``, its bit in ``gf2._rref_by_priority``."""
    return [sum(map(bit.__getitem__, gf2._support_of(word))) for word in words]


def _in_code(word: int, order: Sequence[int]) -> int:
    """A word that ``gf2._rref_by_priority`` wrote under ``order``, in code coordinates.

    Bit b holds column order[n - 1 - b], that is order[~b].
    """
    return sum(1 << order[~b] for b in gf2._support_of(word))


class _Side:
    """One side of a code: its matrices, kernel basis, checks and exact minima.

    Side Z has kernel_of = h_x and stab = h_z; side X the reverse.  The
    kernel basis (``gf2._kernel_bitrows``) is the identity on the free
    columns F of ``kernel_of``, so a kernel word is fixed by its bits on F,
    and it is a stabilizer exactly when those bits lie in the span of the
    stabilizer rows cut to F.  The checks are a basis of that span's
    annihilator inside F2^F, from one elimination of the cut rows: k words
    (the cut keeps the rank of the stabilizers, which lie in the kernel),
    and a kernel word is trivial exactly when its parities with all of
    them are even.  So rank(kernel_of) = n - |kernel| and
    rank(stab) = |kernel| - k.

    ``minimum`` is the one search of a side's three minima.  Each
    search starts from the lightest target row, which stays the witness
    unless a lighter word turns up.  An uncapped, unbudgeted search is a
    fixed walk over the rows, so its result is the same on every run: it
    is kept, and later calls return it.
    """

    __slots__ = ("kernel_of", "stab", "kernel", "checks", "kept")

    def __init__(
        self, kernel_of: BinMatrix, stab: BinMatrix, kernel: tuple[int, ...],
        checks: tuple[int, ...],
    ) -> None:
        self.kernel_of = kernel_of
        self.stab = stab
        self.kernel = kernel
        self.checks = checks
        self.kept: dict[str, DistanceResult | None] = {}

    @property
    def k(self) -> int:
        return len(self.checks)

    def minimum(
        self, of: str, weight_cap: int | None = None, deadline: float | None = None
    ) -> DistanceResult | None:
        """The certified minimum weight of one kind of word on this side.

        ``of`` is "logical" (kernel words outside the stabilizer row
        space: the distance), "stabilizer" (nonzero stabilizer words) or
        "relation" (nonzero relations y with y . stab = 0, bit i of y
        weighting stabilizer row i).  None when there is no such word: k =
        0, no nonzero stabilizer row, or independent stabilizer rows (no
        elimination then).  ``deadline`` is a ``time.monotonic`` time.
        """
        uncapped = weight_cap is None and deadline is None
        if uncapped and of in self.kept:
            return self.kept[of]
        checks = None
        if of == "logical":
            rows, n, checks = self.kernel, self.stab.cols, self.checks
        elif of == "stabilizer":
            rows, n = self.stab.data, self.stab.cols
        elif of == "relation":
            independent = self.stab.rows == len(self.kernel) - self.k
            rows = () if independent else gf2.kernel_basis(gf2.transpose(self.stab)).data
            n = self.stab.rows
        else:
            raise ValueError(f"of must be 'logical', 'stabilizer' or 'relation', got {of!r}")
        targets = (row for row in rows if row and (checks is None or _signature(row, checks)))
        seed = min(targets, key=int.bit_count, default=None)
        res = None if seed is None else _Search(rows, n, checks, deadline, seed).run(weight_cap)
        if uncapped:
            self.kept[of] = res
        return res


def _side(code: CssCode, side: str) -> _Side:
    """The analysis of one side of a code, built on first use and kept on it."""
    found = code._sides.get(side)
    if found is None:
        if side == "Z":
            kernel_of, stab = code.h_x, code.h_z
        elif side == "X":
            kernel_of, stab = code.h_z, code.h_x
        else:
            raise ValueError(f"side must be 'X' or 'Z', got {side!r}")
        kernel, free = gf2._kernel_bitrows(kernel_of.data, gf2._mask(code.n))
        checks, _ = gf2._kernel_bitrows([row & free for row in stab.data], free)
        found = code._sides[side] = _Side(kernel_of, stab, tuple(kernel), tuple(checks))
    return found


def _self_dual(x: ChainComplex) -> bool:
    """Whether x is its own dual: palindromic dims and d_i = d_{t+1-i}^T."""
    t = x.top_degree()
    return x.dims == x.dims[::-1] and all(
        x.boundaries[i] == gf2.transpose(x.boundaries[t - 1 - i]) for i in range((t + 1) // 2)
    )


def _dual_permutation(factors: Sequence[ChainComplex]) -> list[int] | None:
    """The column permutation of a product of self-dual factors onto its dual.

    Summand block c of the middle degree goes to block (t_p - c_p)_p, in
    the same order inside the block (palindromic dims give the two blocks
    one width).  None when a factor is not self-dual.
    """
    if not all(map(_self_dual, dict.fromkeys(factors))):
        return None
    tops = [x.top_degree() for x in factors]
    sizes = chain._summand_sizes(factors, sum(tops) // 2)
    offsets, off = {}, 0
    for c, width in sizes.items():
        offsets[c] = off
        off += width
    perm = [0] * off
    for c, width in sizes.items():
        start, dual = offsets[c], offsets[tuple(t - v for t, v in zip(tops, c))]
        perm[start:start + width] = range(dual, dual + width)
    return perm


def _rows_map(a: BinMatrix, perm: Sequence[int], b: BinMatrix) -> bool:
    """Whether the rows of a, moved by perm, are the rows of b up to order."""
    moved = [tuple(sorted(map(perm.__getitem__, support))) for support in a.support()]
    return sorted(moved) == sorted(b.support())


def _mirror(code: CssCode) -> list[int] | None:
    """A certified X <-> Z side mirror of the code, or None.

    The identity when h_x = h_z; else, for a code read from self-dual
    factors, ``_dual_permutation`` of its ``_factors`` record.  A candidate
    pi stands only if the rows of pi(h_x) are those of h_z and the rows of
    pi(h_z) those of h_x, up to order.  Then pi keeps weight, maps
    rowspace(h_x) onto rowspace(h_z) and, keeping inner products,
    ker(h_z) = rowspace(h_z)^perp onto ker(h_x): every X logical and X
    stabilizer onto a Z one of the same weight (see ``_mirrored``).
    """
    if code.h_x == code.h_z:
        return list(range(code.n))
    perm = None if code._factors is None else _dual_permutation(code._factors)
    if perm is None or not (
        _rows_map(code.h_x, perm, code.h_z) and _rows_map(code.h_z, perm, code.h_x)
    ):
        return None
    return perm


def _mirrored(res: DistanceResult | None, perm: Sequence[int]) -> DistanceResult | None:
    """An X-side result as the Z side's under the mirror perm: same bounds, moved witness."""
    if res is None:
        return None
    moved = map(perm.__getitem__, res.witness.support())
    return res._replace(witness=BinVector.from_support(res.witness.n, moved))


def min_distance_exact(
    code: CssCode,
    side: str,
    weight_cap: int | None = None,
    time_budget: float | None = None,
) -> DistanceResult:
    """Weight-stratified exact distance search on one side.

    ``_Side.minimum("logical")``: kernel words are enumerated from two
    information sets (see ``_Search``), starting from the lightest logical
    kernel row, and a word is a logical exactly when its parities with the
    k checks of ``_side`` are not all even.  With a cap the result
    certifies lower = cap + 1 when nothing lighter was found.  With no cap
    and no budget it is the side's kept result.
    """
    s = _side(code, side)
    if not s.k:
        raise KIsZero("distances are undefined for k = 0")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    return s.minimum("logical", weight_cap, deadline)


def min_distance_random_upper(
    code: CssCode, side: str, trials: int, seed: int
) -> tuple[int, BinVector]:
    """Upper bound from seeded random information sets over the kernel, with its word.

    Each trial takes the RREF of the kernel basis under a random column
    priority (``gf2._rref_by_priority``, from supports collected once per
    call); the resulting rows (and their pairs, on small kernels) are
    low-weight kernel members and every nontrivial one bounds the distance
    from above.  The checks move to the trial's coordinates with the rows
    (``_moved``), and the lightest logical found moves back to the code's
    (``_in_code``).  At least one trial runs, and its rows, which span the
    kernel, hold a logical.  Deterministic for a fixed seed.
    """
    s = _side(code, side)
    if not s.k:
        raise KIsZero("distances are undefined for k = 0")
    rng = random.Random(seed)
    best, best_word, best_order = code.n + 1, 0, None
    supports = [gf2._support_of(row) for row in s.kernel]
    for _ in range(max(1, trials)):
        order = list(range(code.n))
        rng.shuffle(order)
        rows, _, bit = gf2._rref_by_priority(supports, order)
        moved_checks = _moved(s.checks, bit)
        if len(rows) <= 80:
            rows += [a ^ b for i, a in enumerate(rows) for b in rows[i + 1:]]
        for word in rows:
            w = word.bit_count()
            if w < best and _signature(word, moved_checks):
                best, best_word, best_order = w, word, order
    return best, BinVector(code.n, _in_code(best_word, best_order))


def stabilizer_min_weight(
    code: CssCode,
    side: str,
    weight_cap: int | None = None,
    time_budget: float | None = None,
) -> DistanceResult:
    """Minimum weight over nonzero elements of one stabilizer row space.

    ``_Side.minimum("stabilizer")``: the same weight-stratified search (and
    cap semantics) as the distance, with every nonzero word a target,
    started from the lightest stabilizer row.  With no cap and no budget
    it is the side's kept result.
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    res = _side(code, side).minimum("stabilizer", weight_cap, deadline)
    if res is None:
        raise EmptyStabilizerGroup(f"no nonzero {side} stabilizer rows")
    return res


class WeightProfile(namedtuple("WeightProfile", (
    "max_row_weight_x", "max_row_weight_z", "max_col_weight_x", "max_col_weight_z",
    "mean_row_weight_x", "mean_row_weight_z",
))):
    __slots__ = ()


def weight_profile(code: CssCode) -> WeightProfile:
    """Exact LDPC metrics from the matrix supports."""

    def stats(weights: list[int]) -> tuple[int, float]:
        if not weights:
            return 0, 0.0
        return max(weights), sum(weights) / len(weights)

    rx, mrx = stats(code.h_x.row_weights())
    rz, mrz = stats(code.h_z.row_weights())
    cx = max(code.h_x.col_weights(), default=0)
    cz = max(code.h_z.col_weights(), default=0)
    return WeightProfile(rx, rz, cx, cz, mrx, mrz)


# -- reports ----------------------------------------------------------------


class CodeReport(namedtuple("CodeReport", (
    "n", "k", "d_x", "d_z", "profile", "min_stabilizer_weight_x", "min_stabilizer_weight_z",
))):
    """Computed parameters of a code: n, k, certified bounds and the LDPC profile.

    The distances and stabilizer minima are ``DistanceResult``s, None where
    undefined (k = 0, or no nonzero stabilizer on that side).  The bounds
    do not name the mechanism that produced them.  ``analyze`` builds
    a report, and each ``tensorops.sweep`` row carries its stage's.
    """

    __slots__ = ()

    @property
    def degenerate(self) -> bool | None:
        """Whether a stabilizer is lighter than the distance, decided by the bounds.

        None when k = 0 or the bounds overlap; sides with no nonzero stabilizer
        (None) are skipped.
        """
        if not self.k:
            return None
        stabs = (self.min_stabilizer_weight_x, self.min_stabilizer_weight_z)
        stabs = [s for s in stabs if s is not None]
        if not stabs:
            return False
        dists = (self.d_x, self.d_z)
        stab_lo = min(s.lower for s in stabs)
        stab_hi = min(s.upper for s in stabs)
        dist_lo = min(d.lower for d in dists)
        dist_hi = min(d.upper for d in dists)
        if stab_hi < dist_lo:
            return True
        if stab_lo >= dist_hi:
            return False
        return None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d_x": distance_to_json(self.d_x),
            "d_z": distance_to_json(self.d_z),
            "max_row_weight_x": self.profile.max_row_weight_x,
            "max_row_weight_z": self.profile.max_row_weight_z,
            "max_col_weight_x": self.profile.max_col_weight_x,
            "max_col_weight_z": self.profile.max_col_weight_z,
            "mean_row_weight_x": self.profile.mean_row_weight_x,
            "mean_row_weight_z": self.profile.mean_row_weight_z,
            "min_stabilizer_weight_x": distance_to_json(self.min_stabilizer_weight_x),
            "min_stabilizer_weight_z": distance_to_json(self.min_stabilizer_weight_z),
            "degenerate": self.degenerate,
        }


DEFAULT_WEIGHT_CAP = 6
DEFAULT_TRIALS = 200


def _bracket(
    res: DistanceResult, lower: int = 0, found: tuple[int, BinVector] | None = None
) -> DistanceResult:
    """``res`` merged with a certified lower bound and a found word: the one merge.

    ``found`` is an (upper, word) pair, as ``min_distance_random_upper``
    returns; a lighter word becomes the upper bound and the witness.
    Exact when ``res`` is or when the bounds meet.  No clamp of lower to
    upper: a search seeded with a word of weight u stops once its
    certificate reaches u, so it never certifies above u, and a lower
    bound above the upper one (an unsound bound) stays visible.
    """
    upper, witness = res.upper, res.witness
    if found is not None and found[0] < upper:
        upper, witness = found
    lo = max(res.lower, lower)
    return DistanceResult(lo, upper, res.exact or lo == upper, witness)


def analyze(
    code: CssCode,
    exact_up_to: int | None = DEFAULT_WEIGHT_CAP,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
    time_budget: float | None = None,
) -> CodeReport:
    """Full report: k, distance bounds per side, LDPC profile, degeneracy.

    Exact searches run up to ``exact_up_to`` (and ``time_budget`` seconds
    each, when given), each from its lightest target row; the ``trials``
    random information sets run only where a search leaves the distance
    open (see ``_side_bounds``).  With ``exact_up_to=None`` and no budget
    every result is a side's kept exact minimum (see ``_Side.minimum``).
    Every distance and stabilizer minimum has a witness of its upper
    bound's weight; the degeneracy verdict follows from the reported bounds.
    For a fixed seed the result is deterministic whenever the searches
    finish within budget; an expiring budget can only weaken the
    certified lower bound, never the flags.  A code with a
    certified side mirror (see ``_mirror``) is searched on side X alone:
    Z gets X's results with their witnesses moved, and its ``_Side`` is
    never built.
    """
    k = _side(code, "X").k
    perm = _mirror(code)
    d_x, stab_x = _side_bounds(code, "X", k, exact_up_to, trials, seed, time_budget)
    if perm is None:
        d_z, stab_z = _side_bounds(code, "Z", k, exact_up_to, trials, seed, time_budget)
    else:
        d_z, stab_z = _mirrored(d_x, perm), _mirrored(stab_x, perm)
    return CodeReport(code.n, k, d_x, d_z, weight_profile(code), stab_x, stab_z)


def _side_bounds(
    code: CssCode, side: str, k: int, exact_up_to: int | None, trials: int, seed: int,
    time_budget: float | None,
) -> tuple[DistanceResult | None, DistanceResult | None]:
    """``analyze``'s (distance, stabilizer minimum) of one side; None where undefined.

    Both come from the side's searches (``_Side.minimum``), each started
    from the lightest target row; with no cap and no budget they are the
    side's kept results.  Only when the capped search leaves the distance
    open do the random trials run, and their word is merged in through
    ``_bracket``.  A search walks the same levels under
    any seed heavier than the distance, so, absent a deadline, the lower
    bound is that of a search seeded by the trials, and the upper bound
    the least of the same candidates and the seed row.
    """
    stab = None
    if not _side(code, side).stab.is_zero():
        stab = stabilizer_min_weight(code, side, exact_up_to, time_budget)
    if k == 0:
        return None, stab
    res = min_distance_exact(code, side, exact_up_to, time_budget)
    if not res.exact:
        res = _bracket(res, found=min_distance_random_upper(code, side, trials, seed))
    return res, stab


# -- JSON file format --------------------------------------------------------
#
# A code file is ``code_to_json`` dumped with ``indent=2, sort_keys=True``
# plus a final newline: keys "h_x", "h_z", "n", "name", each matrix as
# "cols", "rows", "support", one support entry per line.  ``dump_code`` is
# the one writer of that layout.  It writes straight to the open file,
# _DUMP_CHUNK_ROWS rows at a time, so the text of a whole power never
# exists at once (the l = 4 Steane file is 1.86 MB); ``indent`` would also
# force the pure-Python JSON encoder, which cost more than assembling the
# power.  The rows come from ``BinMatrix.support``, which for a product is
# the supports it was built from, so no n-bit row is built or walked, and
# each index is one lookup in a table of cell strings made once per dump.

_DUMP_CHUNK_ROWS = 256


def matrix_to_json(m: BinMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "support": m.support()}


def matrix_from_json(obj: dict) -> BinMatrix:
    return BinMatrix.from_support(obj["rows"], obj["cols"], obj["support"])


def code_to_json(code: CssCode, name: str = "") -> dict:
    return {
        "name": name,
        "n": code.n,
        "h_x": matrix_to_json(code.h_x),
        "h_z": matrix_to_json(code.h_z),
    }


def _dump_matrix(m: BinMatrix, fh: io.TextIOBase, cells: list[str]) -> None:
    fh.write(f'{{\n    "cols": {m.cols},\n    "rows": {m.rows},\n    "support": ')
    if not m.rows:
        fh.write("[]\n  }")
        return
    supports = m.support()
    sep = "[\n      "
    for start in range(0, m.rows, _DUMP_CHUNK_ROWS):
        fh.write(sep + ",\n      ".join([
            f"[{','.join(map(cells.__getitem__, row))}\n      ]" if row else "[]"
            for row in supports[start:start + _DUMP_CHUNK_ROWS]
        ]))
        sep = ",\n      "
    fh.write("\n    ]\n  }")


def dump_code(code: CssCode, fh: io.TextIOBase, name: str = "") -> None:
    """Write the code file to ``fh`` a chunk of rows at a time, byte for byte
    ``json.dumps(code_to_json(code, name), indent=2, sort_keys=True) + "\\n"``.

    Rows are read through ``support()``, and ``cells[j]`` is the text of
    index j on its own line, so a row's text is one join of table cells.
    """
    cells = ["\n        " + str(j) for j in range(code.n)]
    fh.write('{\n  "h_x": ')
    _dump_matrix(code.h_x, fh, cells)
    fh.write(',\n  "h_z": ')
    _dump_matrix(code.h_z, fh, cells)
    # A name read back from a hand-written file may be any JSON value.
    name_text = json.dumps(name, indent=2, sort_keys=True).replace("\n", "\n  ")
    fh.write(f',\n  "n": {code.n},\n  "name": {name_text}\n}}\n')


def code_from_json(obj: dict) -> CssCode:
    """The code of a JSON object; ValueError names a missing or malformed field."""
    if not isinstance(obj, dict):
        raise ValueError(f"a code must be a JSON object, got {type(obj).__name__}")
    matrices = []
    for key in ("h_x", "h_z"):
        if key not in obj:
            raise ValueError(f"missing field {key!r}")
        try:
            matrices.append(matrix_from_json(obj[key]))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"malformed field {key!r} ({type(exc).__name__}: {exc})") from None
    code = from_matrices(*matrices)
    if obj.get("n") is not None and obj["n"] != code.n:
        raise ValueError(f"declared n={obj['n']} does not match matrices ({code.n})")
    return code
