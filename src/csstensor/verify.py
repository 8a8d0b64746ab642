"""Self-check suites behind the ``verify`` command.

Each suite runs a batch of randomized cross-checks against independent
oracles (exhaustive enumeration, convolution identities, brute-force
distances) and reports per-property counts.  Everything is seeded, so a
fixed seed reproduces the report byte for byte.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from . import chain, css, gf2, rand, tensorops
from .gf2 import BinMatrix, BinVector

# The largest power and the longest factor code that the suites build, and
# for each scale of run_suite the instances per suite, in run order.
_ELL_MAX = 4
_MAX_N = 9
_COUNTS = {"fast": (200, 40, 40, 10, 10), "full": (1000, 200, 200, 50, 50)}


class PropertyResult(namedtuple("PropertyResult", "name checks failures detail", defaults=("",))):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0


def gf2_properties(seed: int, instances: int) -> list[PropertyResult]:
    """Rank-nullity, transpose rank, mixed product, membership vs enumeration."""
    rng = random.Random(seed)
    failures = {"rank_nullity": 0, "rank_transpose": 0, "mixed_product": 0, "membership": 0}
    membership_checks = 0
    for _ in range(instances):
        rows = rng.randrange(0, 7)
        cols = rng.randrange(1, 7)
        m = rand.random_matrix(rng, rows, cols)
        r = gf2.rank(m)
        if r + gf2.kernel_basis(m).rows != m.cols:
            failures["rank_nullity"] += 1
        if r != gf2.rank(gf2.transpose(m)):
            failures["rank_transpose"] += 1

        a = rand.random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        b = rand.random_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        c = rand.random_matrix(rng, a.cols, rng.randrange(1, 4))
        d = rand.random_matrix(rng, b.cols, rng.randrange(1, 4))
        lhs = gf2.matmul(gf2.kron(a, b), gf2.kron(c, d))
        rhs = gf2.kron(gf2.matmul(a, c), gf2.matmul(b, d))
        if lhs != rhs:
            failures["mixed_product"] += 1

        member_rows = rng.randrange(0, 13)
        mm = rand.random_matrix(rng, member_rows, cols)
        v = rand.random_matrix(rng, 1, cols).data[0]
        claimed = gf2.rowspace_contains(mm, BinVector(cols, v))
        actual = v == 0
        word = 0
        for i in range(1, 1 << mm.rows):  # Gray walk over all combinations
            word ^= mm.data[(i & -i).bit_length() - 1]
            if word == v:
                actual = True
                break
        membership_checks += 1
        if claimed != actual:
            failures["membership"] += 1
    return [
        PropertyResult("gf2/rank_nullity", instances, failures["rank_nullity"]),
        PropertyResult("gf2/rank_transpose", instances, failures["rank_transpose"]),
        PropertyResult("gf2/mixed_product", instances, failures["mixed_product"]),
        PropertyResult("gf2/membership_vs_enumeration", membership_checks, failures["membership"]),
    ]


def kunneth_suite(seed: int, pairs: int) -> list[PropertyResult]:
    """Homology of explicit products equals the convolution of profiles."""
    rng = random.Random(seed)
    failures = 0
    valid_failures = 0
    for _ in range(pairs):
        x = rand.random_complex3(rng)
        y = rand.random_complex3(rng)
        try:  # homology_dims validates the product first
            homology = chain.homology_dims(chain.tensor(x, y))
        except (chain.ShapeMismatch, chain.BoundarySquareNonzero):
            valid_failures += 1
            continue
        if homology != chain.tensor_dims(chain.homology_dims(x), chain.homology_dims(y)):
            failures += 1
    return [
        PropertyResult("chain/tensor_valid", pairs, valid_failures),
        PropertyResult("chain/kunneth", pairs, failures),
    ]


def _rank_by_enumeration(m: BinMatrix) -> int:
    """Rank as log2 of the number of distinct sums of the rows; no elimination."""
    sums = {0}
    for row in m.data:
        sums |= {s ^ row for s in sums}
    return len(sums).bit_length() - 1


def reduce_suite(seed: int, instances: int) -> list[PropertyResult]:
    """reduce gives zero maps on the homology, shrinks dims, and is idempotent.

    The homology it must reach is counted without elimination: each rank
    is read off the distinct row sums of a boundary (at most 2^6),
    so a fault in ``homology_dims`` or ``gf2.rank`` shows here.
    """
    rng = random.Random(seed)
    failures = {"homology": 0, "dims": 0, "idempotent": 0}
    for _ in range(instances):
        x = rand.random_complex3(rng)
        r = chain.reduce(x)
        ranks = [_rank_by_enumeration(x.boundary(i)) for i in range(len(x.dims) + 1)]
        homology = tuple(d - ranks[i] - ranks[i + 1] for i, d in enumerate(x.dims))
        if r.dims != homology or not all(b.is_zero() for b in r.boundaries):
            failures["homology"] += 1
        if any(a > b for a, b in zip(r.dims, x.dims)):
            failures["dims"] += 1
        if chain.reduce(r) != r:
            failures["idempotent"] += 1
    return [
        PropertyResult("chain/reduce_homology", instances, failures["homology"]),
        PropertyResult("chain/reduce_dims", instances, failures["dims"]),
        PropertyResult("chain/reduce_idempotent", instances, failures["idempotent"]),
    ]


def length_formula_suite(seed: int, triples: int) -> list[PropertyResult]:
    """Closed-form power length equals the assembled block dimension.

    The assembly path enumerates summand compositions.  Small instances
    additionally materialise the window ell-1..ell+1 of the power: its
    middle degree must have the predicted dimension, and its middle
    homology, counted by ranks, must equal the Kunneth convolution of the
    factor's homology that ``power`` reports as k.
    """
    rng = random.Random(seed)
    failures = 0
    materialised_failures = 0
    materialised = 0
    for _ in range(triples):
        dims = (rng.randrange(0, 9), rng.randrange(1, 9), rng.randrange(0, 9))
        x = rand.random_complex(rng, dims)
        homology = chain.homology_dims(x)
        for ell in range(1, _ELL_MAX + 1):
            predicted = tensorops.power_length(dims, ell)
            comps = chain._compositions((2,) * ell, ell)
            assembled = 0
            for c in comps:
                size = 1
                for v in c:
                    size *= dims[v]
                assembled += size
            if assembled != predicted:
                failures += 1
            if predicted <= 400:
                lo = max(0, ell - 1)
                window = tensorops.power_complex_window(x, ell, lo, min(2 * ell, ell + 1))
                materialised += 1
                try:
                    window_homology = chain.homology_dims(window)
                except (chain.ShapeMismatch, chain.BoundarySquareNonzero):
                    materialised_failures += 1
                    continue
                k = tensorops.power_length(homology, ell)
                if window.dim(ell - lo) != predicted or window_homology[ell - lo] != k:
                    materialised_failures += 1
    return [
        PropertyResult("tensorops/power_length_assembly", triples * _ELL_MAX, failures),
        PropertyResult("tensorops/power_length_matrices", materialised, materialised_failures),
    ]


def _is_window_code(product: css.CssCode, x: chain.ChainComplex, y: chain.ChainComplex) -> bool:
    """Whether ``product``'s checks are the boundaries of the valid window 1..3 of x (x) y.

    The window is validated once; checks equal to its boundaries are then
    orthogonal.  Its top boundary is transposed by ``gf2.transpose``, not
    by the block path that built ``product``.
    """
    w = chain.tensor(x, y, lo=1, hi=3)
    try:
        chain.validate(w)
    except chain.BoundarySquareNonzero:
        return False
    return (product.h_x, product.h_z) == (w.boundary(1), gf2.transpose(w.boundary(2)))


def bound_soundness_suite(seed: int, pairs: int) -> list[PropertyResult]:
    """Exact product distances lie between the emitted bounds.

    Codes are generated with full-rank checks and k >= 1, so the middle
    sector is the only active one, the comparison bound is the plain max
    and k = k_C * k_D >= 1; a k = 0 product is a ``kunneth_k`` failure.
    Above: by Kunneth, x (x) y of two lightest logicals is a nontrivial
    logical of the product, so d <= d_C * d_D on each side.

    ``tensorops/kunneth_k`` counts the product's k by ranking its checks
    and compares it with ``css.dimension_k``, which reads the Kunneth
    convolution of the factors' homology.  It also checks the product
    itself against paths that skip neither the product-wide transpose nor
    the product-wide check: its checks must equal the boundaries of the
    window 1..3 of ``chain.tensor``, validated, with the top one
    transposed.
    """
    rng = random.Random(seed)
    failures = {"generic": 0, "witness": 0, "comparison": 0, "kunneth_k": 0}
    done = 0
    while done < pairs:
        n1 = rng.randrange(4, _MAX_N + 1)
        n2 = rng.randrange(4, _MAX_N + 1)
        try:
            c = rand.random_css_code(rng, n1, rng.randrange(1, 3), rng.randrange(1, 3))
            d = rand.random_css_code(rng, n2, rng.randrange(1, 3), rng.randrange(1, 3))
        except RuntimeError:
            continue
        if any(gf2.rank(m) != m.rows for m in (c.h_x, c.h_z, d.h_x, d.h_z)):
            continue
        product = tensorops.css_tensor(c, d)
        k = product.n - gf2.rank(product.h_x) - gf2.rank(product.h_z)
        done += 1
        if k < 1:
            failures["kunneth_k"] += 1
            continue
        x, y = product._factors
        if k != css.dimension_k(product) or not _is_window_code(product, x, y):
            failures["kunneth_k"] += 1
        exact = [css.min_distance_exact(product, s).value for s in "XZ"]
        generic = tensorops.generic_lower_bound(c, d)
        known = tensorops.known_comparison_bound(c, d)
        witness = [math.prod(css._side(f, s).minimum("logical").value for f in (c, d))
                   for s in "XZ"]
        if generic[0] > exact[0] or generic[1] > exact[1]:
            failures["generic"] += 1
        if exact[0] > witness[0] or exact[1] > witness[1]:
            failures["witness"] += 1
        if generic[0] < known[0] or generic[1] < known[1]:
            failures["comparison"] += 1
    return [
        PropertyResult("tensorops/kunneth_k", pairs, failures["kunneth_k"]),
        PropertyResult("tensorops/generic_bound_sound", pairs, failures["generic"]),
        PropertyResult("tensorops/product_witness_bound", pairs, failures["witness"]),
        PropertyResult("tensorops/new_bound_ge_known", pairs, failures["comparison"]),
    ]


def run_suite(scale: str, seed: int) -> list[PropertyResult]:
    """The fast or full verification battery.

    A suite that crashes outright (possible when a kernel primitive is
    broken) is reported as a single failed property, carrying the
    exception's type and message, instead of aborting the whole report.
    """
    if scale not in _COUNTS:
        raise ValueError(f"unknown suite {scale!r}")
    # Read at call time, so that wrappers installed in this module are called.
    suites = (gf2_properties, kunneth_suite, reduce_suite, length_formula_suite,
              bound_soundness_suite)
    results: list[PropertyResult] = []
    for i, (fn, count) in enumerate(zip(suites, _COUNTS[scale])):
        try:
            results += fn(seed + i, count)
        except Exception as exc:
            detail = " ".join(f"{type(exc).__name__}: {exc}".split())
            results.append(PropertyResult(f"{fn.__name__}/crashed", 1, 1, detail))
    return results


def format_report(results: list[PropertyResult]) -> str:
    lines = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        detail = f" ({r.detail})" if r.detail else ""
        lines.append(f"{status} {r.name}: {r.checks - r.failures}/{r.checks}{detail}")
    total_failures = sum(r.failures for r in results)
    lines.append(f"{'pass' if total_failures == 0 else 'FAIL'} total: {len(results)} properties")
    return "\n".join(lines) + "\n"
