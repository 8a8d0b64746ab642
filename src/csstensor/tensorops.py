"""CSS-level tensor products, iterated powers, and distance lower bounds.

The product of two CSS codes is taken at the chain level: tensor the two
length-3 complexes and read the middle degree back as a code.  Iterated
powers read the middle degree l of the l-fold product; folding pairwise
products with intermediate truncation agrees at l = 2 but discards
middle-feeding spaces at higher l.  Both are read back by
``css.from_complex`` from the factor complexes, which builds the two
checks straight from the factors and validates only the factors:
``d^2 = 0`` on every factor makes the product's h_x . h_z^T vanish (see
the ``chain`` module), so no product-wide matrix product is ever taken.

Distance lower bounds come from a Kuenneth decomposition of the middle
homology of the product.  A nontrivial logical class has a nonzero
component in at least one of three sectors, and each sector forces
weight:

* middle (x) middle: contracting the middle block of a representative
  with a detecting cocycle of either factor yields a nontrivial logical
  of that factor, so the block has at least d(C) nonzero rows (and d(D)
  nonzero columns).  Rows that are cycles of D weigh at least the
  minimum nonzero cycle weight of D; rows that are not cycles are
  charged to the outer blocks through the stabilizer supports, at most
  (max check row weight) captured rows per unit of outer-block weight.
  Minimising over the split gives a bound that strictly improves the
  plain max(d(C), d(D)) whenever the capture factor is finite.
* end sectors (active when one factor has redundant checks, h_top > 0,
  and the other h_bot > 0): contractions land in the kernel of the top
  boundary, bounding the class weight by the first factor's lightest
  nonzero check redundancy, its ``top_min_lo``.

A factor's cycle minimum needs no search of its own: a nonzero cycle is
either a logical or a nonzero stabilizer, so it is min(d, stabilizer
minimum), the stabilizer minimum when k = 0, and d when no stabilizer is
nonzero (1 when the kernel is zero).  Certified lower bounds on d and on
the stabilizer minimum therefore bound it too, which lets ``sweep`` feed
a built power's ``CodeReport`` (each sweep row carries its stage's
report) back into the machine.

The criterion, read by ``criterion_to_json`` off an exact
``css.analyze`` report, is per-side non-degeneracy: no stabilizer is
strictly lighter than the distance, i.e. the minimum nonzero cycle
weight equals the distance.  When it holds for C the middle-sector bound
evaluates with the full distance of C in place of its cycle minimum for
every partner D.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Sequence

from . import chain, css, gf2
from .chain import ChainComplex
from .css import CssCode, DistanceResult, KIsZero, ResourceCeiling

DEFAULT_SEED = 101


# -- products and powers ------------------------------------------------


def css_tensor(c: CssCode, d: CssCode, max_n: int | None = None) -> CssCode:
    """Tensor product code: the middle degree 2 of the product complex.

    Read back by ``css.from_complex(x, y, max_n=max_n)`` from the two
    factor complexes, which checks the ceiling before assembling anything.
    """
    return css.from_complex(css.to_complex(c), css.to_complex(d), max_n=max_n)


def power_complex_window(x: ChainComplex, ell: int, lo: int, hi: int) -> ChainComplex:
    """Degrees lo..hi of the ell-th tensor power, bit-identical to folding."""
    return chain.tensor(*[x] * ell, lo=lo, hi=hi)


def power_length(dims: Sequence[int], ell: int) -> int:
    """Dimension of the middle degree of the ell-th power.

    ``chain.tensor_dims`` of ell copies of ``dims``, read at degree
    ell * (len(dims) - 1) // 2 (ell for a length-3 complex): the
    coefficient of z^ell in (c0 + c1 z + c2 z^2)^ell.  Exact big-integer
    arithmetic, so no overflow at any ell.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return chain.tensor_dims(*[dims] * ell)[ell * (len(dims) - 1) // 2]


def css_power(
    c: CssCode, ell: int, reduced: bool = False, max_n: int | None = None
) -> CssCode:
    """The ell-th iterated tensor power of a code.

    The middle degree ell of the power complex, read back by
    ``css.from_complex`` from ell copies of the factor complex.  The first
    power is ``c`` itself.  With ``reduced`` each product stage is cut to
    degrees mid - 1..mid + 1 and replaced by the zero complex on its
    homology, so ``_reduced_dims`` gets its dims from the factor's
    homology h and ranks r alone (r[j] ranks the map out of degree j).
    The zero complex on s tensored with x is a sum of copies of x, s_i of
    them shifted up by i, with Kuenneth homology s * h.  The cut makes
    every bottom chain a cycle and leaves the top image undivided, adding
    the dropped maps' ranks (s * r)[mid - 1] and (s * r)[mid + 2].  An
    exact input gives empty reduced powers; every reduced power has zero
    checks, so k = n.  Full or reduced, the result is held to ``max_n``
    before anything is assembled: a reduced power's dims go to
    ``css._check_ceiling`` before its zero complex, one int per row, is
    made, and ``from_complex`` checks every other power, a first power
    above the ceiling included.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if reduced:
        dims = _reduced_dims(css.to_complex(c), ell)
        css._check_ceiling(dims, max_n)
        return css.from_complex(ChainComplex.zero(dims))
    if ell == 1 and (max_n is None or c.n <= max_n):
        return c
    return css.from_complex(*[css.to_complex(c)] * ell, max_n=max_n)


def _reduced_dims(x: ChainComplex, ell: int) -> tuple[int, ...]:
    """Dims of the ell-th reduced power of x, ell >= 1 (see ``css_power``); ranks only x's maps."""
    chain.validate(x)
    ranks = (0, *map(gf2.rank, x.boundaries))
    h = s = tuple(d - out - into for d, out, into in zip(x.dims, ranks, ranks[1:] + (0,)))
    for _ in range(ell - 1):
        kun, cut = chain.tensor_dims(s, h), chain.tensor_dims(s, ranks) + (0,)
        mid = (len(kun) - 1) // 2
        if mid < 1:
            raise ValueError(f"window {mid - 1}..{mid + 1} outside degrees 0..{len(kun) - 1}")
        s = (kun[mid - 1] + cut[mid - 1], kun[mid], kun[mid + 1] + cut[mid + 2])
    return s


# -- distance criterion and lower bounds ---------------------------------


def criterion_to_json(report: css.CodeReport) -> dict:
    """The criterion of an exact ``css.analyze`` report, with its witnesses.

    ``holds_x`` means no nonzero X stabilizer is strictly lighter than
    d_X, ``holds_z`` likewise, and ``holds`` requires both.  The
    witnesses are supports; a stabilizer minimum and its witness are
    None when that side has no nonzero stabilizer.  An inexact distance
    raises ValueError (see ``DistanceResult.value``).
    """
    if not report.k:
        raise KIsZero("criterion is undefined for k = 0")
    out = {}
    for side, dist, stab in (
        ("x", report.d_x, report.min_stabilizer_weight_x),
        ("z", report.d_z, report.min_stabilizer_weight_z),
    ):
        out[f"holds_{side}"] = stab is None or stab.value >= dist.value
        out[f"d_{side}"] = dist.value
        out[f"stab_min_{side}"] = None if stab is None else stab.value
        out[f"logical_witness_{side}"] = dist.witness.support()
        out[f"stabilizer_witness_{side}"] = None if stab is None else stab.witness.support()
    out["holds"] = out["holds_x"] and out["holds_z"]
    return out


class FactorParams(namedtuple("FactorParams", "k d_lo cycle_lo check_w h_top h_bot top_min_lo")):
    """Certified per-side invariants of one factor feeding the bound machine.

    All entries are lower bounds except ``check_w`` (exact max check row
    weight; 0 means no checks, so no capture is possible) and the two
    homology dimensions, which are exact.  ``top_min_lo`` is None when the
    checks have no nonzero relation, and set whenever its end sector is
    active: h_top > 0 relations make ``factor_params``' uncapped search find
    one, and the sweep's machine skips the previous stage's search only
    when the base side's h_bot = 0 turns that sector off.
    """

    __slots__ = ()


def factor_params(code: CssCode, side: str) -> FactorParams:
    """Exact invariants of a code for one side of the bound machine."""
    s = css._side(code, side)
    return _factor_params(s, *map(s.minimum, ("logical", "stabilizer", "relation")))


def _factor_params(
    s: css._Side, dist: DistanceResult | None, stab: DistanceResult | None,
    top: DistanceResult | None,
) -> FactorParams:
    """FactorParams of a side from certified distance, stabilizer and
    relation results (see ``css._Side.minimum``).

    ``dist`` is None when k = 0, ``stab`` when no stabilizer is nonzero
    and ``top`` when the checks have no nonzero relation; ``top_min_lo``
    is ``top``'s lower bound.  The cycle bound is the smaller of the first
    two lower bounds, 1 when both are None (see the module docstring).
    Ranks come from the side's sizes (see ``css._Side``), so no
    elimination runs here.
    """
    return FactorParams(
        k=s.k,
        d_lo=0 if dist is None else dist.lower,
        cycle_lo=min((r.lower for r in (dist, stab) if r is not None), default=1),
        check_w=max(s.stab.row_weights(), default=0),
        h_top=s.stab.rows - (len(s.kernel) - s.k),
        h_bot=s.kernel_of.rows - (s.stab.cols - len(s.kernel)),
        top_min_lo=None if top is None else top.lower,
    )


def _capture_refinement(count_d: int, heavy: int, check_w: int) -> int:
    """Minimum of N + heavy * (count_d - L) + L over L <= min(count_d, check_w * N).

    ``count_d`` rows are forced nonzero; each is either a cycle of the
    partner (weight >= heavy) or captured by the outer block, at most
    ``check_w`` captures per unit of outer weight N.
    """
    best = count_d * heavy
    if check_w <= 0:
        return best
    n_outer = 1
    while True:
        captured = min(count_d, check_w * n_outer)
        best = min(best, n_outer + heavy * (count_d - captured) + captured)
        if captured >= count_d:
            return best
        n_outer += 1


def bound_from_params(cp: FactorParams, dp: FactorParams, refined: bool = True) -> int:
    """Sound lower bound on one side of the product distance: the least
    over the active sectors (see the module docstring), those of nonzero
    homology dimension (k * k middle, h_top * h_bot end), which sum to the
    product side's k (KIsZero when 0).  An active end's ``top_min_lo`` is
    set (see ``FactorParams``); ``refined`` adds the capture refinement.
    """
    sectors = []
    if cp.k and dp.k:
        lo = max(cp.d_lo, dp.d_lo)
        if refined:
            lo = max(lo, _capture_refinement(cp.d_lo, dp.cycle_lo, cp.check_w),
                     _capture_refinement(dp.d_lo, cp.cycle_lo, dp.check_w))
        sectors.append(lo)
    sectors += [top.top_min_lo for top, bot in ((cp, dp), (dp, cp)) if top.h_top and bot.h_bot]
    if not sectors:
        raise KIsZero("the product has no logical qubits on this side")
    return min(sectors)


def generic_lower_bound(c: CssCode, d: CssCode) -> tuple[int, int]:
    """Unconditional lower bounds (bound_x, bound_z) on the product distances."""
    return tuple(bound_from_params(factor_params(c, s), factor_params(d, s)) for s in "XZ")


def known_comparison_bound(c: CssCode, d: CssCode) -> tuple[int, int]:
    """The plain per-sector max bound, kept for before/after comparison."""
    return tuple(
        bound_from_params(factor_params(c, s), factor_params(d, s), refined=False) for s in "XZ"
    )


# -- sweeps ----------------------------------------------------------------


# The report fields a ceiling row stands in for: no code was built.
_NO_REPORT = {
    "k": 0, "d_x": None, "d_z": None, "max_row_weight_x": 0, "max_row_weight_z": 0,
    "min_stabilizer_weight_x": None, "min_stabilizer_weight_z": None, "degenerate": None,
}


class SweepRecord(namedtuple("SweepRecord", "ell n report seconds error", defaults=(None,))):
    """One sweep stage: the stage's ``css.CodeReport`` and its seconds.

    The report's d_x and d_z carry the sector machine's lower bounds.  A
    ceiling row has no report (None), the predicted n and the error.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        """The sweep row layout, read off the report's JSON; stab_min is the lighter upper."""
        rep = _NO_REPORT if self.report is None else self.report.to_json_dict()
        stabs = (rep["min_stabilizer_weight_x"], rep["min_stabilizer_weight_z"])
        return {
            "ell": self.ell,
            "n": self.n,
            "k": rep["k"],
            "d_x": rep["d_x"],
            "d_z": rep["d_z"],
            "wmax_x": rep["max_row_weight_x"],
            "wmax_z": rep["max_row_weight_z"],
            "stab_min": min((s["upper"] for s in stabs if s), default=None),
            "degenerate": rep["degenerate"],
            "seconds": self.seconds,
            "error": self.error,
        }


SWEEP_CSV_HEADER = (
    "ell,n,k,dx_lo,dx_hi,dx_exact,dz_lo,dz_hi,dz_exact,"
    "wmax_x,wmax_z,stab_min,degenerate,seconds"
)


def _csv_cell(value: object) -> str:
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value)


def sweep_to_csv(records: Sequence[SweepRecord], with_seconds: bool = True) -> str:
    """CSV table of a sweep, rows read off ``to_json_dict``; seconds maskable for stable bytes."""
    lines = [SWEEP_CSV_HEADER]
    for r in records:
        row = r.to_json_dict()
        cells = [row["ell"], row["n"], row["k"]]
        for key in ("d_x", "d_z"):
            d = row[key] or {}
            cells += [d.get("lower"), d.get("upper"), d.get("exact")]
        cells += [row["wmax_x"], row["wmax_z"], row["stab_min"]]
        cells.append("unknown" if row["degenerate"] is None else row["degenerate"])
        cells.append(f"{row['seconds']:.3f}" if with_seconds else None)
        lines.append(",".join(map(_csv_cell, cells)))
    return "\n".join(lines) + "\n"


def _machine_bounds(
    base: CssCode, prev: tuple[CssCode, css.CodeReport], time_budget: float | None,
) -> tuple[int, int]:
    """Sector bounds (X, Z) on base (x) the previous stage, from its report.

    ``sweep`` calls it only for a stage with k >= 1, so it never raises
    KIsZero: cut to three degrees, the previous power can only gain end
    homology, so by Kuenneth base (x) that 3-term complex has k >= the
    stage's k, and some sector is active on each side.  The one sector
    that reads the previous stage's lightest relation among its checks
    (``css._Side.minimum("relation")``) needs h_bot > 0 on the base side;
    only then is it searched, for at most ``time_budget`` seconds per
    side, the stage's budget, and it enters as the search's certified
    lower bound.  When the base and the previous stage both have a
    certified side mirror (see ``css._mirror``), side Z gets side X's
    bound: the mirror carries each side's checks, kernel, logicals and
    stabilizers onto the other's with their weights, so the
    ``FactorParams`` of both sides agree, and ``css.analyze`` gave the
    stage the same bounds on both.  No Z ``_Side`` of either is built.
    """
    code, last = prev
    reports = {"X": (last.d_x, last.min_stabilizer_weight_x),
               "Z": (last.d_z, last.min_stabilizer_weight_z)}
    mirrored = css._mirror(base) is not None and css._mirror(code) is not None
    bounds = []
    for side in ("X",) if mirrored else ("X", "Z"):
        s, params = css._side(code, side), factor_params(base, side)
        top = None
        if params.h_bot:
            deadline = None if time_budget is None else time.monotonic() + time_budget
            top = s.minimum("relation", deadline=deadline)
        bounds.append(bound_from_params(params, _factor_params(s, *reports[side], top)))
    return bounds[0], bounds[-1]


def sweep(
    base: CssCode,
    ell_max: int,
    reduced: bool = False,
    weight_cap: int = css.DEFAULT_WEIGHT_CAP,
    time_budget: float | None = 60.0,
    trials: int = css.DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    max_n: int | None = None,
) -> list[SweepRecord]:
    """Analyze the powers of a base code for ell = 1..ell_max.

    Each stage builds the (reduced or full) power, the base itself at
    ell = 1, and runs the budgeted analysis.  For full powers it then
    merges the sector bound of base (x) previous power, whose
    top-homology search also gets the stage's ``time_budget``, into each
    certified distance lower bound of the stage's report through
    ``css._bracket``, which also settles the exactness flag; the report's
    degeneracy verdict follows from the merged bounds.  Capped searches
    record cap + 1, never a guess.  A stage rejected by the resource
    ceiling is recorded in-row (the predicted n, the message in
    ``error``, no report) and the run continues.
    """
    if ell_max < 1:
        raise ValueError("ell_max must be >= 1")
    records: list[SweepRecord] = []
    prev: tuple[CssCode, css.CodeReport] | None = None
    for ell in range(1, ell_max + 1):
        t0 = time.monotonic()
        try:
            code = css_power(base, ell, reduced=reduced, max_n=max_n)
        except ResourceCeiling as exc:
            records.append(SweepRecord(ell, exc.predicted, None, time.monotonic() - t0, str(exc)))
            prev = None
            continue
        report = css.analyze(code, weight_cap, trials, seed + ell, time_budget)
        if not reduced and prev is not None and report.k >= 1:
            bound_x, bound_z = _machine_bounds(base, prev, time_budget)
            report = report._replace(
                d_x=css._bracket(report.d_x, lower=bound_x),
                d_z=css._bracket(report.d_z, lower=bound_z),
            )
        records.append(SweepRecord(ell, report.n, report, time.monotonic() - t0))
        prev = (code, report)
    return records
