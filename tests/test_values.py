"""Value semantics of the package's value and record types.

The four validated value types (``BinVector``, ``BinMatrix``,
``ChainComplex``, ``CssCode``) and the plain records are immutable, equal
and hash alike when their fields are equal, and keep their checks.
"""

from __future__ import annotations

import pickle
import weakref

import pytest

from csstensor import chain, css, families, tensorops, verify
from csstensor.gf2 import BinMatrix, BinVector


def _pairs() -> list[tuple[object, object, str]]:
    """(value, an equal value built separately, a field name) for each type."""
    steane = families.steane
    dist = css.DistanceResult(3, 3, True, BinVector(7, 0b111))
    profile = css.weight_profile(steane())
    report = css.CodeReport(7, 1, dist, dist, profile, None, None)
    fp = tensorops.factor_params(steane(), "X")
    return [
        (BinVector(5, 0b10110), BinVector(5, 0b10110), "bits"),
        (BinMatrix(2, 3, (1, 6)), BinMatrix(2, 3, (1, 6)), "data"),
        (css.to_complex(steane()), css.to_complex(steane()), "dims"),
        (steane(), steane(), "h_x"),
        (dist, css.DistanceResult(3, 3, True, BinVector(7, 0b111)), "lower"),
        (profile, css.weight_profile(steane()), "max_row_weight_x"),
        (report, css.CodeReport(7, 1, dist, dist, profile, None, None), "k"),
        (fp, tensorops.factor_params(steane(), "X"), "d_lo"),
        (
            tensorops.SweepRecord(1, 7, report, 0.5),
            tensorops.SweepRecord(
                1, 7, css.CodeReport(7, 1, dist, dist, profile, None, None), 0.5
            ),
            "report",
        ),
        (verify.PropertyResult("p", 3, 0), verify.PropertyResult("p", 3, 0), "checks"),
    ]


PAIRS = _pairs()


@pytest.mark.parametrize("value, twin, field", PAIRS, ids=[type(p[0]).__name__ for p in PAIRS])
def test_immutable_equal_and_hashed_by_fields(value, twin, field):
    assert value is not twin
    assert value == twin and not value != twin
    assert hash(value) == hash(twin)
    assert pickle.loads(pickle.dumps(value)) == value
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


def test_unequal_fields_differ():
    assert BinMatrix(2, 3, (1, 6)) != BinMatrix(2, 3, (1, 4))
    assert BinVector(5, 1) != BinVector(6, 1)
    # another value type or a non-value compares unequal, never by fields
    assert BinVector(1, 1) != BinMatrix(1, 1, (1,)) and BinVector(5, 1) != (5, 1)
    assert BinVector(5, 1).__eq__(BinMatrix(1, 1, (1,))) is NotImplemented
    w = BinVector(7, 0b1111)
    assert css.DistanceResult(3, 4, False, w) != css.DistanceResult(3, 5, False, w)


def test_code_side_cache_is_not_part_of_the_value():
    code, twin = families.steane(), families.steane()
    key = hash(code)
    css._side(code, "X")
    assert code._sides and not twin._sides
    assert code == twin and hash(code) == key == hash(twin)
    assert "_sides" not in repr(code)


def test_weak_references_to_matrices_and_complexes():
    m = BinMatrix(1, 2, (3,))
    x = chain.ChainComplex((2, 1), (BinMatrix(2, 1, (1, 0)),))
    refs = [weakref.ref(m), weakref.ref(x)]
    assert [r() for r in refs] == [m, x]
    del m, x
    assert [r() for r in refs] == [None, None]


def test_checks_kept():
    with pytest.raises(ValueError):
        BinMatrix(1, 1, (2,))
    with pytest.raises(ValueError):
        BinVector(2, 4)
    with pytest.raises(ValueError):
        chain.ChainComplex((), ())
    with pytest.raises(ValueError):
        css.CssCode(7, BinMatrix.zeros(0, 7), BinMatrix.zeros(0, 6))


BAD_INPUTS = {
    "matrix-row-count": (lambda: BinMatrix(2, 3, (1,)), "row count does not match data"),
    "from-rows-ragged": (lambda: BinMatrix.from_rows([[1, 0], [1]]), "ragged rows"),
    "vector-negative": (lambda: BinVector(-1, 0), "negative length"),
    "from-support-range": (lambda: BinVector.from_support(3, [0, 3]),
                           "index 3 out of range for length 3"),
    "complex-boundary-count": (lambda: chain.ChainComplex((1, 2), ()),
                               "expected 1 boundary maps, got 0"),
}


@pytest.mark.parametrize("build, message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_malformed_inputs_raise_value_error(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_repr_names_the_fields():
    assert repr(BinMatrix(1, 2, (3,))) == "BinMatrix(rows=1, cols=2, data=(3,))"
    assert repr(css.DistanceResult(2, 3, False, BinVector(3, 0b111))) == (
        "DistanceResult(lower=2, upper=3, exact=False, witness=BinVector(n=3, bits=7))"
    )


def test_sequence_fields_are_stored_as_tuples():
    m = BinMatrix(2, 3, [1, 2])
    assert type(m.data) is tuple and m == BinMatrix(2, 3, (1, 2))
    assert hash(m) == hash(BinMatrix(2, 3, (1, 2)))
    z = BinMatrix.zeros(1, 2)
    x = chain.ChainComplex([1, 2], [z])
    assert type(x.dims) is tuple and type(x.boundaries) is tuple
    twin = chain.ChainComplex((1, 2), (z,))
    assert x == twin and hash(x) == hash(twin)
    assert pickle.loads(pickle.dumps(x)) == x


def test_non_integer_rows_raise_type_error():
    for row in (1.5, "1", None):
        with pytest.raises(TypeError):
            BinMatrix(1, 2, (row,))


FLOAT_SIZES = {
    "matrix-rows": lambda: BinMatrix(2.0, 3, (1, 2)),
    "matrix-cols": lambda: BinMatrix(2, 3.0, (1, 2)),
    "zeros": lambda: BinMatrix.zeros(2, 3.0),
    "identity": lambda: BinMatrix.identity(2.0),
    "from-support-rows": lambda: BinMatrix.from_support(2.0, 3, [[0], [1]]),
    "from-support-cols": lambda: BinMatrix.from_support(2, 3.0, [[0], [1]]),
    "vector": lambda: BinVector(3.0, 1),
    "complex-dims": lambda: chain.ChainComplex((1.0, 2), (BinMatrix.zeros(1, 2),)),
}


@pytest.mark.parametrize("build", FLOAT_SIZES.values(), ids=FLOAT_SIZES.keys())
def test_float_sizes_raise_type_error(build):
    with pytest.raises(TypeError):
        build()
