"""CSS codes as length-3 chain complexes over GF(2).

Bit-packed GF(2) linear algebra, chain complexes with tensor products
and homology-preserving reduction, CSS code analytics (dimension, exact
and randomized distances, degeneracy), tensor products and iterated
powers of codes with sound distance lower bounds, and generators for the
supported code families.
"""

from .chain import ChainComplex
from .css import CodeReport, CssCode, DistanceResult
from .gf2 import BinMatrix, BinVector
from .tensorops import SweepRecord

__all__ = [
    "BinMatrix",
    "BinVector",
    "ChainComplex",
    "CssCode",
    "CodeReport",
    "DistanceResult",
    "SweepRecord",
]

__version__ = "0.1.0"
