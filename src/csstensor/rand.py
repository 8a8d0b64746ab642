"""Seeded random matrices, complexes, and codes for property suites."""

from __future__ import annotations

import random

from . import css, gf2
from .chain import ChainComplex
from .css import CssCode
from .gf2 import BinMatrix


def random_matrix(rng: random.Random, rows: int, cols: int, density: float = 0.5) -> BinMatrix:
    if rows < 0 or cols < 0:
        raise ValueError("negative dimension")
    data = []
    for _ in range(rows):
        bits = 0
        for j in range(cols):
            if rng.random() < density:
                bits |= 1 << j
        data.append(bits)
    return BinMatrix._of_rows(rows, cols, tuple(data))


def _random_combinations(rng: random.Random, basis: BinMatrix, count: int) -> BinMatrix:
    """``count`` random sums of the rows of ``basis``, each row kept with probability 1/2."""
    if count < 0:
        raise ValueError("negative dimension")
    out = []
    for _ in range(count):
        bits = 0
        for row in basis.data:
            if rng.random() < 0.5:
                bits ^= row
        out.append(bits)
    return BinMatrix._of_rows(count, basis.cols, tuple(out))


def random_complex(rng: random.Random, dims: tuple[int, int, int]) -> ChainComplex:
    """A random valid 3-term complex with the given dims.

    boundary 1 is arbitrary; boundary 2 takes its columns from the kernel
    of boundary 1, which enforces the square-zero condition.
    """
    c0, c1, c2 = dims
    d1 = random_matrix(rng, c0, c1)
    d2 = gf2.transpose(_random_combinations(rng, gf2.kernel_basis(d1), c2))
    return ChainComplex(dims, (d1, d2))


def random_complex3(rng: random.Random, max_dim: int = 6) -> ChainComplex:
    """A random valid 3-term complex with dims up to max_dim."""
    c0 = rng.randrange(0, max_dim + 1)
    c1 = rng.randrange(1, max_dim + 1)
    c2 = rng.randrange(0, max_dim + 1)
    return random_complex(rng, (c0, c1, c2))


def random_css_code(rng: random.Random, n: int, r_x: int, r_z: int, min_k: int = 1) -> CssCode:
    """A random CSS code with the requested shape and k >= min_k.

    h_z rows are random combinations of the kernel of h_x, so the CSS
    condition holds by construction.
    """
    for _ in range(200):
        h_x = random_matrix(rng, r_x, n)
        h_z = _random_combinations(rng, gf2.kernel_basis(h_x), r_z)
        code = css.from_matrices(h_x, h_z)
        if css.dimension_k(code) >= min_k:
            return code
    raise RuntimeError(f"no code with k >= {min_k} found in 200 attempts")
