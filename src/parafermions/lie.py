"""Finite Lie-algebra data for su(k) = A_{k-1}.

Everything here is exact: rational arithmetic (fractions.Fraction) or
integer arrays; floating point never enters. It holds the Cartan matrix,
which the charge lattice's Gram matrix is built from, an exact
Gauss-Jordan inverse and solve, and the Weyl group as the k! permutations
of the orthogonal coordinates, which the tests use to expand the Weyl-Kac
sum term by term.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import ContractViolationError, InvalidRankError


def rational_inverse(matrix):
    """Invert a square matrix of Fractions by Gauss-Jordan elimination.

    Returns (inverse, determinant), both exact.
    """
    n = len(matrix)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ContractViolationError("matrix is singular")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        det *= aug[col][col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    inverse = tuple(tuple(row[n:]) for row in aug)
    return inverse, det


def rational_solve(matrix, rhs):
    """Solve matrix @ x = rhs exactly."""
    inverse, _ = rational_inverse(matrix)
    return tuple(sum(a * b for a, b in zip(row, rhs)) for row in inverse)


def cartan_matrix(k: int) -> tuple:
    """A_{k-1} Cartan matrix as a tuple of int tuples."""
    if k < 2:
        raise InvalidRankError(f"su(k) needs k >= 2, got k={k}")
    n = k - 1
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


def weyl_group(k: int):
    """The k! Weyl elements of A_{k-1} as permutations of the epsilon
    coordinates: (perms, signs), perms of shape (k!, k) and signs
    det(w) = (-1)^(inversions). The size grows as k!; meant for small k.
    """
    if k < 2:
        raise InvalidRankError(f"su(k) needs k >= 2, got k={k}")
    perms = np.array(list(itertools.permutations(range(k))), dtype=np.int64)
    upper = np.triu(np.ones((k, k), dtype=bool), 1)
    inversions = ((perms[:, :, None] > perms[:, None, :]) & upper).sum(axis=(1, 2))
    return perms, 1 - 2 * (inversions % 2)
