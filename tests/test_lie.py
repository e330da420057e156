import random
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from parafermions import lie
from parafermions.errors import ContractViolationError, InvalidRankError


def from_orthogonal(coords):
    """Dynkin labels from epsilon coordinates (consecutive differences)."""
    return tuple(coords[i] - coords[i + 1] for i in range(len(coords) - 1))


def to_orthogonal(weight, k):
    """Embed a Dynkin-label weight into traceless epsilon coordinates."""
    coords = [sum(map(Fraction, weight[i:]), Fraction(0)) for i in range(k)]
    mean = sum(coords) / k
    return tuple(c - mean for c in coords)


@cache
def inverse_cartan(k):
    return lie.rational_inverse(lie.cartan_matrix(k))[0]


def inner(a, b, k):
    """(a|b) = a^T C^{-1} b for Dynkin labels (root length^2 = 2), read
    from the exact inverse of the A_{k-1} Cartan matrix."""
    return sum(Fraction(x) * g * Fraction(y)
               for x, row in zip(a, inverse_cartan(k)) for g, y in zip(row, b))


def test_cartan_a1():
    inverse, det = lie.rational_inverse(lie.cartan_matrix(2))
    assert lie.cartan_matrix(2) == ((2,),)
    assert inverse == ((Fraction(1, 2),),)
    assert det == 2


def test_cartan_a2():
    assert lie.cartan_matrix(3) == ((2, -1), (-1, 2))
    assert lie.rational_inverse(lie.cartan_matrix(3))[1] == 3


@pytest.mark.parametrize("k", range(2, 9))
def test_cartan_inverse_exact(k):
    cartan = lie.cartan_matrix(k)
    inverse, det = lie.rational_inverse(cartan)
    n = k - 1
    for i in range(n):
        for j in range(n):
            prod = sum(cartan[i][m] * inverse[m][j] for m in range(n))
            assert prod == (1 if i == j else 0)
    assert det == k


def test_cartan_rejects_small_k():
    with pytest.raises(InvalidRankError):
        lie.cartan_matrix(1)


def test_rational_inverse_rejects_singular():
    with pytest.raises(ContractViolationError, match="matrix is singular"):
        lie.rational_inverse([[1, 2], [2, 4]])


def test_rational_solve_is_exact():
    cartan = lie.cartan_matrix(4)
    x = lie.rational_solve(cartan, [1, 0, 0])
    assert x == (Fraction(3, 4), Fraction(1, 2), Fraction(1, 4))


def test_inner_product_a1():
    assert inner([1], [1], 2) == Fraction(1, 2)


def test_inner_product_a2():
    assert inner([1, 0], [0, 1], 3) == Fraction(1, 3)
    assert inner([0, 0], [5, 7], 3) == 0


@pytest.mark.parametrize("k", range(2, 7))
def test_inner_product_symmetric_bilinear(k):
    rng = random.Random(k)
    for _ in range(20):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(k - 1)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(k - 1)]
        c = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
             for _ in range(k - 1)]
        lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert inner(a, b, k) == inner(b, a, k)
        lhs = inner([x + lam * y for x, y in zip(a, c)], b, k)
        rhs = inner(a, b, k) + lam * inner(c, b, k)
        assert lhs == rhs


@pytest.mark.parametrize("k,size", [(2, 2), (3, 6), (4, 24)])
def test_weyl_group_size(k, size):
    perms, signs = lie.weyl_group(k)
    assert perms.shape == (size, k) and signs.shape == (size,)
    assert len({tuple(p) for p in perms}) == size


def test_weyl_group_signs():
    perms, signs = lie.weyl_group(3)
    assert list(signs).count(1) == 3 and list(signs).count(-1) == 3
    sign = dict(zip(map(tuple, perms), signs))
    assert sign[(0, 1, 2)] == 1
    assert sign[(1, 0, 2)] == -1 and sign[(1, 2, 0)] == 1


@pytest.mark.parametrize("k", range(2, 9))
def test_weyl_group_sign_balance(k):
    assert lie.weyl_group(k)[1].sum() == 0


def test_weyl_group_closure():
    perms, signs = lie.weyl_group(4)
    sign = dict(zip(map(tuple, perms), signs))
    rng = random.Random(4)
    sample = rng.sample(range(len(perms)), 8)
    for i in sample:
        for j in sample:
            # the composite permutation is in the group; the sign is a character
            assert sign[tuple(perms[i][perms[j]])] == signs[i] * signs[j]


def test_weyl_group_rejects_small_k():
    with pytest.raises(InvalidRankError):
        lie.weyl_group(1)


@pytest.mark.parametrize("k", range(2, 6))
def test_weyl_action_preserves_inner_product(k):
    rng = random.Random(100 + k)
    perms, _ = lie.weyl_group(k)
    for _ in range(100):
        a = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for _ in range(k - 1)]
        b = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for _ in range(k - 1)]
        perm = perms[rng.randrange(len(perms))]
        wa, wb = (from_orthogonal(np.array(to_orthogonal(x, k))[perm])
                  for x in (a, b))
        assert inner(wa, wb, k) == inner(a, b, k)


def test_orthogonal_roundtrip():
    coords = to_orthogonal([1, 2, 0], 4)
    assert sum(coords) == 0
    assert from_orthogonal(coords) == (1, 2, 0)


def test_orthogonal_embedding_is_isometric():
    a, b = [1, 0, 2], [0, 1, 1]
    ea, eb = to_orthogonal(a, 4), to_orthogonal(b, 4)
    assert sum(x * y for x, y in zip(ea, eb)) == inner(a, b, 4)
