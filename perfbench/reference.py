"""Independent reference values for the benchmark's output checks.

Nothing here imports `parafermions`. Labels are plain integer tuples:
(mu, nu) with 0 <= mu <= nu < k for coset / su(k)_2 primaries and
(l, rho) with 0 <= l < k+2, 0 <= rho < k and (l - rho) mod k <= rho for
Read-Rezayi sectors. Every S entry is evaluated from the paper's closed
form with numpy, phase numerators reduced exactly in integers first.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from fractions import Fraction

import numpy as np


def coset_labels(k: int) -> list:
    return [(mu, nu) for mu in range(k) for nu in range(mu, k)]


def canonical(mu: int, nu: int, k: int) -> tuple:
    mu, nu = mu % k, nu % k
    return (mu, nu) if mu <= nu else (nu, mu)


def full_labels(k: int) -> list:
    return [(l, rho) for l in range(k + 2) for rho in range(k)
            if (l - rho) % k <= rho]


def neutral(sector: tuple, k: int) -> tuple:
    """Parafermion label Lam_{(l-rho) mod k} + Lam_rho of a sector."""
    l, rho = sector
    return canonical((l - rho) % k, rho, k)


def su2k_s(k: int) -> np.ndarray:
    """sqrt(2/(k+2)) sin(pi (l+1)(l'+1)/(k+2)), l, l' = 0..k."""
    m = np.arange(1, k + 2)
    return math.sqrt(2 / (k + 2)) * np.sin(np.pi * np.outer(m, m) / (k + 2))


def _unit(num: np.ndarray, den: int) -> np.ndarray:
    """exp(2 pi i num/den) with the integer numerator reduced mod den."""
    return np.exp(2j * np.pi * (np.mod(num, den) / den))


def coset_s(k: int, labels) -> np.ndarray:
    """Level-rank closed form of the su(k)_2 = coset S matrix:
    2/sqrt(k(k+2)) exp(2 pi i (mu+nu)(rho+sigma)/(2k))
    sin(pi (nu-mu+1)(sigma-rho+1)/(k+2))."""
    lab = np.array(labels, dtype=np.int64).reshape(-1, 2)
    m = lab[:, 0] + lab[:, 1]
    d = lab[:, 1] - lab[:, 0] + 1
    sine = np.sin(np.pi * np.outer(d, d) / (k + 2))
    return 2 / math.sqrt(k * (k + 2)) * _unit(np.outer(m, m), 2 * k) * sine


def full_s(k: int, sectors) -> np.ndarray:
    """k * S^{u(1)_{k(k+2)}}_{l,l'} * S^{coset} on the neutral labels."""
    ls = np.array([s[0] for s in sectors], dtype=np.int64)
    charged = _unit(-np.outer(ls, ls), k * (k + 2)) / math.sqrt(k * (k + 2))
    neutral_s = coset_s(k, [neutral(s, k) for s in sectors])
    return k * charged * neutral_s


def quantum_dimension(l: int, k: int) -> float:
    """d_l = sin(pi (l+1)/(k+2)) / sin(pi/(k+2))."""
    return math.sin(math.pi * (l + 1) / (k + 2)) / math.sin(math.pi / (k + 2))


def coset_dimension_of(label: tuple, k: int) -> float:
    mu, nu = label
    return quantum_dimension(nu - mu, k)


def sector_dimension(sector: tuple, k: int) -> float:
    return coset_dimension_of(neutral(sector, k), k)


def central_charge(k: int) -> Fraction:
    return Fraction(2 * (k - 1), k + 2)


def gauss_milgram_residual(dims, conformal, c) -> float:
    """|sum_a d_a^2 exp(2 pi i h_a) - D exp(2 pi i c/8)|, D^2 = sum d_a^2."""
    total = math.sqrt(sum(d * d for d in dims))
    lhs = sum(d * d * cmath.exp(2j * math.pi * float(Fraction(h) % 1))
              for d, h in zip(dims, conformal))
    rhs = total * cmath.exp(2j * math.pi * float(Fraction(c) % 8) / 8)
    return abs(lhs - rhs)


def su2k_fusion(l1: int, l2: int, k: int) -> range:
    """|l1-l2| .. min(l1+l2, 2k-l1-l2) in steps of 2."""
    return range(abs(l1 - l2), min(l1 + l2, 2 * k - l1 - l2) + 1, 2)


def coset_fusion(a: tuple, b: tuple, k: int) -> Counter:
    """Phi^l_m x Phi^l'_m' = sum_l'' Phi^l''_{m+m'} with l = nu - mu,
    m = mu + nu, mapped back to (mu, nu) = ((m-l)/2, (m+l)/2) mod k.
    The identifications (l, m) ~ (l, m+2k) ~ (k-l, m+k) both land on the
    same sorted (mu, nu) mod k."""
    m = a[0] + a[1] + b[0] + b[1]
    return Counter(canonical((m - l) // 2, (m + l) // 2, k)
                   for l in su2k_fusion(a[1] - a[0], b[1] - b[0], k))


def monodromies(s: np.ndarray, vac: int) -> np.ndarray:
    """M_ab = S_ab S_00 / (S_0a S_0b) for every pair."""
    row = s[vac]
    return s * s[vac, vac] / np.outer(row, row)


def gram(k: int) -> np.ndarray:
    """Charge-lattice Gram matrix: corner 3 coupled through single 1s to
    two A_{k-1} Cartan blocks."""
    n = 2 * k - 1
    g = np.zeros((n, n), dtype=np.int64)
    g[0, 0] = 3
    for off in (1, k):
        if k >= 2:
            g[0, off] = g[off, 0] = 1
        for i in range(k - 1):
            g[off + i, off + i] = 2
            if i + 1 < k - 1:
                g[off + i, off + i + 1] = g[off + i + 1, off + i] = -1
    return g
