"""Conformal dimensions and monodromy charges of su(k)_2 primaries, per
label and exact: the reference that tests hold the simple-current
phases of `smatrix` against. No module of the package calls them."""

from fractions import Fraction

from parafermions.errors import ConsistencyError
from parafermions.smatrix import CosetWeight


def dim_suk2(w: CosetWeight) -> Fraction:
    """Conformal dimension of the su(k)_2 primary Lam_mu + Lam_nu."""
    k, mu, nu = w.k, w.mu, w.nu
    num = 2 * mu * (k - nu) + (k + 1) * (mu * (k - mu) + nu * (k - nu))
    return Fraction(num, 2 * k * (k + 2))


def monodromy_charge(power_mu: int, w: CosetWeight) -> Fraction:
    """Monodromy charge of w under J^power_mu, reduced to (-1, 0].

    Computed as -mu(rho+sigma)/k and cross-checked against the
    dimension-difference definition; a mismatch is a programming error.
    """
    k = w.k
    q = _reduce_charge(Fraction(-power_mu * (w.mu + w.nu), k))
    via_dims = _monodromy_via_dims(power_mu, w)
    if q != via_dims:
        raise ConsistencyError(
            f"monodromy charge mismatch for J^{power_mu} on {w}: {q} vs {via_dims}"
        )
    return q


def _monodromy_via_dims(power_mu: int, w: CosetWeight) -> Fraction:
    k = w.k
    target = CosetWeight(w.mu + power_mu, w.nu + power_mu, k)
    current = CosetWeight(power_mu, power_mu, k)
    return _reduce_charge(dim_suk2(target) - dim_suk2(w) - dim_suk2(current))


def _reduce_charge(q: Fraction) -> Fraction:
    r = q % 1
    return r - 1 if r > 0 else r
