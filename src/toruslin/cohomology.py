"""Vertical cohomological equations solved by small-divisor division.

The operator attached to generator i acts on a d-component series G by
``T_i(G) = G o tauhat_i - M_i G``, which on coefficients is multiplication
by ``lambda_i^P mu_i^Q - mu_{i,j}`` in component j.  Solving the family
system T_i(G) = F_i therefore divides, coefficient by coefficient, by the
divisor of the generator realizing the largest modulus; compatibility of
the right hand sides makes the choice immaterial and the solution unique.
The equations of the inverse maps (inverse diagonal map and M_i^{-1}) are
the same equations on the inverse multipliers, ``MultiplierData.inverse()``.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import modulus
from .divisors import ResonanceError, is_resonant, small_divisors
from .lattice import DomainSpec
from .norms import NormBound, sup_norm_bound
from .series import TruncatedSeries

COMPAT_TOL = 1e-10


class CompatibilityError(ValueError):
    pass


@dataclass
class CompatibleFamily:
    """Right-hand sides F_1..F_n of the family system."""

    rhs: list

    def __post_init__(self):
        base = self.rhs[0]
        for F in self.rhs:
            if (F.n, F.d, F.components) != (base.n, base.d, base.components):
                raise CompatibilityError("family members must share dimensions")
            if F.components != F.d:
                raise CompatibilityError("family members must have d components")
            if F.v_order() < 2:
                raise CompatibilityError("family members must vanish to order"
                                         " >= 2 in v")

    @property
    def n(self):
        return len(self.rhs)

    def keys(self):
        return self._coefficients()[0]

    def _coefficients(self):
        """Every key of the right-hand sides, sorted, and at each key the
        coefficient of every F_i (0 where it has none): each F_i's terms
        read once."""
        table = {}
        for i, F in enumerate(self.rhs):
            for k, P, Q, c in F.terms():
                table.setdefault((k, P, Q), [0j] * self.n)[i] = c
        keys = sorted(table)
        return keys, [table[key] for key in keys]


@dataclass(frozen=True)
class CompatibilityReport:
    max_abs: float
    max_rel: float
    worst_key: tuple | None

    def ok(self):
        return self.max_rel <= COMPAT_TOL


def _divisors_at(data, keys, form="weak"):
    """Each generator's divisor at each key (k, P, Q): a (len(keys), n) array."""
    div = small_divisors(data, [P for _, P, _ in keys],
                         [Q for _, _, Q in keys], form)
    return div[np.arange(len(keys)), [k for k, _, _ in keys]]


def check_compatibility(family, data, coefficients=None, div=None):
    """Residuals of the pairwise coefficient identities.

    For every generator pair (a, b) and key (k, Q, P), the cross products
    ``divisor_a * F_b - divisor_b * F_a`` must vanish.  ``max_rel``
    normalizes each residual by the size of the crossed terms, which is the
    meaningful gate when Laurent multipliers make coefficient magnitudes
    span many decades.  ``family._coefficients()`` and the divisors at its
    keys are used as given when passed as ``coefficients`` and ``div``.
    """
    worst_abs, worst_rel, worst_key = 0.0, 0.0, None
    keys, values = coefficients or family._coefficients()
    if div is None:
        div = _divisors_at(data, keys)
    for key, coeffs, facs in zip(keys, values, div):
        for a in range(family.n):
            for b in range(a + 1, family.n):
                cross_ab = facs[a] * coeffs[b]
                cross_ba = facs[b] * coeffs[a]
                res = abs(cross_ab - cross_ba)
                ref = max(abs(cross_ab), abs(cross_ba))
                rel = res / ref if ref > 0 else 0.0
                worst_abs = max(worst_abs, res)
                if rel > worst_rel:
                    worst_rel, worst_key = rel, key
    return CompatibilityReport(max_abs=worst_abs, max_rel=worst_rel,
                               worst_key=worst_key)


@dataclass
class SolutionCertificate:
    """G, its bound on the shrunk domain and the solve's records; G composed
    with tauhat_i^{+-1} is not bounded, as no output reads that bound."""

    G: TruncatedSeries
    bound: NormBound
    theoretical: float | None
    compat_residual: float
    divisors_used: dict


def _shrunk_domain(lattice, eps, r, delta, rho):
    """The domain (eps - delta/kappa, r e^{-rho}) a solution is certified on."""
    kappa = lattice.decay_rate()
    if not 0 < delta < kappa * eps:
        raise ValueError("need 0 < delta < kappa*eps = %r" % (kappa * eps,))
    if rho <= 0:
        raise ValueError("need rho > 0")
    return DomainSpec(lattice, eps - delta / kappa, r * float(np.exp(-rho)))


def _theoretical_bound(norm_f, delta, rho, constants):
    gamma = constants.tau_eff + constants.nu
    return norm_f * (constants.C1 / delta ** gamma + constants.C1 / rho ** gamma)


def solve_family(family, data, lattice, eps, r, delta, rho, constants=None):
    """Solve T_i(G) = F_i for all generators at once.

    Each coefficient divides by the divisor of the generator where the
    divisor modulus is largest (smallest index on ties); G alone is
    certified, on the shrunk domain (eps - delta/kappa, r e^{-rho}).  For
    the equations of the inverse maps pass ``data.inverse()``.
    """
    dom = _shrunk_domain(lattice, eps, r, delta, rho)
    keys, values = coefficients = family._coefficients()
    div = _divisors_at(data, keys)
    report = check_compatibility(family, data, coefficients, div)
    if not report.ok():
        raise CompatibilityError(
            "family incompatible: relative residual %.3e exceeds %.3e at %s"
            % (report.max_rel, COMPAT_TOL, (report.worst_key,)))

    moduli = modulus(div)
    sizes = np.array([sum(map(abs, P)) + sum(Q) for _, P, Q in keys])
    for (k, P, Q), bad in zip(keys, is_resonant(moduli.max(axis=1), sizes)):
        if bad:
            raise ResonanceError(P, Q, k)
    base = family.rhs[0]
    used, coeffs = {}, {}
    # the generator with the largest modulus, the smallest index on ties;
    # scalar-exact moduli decide a near tie the same on every CPU
    for key, cs, row, iv in zip(keys, values, div,
                                moduli.argmax(axis=1).tolist()):
        divisor = row[iv]
        c = cs[iv]
        if c:
            coeffs[key] = c / divisor
        used[key] = (iv, divisor)
    G = TruncatedSeries(base.n, base.d, base.d, base.vmax, coeffs=coeffs)

    theoretical = None
    if constants is not None:
        base_dom = DomainSpec(lattice, eps, r)
        theoretical = _theoretical_bound(
            max(sup_norm_bound(F, base_dom).value for F in family.rhs),
            delta, rho, constants)
    return SolutionCertificate(G=G, bound=sup_norm_bound(G, dom),
                               theoretical=theoretical,
                               compat_residual=report.max_rel,
                               divisors_used=used)


def solve_single(F_i, i, data, lattice, eps, r, delta, rho, sign=1,
                 constants=None, fit=None):
    """Solve the single-generator equation T_{+-i}(G) = F_i by division.

    Under a strong Diophantine fit with no resonances, the output glues
    with the family solution on shared coefficients (tested, not assumed).
    """
    if F_i.components != F_i.d:
        raise CompatibilityError("rhs must have d components")
    if F_i.v_order() < 2:
        raise CompatibilityError("rhs must vanish to order >= 2 in v")
    if fit is not None and (fit.form != "strong" or fit.resonant):
        raise ValueError("solve_single requires a non-resonant strong fit")
    dom = _shrunk_domain(lattice, eps, r, delta, rho)
    terms = list(F_i.terms())
    div = _divisors_at(data, [(k, P, Q) for k, P, Q, _ in terms],
                       "weak" if sign > 0 else "inverse")[:, i]
    used, coeffs = {}, {}
    for (k, P, Q, c), divisor in zip(terms, div):
        if is_resonant(abs(divisor), sum(map(abs, P)) + sum(Q)):
            raise ResonanceError(P, Q, k, i)
        coeffs[k, P, Q] = c / divisor
        used[k, P, Q] = (i, divisor)
    G = TruncatedSeries(F_i.n, F_i.d, F_i.d, F_i.vmax, coeffs=coeffs)

    theoretical = None
    if constants is not None:
        ref_dom = DomainSpec(lattice, eps, r,
                             word=((i, -2),) if sign > 0 else ((i, 2),))
        theoretical = _theoretical_bound(sup_norm_bound(F_i, ref_dom).value,
                                         delta, rho, constants)
    return SolutionCertificate(G=G, bound=sup_norm_bound(G, dom),
                               theoretical=theoretical, compat_residual=0.0,
                               divisors_used=used)

