"""Certified sup-norm bounds for truncated series on Reinhardt domains.

The upper bound is the triangle inequality applied termwise: each monomial
contributes |coefficient| * sup|h^P| * r^|Q|, with the monomial sup taken
exactly at polytope vertices.  Since the vertical multipliers are unitary,
the same r-power is valid verbatim on every deck translate of the domain.
A quasi-random sampled maximum provides the matching lower bound used by
the soundness tests.
"""

from dataclasses import dataclass

import numpy as np

from .lattice import DomainSpec

TRIANGLE = "coefficient-triangle-bound"
SAMPLED = "sampled-lower-bound"


@dataclass(frozen=True)
class NormBound:
    domain: DomainSpec
    value: float
    kind: str


def sup_norm_bound(f, domain):
    """Triangle-inequality upper bound for sup |f| over the domain."""
    return NormBound(domain=domain, value=sup_norm_bound_union(f, [domain]),
                     kind=TRIANGLE)


def sup_norm_bound_union(f, domains):
    """Triangle bound for sup |f| over a union of domains (same r).

    The per-monomial sup over a union is the max of the per-domain sups, so
    this is tighter than the max of the per-domain triangle bounds.
    Multi-component series are bounded in the max norm over components.
    """
    if any(dom.lattice.n != f.n for dom in domains):
        raise ValueError("series and domain live on different tori")
    r = domains[0].r
    if any(dom.r != r for dom in domains):
        raise ValueError("union bound expects a common polydisc radius")
    worst = 0.0
    for k in range(f.components):
        exps, vals = f._arrays(k)
        if len(vals) == 0:
            continue
        Ps, qdeg = exps[:, :f.n].astype(float), exps[:, f.n:].sum(axis=1)
        with np.errstate(over="ignore", invalid="ignore"):
            sups = np.max([dom.sup_monomials(Ps) for dom in domains], axis=0)
            terms = np.abs(vals) * sups * (float(r) ** qdeg)
        big = ~np.isfinite(terms)
        if big.any():
            # a factor overflowed (sup|h^P| far from |h| = 1): take those
            # terms through log|c| + max<x, P> + |Q| log r instead
            logs = np.log(np.abs(vals[big])) + np.max(
                [dom.log_sup_monomials(Ps[big]) for dom in domains], axis=0) \
                + qdeg[big] * np.log(float(r))
            with np.errstate(over="ignore"):
                terms[big] = np.exp(logs)
        with np.errstate(over="ignore"):  # inf only past the double range
            worst = max(worst, float(terms.sum()))
    return worst


def sampled_lower_bound(f, domain, points=2048, seed=20260811):
    """Max modulus over a seeded quasi-random sample of the closed domain.

    Raises ValueError if any sampled value is not finite: a ``nan`` maximum
    compares false against every upper bound and would pass as sound.
    """
    rng = np.random.default_rng(seed)
    x = domain.sample_log_points(rng, points)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=x.shape)
    logh = x + 1j * theta
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(points, f.d))
    v = domain.r * np.exp(1j * phases)
    with np.errstate(over="ignore", invalid="ignore"):
        values = f.evaluate(logh, v)
    if not np.isfinite(values).all():
        raise ValueError("sampled values of the series are not finite on %s"
                         % domain.describe())
    return NormBound(domain=domain,
                     value=float(np.abs(values).max(initial=0.0)),
                     kind=SAMPLED)
