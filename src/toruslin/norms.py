"""Certified sup-norm bounds for truncated series on Reinhardt domains.

The upper bound is the triangle inequality applied termwise: each monomial
contributes |coefficient| * sup|h^P| * r^|Q|, with the monomial sup taken
exactly at polytope vertices.  Since the vertical multipliers are unitary,
the same r-power is valid verbatim on every deck translate of the domain.
A seeded pseudo-random sampled maximum provides the matching lower bound
used by the soundness tests.  It is the maximum over the whole sample, but
it evaluates in full only the points whose own triangle bound can reach
it: a branch and bound over the sample points.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import _CHUNK, exponent_sums, modulus, vertical_degrees
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
    return NormBound(domain=domain, value=sup_norm_bounds(f, [[domain]])[0],
                     kind=TRIANGLE)


def sup_norm_bounds(f, unions):
    """The triangle bound for sup |f| over each of several unions of domains
    (each union of a common r), as a list.

    The per-monomial sup over a union is the max of the per-domain sups, so
    a union's bound is tighter than the max of its domains' bounds.
    Multi-component series are bounded in the max norm over components.  A
    domain that appears in several unions (equal ``DomainSpec``s) has its
    monomial sups computed once per component and shared by all of them.
    """
    for domains in unions:
        if any(dom.lattice.n != f.n for dom in domains):
            raise ValueError("series and domain live on different tori")
        if any(dom.r != domains[0].r for dom in domains):
            raise ValueError("union bound expects a common polydisc radius")
    distinct = dict.fromkeys(dom for domains in unions for dom in domains)
    worst = [0.0] * len(unions)
    for k in range(f.components):
        exps, vals = f._arrays(k)
        if len(vals) == 0:
            continue
        Ps, qdeg = exps[:, :f.n].astype(float), exps[:, f.n:].sum(axis=1)
        mods = modulus(vals)
        with np.errstate(over="ignore", invalid="ignore"):
            sups = {dom: dom.sup_monomials(Ps) for dom in distinct}
        for u, domains in enumerate(unions):
            r = float(domains[0].r)
            with np.errstate(over="ignore", invalid="ignore"):
                terms = mods * np.max([sups[dom] for dom in domains],
                                      axis=0) * (r ** qdeg)
            big = ~np.isfinite(terms)
            if big.any():
                # a factor overflowed (sup|h^P| far from |h| = 1): take those
                # terms through log|c| + max<x, P> + |Q| log r instead
                logs = np.log(mods[big]) + np.max(
                    [dom.log_sup_monomials(Ps[big]) for dom in domains],
                    axis=0) + qdeg[big] * np.log(r)
                with np.errstate(over="ignore"):
                    terms[big] = np.exp(logs)
            with np.errstate(over="ignore"):  # inf only past the double range
                worst[u] = max(worst[u], float(terms.sum()))
    return worst


# the unit roundoff of a double
_UNIT = 2.0 ** -53


def _reach(exps, vals, n, x, r):
    """Each sample point's triangle bound on one component, times the
    rounding margin ``1 + gamma``: the most ``modulus`` of the component's
    ``evaluate`` can be there (see ``sampled_lower_bound``).

    exps, vals: the component's kernel arrays, sorted by (P, Q); x: (M, n)
    log-moduli of the points, at which ``|v_j| = r``.
    """
    # the terms sharing P are one run of the sorted table
    P = exps[:, :n]
    first = np.ones(len(P), dtype=bool)
    first[1:] = (P[1:] != P[:-1]).any(axis=1)
    with np.errstate(over="ignore"):
        weights = np.bincount(first.cumsum() - 1, weights=modulus(vals)
                              * r ** vertical_degrees(exps, n).astype(float))
    Ps = P[first].astype(float)
    e = int(np.abs(exps).max())
    k = 4 * len(vals) + 4 * exps.shape[1] * (e + 2) + 16
    margin = 1.0 + k * _UNIT / (1.0 - k * _UNIT)
    out = np.empty(len(x))
    for start in range(0, len(x), _CHUNK):
        pts = slice(start, start + _CHUNK)
        with np.errstate(over="ignore", invalid="ignore"):
            mono = np.exp(exponent_sums(Ps, x[pts]))
            out[pts] = (weights[:, None] * mono).sum(axis=0) * margin
    return out


def sampled_lower_bound(f, domain, points=2048, seed=20260811):
    """Max modulus of f over a seeded pseudo-random sample of the closed
    domain, over every component.

    The sample is ``points`` log-moduli ``x`` from the domain, then a
    phase ``theta`` per h coordinate and one per vertical coordinate, all
    from one generator seeded with ``seed``; each point is ``h = exp(x +
    i theta)`` with ``|v_j| = r``.  There ``|f_k| <= B_k = sum_P W_P
    exp(P . x)``, with ``W_P = sum |c| r^|Q|`` over component k's terms
    with that P: one real ``exp`` per distinct P and point.  The point of
    largest bound is evaluated first, then every point with a component
    whose ``B_k (1 + gamma_k)`` is at least the largest modulus found
    there, or is not finite; no other point can reach that maximum.

    ``gamma_k = k u / (1 - k u)`` with ``u = 2^-53`` and ``k = 4 N + 4 (n
    + d)(e + 2) + 16``, for N the component's terms and e its largest
    exponent magnitude, bounds the rounding of both sides (Higham,
    *Accuracy and Stability of Numerical Algorithms*, §3.1): the
    ``exponent_sums`` and their ``exp`` are the same in the bound and in
    ``evaluate``, each power table entry takes at most ``e + 1`` complex
    operations and each term ``n + d + 1`` more, and each sum at most N
    additions.  ``evaluate`` gives a point the same bits whatever points
    share the call, so, barring underflow at an intermediate step, the
    value is bit for bit the maximum of ``modulus`` over every point of
    the sample.

    Raises ValueError if an evaluated value is not finite: a ``nan``
    maximum compares false against every upper bound and would pass as
    sound.  Every point whose bound is not finite is evaluated, and
    ``evaluate`` overflows only where a term's bound nearly does, so a
    non-finite value anywhere in the sample raises here too (unless a
    table of negative vertical powers overflows, which no series this
    package builds has).
    """
    rng = np.random.default_rng(seed)
    x = domain.sample_log_points(rng, points)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=x.shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(points, f.d))
    reach = np.zeros(points)
    for k in range(f.components):
        exps, vals = f._arrays(k)
        if len(vals):
            # a nan bound stays nan
            np.maximum(reach, _reach(exps, vals, f.n, x, domain.r), out=reach)

    def largest(idx):
        logh = x[idx] + 1j * theta[idx]
        v = domain.r * np.exp(1j * phases[idx])
        with np.errstate(over="ignore", invalid="ignore"):
            values = f.evaluate(logh, v)
        if not np.isfinite(values).all():
            raise ValueError("sampled values of the series are not finite "
                             "on %s" % domain.describe())
        return float(modulus(values).max(initial=0.0))

    value = 0.0
    if points and f.nterms():
        value = largest([np.argmax(reach)])
        value = max(value, largest(np.flatnonzero(~(reach < value))))
    return NormBound(domain=domain, value=value, kind=SAMPLED)
