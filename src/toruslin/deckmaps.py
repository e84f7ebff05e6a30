"""Deck transformations in split form and their composition calculus.

A deck map is (h, v) -> (T h + a(h, v), M v + b(h, v)) with diagonal T, M
and perturbations a, b vanishing to order >= 2 in v.  Composing a series
with such a map expands the h-part multiplicatively:

    (lam_k h_k + a_k)^p = lam_k^p h_k^p (1 + u_k)^p,
    u_k = a_k / (lam_k h_k),

where (1 + u)^p is a finite binomial sum for any integer p (negative
included): ord_v u >= 2, and the factor v^Q that the h-part multiplies has
order >= ord_v f, so at most (vmax - ord_v f) // 2 factors of u reach the
output.  Every product is thus a finite Laurent polynomial in h, and the
result is the exact composition truncated at the requested vmax.
"""

from collections import Counter
from dataclasses import dataclass
from math import factorial

import numpy as np

from .series import (TruncatedSeries, _scatter, invert_vertical_map,
                     linear_combinations, scale_components, substitute_vertical)

COMMUTE_TOL = 1e-10


class DeckMapError(ValueError):
    pass


def _gen_binom(p, s):
    """Generalized binomial coefficient C(p, s) for integer p, s >= 0."""
    num = 1
    for t in range(s):
        num *= p - t
    return num / factorial(s) if s else 1.0


@dataclass
class DeckMap:
    """One deck transformation in split (diagonal + perturbation) form."""

    lam: np.ndarray
    mu: np.ndarray
    pert_h: TruncatedSeries
    pert_v: TruncatedSeries

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=np.complex128)
        self.mu = np.asarray(self.mu, dtype=np.complex128)
        n, d = len(self.lam), len(self.mu)
        if (self.pert_h.n, self.pert_h.d) != (n, d) or \
           (self.pert_v.n, self.pert_v.d) != (n, d):
            raise DeckMapError("perturbation dimensions do not match multipliers")
        if self.pert_h.components != n or self.pert_v.components != d:
            raise DeckMapError("perturbations need n and d components")
        if self.pert_h.v_order() < 2 or self.pert_v.v_order() < 2:
            raise DeckMapError("perturbations must vanish to order >= 2 in v")

    @property
    def n(self):
        return len(self.lam)

    @property
    def d(self):
        return len(self.mu)

    def pert_scale(self):
        return max(self.pert_h.max_abs(), self.pert_v.max_abs())


def compose_with_map(f, m, vmax=None):
    """The composition f o m for a deck map m, truncated at ``vmax``.

    Terms are grouped by vertical exponent: the horizontal part of each
    group is a linear combination of cached binomial powers (no products),
    then one product with the cached vertical power attaches v^Q.  The
    binomial series, one per (k, p_k) the terms need, are formed together
    by one ``linear_combinations`` call (one segment sum over the scaled
    records of every summand of every sum), and each group sum by another,
    not by chains of ``add`` and ``scale``: the same records in the same
    order, so the same sums and ``discarded``.  In a group sum the factor
    ``lam^P h^P`` of each term is not formed as a series: its summand is
    the product of binomial series with the shift ``P`` and the pre-factor
    ``lam^P``, which the sum applies to its records as ``shift_h`` and
    ``scale`` would.  The group pieces go into the output in one
    ``_scatter``, each piece's ``discarded`` after its records: the sums
    and ``discarded`` of adding them one group at a time.  Where ``u_k`` is
    exactly zero (no terms, no truncation record), as when ``pert_h`` is
    zero, ``(1 + u_k)^p`` is the unit and is not formed: multiplying by it
    would change no bit.

    The vertical power has order |Q| >= ord_v f, so only the horizontal
    factor's terms of degree <= vmax - ord_v f can reach the output: the u
    powers, the binomial series and the group sums are computed on that
    window (u powers up to (vmax - ord_v f) // 2) and widened back to vmax
    before the product with the vertical power.  The terms left out would
    only have formed pairs above vmax.
    """
    vmax = f.vmax if vmax is None else vmax
    n, d = f.n, f.d
    hwin = max(vmax - f.v_order(), 0)
    smax = hwin // 2

    # u_k = pert_h_k / (lam_k h_k) and its powers u_k^1 .. u_k^smax; None
    # where u_k is exactly zero, so that (1 + u_k)^p is exactly 1
    upow = []
    for k in range(n):
        ek = tuple(-1 if t == k else 0 for t in range(n))
        u = m.pert_h.component(k).cut(hwin)
        if u.nterms() == 0 and not u.discarded:
            upow.append(None)
            continue
        u = u.with_window(vmax=hwin).shift_h(ek).scale(1.0 / m.lam[k])
        table = [None, u]
        for s in range(2, smax + 1):
            table.append(table[-1].mul(u))
        upow.append(table)

    # (mu_j v_j + pert_v_j)^q
    terms = list(f.terms())
    qmax_needed = {}
    for _, _, Q, _ in terms:
        for j, q in enumerate(Q):
            if q:
                qmax_needed[j] = max(qmax_needed.get(j, 0), q)
    vpow = {}
    for j, qm in qmax_needed.items():
        ej = tuple(1 if t == j else 0 for t in range(d))
        w = TruncatedSeries.monomial(n, d, 0, (0,) * n, ej, m.mu[j],
                                     components=1, vmax=vmax)
        w = w.add(m.pert_v.component(j).with_window(vmax=vmax))
        table = [None, w]
        for q in range(2, qm + 1):
            table.append(table[-1].mul(w))
        vpow[j] = table

    one = TruncatedSeries.monomial(n, d, 0, (0,) * n, (0,) * d, 1.0,
                                   components=1, vmax=hwin)

    # the binomial series (1 + u_k)^p for every (k, p) the terms need, each
    # kept until the last horizontal factor that uses it is formed
    hexps = list(dict.fromkeys(P for _, P, _, _ in terms))
    uses = Counter((k, p) for P in hexps for k, p in enumerate(P)
                   if p and smax and upow[k])
    needed = sorted(uses)
    binom = dict(zip(needed, linear_combinations(
        [[(one, 1.0)] + [(upow[k][s], _gen_binom(p, s))
                         for s in range(1, smax + 1) if _gen_binom(p, s)]
         for k, p in needed])))
    del upow  # read by the binomial series alone

    def binom_power_series(P):
        """prod_k (1 + u_k)^{p_k} as a scalar series, and lam^P."""
        acc = one
        lam_fac = 1.0 + 0.0j
        for k, p in enumerate(P):
            lam_fac *= m.lam[k] ** int(p)
            if (k, p) not in uses:  # p = 0, smax = 0 or u_k = 0
                continue
            piece = binom[(k, p)]
            uses[(k, p)] -= 1
            if not uses[(k, p)]:
                del binom[(k, p)]
            # the first factor is taken as is, not multiplied into the unit
            acc = piece if acc is one else acc.mul(piece)
        return acc, lam_fac

    out = f._like(vmax=vmax)
    out.discarded = f.discarded
    groups = {}
    for k, P, Q, c in terms:
        groups.setdefault((k, Q), []).append((P, c))
    groups = sorted(groups.items())
    hcache = {P: binom_power_series(P) for P in hexps}
    pieces = []
    for (k, Q), group in groups:
        # lam^P h^P prod_k (1 + u_k)^{p_k}, shifted and scaled in the sum
        (hpart,) = linear_combinations([[(hcache[P][0], c, P, hcache[P][1])
                                         for P, c in group]])
        piece = hpart.with_window(vmax=vmax)
        for j, q in enumerate(Q):
            if q:
                piece = piece.mul(vpow[j][q])
        pieces.append((k, *piece._arrays(0), piece.discarded))
    if pieces:
        ks, exps, vals, lost = zip(*pieces)
        counts = [len(v) for v in vals]
        _scatter([out], None, np.repeat(ks, counts) if f.components > 1
                 else None, np.concatenate(exps), np.concatenate(vals),
                 [list(zip(np.cumsum(counts).tolist(), lost))])
    return out


def substitute_into_map(m, H):
    """The map m o (h, v + H): vertical pre-composition."""
    pert_h = substitute_vertical(m.pert_h, H)
    shifted_b = substitute_vertical(m.pert_v, H)
    pert_v = scale_components(H, m.mu).add(shifted_b)
    return DeckMap(lam=m.lam, mu=m.mu, pert_h=pert_h, pert_v=pert_v)


def conjugate_by_vertical(m, G, H=None):
    """Phi o m o Phi^{-1} for Phi = (h, v + G); H optionally precomputed."""
    if H is None:
        H = invert_vertical_map(G)
    inner = substitute_into_map(m, H)
    lifted = compose_with_map(G, inner, vmax=G.vmax)
    return DeckMap(lam=m.lam, mu=m.mu, pert_h=inner.pert_h,
                   pert_v=inner.pert_v.add(lifted))


def compose_maps(m1, m2):
    """The deck map m1 o m2 (apply m2 first), at m1's vmax."""
    vmax = m1.pert_h.vmax
    a1_of = compose_with_map(m1.pert_h, m2, vmax=vmax)
    b1_of = compose_with_map(m1.pert_v, m2, vmax=vmax)
    pert_h = scale_components(m2.pert_h, m1.lam).restrict(vmax).add(a1_of)
    pert_v = scale_components(m2.pert_v, m1.mu).restrict(vmax).add(b1_of)
    return DeckMap(lam=m1.lam * m2.lam, mu=m1.mu * m2.mu,
                   pert_h=pert_h, pert_v=pert_v)


def invert_map(m):
    """The inverse deck map, by fixed-point refinement in the v-filtration.

    Each sweep settles one more vertical degree: the degree-k part of
    m's perturbations composed with the current inverse reads the
    inverse's perturbations only below degree k, so sweep s = 0, 1, ... is
    exact through degree s + 2 and is computed only that far, on m and the
    current inverse cut there.  What it leaves out is exactly what the next,
    wider sweep recomputes, and every coefficient it does form is the same
    sum in the same order as in a full-window sweep.  The first sweep on
    the full vmax window is the last: it reads the inverse only through
    degree vmax - 1, which the sweep before it has settled (the start, no
    perturbation, is exact below degree 2), so a further sweep would give
    the same coefficients and truncation records bit for bit.
    """
    n, d = m.n, m.d
    vmax = m.pert_h.vmax
    inv = DeckMap(lam=1.0 / m.lam, mu=1.0 / m.mu,
                  pert_h=TruncatedSeries.zero(n, d, n, vmax),
                  pert_v=TruncatedSeries.zero(n, d, d, vmax))
    for window in range(min(vmax, 2), vmax + 1):
        cur = DeckMap(lam=inv.lam, mu=inv.mu, pert_h=inv.pert_h.cut(window),
                      pert_v=inv.pert_v.cut(window))
        a_of = compose_with_map(m.pert_h.cut(window), cur, vmax=window)
        b_of = compose_with_map(m.pert_v.cut(window), cur, vmax=window)
        new_h = scale_components(a_of, 1.0 / m.lam).scale(-1.0)
        new_v = scale_components(b_of, 1.0 / m.mu).scale(-1.0)
        inv = DeckMap(lam=inv.lam, mu=inv.mu,
                      pert_h=new_h.with_window(vmax=vmax),
                      pert_v=new_v.with_window(vmax=vmax))
    return inv


def map_difference(m1, m2):
    """Componentwise coefficient difference of two maps (same diagonal part)."""
    if not (np.allclose(m1.lam, m2.lam) and np.allclose(m1.mu, m2.mu)):
        raise DeckMapError("maps differ already in their diagonal part")
    return (m1.pert_h - m2.pert_h, m1.pert_v - m2.pert_v)
