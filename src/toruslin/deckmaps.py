"""Deck transformations in split form and their composition calculus.

A deck map is (h, v) -> (T h + a(h, v), M v + b(h, v)) with diagonal T, M
and perturbations a, b vanishing to order >= 2 in v.  Composing a series
with such a map expands the h-part multiplicatively:

    (lam_k h_k + a_k)^p = lam_k^p h_k^p (1 + u_k)^p,
    u_k = a_k / (lam_k h_k),

where (1 + u)^p is a finite binomial sum for any integer p (negative
included): ord_v u >= 2, and the factor v^Q that the h-part multiplies has
order >= ord_v f, so at most (vmax - ord_v f) // 2 factors of u reach the
output.
Products run on a widened horizontal band so the result is the exact
composition projected to the requested window.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .series import (TruncatedSeries, invert_vertical_map, scale_components,
                     substitute_vertical)

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


def identity_map(n, d, vmax, hband):
    zero_h = TruncatedSeries.zero(n, d, n, vmax, hband)
    zero_v = TruncatedSeries.zero(n, d, d, vmax, hband)
    return DeckMap(lam=np.ones(n), mu=np.ones(d), pert_h=zero_h, pert_v=zero_v)


def compose_with_map(f, m, vmax=None, hband=None):
    """Exact-then-project composition f o m for a deck map m.

    Terms are grouped by vertical exponent: the horizontal part of each
    group is a linear combination of cached binomial powers (no products),
    then one product with the cached vertical power attaches v^Q.  The
    binomial series and the group sums are summed in place into one table
    each (``_iadd``), not rebuilt by a chain of ``add``: the same records
    in the same order, so the same sums and ``discarded``.

    The vertical power has order |Q| >= ord_v f, so only the horizontal
    factor's terms of degree <= vmax - ord_v f can reach the output: the u
    powers, the binomial series and the group sums are computed on that
    window (u powers up to (vmax - ord_v f) // 2) and widened back to vmax
    before the product with the vertical power.  The terms left out would
    only have formed pairs above vmax.
    """
    vmax = f.vmax if vmax is None else vmax
    hband = f.hband if hband is None else hband
    n, d = f.n, f.d
    pw = max(m.pert_h.hband + 1, m.pert_v.hband, 1)
    work = max(hband, f.hband) + (vmax // 2) * pw
    hwin = max(vmax - f.v_order(), 0)
    smax = hwin // 2

    # u_k = pert_h_k / (lam_k h_k) and its powers u_k^1 .. u_k^smax
    upow = []
    for k in range(n):
        ek = tuple(-1 if t == k else 0 for t in range(n))
        u = m.pert_h.component(k).cut(hwin).with_window(vmax=hwin, hband=work)
        u = u.shift_h(ek).scale(1.0 / m.lam[k])
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
                                     components=1, vmax=vmax, hband=work)
        w = w.add(m.pert_v.component(j).with_window(vmax=vmax, hband=work))
        table = [None, w]
        for q in range(2, qm + 1):
            table.append(table[-1].mul(w))
        vpow[j] = table

    one = TruncatedSeries.monomial(n, d, 0, (0,) * n, (0,) * d, 1.0,
                                   components=1, vmax=hwin, hband=work)

    def binom_power_series(P):
        """lam^P h^P prod_k (1 + u_k)^{p_k} as a scalar series."""
        acc = one
        lam_fac = 1.0 + 0.0j
        for k, p in enumerate(P):
            lam_fac *= m.lam[k] ** int(p)
            if p == 0 or smax == 0:
                continue
            piece = one.copy()
            for s in range(1, smax + 1):
                cbin = _gen_binom(int(p), s)
                if cbin:
                    piece._iadd(upow[k][s].scale(cbin))
            # the first factor is taken as is, not multiplied into the unit
            acc = piece if acc is one else acc.mul(piece)
        return acc.shift_h(P).scale(lam_fac)

    hcache = {}
    out = f._like(vmax=vmax, hband=work)
    out.tailflag, out.discarded = f.tailflag, f.discarded
    groups = {}
    for k, P, Q, c in terms:
        groups.setdefault((k, Q), []).append((P, c))
    for (k, Q), group in sorted(groups.items()):
        hpart = TruncatedSeries.zero(n, d, 1, hwin, work)
        for P, c in group:
            if P not in hcache:
                hcache[P] = binom_power_series(P)
            hpart._iadd(hcache[P].scale(c))
        piece = hpart.with_window(vmax=vmax)
        for j, q in enumerate(Q):
            if q:
                piece = piece.mul(vpow[j][q])
        out._accumulate(((k, Pn, Qn), val)
                        for _, Pn, Qn, val in piece.terms())
        out.tailflag |= piece.tailflag
        out.discarded += piece.discarded
    return out.restrict(vmax=vmax, hband=hband)


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
    lifted = compose_with_map(G, inner, vmax=G.vmax, hband=inner.pert_v.hband)
    return DeckMap(lam=m.lam, mu=m.mu, pert_h=inner.pert_h,
                   pert_v=inner.pert_v.add(lifted))


def compose_maps(m1, m2, vmax=None, hband=None):
    """The deck map m1 o m2 (apply m2 first)."""
    vmax = m1.pert_h.vmax if vmax is None else vmax
    hband = m1.pert_h.hband if hband is None else hband
    a1_of = compose_with_map(m1.pert_h, m2, vmax=vmax, hband=hband)
    b1_of = compose_with_map(m1.pert_v, m2, vmax=vmax, hband=hband)
    pert_h = scale_components(m2.pert_h, m1.lam).restrict(vmax, hband).add(a1_of)
    pert_v = scale_components(m2.pert_v, m1.mu).restrict(vmax, hband).add(b1_of)
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
    sum in the same order as in a full-window sweep.  Once the window
    reaches vmax, sweeps run on the full window until two agree exactly.
    """
    n, d = m.n, m.d
    vmax, hband = m.pert_h.vmax, m.pert_h.hband
    inv = DeckMap(lam=1.0 / m.lam, mu=1.0 / m.mu,
                  pert_h=TruncatedSeries.zero(n, d, n, vmax, hband),
                  pert_v=TruncatedSeries.zero(n, d, d, vmax, hband))
    for sweep in range(vmax + 1):
        window = min(vmax, sweep + 2)
        cur = DeckMap(lam=inv.lam, mu=inv.mu, pert_h=inv.pert_h.cut(window),
                      pert_v=inv.pert_v.cut(window))
        a_of = compose_with_map(m.pert_h.cut(window), cur, vmax=window,
                                hband=hband)
        b_of = compose_with_map(m.pert_v.cut(window), cur, vmax=window,
                                hband=hband)
        new_h = scale_components(a_of, 1.0 / m.lam).scale(-1.0)
        new_v = scale_components(b_of, 1.0 / m.mu).scale(-1.0)
        done = window == vmax and \
            new_h.max_coeff_diff(inv.pert_h) == 0.0 and \
            new_v.max_coeff_diff(inv.pert_v) == 0.0
        inv = DeckMap(lam=inv.lam, mu=inv.mu,
                      pert_h=new_h.with_window(vmax=vmax),
                      pert_v=new_v.with_window(vmax=vmax))
        if done:
            break
    return inv


def map_difference(m1, m2):
    """Componentwise coefficient difference of two maps (same diagonal part)."""
    if not (np.allclose(m1.lam, m2.lam) and np.allclose(m1.mu, m2.mu)):
        raise DeckMapError("maps differ already in their diagonal part")
    return (m1.pert_h - m2.pert_h, m1.pert_v - m2.pert_v)
