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

The degree loop conjugates every deck map of a family and checks every
pair for commutation, so the calculus works on lists: ``compose_with_maps``
composes many (series, map, window) jobs in one pass, and
``conjugate_maps``, ``substitute_into_maps`` and ``compose_map_pairs``
hand it, and ``substitute_verticals``, all their maps at once.  A single
job is a list of one; ``conjugate_by_vertical``, ``conjugate_maps`` of one
map, is kept for the benchmark under ``perfbench/``, which builds its
``lattice2-o8`` family through it.
"""

from dataclasses import dataclass
from math import factorial

import numpy as np

from .series import (TruncatedSeries, _fold_products, _grow_powers,
                     _scatter_each, _vertical_row, invert_vertical_map,
                     linear_combinations, scale_components,
                     substitute_verticals)

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


def compose_with_maps(jobs):
    """The composition f o m truncated at ``vmax`` (f's own window where it
    is None) for every job (f, m, vmax), in one pass.

    Terms are grouped by vertical exponent: the horizontal part of each
    group is a linear combination of binomial powers (no products), then
    products with the vertical powers attach v^Q.  The binomial series, one
    per (k, p_k) the terms need, are formed together by one
    ``linear_combinations`` call (one segment sum over the scaled records
    of every summand of every sum), and the group sums of every job by
    another, not by chains of ``add`` and ``scale``: the same records in
    the same order, so the same sums and ``discarded``.  In a group sum the
    factor ``lam^P h^P`` of each term is not formed as a series: its
    summand is the product of binomial series with the shift ``P`` and the
    pre-factor ``lam^P``, which the sum applies to its records as
    ``shift_h`` and ``scale`` would.  Each job's group pieces go into its
    output, each piece's ``discarded`` after its records: the sums and
    ``discarded`` of adding them one group at a time.  One scatter call
    writes every output.  A sum or scatter call over many series runs in
    passes of at most ``PASS_LIMIT`` records (see ``series._passes``).
    Where ``u_k`` is exactly zero (no terms,
    no truncation record), as when ``pert_h`` is zero, ``(1 + u_k)^p`` is
    the unit and is not formed: multiplying by it would change no bit.

    The vertical power has order |Q| >= ord_v f, so only the horizontal
    factor's terms of degree <= vmax - ord_v f can reach the output: the u
    powers, the binomial series and the group sums are computed on that
    window (u powers up to (vmax - ord_v f) // 2) and widened back to vmax
    before the products with the vertical powers.  The terms left out
    would only have formed pairs above vmax.

    Every product is one ``mul``: the powers of the u and the vertical
    power chains grow by ``_grow_powers``, the rule that grows
    ``substitute_verticals``' powers, the products of binomial series fold
    by ``_fold_products``, and each group piece is multiplied by its
    vertical powers in order of j.  Jobs that share a map and a window
    share its u powers, binomial series and vertical powers, and each
    power is formed only as far as some term reads it.  Every series is
    the same product, in the same order, as when each job is composed
    alone.
    """
    jobs = [(f, m, f.vmax if vmax is None else vmax) for f, m, vmax in jobs]
    if not jobs:
        return []
    n, d = jobs[0][0].n, jobs[0][0].d
    # per job: its map and horizontal window, the key of its horizontal
    # tables; its (k, Q) groups and the distinct P of its terms, shared by
    # the jobs of one series
    plans, seen = [], {}
    for f, m, vmax in jobs:
        if id(f) not in seen:
            terms = list(f.terms())
            groups = {}
            for k, P, Q, c in terms:
                groups.setdefault((k, Q), []).append((P, c))
            hexps = list(dict.fromkeys(P for _, P, _, _ in terms))
            seen[id(f)] = (sorted(groups.items()), hexps)
        plans.append(((id(m), max(vmax - f.v_order(), 0)), *seen[id(f)]))

    # u_k = pert_h_k / (lam_k h_k) per (map, window, k), as far as a term
    # reads its powers: (1 + u)^p reads u^s up to smax = window // 2, and
    # for p > 0 only up to p.  None where u_k is exactly zero, so that
    # (1 + u_k)^p is exactly 1.  (mu_j v_j + pert_v_j)^q per (map, vmax,
    # j), up to the largest q_j of a term.
    upow, vpow, tops = {}, {}, {}
    for (_, m, vmax), ((mid, hwin), groups, hexps) in zip(jobs, plans):
        for k in range(n):
            top = max((hwin // 2 if P[k] < 0 else min(P[k], hwin // 2)
                       for P in hexps if P[k]), default=0)
            if not top:
                continue
            key = (mid, hwin, k)
            if key not in upow:
                u = m.pert_h.component(k).cut(hwin)
                upow[key] = None
                if u.nterms() or u.discarded:
                    ek = tuple(-1 if t == k else 0 for t in range(n))
                    upow[key] = [None, u.with_window(vmax=hwin).shift_h(ek)
                                 .scale(1.0 / m.lam[k])]
            if upow[key]:
                tops["u", key] = max(tops.get(("u", key), 0), top)
        for (_, Q), _ in groups:
            for j, q in enumerate(Q):
                if not q:
                    continue
                key = (mid, vmax, j)
                if key not in vpow:
                    vpow[key] = _vertical_row(m.pert_v, j, m.mu[j], vmax)
                tops["v", key] = max(tops.get(("v", key), 0), q)
    _grow_powers([((upow if kind == "u" else vpow)[key], top)
                  for (kind, key), top in tops.items()])

    ones = {}
    for (_, hwin), _, _ in plans:
        if hwin not in ones:
            ones[hwin] = TruncatedSeries.monomial(
                n, d, 0, (0,) * n, (0,) * d, 1.0, components=1, vmax=hwin)
    # the binomial series (1 + u_k)^p for every (map, window, k, p) a term
    # needs, all in one sum call
    needed = sorted({(mid, hwin, k, P[k])
                     for (mid, hwin), _, hexps in plans
                     for P in hexps for k in range(n)
                     if P[k] and hwin // 2 and upow[mid, hwin, k]})
    binom = dict(zip(needed, linear_combinations(
        [[(ones[hwin], 1.0)] + [(upow[mid, hwin, k][s], _gen_binom(p, s))
                                for s in range(1, hwin // 2 + 1)
                                if _gen_binom(p, s)]
         for mid, hwin, k, p in needed])))
    del upow

    # prod_k (1 + u_k)^{p_k} and lam^P per (map, window, P); the product
    # of no binomial series is the unit
    factors, lam_facs = {}, []
    for (_, m, _), ((mid, hwin), _, hexps) in zip(jobs, plans):
        for P in hexps:
            if (mid, hwin, P) in factors:
                continue
            lam_fac = 1.0 + 0.0j
            for lam, p in zip(m.lam, P):
                lam_fac *= lam ** int(p)
            lam_facs.append(lam_fac)
            factors[mid, hwin, P] = [binom[mid, hwin, k, p]
                                     for k, p in enumerate(P)
                                     if (mid, hwin, k, p) in binom] \
                or [ones[hwin]]
    hcache = dict(zip(factors, zip(_fold_products(list(factors.values())),
                                   lam_facs)))
    del binom, factors

    # lam^P h^P prod_k (1 + u_k)^{p_k} per group of every job, shifted and
    # scaled in one sum call, widened to vmax, then multiplied by each
    # v_j^q_j in order of j
    owners = [(mid, vmax, Q) for (_, _, vmax), ((mid, _), groups, _)
              in zip(jobs, plans) for (_, Q), _ in groups]
    sums = linear_combinations(
        [[(hcache[mid, hwin, P][0], c, P, hcache[mid, hwin, P][1])
          for P, c in group]
         for (mid, hwin), groups, _ in plans for _, group in groups])
    del hcache
    pieces = [hpart.with_window(vmax=vmax)
              for hpart, (_, vmax, _) in zip(sums, owners)]
    for g, (mid, vmax, Q) in enumerate(owners):
        for j, q in enumerate(Q):
            if q:
                pieces[g] = pieces[g].mul(vpow[mid, vmax, j][q])

    # each job's pieces into its output, each piece's discarded after its
    # records
    outs, records, marks = [], [], []
    first = 0
    for (f, _, vmax), (_, groups, _) in zip(jobs, plans):
        out = f._like(vmax=vmax)
        out.discarded = f.discarded
        outs.append(out)
        mine = pieces[first:first + len(groups)]
        ks = [k for (k, _), _ in groups]
        first += len(groups)
        counts = [piece.nterms() for piece in mine]
        records.append((
            np.repeat(ks, counts).astype(np.int64) if f.components > 1
            else None,
            np.concatenate([piece._arrays(0)[0] for piece in mine]
                           or [np.zeros((0, n + d), dtype=np.int64)]),
            np.concatenate([piece._arrays(0)[1] for piece in mine]
                           or [np.zeros(0, dtype=np.complex128)])))
        marks.append(list(zip(np.cumsum(counts).tolist(),
                              [piece.discarded for piece in mine])))
    _scatter_each(outs, records, marks)
    return outs


def substitute_into_maps(maps, H):
    """The maps m o (h, v + H), vertical pre-composition: both
    perturbations of every map substituted into ``H`` by one
    ``substitute_verticals`` call."""
    subs = substitute_verticals(
        [pert for m in maps for pert in (m.pert_h, m.pert_v)], H)
    return [DeckMap(lam=m.lam, mu=m.mu, pert_h=pert_h,
                    pert_v=scale_components(H, m.mu).add(shifted_b))
            for m, pert_h, shifted_b in zip(maps, subs[::2], subs[1::2])]


def conjugate_maps(maps, G, H=None):
    """Phi o m o Phi^{-1} for Phi = (h, v + G) and every m in ``maps``;
    H = the inverse's perturbation, optionally precomputed.  Every map's
    substitution and composition goes into one call each."""
    if H is None:
        H = invert_vertical_map(G)
    inner = substitute_into_maps(maps, H)
    lifted = compose_with_maps([(G, m, G.vmax) for m in inner])
    return [DeckMap(lam=m.lam, mu=m.mu, pert_h=sub.pert_h,
                    pert_v=sub.pert_v.add(lift))
            for m, sub, lift in zip(maps, inner, lifted)]


def conjugate_by_vertical(m, G, H=None):
    """Phi o m o Phi^{-1} for Phi = (h, v + G): ``conjugate_maps`` of this
    one map."""
    return conjugate_maps([m], G, H)[0]


def compose_map_pairs(pairs):
    """The deck map m1 o m2 (apply m2 first), at m1's vmax, for every pair
    (m1, m2); every composition goes into one ``compose_with_maps`` call."""
    composed = compose_with_maps(
        [(pert, m2, m1.pert_h.vmax) for m1, m2 in pairs
         for pert in (m1.pert_h, m1.pert_v)])
    out = []
    for (m1, m2), a1_of, b1_of in zip(pairs, composed[::2], composed[1::2]):
        vmax = m1.pert_h.vmax
        pert_h = scale_components(m2.pert_h, m1.lam).restrict(vmax).add(a1_of)
        pert_v = scale_components(m2.pert_v, m1.mu).restrict(vmax).add(b1_of)
        out.append(DeckMap(lam=m1.lam * m2.lam, mu=m1.mu * m2.mu,
                           pert_h=pert_h, pert_v=pert_v))
    return out


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
        a_of, b_of = compose_with_maps([(m.pert_h.cut(window), cur, window),
                                        (m.pert_v.cut(window), cur, window)])
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
