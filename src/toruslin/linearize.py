"""Order-by-order vertical linearization of a deck-transformation family.

At each vertical degree m the family's degree-m vertical perturbations form
a compatible right-hand side; solving the cohomological system and
conjugating by Phi = (h, v + G_m) removes that degree without touching
lower ones.  Conjugating by (h, v + G_m) changes the vertical part only
from degree min(2m - 1, m + 2) up (``pert_h`` vanishes to order 2 in v),
so from m = 3 on degrees m and m + 1 are both solved from the same family
and removed by one conjugation with G = G_m + G_(m+1): the degree loop runs
over the blocks [2], [3, 4], [5, 6], ..., the last one [order] alone when
order is odd.  After each block the family is exactly linear through the
block's last degree, ``(lam h + a, mu v)`` there: what the conjugation
leaves at those degrees is the rounding residue of the solves, which is
checked against LINEARIZE_TOL and dropped, so that no later conjugation
multiplies through it and the intertwining residual below carries it.
Phi := (Phi_last o ... o Phi_first)^{-1} = id + (0, phi_v) is built from
the inverses (h, v + H) the conjugations use, Phi <- Phi o Phi_block^{-1}
or phi_v <- H + phi_v(h, v + H), and satisfies the intertwining relation
Phi o (linearized) = (original) o Phi, whose per-degree residual is the
primary acceptance quantity.
"""

from dataclasses import dataclass, field

import numpy as np

from .cohomology import CompatibleFamily, solve_family
from .deckmaps import (COMMUTE_TOL, DeckMap, compose_map_pairs,
                       compose_with_maps, conjugate_maps, invert_map,
                       map_difference)
from .divisors import ResonanceError, scan_and_fit
from .lattice import DomainSpec
from .majorant import constants_bundle, domain_schedule
from .norms import sup_norm_bounds
from .series import (TruncatedSeries, invert_vertical_map, scale_components,
                     substitute_vertical, substitute_verticals)

LINEARIZE_TOL = 1e-8


class LinearizeError(RuntimeError):
    pass


class DeckMapFamily:
    """The deck maps, their inverses, and the base domain they live on.

    ``maps`` is the family itself; ``inv_maps`` is derived data.  Inverses
    passed to the constructor are used as given; otherwise ``inv_maps`` is
    computed from ``maps`` with ``invert_map`` on first read and cached.

    The linearization loop solves from and conjugates ``maps`` only.  The
    inverse route runs the same loop on ``inverse()``, the family of the
    inverse maps.  ``hband``, the retired horizontal band, is accepted and
    ignored: the benchmark under ``perfbench/`` still passes it.
    """

    def __init__(self, lattice, data, maps, eps0, r0, hband=None,
                 inv_maps=None):
        self.lattice = lattice
        self.data = data
        self.maps = maps
        self.eps0 = eps0
        self.r0 = r0
        self._inv_maps = inv_maps

    @property
    def inv_maps(self):
        if self._inv_maps is None:
            self._inv_maps = [invert_map(m) for m in self.maps]
        return self._inv_maps

    @property
    def n(self):
        return self.data.n

    @property
    def d(self):
        return self.data.d

    @property
    def vmax(self):
        return self.maps[0].pert_h.vmax

    def pert_scale(self):
        return max((m.pert_scale() for m in self.maps), default=0.0)

    def inverse(self, degree=None):
        """The family of the inverse maps: lists swapped, multipliers inverted.

        With ``degree`` set and no inverses at hand, each map is cut to
        vertical order ``degree`` and inverted there, which is far cheaper
        and exact through ``degree``.  Not cached.
        """
        if degree is None or self._inv_maps is not None:
            inv_maps = self.inv_maps
        else:
            inv_maps = [invert_map(DeckMap(
                lam=m.lam, mu=m.mu, pert_h=m.pert_h.restrict(vmax=degree),
                pert_v=m.pert_v.restrict(vmax=degree))) for m in self.maps]
        return DeckMapFamily(lattice=self.lattice, data=self.data.inverse(),
                             maps=inv_maps, inv_maps=self.maps,
                             eps0=self.eps0, r0=self.r0)

    def _with_maps(self, maps):
        """This family with ``maps`` in place of its own; the new family
        derives its inverses from them if they are ever read."""
        return DeckMapFamily(lattice=self.lattice, data=self.data, maps=maps,
                             eps0=self.eps0, r0=self.r0)

    def conjugated(self, G, H):
        """The family conjugated by Phi = (h, v + G); Phi^{-1} = (h, v + H).

        Only ``maps`` is conjugated, all of them by one ``conjugate_maps``
        call.
        """
        return self._with_maps(conjugate_maps(self.maps, G, H))

    def vertically_linear_through(self, top):
        """The family with every vertical perturbation term of degree at
        most ``top`` dropped (truncation records kept)."""
        return self._with_maps([DeckMap(lam=m.lam, mu=m.mu, pert_h=m.pert_h,
                                        pert_v=m.pert_v.above_degree(top))
                                for m in self.maps])


def build_family(lattice, data, pert_records, vmax, hband=None, *, eps0,
                 r0):
    """Assemble a family from multiplier data plus perturbation records.

    Records are (i, k, P, Q, value) with generator i and component k
    0-based, h components first.  ``hband``, the retired horizontal band,
    is accepted and ignored: the benchmark under ``perfbench/`` still
    passes it.
    """
    n, d = data.n, data.d
    maps = []
    for i in range(n):
        ph, pv = {}, {}
        for (gi, k, P, Q, value) in pert_records:
            if gi != i or not value:
                continue
            P, Q = tuple(P), tuple(Q)
            # repeated records add up, in record order
            table, key = (ph, (k, P, Q)) if k < n else (pv, (k - n, P, Q))
            table[key] = table.get(key, 0j) + value
        maps.append(DeckMap(lam=data.lam[i], mu=data.mu[i],
                            pert_h=TruncatedSeries(n, d, n, vmax, coeffs=ph),
                            pert_v=TruncatedSeries(n, d, d, vmax, coeffs=pv)))
    return DeckMapFamily(lattice=lattice, data=data, maps=maps,
                         eps0=eps0, r0=r0)


def check_commutation(family, order=None):
    """Pairwise commutators per vertical degree (relative residual table).

    Both orders of every pair are composed by one ``compose_map_pairs``
    call."""
    order = family.vmax if order is None else order
    scale = max(family.pert_scale(), 1.0)
    pairs = [(i, j) for i in range(family.n) for j in range(i + 1, family.n)]
    maps = family.maps
    composed = compose_map_pairs([both for i, j in pairs for both in (
        (maps[i], maps[j]), (maps[j], maps[i]))])
    table = {}
    for (i, j), ij, ji in zip(pairs, composed[::2], composed[1::2]):
        dh, dv = map_difference(ij, ji)
        table[(i, j)] = {m: max(h, v) / scale for m, (h, v) in enumerate(
            zip(dh.degree_maxima(order), dv.degree_maxima(order)))}
    return table


@dataclass
class LinearizationResult:
    order: int
    route: str
    phi_v: TruncatedSeries
    per_degree: dict
    residuals: dict
    eps_m: np.ndarray
    r_m: np.ndarray
    linearized: DeckMapFamily
    original: DeckMapFamily
    constants: object
    fit: object
    step_records: list = field(default_factory=list)


def _solve_degree(family, m, eps_prev, r_prev, eps_m, r_m, constants):
    """Solve for G_m from the degree-m vertical parts of ``family.maps``.

    Returns (G_m, solver certificate); the certificate is None when that
    part vanishes, and G_m is then zero.
    """
    rhs = [mp.pert_v.homogeneous_part(m).scale(-1.0) for mp in family.maps]
    if all(F.is_zero() for F in rhs):
        return rhs[0]._like(components=family.d), None
    kappa = family.lattice.decay_rate()
    delta = kappa * (eps_prev - eps_m)
    rho = float(np.log(r_prev / r_m))
    cert = solve_family(CompatibleFamily(rhs=rhs), family.data,
                        family.lattice, eps_prev, r_prev, delta, rho,
                        constants=constants)
    return cert.G, cert


def linearize_step(family, m, eps_prev, r_prev, eps_m, r_m, constants=None,
                   next_domain=None):
    """Remove the degree-m vertical perturbation from the family, and with
    ``next_domain = (eps_(m+1), r_(m+1))`` the degree-(m + 1) one too.

    Every degree is solved from the input family, each on its own schedule
    step, and the family is conjugated once by (h, v + G) with G the sum of
    the corrections.  Two degrees need m >= 3: conjugating by (h, v + G_m)
    leaves the degree-(m + 1) vertical part alone only from there on.

    Returns (G, H, updated family, certificates, leftovers), where
    (h, v + H) inverts (h, v + G), and there are one solver certificate
    (None where that part vanishes) and one leftover per degree.  The
    conjugated family's vertical perturbation through the block's last
    degree ``top`` is the rounding residue of the solves; a guard fails the
    step if it exceeds LINEARIZE_TOL, and a degree's leftover is the
    largest modulus the guard read at that degree.  The updated family is
    the conjugated one with that residue dropped: exactly linear through
    ``top``, ``(lam h + a, mu v)`` there, and the residue goes to the
    intertwining residual, where ``conjugacy_residual`` measures it.  The
    step solves from and conjugates ``family.maps`` only; for the inverse
    maps pass ``family.inverse()``.
    """
    steps = [(m, eps_prev, r_prev, eps_m, r_m)]
    if next_domain is not None:
        if m < 3:
            raise ValueError("degree %d cannot share a conjugation with %d"
                             % (m, m + 1))
        steps.append((m + 1, eps_m, r_m, *next_domain))
    scale = max(family.pert_scale(), 1e-30)
    below = max(mp.pert_v.up_to_degree(m - 1).max_abs()
                for mp in family.maps)
    if below > LINEARIZE_TOL * max(scale, 1.0):
        raise LinearizeError("family is not vertically linear below degree %d"
                             " (mass %.3e)" % (m, below))
    solved = [_solve_degree(family, *step, constants) for step in steps]
    certs = [cert for _, cert in solved]
    Gs = [G for G, cert in solved if cert is not None]
    if Gs:
        G = Gs[0] if len(Gs) == 1 else Gs[0].add(Gs[1])
        H = invert_vertical_map(G)
        family = family.conjugated(G, H)
    else:
        G = H = solved[0][0]
    top = steps[-1][0]
    lows = [mp.pert_v.up_to_degree(top) for mp in family.maps]
    for i, low in enumerate(lows):
        leftover = low.max_abs()
        if leftover > LINEARIZE_TOL * max(scale, 1.0):
            raise LinearizeError(
                "degree-%d cleanup failed for generator %d: leftover %.3e"
                % (top, i + 1, leftover))
    maxima = [low.degree_maxima(top) for low in lows]
    leftovers = [max(per[degree] for per in maxima) for degree, *_ in steps]
    # with nothing to drop, the family is kept with any inverses it holds
    if any(low.nterms() for low in lows):
        family = family.vertically_linear_through(top)
    return G, H, family, certs, leftovers


def linearize(family, order, eps1, r1, route="forward", fit=None,
              constants=None, pmax=12, qmax=12):
    """Vertically linearize the family up to the given order.

    Refuses to run on resonant multiplier data (the offending index is
    named) and on an order above the family's vmax.  Produces the
    correction phi_v, the per-degree norm ledger on the scheduled domains,
    and the intertwining residual table.

    The Diophantine fit, the commutation check, the constants and the
    domain schedule always come from ``family``.  The forward route then
    runs the degree loop on ``family``; the inverse route runs the same
    loop on ``family.inverse()``, so its ``original``, ``linearized`` and
    ``residuals`` describe the inverse maps.  Both give the same phi_v.  At
    degree 2 the loop also solves, without conjugating, from the inverse
    of the family it runs on (through degree 2) and requires the same
    correction.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    if order > family.vmax:
        raise ValueError("order %d exceeds the family's vmax %d"
                         % (order, family.vmax))
    if route not in ("forward", "inverse"):
        raise ValueError("route must be 'forward' or 'inverse'")
    if fit is None:
        _, fit = scan_and_fit(family.data, pmax, qmax)
    if fit.resonant:
        P, Q, j, l = fit.resonances[0]
        raise ResonanceError(P, Q, j, l)
    if family.n >= 2:
        table = check_commutation(family, order=order)
        worst = max((r for per in table.values() for r in per.values()),
                    default=0.0)
        if worst > COMMUTE_TOL:
            raise LinearizeError("family does not commute: relative "
                                 "commutator %.3e" % worst)
    if constants is None:
        constants = constants_bundle(family.lattice, family.data, fit,
                                     family, eps1, r1)
    eps_m, r_m = domain_schedule(order, eps1, r1, constants)
    if eps_m[-1] <= eps1 / 2 or r_m[-1] <= r1 / np.e:
        raise LinearizeError("domain schedule exhausted")  # unreachable

    if route == "inverse":
        family = family.inverse()
    original = family
    phi_v = TruncatedSeries.zero(family.n, family.d, family.d, family.vmax)
    current = family
    step_records = []
    for m in [2, *range(3, order + 1, 2)]:
        # degree 2 alone, then two degrees per conjugation
        top = 2 if m == 2 else min(m + 1, order)
        G, H, updated, certs, leftovers = linearize_step(
            current, m, float(eps_m[m - 1]), float(r_m[m - 1]),
            float(eps_m[m]), float(r_m[m]), constants=constants,
            next_domain=((float(eps_m[top]), float(r_m[top]))
                         if top > m else None))
        if m == 2:
            # the inverse family must give the same degree-2 correction; it
            # is only solved for, never used to conjugate
            G_inv, _ = _solve_degree(
                current.inverse(2), m, float(eps_m[1]), float(r_m[1]),
                float(eps_m[2]), float(r_m[2]), constants=None)
            gap = G.max_coeff_diff(G_inv)
            if gap > 1e-10 * max(1.0, G.max_abs()):
                raise LinearizeError(
                    "degree-2 forward/inverse corrections disagree by %.3e"
                    % gap)
        current = updated
        phi_v = H.add(substitute_vertical(phi_v, H))
        for degree, cert, leftover in zip(range(m, top + 1), certs,
                                          leftovers):
            step_records.append({
                "m": degree,
                "gain_bound": None if cert is None else cert.bound.value,
                "theoretical": None if cert is None else cert.theoretical,
                "compat_residual": (0.0 if cert is None
                                    else cert.compat_residual),
                "leftover": leftover,
            })

    # the residual below is the operation's peak memory: let the last
    # block's series go first
    del G, H, certs
    per_degree = _degree_ledger(phi_v, family.lattice, eps_m, r_m, order,
                                family.n)
    residuals = conjugacy_residual(phi_v, original, current, order)
    return LinearizationResult(order=order, route=route, phi_v=phi_v,
                               per_degree=per_degree,
                               residuals=residuals, eps_m=eps_m, r_m=r_m,
                               linearized=current, original=original,
                               constants=constants, fit=fit,
                               step_records=step_records)


def _degree_ledger(phi_v, lattice, eps_m, r_m, order, n):
    """Triangle norms of each homogeneous part on the scheduled domains.

    At each degree the base domain, the +-1 unions and the word domains
    ``base.translated(i, k)``, k = +-1, +-2, are built once, and one
    ``sup_norm_bounds`` call gives every norm of the degree: the base
    norm, the goal norm on the union of the +-1 unions, each translated
    pair on the union of words (i, s) and (i, 2s), and each single word.
    The pairs and the single words share their word domains, whose
    monomial sups are computed once.
    """
    ledger = {}
    pairs = [(i, s) for i in range(n) for s in (1, -1)]
    for m in range(2, order + 1):
        part = phi_v.homogeneous_part(m)
        eps, r = float(eps_m[m]), float(r_m[m])
        base = DomainSpec(lattice, eps, r)
        words = {(i, k): base.translated(i, k)
                 for i in range(n) for k in (1, 2, -1, -2)}
        base_norm, goal, *norms = sup_norm_bounds(part, [
            [base],
            [DomainSpec(lattice, eps, r, union_ell=1),
             DomainSpec(lattice, eps, r, union_ell=-1)],
            *([words[(i, s)], words[(i, 2 * s)]] for i, s in pairs),
            *([dom] for dom in words.values())])
        ledger[m] = {
            "base_norm": base_norm,
            "goal_norm": goal,
            "translated": dict(zip(pairs, norms[:len(pairs)])),
            "word_norms": dict(zip(words, norms[len(pairs):])),
            "eps": eps,
            "r": r,
        }
    return ledger


def conjugacy_residual(phi_v, original, linearized, order):
    """Both sides of the intertwining relation, subtracted, per generator.

    h rows: (linearized pert_h) - (original pert_h)(h, v + phi_v);
    v rows: (linearized pert_v) + phi_v o (linearized map)
            - M_i phi_v - (original pert_v)(h, v + phi_v).
    Returns per-degree max coefficient magnitudes and the residual series.
    """
    subs = substitute_verticals([pert for tau in original.maps
                                 for pert in (tau.pert_h, tau.pert_v)], phi_v)
    lifted = compose_with_maps([(phi_v, tilde, phi_v.vmax)
                                for tilde in linearized.maps])
    out = {}
    for i, (tau, tilde) in enumerate(zip(original.maps, linearized.maps)):
        dh = tilde.pert_h - subs[2 * i]
        dv = tilde.pert_v.add(lifted[i]) \
            - scale_components(phi_v, tau.mu) - subs[2 * i + 1]
        per_degree = {m: max(h, v) for m, (h, v) in enumerate(
            zip(dh.degree_maxima(order), dv.degree_maxima(order))) if m >= 2}
        out[i] = {"per_degree": per_degree, "series_h": dh, "series_v": dv}
    return out


def residual_table(result):
    """Per-degree residual maxima over the generators (CSV-ready rows)."""
    rows = []
    for m in range(2, result.order + 1):
        worst = max(rec["per_degree"][m] for rec in result.residuals.values())
        rows.append((m, worst))
    return rows
