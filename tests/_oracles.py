"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written with plain dict/loop arithmetic and
no reuse of the library's own code paths, so agreement is meaningful.  The
exceptions reuse library primitives along another route than the library
takes: ``accumulate`` adds records to a series one at a time through its
``coeffs`` handle; ``chained_add_compose`` forms every sum as a chain of
pairwise ``add`` and writes its output through ``accumulate``, and
``substitute_per_record`` writes every record through ``accumulate``,
where the library sums them per key in one array segment sum (and
``substitute_per_record`` forms the powers past ``vmax - ord phi + 1``
that the library skips); ``psi_then_invert`` builds phi_v differently from
``linearize``, one degree per conjugation; ``full_window_majorant`` solves
every majorant degree on series carried to the full order M, where the
library truncates them at that degree; ``ser_mul_slices`` adds each
``a[i] * b`` as one numpy slice, where ``_ser_mul`` loops over Python
floats; ``per_call_ledger`` makes one norm
call per ledger entry, where the library shares each degree's domains
among all of them in one call; ``apply_vertical_operator`` applies
the operator the solvers invert by division; ``translates_fit`` probes the
hull that ``max_margin_eta`` answers for in closed form;
``full_sample`` and ``full_sample_max`` evaluate every point of the
sample that ``sampled_lower_bound`` prunes by its triangle bound;
``compose_power``, ``norm_certificate``, ``identity_map``,
``result_digest`` and ``coefficient_digest`` are test helpers.
"""

import hashlib
import math
from itertools import product

import numpy as np

from toruslin import DomainSpec, TruncatedSeries
from toruslin.deckmaps import DeckMap, _gen_binom
from toruslin.lattice import log_indicatrix, union_and_hull
from toruslin.linearize import linearize_step
from toruslin.majorant import _coupling, _g_of, _ser_mul
from toruslin.norms import sup_norm_bound, sup_norm_bounds
from toruslin.series import PRUNE, compose_diagonal, invert_vertical_map, \
    scale_components, substitute_vertical


def term_dict(series):
    """The coefficients as a plain dict {(k, P, Q): value}."""
    return {(k, P, Q): c for k, P, Q, c in series.terms()}


def with_terms(series, changes):
    """A new series with ``series``'s terms, window and truncation record,
    and the coefficients in ``changes`` {(k, P, Q): value} set."""
    return TruncatedSeries(series.n, series.d, series.components,
                           series.vmax, coeffs={**term_dict(series), **changes},
                           discarded=series.discarded)


def sorted_copy(series):
    """``series`` with its terms stored in sorted order: every value (tiny
    ones and -0.0 parts included), window and truncation record exactly
    as they are."""
    out = TruncatedSeries.from_text(series.to_text())
    out.discarded = series.discarded
    return out


def shuffled_copy(series, rng):
    """``series`` with its terms stored in a random order."""
    items = list(term_dict(series).items())
    return TruncatedSeries(series.n, series.d, series.components,
                           series.vmax, coeffs=dict(
                               items[i] for i in rng.permutation(len(items))),
                           discarded=series.discarded)


def accumulate(series, records):
    """Add ``((k, P, Q), value)`` records to ``series`` through its
    ``coeffs`` handle, one at a time and in order.

    A record above ``vmax`` is not stored: it adds its modulus to
    ``discarded``.  A record inside is added to the running sum
    at its key, and a sum of modulus PRUNE or less is removed.  The
    library's ``_scatter`` is the bulk form of this loop, except that it
    carries a running sum of modulus PRUNE or less on to the key's later
    records, where this loop drops it.
    """
    coeffs = series.coeffs
    for key, c in records:
        if sum(key[2]) > series.vmax:
            series.discarded += abs(c)
            continue
        new = coeffs.get(key, 0j) + c
        if abs(new) > PRUNE:
            coeffs[key] = new
        elif key in coeffs:
            del coeffs[key]


def stores_sorted(series):
    """Whether the table stores its keys in sorted order."""
    keys = list(series.coeffs)
    return keys == sorted(keys)


def dense_poly(series, k=0):
    """Extract component k as a plain dict {(P, Q): coeff}."""
    return {(P, Q): c for kk, P, Q, c in series.terms() if kk == k}


def dense_mul(a, b, n, d, vmax=None):
    """Schoolbook convolution of dict polynomials, optional truncation."""
    out = {}
    for (Pa, Qa), ca in a.items():
        for (Pb, Qb), cb in b.items():
            P = tuple(x + y for x, y in zip(Pa, Pb))
            Q = tuple(x + y for x, y in zip(Qa, Qb))
            if vmax is not None and sum(Q) > vmax:
                continue
            out[(P, Q)] = out.get((P, Q), 0.0) + ca * cb
    return {key: c for key, c in out.items() if c != 0.0}


def dense_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0.0) + c
    return out


def dense_scale(a, c):
    return {key: val * c for key, val in a.items()}


def dense_pow(a, q, n, d, vmax=None):
    out = {((0,) * n, (0,) * d): 1.0 + 0.0j}
    for _ in range(q):
        out = dense_mul(out, a, n, d, vmax)
    return out


def dense_substitute(f, phis, n, d, vmax):
    """Substitute v_j <- v_j + phis[j] into dict polynomial f, truncated at
    vertical order vmax."""
    out = {}
    shifted = []
    for j in range(d):
        ej = tuple(1 if l == j else 0 for l in range(d))
        w = dense_add({((0,) * n, ej): 1.0 + 0.0j}, phis[j])
        shifted.append(w)
    for (P, Q), c in f.items():
        term = {(P, (0,) * d): c}
        for j, q in enumerate(Q):
            if q:
                term = dense_mul(term, dense_pow(shifted[j], q, n, d, vmax),
                                 n, d, vmax)
        out = dense_add(out, term)
    return {key: val for key, val in out.items() if val != 0.0}


def dense_diff(series_dict, other):
    keys = set(series_dict) | set(other)
    return max((abs(series_dict.get(k, 0.0) - other.get(k, 0.0)) for k in keys),
               default=0.0)


def random_series(rng, n, d, components=1, vmax=6, pmax=4, nterms=12,
                  min_vdeg=0, scale=1.0):
    """Random sparse series with normally distributed complex coefficients,
    h-exponents drawn from [-pmax, pmax]."""
    coeffs = {}
    for _ in range(nterms):
        k = int(rng.integers(0, components))
        P = tuple(int(x) for x in rng.integers(-pmax, pmax + 1, size=n))
        while True:
            Q = tuple(int(x) for x in rng.integers(0, vmax + 1, size=d))
            if min_vdeg <= sum(Q) <= vmax:
                break
        c = scale * complex(rng.standard_normal(), rng.standard_normal())
        coeffs[(k, P, Q)] = coeffs.get((k, P, Q), 0.0) + c
    return TruncatedSeries(n, d, components, vmax, coeffs=coeffs)


def full_sample(f, domain, points, seed):
    """``sampled_lower_bound``'s sample, (x, values): the same draws from
    the same generator, every point evaluated in one call; x holds the
    points' log-moduli and values their (points, components) values."""
    rng = np.random.default_rng(seed)
    x = domain.sample_log_points(rng, points)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=x.shape)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(points, f.d))
    with np.errstate(over="ignore", invalid="ignore"):
        values = f.evaluate(x + 1j * theta, domain.r * np.exp(1j * phases))
    return x, values


def full_sample_max(f, domain, points, seed):
    """The largest ``abs`` of a value over every point and component of
    ``full_sample``."""
    values = full_sample(f, domain, points, seed)[1]
    return max((abs(c) for c in values.ravel().tolist()), default=0.0)


def substitute_per_record(f, phi):
    """substitute_vertical with its scatter done one record at a time.

    A fresh power table on the same window, its rows ``v_j`` plus
    ``phi_j`` re-truncated to the window by ``restrict``, each power the
    same product; f's terms, each followed by the records of its W_Q, both in
    sorted order, every record added to the output through
    ``accumulate``.  A term with |Q| past
    ``vmax - ord phi + 1``, where W_Q holds v^Q alone inside the window, is
    its own record, like a pure h-monomial term; one above the output
    ``vmax`` thus leaves its modulus in ``discarded``.  Before its records
    each term adds what its row loses above ``vmax`` to ``discarded``:
    ``|c|`` times W_Q's ``discarded``, or, for a term past that degree,
    ``|c|`` times the triangle bound ``prod_j (1 + |phi_j|_1)^q_j - 1`` of
    the row it does not form.
    phi's own record counts only where some term has positive degree.
    """
    vmax = min(f.vmax, phi.vmax)
    limit = vmax - phi.v_order() + 1
    reads_phi = any(sum(Q) for _, _, Q, _ in f.terms())
    out = TruncatedSeries(f.n, f.d, f.components, vmax,
                          discarded=f.discarded + (phi.discarded if reads_phi
                                                   else 0.0))
    rows = []
    for j in range(phi.d):
        ej = tuple(1 if t == j else 0 for t in range(phi.d))
        w = TruncatedSeries.monomial(phi.n, phi.d, 0, (0,) * phi.n, ej,
                                     components=1, vmax=vmax)
        rows.append([None, w.add(phi.component(j).restrict(vmax=vmax))])
    norms = [math.fsum(abs(c) for k, _, _, c in phi.terms() if k == j)
             for j in range(phi.d)]

    def power(j, q):
        while len(rows[j]) <= q:
            rows[j].append(rows[j][-1].mul(rows[j][1]))
        return rows[j][q]

    for k, P, Q, c in f.terms():
        W = None
        for j, q in enumerate(Q):
            if q:
                W = power(j, q) if W is None else W.mul(power(j, q))
        if W is None or sum(Q) > limit:
            grow = 1.0
            for norm, q in zip(norms, Q):
                grow *= (1.0 + norm) ** q
            out.discarded += abs(c) * (grow - 1.0)
            accumulate(out, [((k, P, Q), c)])
        else:
            out.discarded += abs(c) * W.discarded
            accumulate(out, (((k, tuple(p + pw for p, pw in zip(P, Pw)), Qn),
                              c * w) for _, Pw, Qn, w in W.terms()))
    return out


def chained_add_compose(f, m, vmax=None):
    """The composition f o m (``compose_with_maps`` of one job) with every
    sum rebuilt by a chain of ``add``.

    The binomial series and the group sums are formed as
    ``piece = piece.add(term)``, one pairwise sum after another, where
    ``linear_combinations`` forms each in one segment sum, and the group
    pieces go into the output through ``accumulate``.  Where a step
    reads a table in its stored order (``shift_h`` of a binomial product),
    it reads a sorted copy, as the library reads every sum's inputs in
    sorted order and stores its sums sorted; the output is stored sorted.
    """
    vmax = f.vmax if vmax is None else vmax
    n, d = f.n, f.d
    hwin = max(vmax - f.v_order(), 0)
    smax = hwin // 2
    upow = []
    for k in range(n):
        ek = tuple(-1 if t == k else 0 for t in range(n))
        u = m.pert_h.component(k).cut(hwin).with_window(vmax=hwin)
        u = u.shift_h(ek).scale(1.0 / m.lam[k])
        upow.append([None, u])
        for _ in range(2, smax + 1):
            upow[k].append(upow[k][-1].mul(u))
    vpow = []
    for j in range(d):
        ej = tuple(1 if t == j else 0 for t in range(d))
        w = TruncatedSeries.monomial(n, d, 0, (0,) * n, ej, m.mu[j],
                                     components=1, vmax=vmax)
        w = w.add(m.pert_v.component(j).with_window(vmax=vmax))
        vpow.append([None, w])
        for _ in range(2, vmax + 1):
            vpow[j].append(vpow[j][-1].mul(w))
    one = TruncatedSeries.monomial(n, d, 0, (0,) * n, (0,) * d, 1.0,
                                   components=1, vmax=hwin)

    def binom_power_series(P):
        acc, lam_fac = one, 1.0 + 0.0j
        for k, p in enumerate(P):
            lam_fac *= m.lam[k] ** int(p)
            if p == 0 or smax == 0:
                continue
            piece = one
            for s in range(1, smax + 1):
                if _gen_binom(int(p), s):
                    piece = piece.add(upow[k][s].scale(_gen_binom(int(p), s)))
            acc = piece if acc is one else acc.mul(piece)
        return sorted_copy(acc).shift_h(P).scale(lam_fac)

    out = TruncatedSeries(n, d, f.components, vmax,
                          discarded=f.discarded)
    groups, hcache = {}, {}
    for k, P, Q, c in f.terms():
        groups.setdefault((k, Q), []).append((P, c))
    for (k, Q), group in sorted(groups.items()):
        hpart = TruncatedSeries.zero(n, d, 1, hwin)
        for P, c in group:
            if P not in hcache:
                hcache[P] = binom_power_series(P)
            hpart = hpart.add(hcache[P].scale(c))
        piece = hpart.with_window(vmax=vmax)
        for j, q in enumerate(Q):
            if q:
                piece = piece.mul(vpow[j][q])
        accumulate(out, (((k, Pn, Qn), val)
                         for _, Pn, Qn, val in piece.terms()))
        out.discarded += piece.discarded
    return sorted_copy(out)


def psi_then_invert(result):
    """phi_v as the inverse of the accumulated conjugation K.

    Reruns the degree loop of ``result`` on ``result.original`` with the
    same schedule and constants but one degree per conjugation, accumulates
    K = Phi_M o ... o Phi_2 as (h, v + psi) through
    psi <- psi + G_m(h, v + psi), and inverts psi once at the end, instead
    of conjugating a block of degrees at a time and composing the factor
    inverses H as ``linearize`` does.
    """
    family = result.original
    psi = TruncatedSeries.zero(family.n, family.d, family.d, family.vmax)
    eps, r = result.eps_m, result.r_m
    for m in range(2, result.order + 1):
        G, _, family, _, _ = linearize_step(
            family, m, float(eps[m - 1]), float(r[m - 1]), float(eps[m]),
            float(r[m]), constants=result.constants)
        psi = psi.add(substitute_vertical(G, psi)) if not psi.is_zero() \
            else psi.add(G)
    return invert_vertical_map(psi)


def _spelled(value, record=True):
    """Text for nested results that spells every float by its bits: a
    series by its window, flags and ``discarded`` (left out unless
    ``record``) and sorted terms, a dict by its items in sorted order."""
    if isinstance(value, TruncatedSeries):
        spelled = (value.components, value.vmax, list(value.terms()))
        if record:
            spelled = spelled[:2] + (value.tailflag, value.discarded) + \
                spelled[2:]
        return _spelled(spelled, record)
    if isinstance(value, dict):
        return "{%s}" % ",".join(sorted(
            "%s:%s" % (_spelled(k, record), _spelled(v, record))
            for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return "[%s]" % ",".join(_spelled(v, record) for v in value)
    if isinstance(value, (complex, np.complexfloating)):
        return "(%s,%s)" % (float(value.real).hex(), float(value.imag).hex())
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return repr(value)


def result_digest(result, certificate, record=True):
    """sha256 of a linearization's outputs, every float by its bits: the
    coefficients, flags and ``discarded`` of phi_v, of the original and
    linearized maps and of the residual series, plus ``per_degree``,
    ``step_records`` and the certificate rows of ``dominance_and_radius``.
    Equal digests from two trees say that these outputs are bit for bit
    the same."""
    maps = [(m.pert_h, m.pert_v) for family in (result.original,
                                                result.linearized)
            for m in family.maps]
    text = _spelled([result.phi_v, maps, result.residuals, result.per_degree,
                     result.step_records, certificate["rows"]], record)
    return hashlib.sha256(text.encode()).hexdigest()


def coefficient_digest(result, certificate):
    """``result_digest`` without any series' truncation record: equal
    digests say the coefficients and every other output are bit for bit
    the same, whatever the series record as dropped above ``vmax``."""
    return result_digest(result, certificate, record=False)


def apply_vertical_operator(G, data, i, sign=1):
    """T_{+-i}(G) = G o tauhat_i^{+-1} - M_i^{+-1} G."""
    lam_i, mu_i = data.lam[i], data.mu[i]
    composed = compose_diagonal(G, lam_i, mu_i, sign)
    mu_pow = mu_i if sign > 0 else 1.0 / mu_i
    return composed - scale_components(G, mu_pow)


def compose_power(G, data, i, k):
    """G composed with tauhat_i^k for integer |k| <= 2."""
    out = G
    for _ in range(abs(k)):
        out = compose_diagonal(out, data.lam[i], data.mu[i], 1 if k > 0 else -1)
    return out


def norm_certificate(cert, data):
    """Compare a family solve's bounds against its theoretical one: the
    solution's, and those of G composed with each tauhat_i^{+-1} on the
    same domain."""
    rows = [("solution", cert.bound.value, cert.theoretical,
             cert.bound.value <= cert.theoretical)]
    for i in range(data.n):
        for sign in (1, -1):
            value = sup_norm_bound(compose_power(cert.G, data, i, sign),
                                   cert.bound.domain).value
            rows.append(("composed %s" % ((i, sign),), value,
                         cert.theoretical, value <= cert.theoretical))
    return {"rows": rows, "pass": all(r[3] for r in rows)}


def ser_mul_slices(a, b, M):
    """The product of two dense series to degree M, one numpy slice
    ``out[i:] += a[i] * b`` per nonzero ``a[i]``."""
    out = np.zeros(M + 1)
    for i, ai in enumerate(a[:M + 1]):
        if ai:
            hi = M + 1 - i
            out[i:i + len(b[:hi])] += ai * b[:hi]
    return out


def full_window_majorant(M, constants, n, d):
    """majorant_coefficients with every degree solved on the full window:
    each series to degree M, and degree m read off it."""
    R = constants.R
    t = np.zeros(M + 1)
    t[1] = 1.0
    A = np.zeros(M + 1)
    b = np.zeros(M + 1)
    A[2] = b[2] = _g_of(t, R, d, M)[2]
    factor = constants.C / constants.Cpp ** constants.nu

    def rhs(g, sumB):
        return g + factor * _ser_mul(A + sumB, _coupling(g, constants, n, M),
                                     M)
    for m in range(3, M + 1):
        sumB = sum([b] * (2 * n))
        b[m] = rhs(_g_of(t + b, R, d, M), sumB)[m]
        A[m] = rhs(_g_of(t + A, R, d, M), sumB)[m]
    return A, {(i, s): b for i in range(n) for s in (1, -1)}


def per_call_ledger(phi_v, lattice, eps_m, r_m, order, n):
    """``linearize``'s norm ledger with one norm call per entry: each call
    builds the vertex clouds of its own domains, so the word domains
    (i, +-1) and (i, +-2) are built twice per degree."""
    ledger = {}
    for m in range(2, order + 1):
        part = phi_v.homogeneous_part(m)
        eps, r = float(eps_m[m]), float(r_m[m])
        base = DomainSpec(lattice, eps, r)
        goal = sup_norm_bounds(
            part, [[DomainSpec(lattice, eps, r, union_ell=1),
                    DomainSpec(lattice, eps, r, union_ell=-1)]])[0]
        translated = {}
        singles = {}
        for i in range(n):
            for s in (1, -1):
                translated[(i, s)] = sup_norm_bounds(
                    part, [[DomainSpec(lattice, eps, r, word=((i, s),)),
                            DomainSpec(lattice, eps, r,
                                       word=((i, 2 * s),))]])[0]
            for k in (1, 2, -1, -2):
                singles[(i, k)] = sup_norm_bound(
                    part, DomainSpec(lattice, eps, r, word=((i, k),))).value
        ledger[m] = {
            "base_norm": sup_norm_bound(part, base).value,
            "goal_norm": goal,
            "translated": translated,
            "word_norms": singles,
            "eps": eps,
            "r": r,
        }
    return ledger


def identity_map(n, d, vmax):
    zero_h = TruncatedSeries.zero(n, d, n, vmax)
    zero_v = TruncatedSeries.zero(n, d, d, vmax)
    return DeckMap(lam=np.ones(n), mu=np.ones(d), pert_h=zero_h, pert_v=zero_v)


def translates_fit(lattice, eps, eta):
    """Whether every +-1 translate of the (eps+eta)-domain lies in the hull
    of the (+-1, +-2)-translate union at eps (vertex-in-halfspace tests)."""
    _, hull = union_and_hull(lattice, eps)
    tol = 1e-12 * max(1.0, float(np.abs(hull.offsets).max()))
    verts = log_indicatrix(lattice, eps + eta).vertices()
    return all(in_hull(hull, verts + sign * vi, tol=tol)
               for vi in lattice.log_gens for sign in (1.0, -1.0))


def in_hull(hull, points, tol=1e-9):
    """Whether every point satisfies the hull's halfspaces A x + b <= tol."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return bool(np.all(points @ hull.normals.T + hull.offsets <= tol))


def in_polytope(poly, x, tol=1e-9):
    """Whether x lies in the log polytope, to tol in its box coordinates."""
    t = np.linalg.solve(poly.gens.T, np.asarray(x, float) - poly.offset)
    return bool(np.all(t >= poly.lo - tol) and np.all(t <= poly.hi + tol))


def envelope(fit, size):
    """The fitted lower bound D / size^tau on divisors of index size."""
    return fit.D / float(size) ** fit.tau


def lam_pow(data, P):
    """lambda_l^P for every generator row l."""
    return np.prod(data.lam ** np.asarray(P, dtype=np.int64)[None, :], axis=1)


def mu_pow(data, Q):
    """mu_l^Q for every generator row l."""
    return np.prod(data.mu ** np.asarray(Q, dtype=np.int64)[None, :], axis=1)


def divisor_oracle(data, P, Q, j, form="weak"):
    """The divisors lambda_l^P mu_l^Q - mu_{l,j} over l, one l at a time.

    Each product and difference is one numpy complex128 scalar operation.
    The inverse form is lambda_l^-P mu_l^-Q - 1/mu_{l,j}.
    """
    sgn = -1 if form == "inverse" else 1
    lp = lam_pow(data, [sgn * p for p in P])
    mq = mu_pow(data, [sgn * q for q in Q])
    return np.array([lp[l] * mq[l] - (data.mu[l, j] if sgn > 0
                                        else 1.0 / data.mu[l, j])
                     for l in range(data.n)])


def iter_indices(n, d, pmax, qmax):
    """All (P, Q) with |P|_1 <= pmax and 2 <= |Q|_1 <= qmax, lexicographic."""
    for P in product(range(-pmax, pmax + 1), repeat=n):
        if sum(abs(p) for p in P) > pmax:
            continue
        for Q in product(range(qmax + 1), repeat=d):
            if 2 <= sum(Q) <= qmax:
                yield P, Q
