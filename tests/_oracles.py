"""Independent brute-force oracles shared by the test modules.

Everything here is deliberately written with plain dict/loop arithmetic and
no reuse of the library's own code paths, so agreement is meaningful.  The
exceptions reuse library primitives along another route than the library
takes: ``psi_then_invert`` builds phi_v differently from ``linearize``;
``apply_vertical_operator`` applies the operator the solvers invert by
division; ``translates_fit`` probes the hull that ``max_margin_eta`` answers
for in closed form; ``norm_certificate`` and ``identity_map`` are test
helpers.
"""

from itertools import product

import numpy as np

from toruslin import TruncatedSeries
from toruslin.deckmaps import DeckMap
from toruslin.lattice import log_indicatrix, union_and_hull
from toruslin.linearize import linearize_step
from toruslin.series import compose_diagonal, invert_vertical_map, \
    scale_components, substitute_vertical


def dense_poly(series, k=0):
    """Extract component k as a plain dict {(P, Q): coeff}."""
    out = {}
    for (kk, P, Q), c in series.coeffs.items():
        if kk == k:
            out[(P, Q)] = c
    return out


def dense_mul(a, b, n, d, vmax=None, hband=None):
    """Schoolbook convolution of dict polynomials, optional truncation."""
    out = {}
    for (Pa, Qa), ca in a.items():
        for (Pb, Qb), cb in b.items():
            P = tuple(x + y for x, y in zip(Pa, Pb))
            Q = tuple(x + y for x, y in zip(Qa, Qb))
            if vmax is not None and sum(Q) > vmax:
                continue
            if hband is not None and P and max(map(abs, P)) > hband:
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


def dense_pow(a, q, n, d, vmax=None, hband=None):
    out = {((0,) * n, (0,) * d): 1.0 + 0.0j}
    for _ in range(q):
        out = dense_mul(out, a, n, d, vmax, hband)
    return out


def dense_substitute(f, phis, n, d, vmax, hband):
    """Substitute v_j <- v_j + phis[j] into dict polynomial f.

    Products are exact in the h exponents; the band truncation is applied
    once to the final result (projection semantics, matching the library).
    """
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
                term = dense_mul(term, dense_pow(shifted[j], q, n, d, vmax, None),
                                 n, d, vmax, None)
        out = dense_add(out, term)
    return {key: val for key, val in out.items()
            if val != 0.0 and not (key[0] and max(map(abs, key[0])) > hband)}


def dense_diff(series_dict, other):
    keys = set(series_dict) | set(other)
    return max((abs(series_dict.get(k, 0.0) - other.get(k, 0.0)) for k in keys),
               default=0.0)


def random_series(rng, n, d, components=1, vmax=6, hband=4, nterms=12,
                  min_vdeg=0, scale=1.0):
    """Random sparse series with normally distributed complex coefficients."""
    s = TruncatedSeries(n, d, components, vmax, hband)
    for _ in range(nterms):
        k = int(rng.integers(0, components))
        P = tuple(int(x) for x in rng.integers(-hband, hband + 1, size=n))
        while True:
            Q = tuple(int(x) for x in rng.integers(0, vmax + 1, size=d))
            if min_vdeg <= sum(Q) <= vmax:
                break
        c = scale * complex(rng.standard_normal(), rng.standard_normal())
        s.coeffs[(k, P, Q)] = s.coeffs.get((k, P, Q), 0.0) + c
    return s


def psi_then_invert(result):
    """phi_v as the inverse of the accumulated conjugation K.

    Reruns the degree loop of ``result`` on ``result.original`` with the
    same schedule and constants, accumulates K = Phi_M o ... o Phi_2 as
    (h, v + psi) through psi <- psi + G_m(h, v + psi), and inverts psi once
    at the end, instead of composing the factor inverses H_m as
    ``linearize`` does.
    """
    family = result.original
    psi = TruncatedSeries.zero(family.n, family.d, family.d, family.vmax,
                               family.maps[0].pert_h.hband)
    eps, r = result.eps_m, result.r_m
    for m in range(2, result.order + 1):
        G, _, family, _ = linearize_step(
            family, m, float(eps[m - 1]), float(r[m - 1]), float(eps[m]),
            float(r[m]), constants=result.constants)
        psi = psi.add(substitute_vertical(G, psi)) if not psi.is_zero() \
            else psi.add(G)
    return invert_vertical_map(psi)


def apply_vertical_operator(G, data, i, sign=1):
    """T_{+-i}(G) = G o tauhat_i^{+-1} - M_i^{+-1} G."""
    lam_i, mu_i = data.lam[i], data.mu[i]
    composed = compose_diagonal(G, lam_i, mu_i, sign)
    mu_pow = mu_i if sign > 0 else 1.0 / mu_i
    return composed - scale_components(G, mu_pow)


def norm_certificate(cert):
    """Compare a solver certificate's bounds against its theoretical one."""
    rows = [("solution", cert.bound.value, cert.theoretical,
             cert.bound.value <= cert.theoretical)]
    for tag, nb in cert.composed_bounds:
        rows.append(("composed %s" % (tag,), nb.value, cert.theoretical,
                     nb.value <= cert.theoretical))
    return {"rows": rows, "pass": all(r[3] for r in rows)}


def identity_map(n, d, vmax, hband):
    zero_h = TruncatedSeries.zero(n, d, n, vmax, hband)
    zero_v = TruncatedSeries.zero(n, d, d, vmax, hband)
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
