"""Exact symmetries of the construction, checked bit for bit.

The linearization is natural under two coordinate changes that floating
point follows exactly, so no oracle is needed (metamorphic testing):

* Vertical scaling ``w = c v`` with ``c`` a power of two.  A deck map
  ``(T h + a(h, v), M v + b(h, v))`` becomes
  ``(T h + a(h, w / c), M w + c b(h, w / c))``: each ``h``-record picks up
  ``c^(-|Q|)``, each ``v``-record ``c^(1 - |Q|)``, and the domain radius
  ``c``.  The correction ``phi_v`` then scales by ``c^(1 - |Q|)``, and
  every product by a power of two is exact.
* Complex conjugation.  ``tau -> -conj(tau)`` on the lattice row
  conjugates ``lambda = exp(2 pi i tau)``; with ``mu_angle -> -mu_angle``
  and every perturbation record conjugated, ``phi_v`` is the exact
  conjugate.

A sign or exponent error that mixes vertical degrees, or a constant that is
not real, breaks these equalities.
"""

import dataclasses

import numpy as np
import pytest

import toruslin
from toruslin import LatticeSpec, TruncatedSeries
from toruslin.deckmaps import DeckMap
from toruslin.linearize import DeckMapFamily, build_family, linearize
from toruslin.problem import parse_problem, parse_problem_text

from _fixtures import lattice2_family


def term_bits(series, factor=lambda Q: 1.0, conj=False):
    """Every term's key and value bits, each value times ``factor(Q)``
    (a power of two, so exactly) and conjugated if asked."""
    out = []
    for k, P, Q, c in series.terms():
        c = c * factor(Q)
        if conj:
            c = c.conjugate()
        out.append((k, P, Q, c.real.hex(), c.imag.hex()))
    return out


def rescaled_series(f, weight):
    """``f`` with each term times ``weight(Q)``, built by the constructor."""
    return TruncatedSeries(f.n, f.d, f.components, f.vmax, coeffs={
        (k, P, Q): c * weight(Q) for k, P, Q, c in f.terms()})


def rescaled_family(family, c):
    """``family`` in the coordinate ``w = c v``: h-records times
    ``c^(-|Q|)``, v-records times ``c^(1 - |Q|)``.  ``c = 1`` rebuilds the
    same family through the same constructor, so both sides of a
    comparison are built alike."""
    def remap(m):
        return DeckMap(
            lam=m.lam, mu=m.mu,
            pert_h=rescaled_series(m.pert_h, lambda Q: c ** -sum(Q)),
            pert_v=rescaled_series(m.pert_v, lambda Q: c ** (1 - sum(Q))))
    invs = family._inv_maps
    return DeckMapFamily(
        lattice=family.lattice, data=family.data,
        maps=[remap(m) for m in family.maps],
        inv_maps=None if invs is None else [remap(m) for m in invs],
        eps0=family.eps0, r0=family.r0 * c)


def shipped(order):
    p = parse_problem(toruslin.reference_problem_path())
    family = build_family(p.lattice, p.data, p.pert_records, order,
                          eps0=p.run["epsilon"], r0=p.run["radius"])
    return family, p.run


CASES = ["shipped-8", "shipped-12", "lattice2-7"]


def case_family(case):
    """A named family and its linearize arguments (order, eps1, r1, pmax,
    qmax)."""
    if case.startswith("shipped"):
        order = int(case.split("-")[1])
        family, run = shipped(order)
        return family, (order, run["epsilon"], run["radius"], run["pmax"],
                        run["qmax"])
    family, _ = lattice2_family(int(case.split("-")[1]))
    return family, (8, 0.2, 0.5, 6, 6)


@pytest.mark.parametrize("route", ["forward", "inverse"])
@pytest.mark.parametrize("case", CASES)
def test_vertical_scaling(case, route):
    family, (order, eps1, r1, pmax, qmax) = case_family(case)
    base = linearize(rescaled_family(family, 1.0), order, eps1, r1,
                     route=route, pmax=pmax, qmax=qmax)
    assert base.phi_v.nterms() > 10
    for c in (2.0, 0.5, 1024.0):
        scaled = linearize(rescaled_family(family, c), order, eps1, r1 * c,
                           route=route, pmax=pmax, qmax=qmax)
        assert term_bits(scaled.phi_v) == \
            term_bits(base.phi_v, lambda Q: c ** (1 - sum(Q))), c


def conjugate_problem(problem):
    """The problem with ``tau -> -conj(tau)`` on each lattice row past the
    standard basis, ``mu_angle -> -mu_angle`` and every record conjugated,
    through its text form."""
    n = problem.lattice.n
    gens = problem.lattice.generators.copy()
    gens[n:] = -gens[n:].conjugate()
    mirrored = dataclasses.replace(
        problem,
        lattice=LatticeSpec(n, problem.lattice.d, gens),
        mu_angles=[[-a for a in row] for row in problem.mu_angles],
        pert_records=[(i, k, P, Q, c.conjugate())
                      for i, k, P, Q, c in problem.pert_records])
    return parse_problem_text(mirrored.to_text())


@pytest.mark.parametrize("route", ["forward", "inverse"])
def test_complex_conjugation(route):
    p = parse_problem(toruslin.reference_problem_path())
    q = conjugate_problem(p)
    assert np.array_equal(q.data.lam, p.data.lam.conjugate())
    assert np.array_equal(q.data.mu, p.data.mu.conjugate())
    run = p.run
    results = []
    for problem in (p, q):
        family = build_family(problem.lattice, problem.data,
                              problem.pert_records, 8, eps0=run["epsilon"],
                              r0=run["radius"])
        results.append(linearize(family, 8, run["epsilon"], run["radius"],
                                 route=route, pmax=run["pmax"],
                                 qmax=run["qmax"]))
    base, mirrored = results
    assert base.phi_v.nterms() > 10
    assert term_bits(mirrored.phi_v) == term_bits(base.phi_v, conj=True)
