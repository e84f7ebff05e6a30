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
from toruslin.divisors import MultiplierData
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


def swapped_series(f, h_components=False):
    """``f`` with the two ``h`` coordinates swapped: every ``P`` reversed,
    and, for an ``h``-perturbation, its two components swapped."""
    return TruncatedSeries(f.n, f.d, f.components, f.vmax, coeffs={
        (1 - k if h_components else k, P[::-1], Q): c
        for k, P, Q, c in f.terms()})


def swapped_family(family):
    """An ``n = 2`` family with its two generators swapped: the lattice rows
    and the ``h`` coordinates (both columns and rows of ``lam``), ``mu``,
    and the maps and inverse maps, each written in the swapped
    coordinates."""
    gens = family.lattice.generators[[1, 0, 3, 2]][:, ::-1]
    data = MultiplierData(family.data.lam[::-1, ::-1], family.data.mu[::-1])

    def swapped(maps):
        return [DeckMap(lam=m.lam[::-1], mu=m.mu,
                        pert_h=swapped_series(m.pert_h, h_components=True),
                        pert_v=swapped_series(m.pert_v))
                for m in maps[::-1]]
    return DeckMapFamily(
        lattice=LatticeSpec(2, family.d, gens), data=data,
        maps=swapped(family.maps), inv_maps=swapped(family.inv_maps),
        eps0=family.eps0, r0=family.r0)


@pytest.mark.parametrize("route", ["forward", "inverse"])
@pytest.mark.parametrize("seed", [7, 11])
def test_generator_swap(seed, route):
    # relabelling the two generators of an n = 2 family, and with them the
    # two h coordinates, relabels phi_v: with P swapped back it is the same
    # series up to the order of its sums (at most 2.9e-16 of max |phi_m|
    # when measured)
    family, _ = lattice2_family(seed)
    swapped = swapped_family(family)
    assert np.array_equal(swapped.data.lam,
                          swapped.lattice.lam_matrix())
    results = [linearize(fam, 8, 0.2, 0.5, route=route, pmax=6, qmax=6)
               for fam in (family, swapped)]
    base, other = (result.phi_v for result in results)
    back = swapped_series(other)
    assert back.nterms() == base.nterms() > 10
    for m in range(2, 9):
        part = base.homogeneous_part(m)
        assert part.max_coeff_diff(back.homogeneous_part(m)) <= \
            1e-15 * part.max_abs(), m


# the vertical turns of the n = 1, d = 2 family: golden and sqrt(2) - 1
D2_TURNS = ((np.sqrt(5) - 1) / 2, np.sqrt(2) - 1)


def d2_records(seed, nterms=6):
    """Seeded perturbation records of an n = 1, d = 2 map: component 0 the
    h-record, 1 and 2 the v-records, each of vertical degree 2 or 3."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(nterms):
        q = int(rng.integers(2, 4))
        q0 = int(rng.integers(0, q + 1))
        c = 1e-3 * complex(rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0))
        records.append((0, int(rng.integers(0, 3)),
                        (int(rng.integers(-1, 2)),), (q0, q - q0), c))
    return records


def d2_family(records, order, swap=False):
    """The n = 1, d = 2 family of ``records`` on the shipped lattice; with
    ``swap`` in the swapped vertical coordinates: the ``Q`` columns, the
    two ``v``-record components and the order of ``mu`` exchanged."""
    p = parse_problem(toruslin.reference_problem_path())
    lattice = LatticeSpec(1, 2, p.lattice.generators)
    turns = D2_TURNS[::-1] if swap else D2_TURNS
    data = MultiplierData(lattice.lam_matrix(),
                          [[np.exp(2j * np.pi * t) for t in turns]])
    if swap:
        records = [(i, 3 - k if k else k, P, Q[::-1], c)
                   for i, k, P, Q, c in records]
    return build_family(lattice, data, records, order,
                        eps0=p.run["epsilon"], r0=p.run["radius"])


def vertically_swapped(f):
    """A ``v``-valued series of ``d = 2`` in the swapped vertical
    coordinates: its two components exchanged and every ``Q`` reversed."""
    return TruncatedSeries(f.n, f.d, f.components, f.vmax, coeffs={
        (1 - k, P, Q[::-1]): c for k, P, Q, c in f.terms()})


@pytest.mark.parametrize("route", ["forward", "inverse"])
@pytest.mark.parametrize("seed", [3, 8])
def test_vertical_swap(seed, route):
    # exchanging the two vertical coordinates of a d = 2 family exchanges
    # them in phi_v: swapped back it is the same series up to the order of
    # its sums.  The gap at degree m is rounding of the lower degrees it is
    # built from, so it is measured against the largest coefficient
    # through degree m: at most 7.1e-16 of it over seeds 1..20 when
    # measured, where against max |phi_m| alone the inverse route reached
    # 1.3e-11 (degree 6, seed 1)
    records = d2_records(seed)
    results = [linearize(d2_family(records, 6, swap), 6, 0.2, 0.5,
                         route=route, pmax=6, qmax=6)
               for swap in (False, True)]
    base, other = (result.phi_v for result in results)
    back = vertically_swapped(other)
    assert back.nterms() == base.nterms() > 10
    scale = 0.0
    for m in range(2, 7):
        part = base.homogeneous_part(m)
        scale = max(scale, part.max_abs())
        assert part.max_coeff_diff(back.homogeneous_part(m)) <= \
            1e-15 * scale, m


def rebased_series(f, A):
    """``f`` with every ``P`` replaced by ``P A``."""
    return TruncatedSeries(f.n, f.d, f.components, f.vmax, coeffs={
        (k, tuple((np.array(P) @ A).tolist()), Q): c
        for k, P, Q, c in f.terms()})


def rebased_family(family, A):
    """An ``n = 2`` family without ``h``-perturbations in the coordinates
    ``z' = z M`` with ``M = A^-T``, so that ``h^P = h'^(P A)``: the lattice
    rows ``tau_i`` become ``tau_i M`` (``Z^n M = Z^n`` for a unimodular
    ``A``), ``lam`` is that lattice's (its inverse for the inverse maps),
    and every ``v``-record's ``P`` is relabelled."""
    M = np.linalg.inv(A).T
    tau = family.lattice.generators[2:] @ M
    lattice = LatticeSpec(2, family.d, np.vstack([np.eye(2), tau]))
    data = MultiplierData(lattice.lam_matrix(), family.data.mu)

    def rebased(maps, lams):
        assert all(m.pert_h.nterms() == 0 for m in maps)
        return [DeckMap(lam=lam, mu=m.mu, pert_h=m.pert_h,
                        pert_v=rebased_series(m.pert_v, A))
                for lam, m in zip(lams, maps)]
    return DeckMapFamily(
        lattice=lattice, data=data, maps=rebased(family.maps, data.lam),
        inv_maps=rebased(family.inv_maps, 1 / data.lam), eps0=family.eps0,
        r0=family.r0)


@pytest.mark.parametrize("route", ["forward", "inverse"])
@pytest.mark.parametrize("seed", [7, 11])
def test_unimodular_change_of_lattice_basis(seed, route):
    # a unimodular change of the lattice basis relabels every monomial
    # h^P as h'^(P A), and so relabels phi_v: with P -> P A it is the same
    # series up to rounding, since lam' = exp(2 pi i tau M) is not the
    # product of the old lam's to the last bit (at most 1.1e-15 of
    # max |phi_m| when measured).  Unlike the generator swap, the shear
    # does not commute with a transposed lam
    family, _ = lattice2_family(seed)
    A = np.array([[1, 1], [0, 1]])
    rebased = rebased_family(family, A)
    results = [linearize(fam, 8, 0.2, 0.5, route=route, pmax=6, qmax=6)
               for fam in (family, rebased)]
    base, other = (result.phi_v for result in results)
    want = rebased_series(base, A)
    assert other.nterms() == want.nterms() > 10
    for m in range(2, 9):
        part = want.homogeneous_part(m)
        assert part.max_coeff_diff(other.homogeneous_part(m)) <= \
            5e-15 * part.max_abs(), m
