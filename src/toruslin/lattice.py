"""Torus lattice and Reinhardt domain geometry in log-modulus coordinates.

Every domain this package touches is a product of a Reinhardt region in the
h variables and a polydisc in v.  In coordinates x = log|h| the Reinhardt
part is a parallelotope spanned by the row vectors ``v_i = -2 pi Im e_{n+i}``
over the parameter box ]-eps, 1+eps[^n, possibly translated by integer
combinations of the ``v_i`` (the deck maps act by exactly these
translations).  Sups of |h^P| over such regions are exponentials of linear
programs solved at vertices, which keeps all norm bounds exact.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

HULL_DIM_LIMIT = 4


class LatticeError(ValueError):
    pass


class HullLimitError(RuntimeError):
    """Hull enumeration refused above the configured dimension limit."""


class LatticeSpec:
    """Lattice generators of the torus; e_1..e_n must be the standard basis."""

    def __init__(self, n, d, generators):
        self.n = int(n)
        self.d = int(d)
        gens = np.asarray(generators, dtype=np.complex128)
        if gens.shape != (2 * self.n, self.n):
            raise LatticeError("expected %d generators of length %d"
                               % (2 * self.n, self.n))
        if not np.allclose(gens[: self.n], np.eye(self.n), atol=1e-12):
            raise LatticeError("generators e_1..e_n must be the standard basis")
        as_real = np.concatenate([gens.real, gens.imag], axis=1)
        if np.linalg.matrix_rank(as_real, tol=1e-10) < 2 * self.n:
            raise LatticeError("generators are not independent over R")
        imag_part = gens[self.n:].imag
        if abs(np.linalg.det(imag_part)) < 1e-12:
            raise LatticeError("Im e_{n+1..2n} must form a real basis of R^n")
        self.generators = gens

    @property
    def log_gens(self):
        """Rows v_i = -2 pi Im e_{n+i}; translation vectors in log coords."""
        return -2.0 * np.pi * self.generators[self.n:].imag

    def lam_matrix(self):
        """Horizontal multipliers lambda_{j,k} = exp(2 pi i (e_{n+j})_k)."""
        return np.exp(2j * np.pi * self.generators[self.n:])

    def decay_rate(self):
        """Largest kappa with sum_i |<v_i, P>| >= kappa |P|_1 for all P.

        Computed as 1/||V^{-1}||_{1->1}; sound for every integer P.
        """
        vinv = np.linalg.inv(self.log_gens)
        return 1.0 / np.abs(vinv).sum(axis=0).max()


@dataclass(frozen=True)
class LogPolytope:
    """Parallelotope {t @ gens + offset : t in ]lo, hi[^n} in log coordinates."""

    gens: np.ndarray
    lo: float
    hi: float
    offset: np.ndarray

    def vertices(self):
        n = self.gens.shape[0]
        corners = np.array(list(product((self.lo, self.hi), repeat=n)))
        return corners @ self.gens + self.offset

    def translate(self, delta):
        return LogPolytope(self.gens, self.lo, self.hi,
                           self.offset + np.asarray(delta, dtype=float))

    def contains(self, x, tol=1e-9):
        t = np.linalg.solve(self.gens.T, np.asarray(x, float) - self.offset)
        return bool(np.all(t >= self.lo - tol) and np.all(t <= self.hi + tol))


@dataclass(frozen=True)
class HullDescription:
    """Convex hull as vertex list plus halfspaces A x + b <= 0."""

    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray

    def contains(self, points, tol=1e-9):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        slack = points @ self.normals.T + self.offsets
        return bool(np.all(slack <= tol))

    def max_violation(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return float((points @ self.normals.T + self.offsets).max())


def log_indicatrix(lattice, eps):
    """Log-modulus image of the fattened fundamental Reinhardt domain."""
    if eps < 0:
        raise LatticeError("eps must be nonnegative")
    return LogPolytope(lattice.log_gens, -float(eps), 1.0 + float(eps),
                       np.zeros(lattice.n))


def hull_of_points(points, dim_limit=HULL_DIM_LIMIT):
    """Convex hull of a point cloud with halfspace description."""
    points = np.asarray(points, dtype=float)
    n = points.shape[1]
    if n > dim_limit:
        raise HullLimitError("hull enumeration limited to dimension %d"
                             % dim_limit)
    if n == 1:
        lo, hi = float(points.min()), float(points.max())
        return HullDescription(
            vertices=np.array([[lo], [hi]]),
            normals=np.array([[1.0], [-1.0]]),
            offsets=np.array([-hi, lo]),
        )
    from scipy.spatial import ConvexHull

    hull = ConvexHull(points)
    verts = points[np.sort(hull.vertices)]
    order = np.lexsort(verts.T[::-1])
    eqs = np.unique(hull.equations.round(12), axis=0)
    return HullDescription(vertices=verts[order],
                           normals=eqs[:, :-1], offsets=eqs[:, -1])


def union_translates(lattice, eps, reach=2):
    """The fundamental polytope plus its +-1..+-reach translates, per axis."""
    base = log_indicatrix(lattice, eps)
    polys = [base]
    for i in range(lattice.n):
        vi = lattice.log_gens[i]
        for k in range(1, reach + 1):
            polys.append(base.translate(k * vi))
            polys.append(base.translate(-k * vi))
    return polys


def union_and_hull(lattice, eps, dim_limit=HULL_DIM_LIMIT):
    """Translated parallelotopes and the convex hull of all their vertices."""
    polys = union_translates(lattice, eps, reach=2)
    cloud = np.concatenate([p.vertices() for p in polys], axis=0)
    return polys, hull_of_points(cloud, dim_limit=dim_limit)


def max_margin_eta(lattice, eps, tol=1e-9, hull=None):
    """Largest eta with every +-1 translate of the (eps+eta)-domain in the hull.

    Bisection on eta with vertex-in-halfspace tests; the hull is the one of
    the (+-1, +-2)-translate union at the given eps.
    """
    if eps <= 0:
        raise LatticeError("eps must be positive")
    if hull is None:
        _, hull = union_and_hull(lattice, eps)
    scale = max(1.0, float(np.abs(hull.offsets).max()))
    member_tol = 1e-12 * scale

    def fits(eta):
        fat = log_indicatrix(lattice, eps + eta)
        verts = fat.vertices()
        for i in range(lattice.n):
            vi = lattice.log_gens[i]
            for sign in (1.0, -1.0):
                if not hull.contains(verts + sign * vi, tol=member_tol):
                    return False
        return True

    lo, hi = 0.0, 2.0
    if not fits(lo):
        raise LatticeError("hull does not even contain the +-1 translates")
    while fits(hi):
        hi *= 2.0
        if hi > 64.0:
            return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DomainSpec:
    """A (possibly translated) Reinhardt x polydisc domain.

    ``word`` is a sequence of (generator index, exponent) pairs composing
    deck translations with |exponent| <= 2; ``union_ell`` tags the union of
    the 0..+-ell translates over every generator instead; ``hull`` selects
    the Hartogs-extended domain over the convex hull of the translate union.
    """

    lattice: LatticeSpec
    eps: float
    r: float
    word: tuple = ()
    union_ell: int = 0
    hull: bool = False

    def __post_init__(self):
        if self.eps < 0 or self.r <= 0:
            raise LatticeError("need eps >= 0 and r > 0")
        for i, k in self.word:
            if not (0 <= i < self.lattice.n):
                raise LatticeError("bad generator index in word")
            if not -2 <= k <= 2:
                raise LatticeError("word exponents limited to -2..2")
        if self.union_ell and self.word:
            raise LatticeError("word and union tag are mutually exclusive")
        if self.union_ell not in (-2, -1, 0, 1, 2):
            raise LatticeError("union tag limited to +-1, +-2")

    def translated(self, i, k):
        return DomainSpec(self.lattice, self.eps, self.r,
                          self.word + ((i, k),), 0, False)

    def shrunk(self, new_eps, new_r):
        return DomainSpec(self.lattice, new_eps, new_r, self.word,
                          self.union_ell, self.hull)

    def log_vertices(self):
        """Vertex cloud whose max of <x, P> realizes sup log|h^P|."""
        base = log_indicatrix(self.lattice, self.eps)
        if self.hull:
            _, h = union_and_hull(self.lattice, self.eps)
            return h.vertices
        if self.union_ell:
            sign = 1 if self.union_ell > 0 else -1
            polys = [base]
            for i in range(self.lattice.n):
                vi = self.lattice.log_gens[i]
                for k in range(1, abs(self.union_ell) + 1):
                    polys.append(base.translate(sign * k * vi))
            return np.concatenate([p.vertices() for p in polys], axis=0)
        offset = np.zeros(self.lattice.n)
        for i, k in self.word:
            offset = offset + k * self.lattice.log_gens[i]
        return base.translate(offset).vertices()

    def log_sup_monomials(self, Ps):
        """Exact sup of log|h^P| over the domain per row P (vertex max)."""
        Ps = np.atleast_2d(np.asarray(Ps, dtype=float))
        return (self.log_vertices() @ Ps.T).max(axis=0)

    def sup_monomials(self, Ps):
        """Exact sup of |h^P| over the domain for each row P (vertex max).

        A sup beyond the double range is ``inf`` (numpy warns); callers that
        must stay finite use ``log_sup_monomials``.
        """
        return np.exp(self.log_sup_monomials(Ps))

    def sup_monomial(self, P):
        return float(self.sup_monomials(np.asarray(P, dtype=float)[None, :])[0])

    def sample_log_points(self, rng, count):
        """Interior log-coordinate points, for sampled lower bounds."""
        n = self.lattice.n
        if self.hull:
            verts = self.log_vertices()
            w = rng.dirichlet(np.ones(len(verts)), size=count)
            return w @ verts
        base = log_indicatrix(self.lattice, self.eps)
        t = rng.uniform(-self.eps, 1.0 + self.eps, size=(count, n))
        pts = t @ base.gens
        if self.union_ell:
            sign = 1 if self.union_ell > 0 else -1
            shifts = [np.zeros(n)]
            for i in range(n):
                for k in range(1, abs(self.union_ell) + 1):
                    shifts.append(sign * k * self.lattice.log_gens[i])
            choice = rng.integers(0, len(shifts), size=count)
            pts = pts + np.asarray(shifts)[choice]
        else:
            offset = np.zeros(n)
            for i, k in self.word:
                offset = offset + k * self.lattice.log_gens[i]
            pts = pts + offset
        return pts

    def describe(self):
        if self.hull:
            return "hull(eps=%r, r=%r)" % (self.eps, self.r)
        if self.union_ell:
            return "union(%+d, eps=%r, r=%r)" % (self.union_ell, self.eps, self.r)
        if self.word:
            tags = ",".join("t%d^%+d" % (i + 1, k) for i, k in self.word)
            return "%s(eps=%r, r=%r)" % (tags, self.eps, self.r)
        return "base(eps=%r, r=%r)" % (self.eps, self.r)


def sup_abs_monomial(lattice, eps, P, word=()):
    """Exact sup of |h^P| over the (optionally translated) fattened domain.

    ``word`` composes deck translations (generator index, exponent) with
    exponents in -2..2; the sup is a vertex maximum of exp<x, P>.
    """
    dom = DomainSpec(lattice, float(eps), 1.0, word=tuple(word))
    return dom.sup_monomial(np.asarray(P, dtype=float))


def polytope_to_text(vertices):
    """One vertex per line, shortest round-trip decimals, row-major."""
    lines = []
    for row in np.atleast_2d(vertices):
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
