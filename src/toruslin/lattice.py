"""Torus lattice and Reinhardt domain geometry in log-modulus coordinates.

Every domain this package touches is a product of a Reinhardt region in the
h variables and a polydisc in v.  In coordinates x = log|h| the Reinhardt
part is a parallelotope spanned by the row vectors ``v_i = -2 pi Im e_{n+i}``
over the parameter box ]-eps, 1+eps[^n, possibly translated by integer
combinations of the ``v_i`` (the deck maps act by exactly these
translations).  Sups of |h^P| over such regions are exponentials of linear
programs solved at vertices, which keeps all norm bounds exact.

The Hartogs-extended domain is the convex hull of the base parallelotope
and its +-1, +-2 translates along every generator.  In t = x V^{-1}, with
V the matrix of rows v_i, the base is the cube [-eps, 1+eps]^n and the
translates are its shifts by k e_i.  The +-1 shifts lie inside the hull of
the others, so the hull is conv(cube + {0, +-2 e_i}) = cube + 2 * the
cross-polytope, a Minkowski sum.  Its normal fan is the common refinement
of the cube's (the orthants) and the cross-polytope's (which |y_i| is
largest), so it has a facet for each y in {-1, 0, 1}^n minus 0, with
normal V^{-1} y in x, and a vertex for each sign vector and axis i: the
corner of the 2 e_i shift that is far in coordinate i.  The hull is
therefore written down directly, without a hull algorithm.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

HULL_DIM_LIMIT = 4


class LatticeError(ValueError):
    pass


class HullLimitError(RuntimeError):
    """Hull refused above HULL_DIM_LIMIT (n 2^n vertices, 3^n - 1 facets)."""


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


@dataclass(frozen=True)
class HullDescription:
    """Convex hull as vertex list plus halfspaces A x + b <= 0."""

    vertices: np.ndarray
    normals: np.ndarray
    offsets: np.ndarray


def log_indicatrix(lattice, eps):
    """Log-modulus image of the fattened fundamental Reinhardt domain."""
    if eps < 0:
        raise LatticeError("eps must be nonnegative")
    return LogPolytope(lattice.log_gens, -float(eps), 1.0 + float(eps),
                       np.zeros(lattice.n))


def union_translates(lattice, eps):
    """The fundamental polytope, then per axis i its translates by +v_i,
    -v_i, +2 v_i and -2 v_i."""
    base = log_indicatrix(lattice, eps)
    polys = [base]
    for i in range(lattice.n):
        vi = lattice.log_gens[i]
        for k in (1, 2):
            polys.append(base.translate(k * vi))
            polys.append(base.translate(-k * vi))
    return polys


def union_and_hull(lattice, eps):
    """Translated parallelotopes and the convex hull of all their vertices.

    In t = x V^{-1} the union is the cube [-eps, 1+eps]^n with its copies
    shifted by +-1 and +-2 along each axis, so its hull is the Minkowski sum
    of the cube and 2 * the cross-polytope, with support function
    (1/2 + eps)|y|_1 + 2|y|_inf + (1/2) sum y.  The vertices are the
    n 2^n corners of the +-2 e_i copies on the far side in coordinate i,
    taken from those copies' own ``vertices()``; the facet normals are
    V^{-1} y for the 3^n - 1 sign vectors y in {-1, 0, 1}^n, each tight on
    the vertex set.  Vertices are sorted row-lexicographically.
    """
    n = lattice.n
    if n > HULL_DIM_LIMIT:
        raise HullLimitError("hull enumeration limited to dimension %d"
                             % HULL_DIM_LIMIT)
    polys = union_translates(lattice, eps)
    # corner r of vertices() sits at t_i = hi iff bit n-1-i of r is set
    at_hi = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1
    parts = []
    for i in range(n):
        # union_translates lists the +2 v_i and -2 v_i copies at 4i+3, 4i+4
        parts.append(polys[4 * i + 3].vertices()[at_hi[:, i]])
        parts.append(polys[4 * i + 4].vertices()[~at_hi[:, i]])
    verts = np.concatenate(parts)
    verts = verts[np.lexsort(verts.T[::-1])]
    signs = np.array([y for y in product((-1.0, 0.0, 1.0), repeat=n)
                      if any(y)])
    normals = signs @ np.linalg.inv(lattice.log_gens).T
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = -(verts @ normals.T).max(axis=0)
    return polys, HullDescription(verts, normals, offsets)


def max_margin_eta(lattice, eps):
    """Largest eta with every +-1 translate of the (eps+eta)-domain in the hull.

    The hull is the one of the (+-1, +-2)-translate union at eps.  The answer
    is 1/n for every lattice and eps: in t = x V^{-1} a +-1 translate of the
    (eps+eta) cube fits under the hull's support function (1/2 + eps)|y|_1 +
    2|y|_inf + (1/2) sum y iff eta|y|_1 +- y_i <= 2|y|_inf for all y, and
    y = (1, ..., 1) binds.
    """
    if eps <= 0:
        raise LatticeError("eps must be positive")
    return 1.0 / lattice.n


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

    def _offsets(self):
        """The translations of the base polytope whose union is the domain
        (not the hull): 0, then ``sign(ell) k v_i`` for k = 1..|ell| per
        generator i under a union tag; else the word's one offset."""
        n, gens = self.lattice.n, self.lattice.log_gens
        if self.union_ell:
            sign = 1 if self.union_ell > 0 else -1
            return [np.zeros(n)] + [sign * k * gens[i] for i in range(n)
                                    for k in range(1, abs(self.union_ell) + 1)]
        offset = np.zeros(n)
        for i, k in self.word:
            offset = offset + k * gens[i]
        return [offset]

    def log_vertices(self):
        """Vertex cloud whose max of <x, P> realizes sup log|h^P|."""
        if self.hull:
            return union_and_hull(self.lattice, self.eps)[1].vertices
        base = log_indicatrix(self.lattice, self.eps)
        return np.concatenate([base.translate(offset).vertices()
                               for offset in self._offsets()])

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
        offsets = self._offsets()
        if self.union_ell:
            choice = rng.integers(0, len(offsets), size=count)
            return pts + np.asarray(offsets)[choice]
        return pts + offsets[0]

    def describe(self):
        if self.hull:
            return "hull(eps=%r, r=%r)" % (self.eps, self.r)
        if self.union_ell:
            return "union(%+d, eps=%r, r=%r)" % (self.union_ell, self.eps, self.r)
        if self.word:
            tags = ",".join("t%d^%+d" % (i + 1, k) for i, k in self.word)
            return "%s(eps=%r, r=%r)" % (tags, self.eps, self.r)
        return "base(eps=%r, r=%r)" % (self.eps, self.r)


def polytope_to_text(vertices):
    """One vertex per line, shortest round-trip decimals, row-major."""
    lines = []
    for row in np.atleast_2d(vertices):
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
