"""Sparse truncated Taylor-Laurent series in (h, v).

A series is a finite coefficient table
``f(h, v) = sum_{P in Z^n, Q in N^d} f[k, P, Q] h^P v^Q`` per output
component k, truncated to vertical order ``|Q|_1 <= vmax`` and horizontal
band ``|P|_inf <= hband``.  Operations that push mass outside the truncation
window drop it, set ``tailflag`` and add to ``discarded`` an upper bound on
the dropped absolute mass: products never form the pairs that land above
``vmax`` and count them by the triangle bound ``sum |a_i| |b_j|`` (mass
dropped outside ``hband`` is counted exactly).

Values are complex doubles.  Series are immutable: every operation
returns a new instance, and nothing may change a series once another
operation has read it.  This is load-bearing.  ``substitute_vertical(f,
phi)`` keeps the table of powers ``(v_j + phi_j)^q`` with ``phi`` and
reuses it for every later series substituted into the same ``phi``, so
changing ``phi``'s coefficients afterwards would substitute stale powers.
Every constructor, ``copy`` included, starts with no table.  The one
in-place operation, ``_iadd``, is for a sum its caller has just started
and holds alone.

The coefficient table is known to this module alone.  Other modules read
it through ``terms()``, ``get()`` and ``nterms()``, and every loop that
fills a table, here or elsewhere, goes through ``_accumulate``, which
applies the truncation window and the pruning in one place.
"""

import numpy as np

from ._kernels import cauchy_product, evaluate as _kernel_evaluate

# values of modulus at most PRUNE are dropped instead of stored
PRUNE = 1e-300


class SeriesError(ValueError):
    pass


class TruncatedSeries:
    __slots__ = ("n", "d", "components", "vmax", "hband", "coeffs",
                 "tailflag", "discarded", "_shift")

    def __init__(self, n, d, components=1, vmax=8, hband=8, coeffs=None,
                 tailflag=False, discarded=0.0):
        self.n = int(n)
        self.d = int(d)
        self.components = int(components)
        self.vmax = int(vmax)
        self.hband = int(hband)
        self.tailflag = bool(tailflag)
        self.discarded = float(discarded)
        self.coeffs = {}
        # powers of (v_j + self_j) per working window; see substitute_vertical
        self._shift = None
        if coeffs:
            records = [((k, tuple(P), tuple(Q)), complex(c))
                       for (k, P, Q), c in coeffs.items()]
            for key, _ in records:
                self._check_key(*key)
            self._accumulate(records)

    # -- construction helpers -------------------------------------------------

    def _check_key(self, k, P, Q):
        if not (0 <= k < self.components):
            raise SeriesError("component index %d out of range" % k)
        if len(P) != self.n or len(Q) != self.d:
            raise SeriesError("multi-index arity mismatch")
        if any(q < 0 for q in Q):
            raise SeriesError("vertical exponents must be nonnegative")
        if sum(Q) > self.vmax or (P and max(abs(p) for p in P) > self.hband):
            raise SeriesError("index outside truncation window")

    def _accumulate(self, records):
        """Add ``((k, P, Q), value)`` records to the table, in order.

        This is the one loop that fills a coefficient table.  A record
        outside the (vmax, hband) window is not stored: it sets
        ``tailflag`` and adds its modulus to ``discarded``.  A record inside
        is added to the running sum at its key, and a sum of modulus PRUNE
        or less is removed.
        """
        coeffs, vmax, hband = self.coeffs, self.vmax, self.hband
        for key, c in records:
            P = key[1]
            if sum(key[2]) > vmax or (P and max(map(abs, P)) > hband):
                self.tailflag = True
                self.discarded += abs(c)
                continue
            new = coeffs.get(key, 0.0) + c
            if abs(new) > PRUNE:
                coeffs[key] = new
            elif key in coeffs:
                del coeffs[key]

    @classmethod
    def zero(cls, n, d, components=1, vmax=8, hband=8):
        return cls(n, d, components, vmax, hband)

    @classmethod
    def monomial(cls, n, d, k, P, Q, c=1.0, components=None, vmax=8, hband=8):
        components = components if components is not None else k + 1
        return cls(n, d, components, vmax, hband,
                   {(k, tuple(P), tuple(Q)): c})

    def _like(self, components=None, vmax=None, hband=None):
        return TruncatedSeries(
            self.n, self.d,
            self.components if components is None else components,
            self.vmax if vmax is None else vmax,
            self.hband if hband is None else hband)

    def copy(self):
        out = self._like()
        out.coeffs = dict(self.coeffs)
        out.tailflag = self.tailflag
        out.discarded = self.discarded
        return out

    # -- inspection -----------------------------------------------------------

    def terms(self):
        """Sorted (k, P, Q, value) records."""
        for key in sorted(self.coeffs):
            yield key[0], key[1], key[2], self.coeffs[key]

    def get(self, k, P, Q):
        return self.coeffs.get((k, tuple(P), tuple(Q)), 0.0 + 0.0j)

    def nterms(self):
        """Number of stored coefficients."""
        return len(self.coeffs)

    def max_abs(self):
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def v_order(self):
        """Smallest |Q| carrying a coefficient (vmax+1 for the zero series)."""
        return min((sum(Q) for (_, _, Q) in self.coeffs), default=self.vmax + 1)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs.values())

    def component(self, k):
        out = self._like(components=1)
        for (kk, P, Q), c in self.coeffs.items():
            if kk == k:
                out.coeffs[(0, P, Q)] = c
        out.tailflag, out.discarded = self.tailflag, self.discarded
        return out

    def __repr__(self):
        return ("TruncatedSeries(n=%d, d=%d, components=%d, vmax=%d, "
                "hband=%d, terms=%d%s)" % (
                    self.n, self.d, self.components, self.vmax, self.hband,
                    len(self.coeffs), ", tail" if self.tailflag else ""))

    # -- ring operations ------------------------------------------------------

    def _check_compat(self, other):
        if (self.n, self.d) != (other.n, other.d):
            raise SeriesError("series dimension mismatch: (%d,%d) vs (%d,%d)"
                              % (self.n, self.d, other.n, other.d))

    def add(self, other):
        self._check_compat(other)
        if self.components != other.components:
            raise SeriesError("component count mismatch in add")
        out = self._like(vmax=min(self.vmax, other.vmax),
                         hband=min(self.hband, other.hband))
        out.tailflag = self.tailflag or other.tailflag
        out.discarded = self.discarded + other.discarded
        out._accumulate(self.coeffs.items())
        out._accumulate(other.coeffs.items())
        return out

    def scale(self, c):
        c = complex(c)
        out = self._like()
        if c != 0:
            out.coeffs = {key: val * c for key, val in self.coeffs.items()
                          if abs(val * c) > PRUNE}
        out.tailflag = self.tailflag
        out.discarded = self.discarded * abs(c)
        return out

    def _iadd(self, other):
        """``self.add(other)`` in place, for a sum its caller owns alone.

        The same records reach ``_accumulate`` in the same order as in
        ``add``, so sums, ``tailflag`` and ``discarded`` are bit-identical,
        but the table built so far is not copied again.  ``other``'s window
        must contain this one's, where ``add`` would keep this window too.
        """
        self._check_compat(other)
        if self.components != other.components:
            raise SeriesError("component count mismatch in add")
        if other.vmax < self.vmax or other.hband < self.hband:
            raise SeriesError("in-place add cannot narrow the window")
        self.tailflag = self.tailflag or other.tailflag
        self.discarded += other.discarded
        self._accumulate(other.coeffs.items())
        return self

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __neg__(self):
        return self.scale(-1.0)

    def _arrays(self, k):
        """Component k as kernel input: (exps, vals) sorted by (P, Q)."""
        keys = sorted(key for key in self.coeffs if key[0] == k)
        exps = np.array([key[1] + key[2] for key in keys], dtype=np.int64)
        vals = np.array([self.coeffs[key] for key in keys],
                        dtype=np.complex128)
        return exps.reshape(len(keys), self.n + self.d), vals

    def mul(self, other):
        """Cauchy product on (P, Q); componentwise with scalar broadcast."""
        self._check_compat(other)
        ca, cb = self.components, other.components
        if ca != cb and 1 not in (ca, cb):
            raise SeriesError("component counts incompatible for product")
        comps = max(ca, cb)
        out = self._like(components=comps,
                         vmax=min(self.vmax, other.vmax),
                         hband=min(self.hband, other.hband))
        out.tailflag = self.tailflag or other.tailflag
        out.discarded = self.discarded + other.discarded
        for k in range(comps):
            ea, va = self._arrays(k if ca > 1 else 0)
            eb, vb = other._arrays(k if cb > 1 else 0)
            exps, vals, dropped = cauchy_product(
                ea, va, eb, vb, self.n, self.d, out.vmax, out.hband, PRUNE)
            if dropped:
                out.tailflag = True
                out.discarded += dropped
            # tolist() gives Python ints and complexes, in bulk
            n = self.n
            out.coeffs.update(zip(
                [(k, tuple(e[:n]), tuple(e[n:])) for e in exps.tolist()],
                vals.tolist()))
        return out

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    # -- structure maps -------------------------------------------------------

    def homogeneous_part(self, m):
        """Terms of vertical degree exactly m."""
        out = self._like()
        for (k, P, Q), c in self.coeffs.items():
            if sum(Q) == m:
                out.coeffs[(k, P, Q)] = c
        return out

    def up_to_degree(self, m):
        out = self._like()
        for (k, P, Q), c in self.coeffs.items():
            if sum(Q) <= m:
                out.coeffs[(k, P, Q)] = c
        return out

    def restrict(self, vmax=None, hband=None):
        """Re-truncate to a smaller window, flagging discarded mass."""
        vmax = self.vmax if vmax is None else vmax
        hband = self.hband if hband is None else hband
        out = self._like(vmax=vmax, hband=hband)
        out.tailflag = self.tailflag
        out.discarded = self.discarded
        out._accumulate(self.coeffs.items())
        return out

    def cut(self, vmax):
        """Working copy on the smaller vertical window ``vmax``, unflagged.

        Unlike ``restrict`` the terms above ``vmax`` leave no trace in
        ``tailflag`` or ``discarded``: a caller cuts a series only where
        those terms are recomputed later or cannot reach its output.
        """
        out = self._like(vmax=min(vmax, self.vmax))
        out.coeffs = {key: c for key, c in self.coeffs.items()
                      if sum(key[2]) <= vmax}
        out.tailflag, out.discarded = self.tailflag, self.discarded
        return out

    def with_window(self, vmax=None, hband=None):
        """Widen the truncation window (no coefficients change)."""
        vmax = self.vmax if vmax is None else max(self.vmax, vmax)
        hband = self.hband if hband is None else max(self.hband, hband)
        out = self._like(vmax=vmax, hband=hband)
        out.coeffs = dict(self.coeffs)
        out.tailflag, out.discarded = self.tailflag, self.discarded
        return out

    def shift_h(self, P0):
        """Multiply by the monomial h^{P0} (exponent translation)."""
        out = self._like()
        out._accumulate(((k, tuple(p + p0 for p, p0 in zip(P, P0)), Q), c)
                        for (k, P, Q), c in self.coeffs.items())
        out.tailflag |= self.tailflag
        out.discarded += self.discarded
        return out

    def max_coeff_diff(self, other):
        keys = set(self.coeffs) | set(other.coeffs)
        return max((abs(self.coeffs.get(key, 0.0) - other.coeffs.get(key, 0.0))
                    for key in keys), default=0.0)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, logh, v):
        """Evaluate at points; logh (M, n) complex, v (M, d) complex.

        Returns an (M, components) complex array.  h coordinates are passed
        logarithmically so Laurent powers stay stable far from |h| = 1.
        """
        logh = np.atleast_2d(np.asarray(logh, dtype=np.complex128))
        v = np.atleast_2d(np.asarray(v, dtype=np.complex128))
        out = np.empty((logh.shape[0], self.components), dtype=np.complex128)
        for k in range(self.components):
            exps, vals = self._arrays(k)
            out[:, k] = _kernel_evaluate(exps, vals, logh, v)
        return out

    # -- serialization (TLS format) -------------------------------------------

    def to_text(self):
        lines = ["TLS %d %d %d %d %d" % (self.n, self.d, self.components,
                                         self.vmax, self.hband)]
        for k, P, Q, c in self.terms():
            fields = [str(k)] + [str(p) for p in P] + [str(q) for q in Q]
            # plain floats: repr of a numpy scalar is "np.float64(...)"
            fields.append(repr(float(c.real)))
            fields.append(repr(float(c.imag)))
            lines.append(" ".join(fields))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Read a TLS text, keeping every value exactly as written."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise SeriesError("empty TLS text")
        head = lines[0].split()
        try:
            n, d, components, vmax, hband = map(int, head[1:])
            if head[0] != "TLS" or min(n, d, components, vmax, hband) < 0:
                raise ValueError
        except ValueError:
            raise SeriesError("bad TLS header: %r" % lines[0]) from None
        out = cls(n, d, components, vmax, hband)
        for ln in lines[1:]:
            parts = ln.split()
            try:
                if len(parts) != 1 + n + d + 2:
                    raise ValueError
                k = int(parts[0])
                P = tuple(int(x) for x in parts[1:1 + n])
                Q = tuple(int(x) for x in parts[1 + n:1 + n + d])
                c = complex(float(parts[-2]), float(parts[-1]))
            except ValueError:
                raise SeriesError("bad TLS record: %r" % ln) from None
            out._check_key(k, P, Q)
            if (k, P, Q) in out.coeffs:
                raise SeriesError("duplicate TLS record: %r" % ln)
            out.coeffs[(k, P, Q)] = c
        return out


# -- free functions over series ----------------------------------------------


def scale_components(f, factors):
    """Multiply component k by factors[k] (diagonal matrix action on values)."""
    factors = np.asarray(factors, dtype=np.complex128).reshape(-1)
    if len(factors) != f.components:
        raise SeriesError("need one factor per component")
    out = f._like()
    out.tailflag, out.discarded = f.tailflag, f.discarded
    out._accumulate(((k, P, Q), c * factors[k])
                    for (k, P, Q), c in f.coeffs.items())
    return out


def compose_diagonal(f, lam, mu, sign=1):
    """Compose with the diagonal map (h, v) -> (lam h, mu v), or its inverse.

    Coefficient at (P, Q) picks up the factor (lam^P mu^Q)^sign; exact
    coefficient-wise scaling, no truncation loss.
    """
    if sign not in (1, -1):
        raise SeriesError("sign must be +1 or -1")
    lam = np.asarray(lam, dtype=np.complex128)
    mu = np.asarray(mu, dtype=np.complex128)
    if lam.shape != (f.n,) or mu.shape != (f.d,):
        raise SeriesError("multiplier arity mismatch")
    out = f._like()
    cache = {}
    for (k, P, Q), c in f.coeffs.items():
        factor = cache.get((P, Q))
        if factor is None:
            factor = 1.0 + 0.0j
            for lj, p in zip(lam, P):
                factor *= complex(lj) ** int(p)
            for mj, q in zip(mu, Q):
                factor *= complex(mj) ** int(q)
            if sign < 0:
                factor = 1.0 / factor
            cache[(P, Q)] = factor
        out.coeffs[(k, P, Q)] = c * factor
    out.tailflag, out.discarded = f.tailflag, f.discarded
    return out


def _vertical_shift_powers(phi, vmax, hband):
    """A new table of the powers (v_j + phi_j)^q on a working window.

    Row j holds ``[None, v_j + phi_j]``; ``substitute_vertical`` extends it
    on demand as ``row[q] = row[q - 1].mul(row[1])``.
    """
    rows = []
    for j in range(phi.d):
        ej = tuple(1 if l == j else 0 for l in range(phi.d))
        w = TruncatedSeries.monomial(phi.n, phi.d, 0, (0,) * phi.n, ej,
                                     components=1, vmax=vmax, hband=hband)
        w = w.add(phi.component(j).restrict(vmax=vmax).with_window(hband=hband))
        rows.append([None, w])
    return rows


def substitute_vertical(f, phi):
    """Substitute v <- v + phi(h, v) with ord_v phi >= 2.

    The substitution is filtered by vertical degree: the degree-m part of
    the result only involves parts of phi of degree < m.  Internally the
    horizontal band is widened so the result equals the exact substitution
    projected onto the output window; dropping |Q| > vmax mass early is safe
    because vertical degrees only grow under products.

    The powers (v_j + phi_j)^q are kept with ``phi``, one table per working
    window, built on the first substitution into ``phi`` and extended as
    later ones need higher powers.  Every series substituted into the same
    ``phi`` (a deck map's two perturbations and ``phi_v`` at each degree of
    the linearization) reuses them, and each power is the same product in
    the same order as when it was first formed.
    """
    if phi.components != f.d:
        raise SeriesError("phi must have d components")
    if phi.v_order() < 2:
        raise SeriesError("phi must vanish to order >= 2 in v")
    vmax, hband = min(f.vmax, phi.vmax), min(f.hband, phi.hband)
    work_hband = f.hband + phi.hband * max(1, vmax // 2)
    out = f._like(vmax=vmax, hband=hband)
    out.tailflag = f.tailflag or phi.tailflag
    out.discarded = f.discarded + phi.discarded

    if phi._shift is None:
        phi._shift = {}
    rows = phi._shift.get((vmax, work_hband))
    if rows is None:
        rows = phi._shift[(vmax, work_hband)] = _vertical_shift_powers(
            phi, vmax, work_hband)

    def power(j, q):
        row = rows[j]
        while len(row) <= q:
            row.append(row[-1].mul(row[1]))
        return row[q]

    prod_cache = {}
    for (k, P, Q), c in sorted(f.coeffs.items()):
        if Q in prod_cache:
            W = prod_cache[Q]
        else:
            W = None
            for j, q in enumerate(Q):
                if q:
                    Wj = power(j, q)
                    W = Wj if W is None else W.mul(Wj)
            prod_cache[Q] = W
        if W is None:  # pure h-monomial term
            out._accumulate([((k, P, Q), c)])
        else:
            out._accumulate(((k, tuple(p + pw for p, pw in zip(P, Pw)), Qn),
                             c * w) for (_, Pw, Qn), w in W.coeffs.items())
    return out


def partial_h(f, P0):
    """Derivative d^{P0}/dh^{P0}; falling-factorial weights, exponents shift.

    The horizontal band widens by max(P0) so no Laurent term is lost to the
    shift.
    """
    P0 = tuple(int(p) for p in P0)
    if len(P0) != f.n or any(p < 0 for p in P0):
        raise SeriesError("P0 must be a nonnegative n-multi-index")
    out = f._like(hband=f.hband + (max(P0) if P0 else 0))
    out.tailflag, out.discarded = f.tailflag, f.discarded
    records = []
    for (k, P, Q), c in f.coeffs.items():
        w = 1
        for j in range(f.n):
            for i in range(P0[j]):
                w *= P[j] - i
        if w:
            records.append(((k, tuple(p - p0 for p, p0 in zip(P, P0)), Q),
                            c * w))
    out._accumulate(records)
    return out


def invert_vertical_map(G):
    """Series H with H + G(h, v + H) = 0, i.e. the inverse of (h, v + G).

    Fixed-point iteration from H = 0.  With r = ord_v G, the degree-m part
    of G(h, v + H) reads H only below degree m - r + 2, so each sweep
    settles r - 1 more degrees: sweep s = 1, 2, ... is exact through degree
    (s + 1)(r - 1) and is computed only that far, on G and H cut there.
    The terms it leaves out are exactly the ones the next, wider sweep
    would recompute, and every coefficient it does form is the same sum in
    the same order as in a full-window sweep.  Once the window reaches
    vmax, sweeps run on the full window until two agree exactly.
    """
    if G.components != G.d:
        raise SeriesError("vertical map must have d components")
    if G.v_order() < 2:
        raise SeriesError("vertical map must vanish to order >= 2 in v")
    settle = G.v_order() - 1
    H = G._like(components=G.d)
    for sweep in range(1, G.vmax + 2):
        window = min(G.vmax, (sweep + 1) * settle)
        nxt = substitute_vertical(G.cut(window), H.cut(window)).scale(-1.0)
        done = window == G.vmax and nxt.max_coeff_diff(H) == 0.0
        H = nxt.with_window(vmax=G.vmax)
        if done:
            break
    return H
