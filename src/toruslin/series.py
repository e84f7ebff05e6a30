"""Sparse truncated Taylor-Laurent series in (h, v).

A series is a finite coefficient table
``f(h, v) = sum_{P in Z^n, Q in N^d} f[k, P, Q] h^P v^Q`` per output
component k, truncated to vertical order ``|Q|_1 <= vmax``.  The vertical
cut is the only truncation: every input is a Laurent polynomial in h, and
products, compositions and the binomial series ``(1 + u)^p`` stay finite in
P because ``u`` has positive vertical order.  Operations that push mass
above ``vmax`` drop it and add to ``discarded`` an upper bound on the
dropped absolute mass: products never form the pairs that land above
``vmax`` and count them by the triangle bound ``sum |a_i| |b_j|``.
``discarded`` is a series' one truncation record; ``tailflag`` is read
from it, as ``discarded > 0``.

Values are complex doubles.  Series are immutable: every operation
returns a new instance, and nothing may change a series once another
operation has read it.  A series is stored as its kept arrays
(``_sorted``): every term sorted by (k, P, Q), the one order in which the
kernels and the bulk sums read a series, sliced per component, with what
is read of them computed once and kept beside them: the terms' vertical
degrees, the sum of their moduli, and the ``table_data`` products read.
``mul`` forms each component's product by one kernel call and keeps the
kernel's output, selections and ``scale`` are masks, and every sum or
re-truncation is one ``_scatter``: its records are tested against
``vmax``, summed per key in record order and pruned, keys sorted.  ``substitute_verticals(fs, phi)`` substitutes many series
into one ``phi`` through one scatter call and keeps the powers ``(v_j +
phi_j)^q`` with ``phi`` for later use.

A coefficient dict exists only as a pending buffer, filled by the
constructors, ``from_text`` and ``compose_diagonal``, and converted to the
arrays and dropped by the first read.  Other modules read terms through
``terms()``, ``get()`` and ``nterms()``.  The public ``coeffs`` is the
writable handle: it hands out the pending dict, or one built from the
arrays, and drops the arrays and powers, so a write is seen by every
later read.
"""

import cmath
from itertools import accumulate, repeat
from math import fsum

import numpy as np

from ._kernels import cauchy_product, evaluate as _kernel_evaluate, \
    modulus, multiply, segment_sum, table_data, vertical_degrees

# values of modulus at most PRUNE are dropped instead of stored
PRUNE = 1e-300
# the most records that the sums and scatters of many series sum in one
# pass: a larger batch is cut into passes, so that batching saves calls
# without making a pass's arrays larger than those of its largest part
PASS_LIMIT = 1 << 12


class SeriesError(ValueError):
    pass


class TruncatedSeries:
    __slots__ = ("n", "d", "components", "vmax", "discarded",
                 "_shift", "_store", "_table")

    def __init__(self, n, d, components=1, vmax=8, hband=None, coeffs=None,
                 discarded=0.0):
        """``hband``, the retired horizontal band, is accepted and ignored:
        the benchmark under ``perfbench/`` still passes it."""
        self.n = int(n)
        self.d = int(d)
        self.components = int(components)
        self.vmax = int(vmax)
        self.discarded = float(discarded)
        # the pending coefficient dict, None once _sorted has converted it
        self._table = {}
        # powers of (v_j + self_j) per working window; see substitute_vertical
        self._shift = None
        # kernel arrays per component; see _sorted
        self._store = None
        for (k, P, Q), c in (coeffs or {}).items():
            key = (k, tuple(P), tuple(Q))
            self._check_key(*key)
            c = 0j + complex(c)
            if abs(c) > PRUNE:
                self._table[key] = c

    # -- construction helpers -------------------------------------------------

    def _check_key(self, k, P, Q):
        if not (0 <= k < self.components):
            raise SeriesError("component index %d out of range" % k)
        if len(P) != self.n or len(Q) != self.d:
            raise SeriesError("multi-index arity mismatch")
        if any(q < 0 for q in Q):
            raise SeriesError("vertical exponents must be nonnegative")
        if sum(Q) > self.vmax:
            raise SeriesError("index outside truncation window")

    @property
    def tailflag(self):
        """Whether the truncation dropped anything: ``discarded > 0``."""
        return self.discarded > 0

    @property
    def coeffs(self):
        """The coefficient dict {(k, P, Q): value}, handed out for writing:
        the pending dict, or one built from the kept arrays, which it drops
        with the powers, so every later read sees the writes."""
        if self._table is None:
            ks, exps, vals = self._store["sorted"]
            self._table = dict(zip(_keys(ks, exps, self.n), vals.tolist()))
        self._store = self._shift = None
        return self._table

    @classmethod
    def zero(cls, n, d, components=1, vmax=8, hband=None):
        """The zero series.  ``hband`` is accepted and ignored, as by the
        constructor: the benchmark under ``perfbench/`` still passes it."""
        return cls(n, d, components, vmax)

    @classmethod
    def monomial(cls, n, d, k, P, Q, c=1.0, components=None, vmax=8):
        components = components if components is not None else k + 1
        return cls(n, d, components, vmax,
                   coeffs={(k, tuple(P), tuple(Q)): c})

    def _like(self, components=None, vmax=None):
        return TruncatedSeries(
            self.n, self.d,
            self.components if components is None else components,
            self.vmax if vmax is None else vmax)

    def _rows(self, keep=None, vmax=None):
        """The rows ``keep`` of ``_sorted()`` (a mask, or None: all, sharing
        what is kept) as a series on the given window, with no truncation
        record."""
        ks, exps, vals = self._sorted()
        out = self._like(vmax=vmax)
        if keep is None:
            out._store, out._table = self._store, None
        else:
            out._keep_sorted(None if ks is None else ks[keep], exps[keep],
                             vals[keep])
        return out

    # -- inspection -----------------------------------------------------------

    def terms(self):
        """Sorted (k, P, Q, value) records."""
        ks, exps, vals = self._sorted()
        for (k, P, Q), c in zip(_keys(ks, exps, self.n), vals.tolist()):
            yield k, P, Q, c

    def get(self, k, P, Q):
        key = (k, tuple(P), tuple(Q))
        return next((c for *term, c in self.terms() if tuple(term) == key),
                    0.0 + 0.0j)

    def nterms(self):
        """Number of stored coefficients."""
        return len(self._sorted()[2])

    def max_abs(self):
        vals = self._sorted()[2]
        return float(modulus(vals).max()) if len(vals) else 0.0

    def _degrees(self):
        """Each term's vertical degree, in ``_sorted`` order; computed once
        and kept with the arrays."""
        self._sorted()
        deg = self._store.get("deg")
        if deg is None:
            deg = self._store["deg"] = vertical_degrees(
                self._store["sorted"][1], self.n)
        return deg

    def degree_maxima(self, top):
        """The largest coefficient modulus at each vertical degree 0..top,
        0.0 where there is no term: ``homogeneous_part(m).max_abs()`` for
        every m at once."""
        deg = self._degrees()
        inside = deg <= top
        out = np.zeros(top + 1)
        np.maximum.at(out, deg[inside], modulus(self._sorted()[2][inside]))
        return out.tolist()

    def v_order(self):
        """Smallest |Q| carrying a coefficient (vmax+1 for the zero series)."""
        deg = self._degrees()
        return int(deg.min()) if len(deg) else self.vmax + 1

    def is_zero(self):
        return not self._sorted()[2].any()

    def component(self, k):
        out = self._like(components=1)
        out._keep_sorted(None, *self._arrays(k))
        out.discarded = self.discarded
        return out

    def __repr__(self):
        return ("TruncatedSeries(n=%d, d=%d, components=%d, vmax=%d, "
                "terms=%d%s)" % (
                    self.n, self.d, self.components, self.vmax,
                    self.nterms(), ", tail" if self.tailflag else ""))

    # -- ring operations ------------------------------------------------------

    def _check_compat(self, other):
        if (self.n, self.d) != (other.n, other.d):
            raise SeriesError("series dimension mismatch: (%d,%d) vs (%d,%d)"
                              % (self.n, self.d, other.n, other.d))

    def add(self, other):
        """One ``_scatter`` of self's records, then other's."""
        self._check_compat(other)
        if self.components != other.components:
            raise SeriesError("component count mismatch in add")
        out = self._like(vmax=min(self.vmax, other.vmax))
        out.discarded = self.discarded + other.discarded
        ka, ea, va = self._sorted()
        kb, eb, vb = other._sorted()
        _scatter([out], None, None if ka is None else np.concatenate((ka, kb)),
                 np.concatenate((ea, eb)), np.concatenate((va, vb)), [[]])
        return out

    def scale(self, c):
        c = complex(c)
        ks, exps, vals = self._sorted()
        vals = multiply(vals, c)
        # products of c = 0 are zero (or nan) and fail the test
        keep = modulus(vals) > PRUNE
        out = self._like()
        out._keep_sorted(None if ks is None else ks[keep], exps[keep],
                         vals[keep])
        out.discarded = _carried(self.discarded, abs(c))
        return out

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1.0))

    def __neg__(self):
        return self.scale(-1.0)

    def _sorted(self):
        """Every term as (ks, exps, vals) arrays sorted by (k, P, Q); ``ks``
        is None for a single component.

        The store of every series, and the one order in which the kernels
        and the bulk sums read a series.  Built once from a pending dict,
        which it drops, and kept, read-only, with the components'
        ``_arrays``, until the ``coeffs`` handle drops them.
        """
        if self._store is None:
            keys = list(self._table)
            exps = np.array([key[1] + key[2] for key in keys],
                            dtype=np.int64).reshape(len(keys), self.n + self.d)
            vals = np.array(list(self._table.values()), dtype=np.complex128)
            ks = None
            if self.components > 1:
                ks = np.array([key[0] for key in keys], dtype=np.int64)
            # lexsort's last key is the primary one
            order = np.lexsort([*exps.T[::-1]] + ([] if ks is None else [ks]))
            self._keep_sorted(None if ks is None else ks[order], exps[order],
                              vals[order])
        return self._store["sorted"]

    def _arrays(self, k):
        """Component k as kernel input: its (exps, vals) slice of
        ``_sorted``, sorted by (P, Q)."""
        self._sorted()
        return self._store[k]

    def _operand(self, k):
        """Component k as a ``cauchy_product`` operand: its ``_arrays`` and
        their ``table_data``, built once and kept with them."""
        exps, vals = self._arrays(k)
        data = self._store.get(("data", k))
        if data is None:
            lo, hi = self._store["cuts"][k:k + 2]
            data = self._store[("data", k)] = table_data(
                exps, vals, self._degrees()[lo:hi])
        return exps, vals, data

    def _mass(self):
        """The sum of the term moduli over all components, summed once."""
        self._sorted()
        mass = self._store.get("mass")
        if mass is None:
            mass = self._store["mass"] = sum(
                float(data[2][0]) for data in (
                    self._operand(k)[2] for k in range(self.components))
                if data)
        return mass

    def _keep_sorted(self, ks, exps, vals):
        """Keep every term, sorted by (k, P, Q), as ``_sorted`` and the
        components' ``_arrays`` (``ks`` is None for a single component),
        in place of a pending dict."""
        for array in (ks, exps, vals):
            if array is not None:
                array.flags.writeable = False
        self._table = None
        self._store = {"sorted": (ks, exps, vals)}
        if ks is None:
            self._store[0] = (exps, vals)
            self._store["cuts"] = [0, len(vals)]
            return
        cuts = np.searchsorted(ks, range(self.components + 1)).tolist()
        self._store["cuts"] = cuts
        for j in range(self.components):
            self._store[j] = (exps[cuts[j]:cuts[j + 1]],
                              vals[cuts[j]:cuts[j + 1]])

    def mul(self, other):
        """Cauchy product on (P, Q); componentwise with scalar broadcast,
        one ``cauchy_product`` call per component.

        A part dA that self has lost reaches the exact product as ``dA (B +
        dB)``, and a part dB that other has lost as ``A dB``, so the product
        records ``dA (|B|_1 + dB) + |A|_1 dB``, with ``|A|_1`` the sum of A's
        term moduli over all components, and then the bound of the pairs it
        does not form, component by component.  The kernel output of each
        component is sorted by packed key, i.e. by (P, Q), and is kept as it
        is.
        """
        self._check_compat(other)
        ca, cb = self.components, other.components
        if ca != cb and 1 not in (ca, cb):
            raise SeriesError("component counts incompatible for product")
        out = self._like(components=max(ca, cb),
                         vmax=min(self.vmax, other.vmax))
        if self.discarded or other.discarded:
            out.discarded = _carried(self.discarded,
                                     other._mass() + other.discarded) \
                + _carried(other.discarded, self._mass())
        parts = []
        for k in range(out.components):
            ea, va, da = self._operand(k if ca > 1 else 0)
            eb, vb, db = other._operand(k if cb > 1 else 0)
            exps, vals, dropped = cauchy_product(ea, va, eb, vb, self.n,
                                                 self.d, out.vmax, PRUNE, da,
                                                 db)
            out.discarded += dropped
            parts.append((exps, vals))
        if out.components == 1:
            (exps, vals), ks = parts[0], None
        else:
            ks = np.repeat(np.arange(out.components),
                           [len(vals) for _, vals in parts])
            exps = np.concatenate([exps for exps, _ in parts])
            vals = np.concatenate([vals for _, vals in parts])
        out._keep_sorted(ks, exps, vals)
        return out

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            return self.mul(other)
        return self.scale(other)

    __rmul__ = __mul__

    # -- structure maps -------------------------------------------------------

    def homogeneous_part(self, m):
        """Terms of vertical degree exactly m."""
        return self._rows(self._degrees() == m)

    def up_to_degree(self, m):
        return self._rows(self._degrees() <= m)

    def above_degree(self, m):
        """Terms of vertical degree above m, the complement of
        ``up_to_degree``, with the truncation record kept."""
        out = self._rows(self._degrees() > m)
        out.discarded = self.discarded
        return out

    def restrict(self, vmax=None):
        """Re-truncate to a smaller window, recording the mass it drops."""
        out = self._like(vmax=vmax)
        out.discarded = self.discarded
        _scatter([out], None, *self._sorted(), [[]], one_per_key=True)
        return out

    def cut(self, vmax):
        """Working copy on the smaller vertical window ``vmax``.

        Unlike ``restrict`` the terms above ``vmax`` leave no trace in
        ``discarded``: a caller cuts a series only where those terms are
        recomputed later or cannot reach its output.
        """
        keep = None if vmax >= self.vmax else self._degrees() <= vmax
        out = self._rows(keep, vmax=min(vmax, self.vmax))
        out.discarded = self.discarded
        return out

    def with_window(self, vmax=None, hband=None):
        """Widen the truncation window (no coefficients change).

        ``hband`` is accepted and ignored: the benchmark under
        ``perfbench/`` still passes it."""
        vmax = self.vmax if vmax is None else max(self.vmax, vmax)
        out = self._rows(vmax=vmax)
        out.discarded = self.discarded
        return out

    def shift_h(self, P0):
        """Multiply by the monomial h^{P0} (exponent translation)."""
        ks, exps, vals = self._sorted()
        out = self._like()
        out.discarded = self.discarded
        _scatter([out], None, ks, exps + np.array([*P0] + [0] * self.d,
                                                  dtype=np.int64),
                 vals, [[]], one_per_key=True)
        return out

    def max_coeff_diff(self, other):
        """The largest ``abs(a - b)`` over the keys of either series, a
        missing coefficient read as 0, 0.0 when both are empty.

        One ``segment_sum`` over self's records, then other's negated: each
        sum is ``0.0 + a + (-b)``, which is ``a - b`` up to the sign of a
        zero part, so the moduli are bit for bit those of the differences.
        """
        self._check_compat(other)
        mine, theirs = self._sorted(), other._sorted()
        rows = np.concatenate([np.column_stack((
            np.zeros(len(vals), dtype=np.int64) if ks is None else ks, exps))
            for ks, exps, vals in (mine, theirs)])
        _, sums = segment_sum(rows, np.concatenate((mine[2], -theirs[2])))
        return float(modulus(sums).max()) if len(sums) else 0.0

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
        """The TLS text: a header ``TLS n d components vmax pmax``, with
        ``pmax`` the largest ``|P|_inf`` of a term (0 without terms), then
        one record per term in sorted order."""
        pmax = int(np.abs(self._sorted()[1][:, :self.n]).max(initial=0))
        lines = ["TLS %d %d %d %d %d" % (self.n, self.d, self.components,
                                         self.vmax, pmax)]
        for k, P, Q, c in self.terms():
            fields = [str(k)] + [str(p) for p in P] + [str(q) for q in Q]
            # plain floats: repr of a numpy scalar is "np.float64(...)"
            fields.append(repr(float(c.real)))
            fields.append(repr(float(c.imag)))
            lines.append(" ".join(fields))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Read a TLS text, keeping every value exactly as written; a
        record's value must be finite.

        The header's fifth field must be a nonnegative int and is otherwise
        ignored: ``to_text`` writes the terms' largest ``|P|_inf`` there,
        and older writers wrote the retired horizontal band."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise SeriesError("empty TLS text")
        head = lines[0].split()
        try:
            n, d, components, vmax, pmax = map(int, head[1:])
            if head[0] != "TLS" or min(n, d, components, vmax, pmax) < 0:
                raise ValueError
        except ValueError:
            raise SeriesError("bad TLS header: %r" % lines[0]) from None
        out = cls(n, d, components, vmax)
        for ln in lines[1:]:
            parts = ln.split()
            try:
                if len(parts) != 1 + n + d + 2:
                    raise ValueError
                k = int(parts[0])
                P = tuple(int(x) for x in parts[1:1 + n])
                Q = tuple(int(x) for x in parts[1 + n:1 + n + d])
                c = complex(float(parts[-2]), float(parts[-1]))
                if not cmath.isfinite(c):
                    raise ValueError
            except ValueError:
                raise SeriesError("bad TLS record: %r" % ln) from None
            out._check_key(k, P, Q)
            if (k, P, Q) in out._table:
                raise SeriesError("duplicate TLS record: %r" % ln)
            out._table[(k, P, Q)] = c
        return out


# -- free functions over series ----------------------------------------------


def _keys(ks, exps, n):
    """Table keys (k, P, Q) of Python ints from components (None for
    component 0 throughout) and exponent rows."""
    return zip(repeat(0) if ks is None else ks.tolist(),
               map(tuple, exps[:, :n].tolist()),
               map(tuple, exps[:, n:].tolist()))


def _carried(lost, factor):
    """The record ``lost`` carried through a factor of size ``factor``:
    ``lost * factor``, and 0.0 where either is 0, also where the other has
    overflowed to inf (a zero factor multiplies the lost part away)."""
    return lost * factor if lost and factor else 0.0


def scale_components(f, factors):
    """Multiply component k by factors[k] (diagonal matrix action on values).

    The truncation record is carried through the largest ``|factors[k]|``,
    a bound over every component."""
    factors = np.asarray(factors, dtype=np.complex128).reshape(-1)
    if len(factors) != f.components:
        raise SeriesError("need one factor per component")
    ks, exps, vals = f._sorted()
    out = f._like()
    out.discarded = _carried(f.discarded, float(modulus(factors).max()))
    _scatter([out], None, ks, exps,
             multiply(vals, factors[0] if ks is None else factors[ks]), [[]],
             one_per_key=True)
    return out


def _passes(sizes):
    """Consecutive index ranges of ``sizes`` whose items share one summing
    pass: each range sums to at most ``PASS_LIMIT``, or holds one item."""
    cuts, total = [], 0
    for i, size in enumerate(sizes):
        if not cuts or total + size > PASS_LIMIT:
            cuts.append(i)
            total = 0
        total += size
    return list(zip(cuts, cuts[1:] + [len(sizes)]))


def _outside(exps, n, vmax):
    """Rows above ``vmax``, which may be a per-row array."""
    return vertical_degrees(exps, n) > vmax


def compose_diagonal(f, lam, mu, sign=1):
    """Compose with the diagonal map (h, v) -> (lam h, mu v), or its inverse.

    Coefficient at (P, Q) picks up the factor (lam^P mu^Q)^sign; exact
    coefficient-wise scaling, no truncation loss.  A product of modulus
    PRUNE or less is dropped, as ``scale`` drops it.  A part ``f`` has lost
    picks up the same factors at exponents ``f`` does not list, so no finite
    factor bounds them: a nonzero record becomes inf, and is kept only when
    every ``|lam_j|`` and ``|mu_j|`` is exactly 1, where every factor has
    modulus 1 up to rounding.
    """
    if sign not in (1, -1):
        raise SeriesError("sign must be +1 or -1")
    lam = np.asarray(lam, dtype=np.complex128)
    mu = np.asarray(mu, dtype=np.complex128)
    if lam.shape != (f.n,) or mu.shape != (f.d,):
        raise SeriesError("multiplier arity mismatch")
    out = f._like()
    cache = {}
    for k, P, Q, c in f.terms():
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
        val = c * factor
        if abs(val) > PRUNE:
            out._table[(k, P, Q)] = val
    unit = (modulus(np.concatenate([lam, mu])) == 1.0).all()
    out.discarded = f.discarded if unit or not f.discarded else np.inf
    return out


def _vertical_row(p, j, c, vmax):
    """The power table row ``[None, c v_j + p_j]`` on the window ``vmax``;
    ``_grow_powers`` extends it.  Terms of ``p_j`` above ``vmax`` are
    dropped, their moduli added to ``discarded`` after ``p``'s own record."""
    ej = tuple(1 if t == j else 0 for t in range(p.d))
    w = TruncatedSeries.monomial(p.n, p.d, 0, (0,) * p.n, ej, c,
                                 components=1, vmax=vmax)
    return [None, w.add(p.component(j).with_window(vmax=vmax))]


def _grow_powers(chains):
    """Extend each power table ``[None, x, x^2, ...]`` of ``chains``, given
    as ``(table, top)``, through power ``top``: ``table[q] =
    table[q - 1].mul(table[1])``."""
    for table, top in chains:
        while len(table) <= top:
            table.append(table[-1].mul(table[1]))


def _fold_products(rows):
    """The product of each list of factors in ``rows``, multiplied in
    order by ``mul``, the first factor taken as is."""
    out = []
    for first, *rest in rows:
        for factor in rest:
            first = first.mul(factor)
        out.append(first)
    return out


def substitute_vertical(f, phi):
    """Substitute v <- v + phi(h, v) into f: ``substitute_verticals`` of
    this one series."""
    return substitute_verticals([f], phi)[0]


def substitute_verticals(fs, phi):
    """Substitute v <- v + phi(h, v) with ord_v phi >= 2 into each f in
    ``fs``; one ``_scatter_each`` call writes all the results.

    The substitution is filtered by vertical degree: the degree-m part of
    the result only involves parts of phi of degree < m.  Dropping
    |Q| > vmax mass early is safe because vertical degrees only grow under
    products.

    W_Q = prod_j (v_j + phi_j)^q_j is v^Q plus terms of degree >= |Q| +
    ord_v phi - 1, so a term with |Q| > vmax - ord_v phi + 1 is its own
    record, as a pure h-monomial term is (above the output vmax it goes to
    ``discarded``), and no power past that degree is formed.

    The mass the substitution drops above vmax is carried: a term c h^P v^Q
    adds ``|c| * W_Q.discarded`` to ``discarded``, and a term past
    vmax - ord_v phi + 1, whose row is not formed, adds the triangle bound
    of that row, ``|c| * (prod_j (1 + |phi_j|_1)^q_j - 1)`` with
    ``|phi_j|_1`` the sum of phi_j's moduli.  Each term's amount goes into
    ``discarded`` just before its records, in sorted term order.  phi's own
    truncation record is added only where f has a term of positive degree,
    the only terms that read phi: substituting into an f without such terms
    and without a record is exact.

    The powers (v_j + phi_j)^q are kept with ``phi``, one table per output
    ``vmax``: its rows start as ``_vertical_row(phi, j, 1, vmax)`` on the
    first substitution into ``phi`` and are extended by ``_grow_powers`` as
    later ones need higher powers.  Every series substituted into the same
    ``phi`` (a deck map's two perturbations and ``phi_v`` at each degree of
    the linearization) reuses them, and each power is the same product in
    the same order as when it was first formed.  The powers and the W_Q
    every series of ``fs`` needs are formed together, one ``mul`` per
    power and one per factor of W_Q after the first (``_fold_products``),
    each W_Q once per window for all of ``fs``.  A
    ``phi`` without terms substitutes v for v: each ``f`` is re-truncated
    to its output window, its terms in sorted order (the order the scatter
    reads them in), and no powers are formed.
    """
    for f in fs:
        if phi.components != f.d:
            raise SeriesError("phi must have d components")
    order = phi.v_order()
    if order < 2:
        raise SeriesError("phi must vanish to order >= 2 in v")
    outs = []
    for f in fs:
        out = f._like(vmax=min(f.vmax, phi.vmax))
        # phi reaches the result only through f's terms of positive degree
        reads_phi = bool((f._degrees() > 0).any())
        out.discarded = f.discarded + (phi.discarded if reads_phi else 0.0)
        outs.append(out)
    if not outs:
        return outs
    if not phi.nterms():
        _scatter_each(outs, [f._sorted() for f in fs], [[] for _ in fs],
                      one_per_key=True)
        return outs

    if phi._shift is None:
        phi._shift = {}
    for out in outs:
        if out.vmax not in phi._shift:
            phi._shift[out.vmax] = [_vertical_row(phi, j, 1.0, out.vmax)
                                    for j in range(phi.d)]
    # each f's distinct Q, and the W_Q they need, per output window
    n = phi.n
    plans, needed = [], {}
    for f, out in zip(fs, outs):
        fk, fexps, fvals = f._sorted()
        if not len(fvals):
            plans.append(None)
            continue
        limit = out.vmax - order + 1
        # the distinct Q, as rows packed into one integer each
        qkeys = fexps[:, n:] @ (f.vmax + 1) ** np.arange(f.d, dtype=np.int64)
        _, firsts, which = np.unique(qkeys, return_index=True,
                                     return_inverse=True)
        # each Q, and whether its row W_Q is formed: not for a pure
        # h-monomial term or one past limit, each its own record
        Qs = [(tuple(Q), 0 < sum(Q) <= limit)
              for Q in fexps[firsts, n:].tolist()]
        for Q, formed in Qs:
            if formed:
                needed[out.vmax, Q] = None
        plans.append((limit, Qs, which))
    W = _vertical_products(phi, needed)
    norms = [fsum(modulus(phi._arrays(j)[1]).tolist()) for j in range(phi.d)]

    records, marks = [], []
    for f, out, plan in zip(fs, outs, plans):
        if plan is None:
            records.append(f._sorted())
            marks.append([])
            continue
        # f's terms, each followed by the records of its W_Q, both in
        # sorted order, gathered by index arithmetic
        limit, Qs, which = plan
        fk, fexps, fvals = f._sorted()
        tables, lost = [], []
        for Q, formed in Qs:
            if formed:
                tables.append(W[out.vmax, Q]._arrays(0))
                lost.append(W[out.vmax, Q].discarded)
                continue
            # a pure h-monomial term, or one past limit: its value is set
            # below
            tables.append((np.array([[0] * n + list(Q)], dtype=np.int64),
                           np.ones(1, dtype=np.complex128)))
            grow = 1.0
            for norm, q in zip(norms, Q):
                grow *= (1.0 + norm) ** q
            lost.append(grow - 1.0)
        lens = np.array([len(vals) for _, vals in tables])
        wexps = np.concatenate([exps for exps, _ in tables])
        wvals = np.concatenate([vals for _, vals in tables])
        count = lens[which]
        term = np.repeat(np.arange(len(fvals)), count)
        ends = np.cumsum(count)
        widx = np.arange(ends[-1]) + np.repeat(
            np.cumsum(lens)[which] - lens[which] - ends + count, count)
        exps = wexps[widx]
        exps[:, :n] += fexps[term, :n]
        vals = multiply(fvals[term], wvals[widx])
        degree = f._degrees()
        direct = ((degree == 0) | (degree > limit))[term]
        vals[direct] = fvals[term[direct]]
        amounts = modulus(fvals) * np.array(lost)[which]
        records.append((None if fk is None else fk[term], exps, vals))
        marks.append(list(zip((ends - count).tolist(), amounts.tolist())))
    _scatter_each(outs, records, marks)
    return outs


def _vertical_products(phi, needed):
    """W_Q = prod_j (v_j + phi_j)^q_j for each (vmax, Q) in ``needed``,
    from the power tables kept with ``phi``: the rows grow by
    ``_grow_powers``, and each W_Q multiplies its factors in order of j by
    ``_fold_products``."""
    top = {}
    for vmax, Q in needed:
        for j, q in enumerate(Q):
            if q > top.get((vmax, j), 0):
                top[vmax, j] = q
    _grow_powers([(phi._shift[vmax][j], q) for (vmax, j), q in top.items()])
    return dict(zip(needed, _fold_products(
        [[phi._shift[vmax][j][q] for j, q in enumerate(Q) if q]
         for vmax, Q in needed])))


def linear_combinations(sums):
    """One series sum_i c_i s_i per list of summands in ``sums``.

    A summand is ``(s_i, c_i)``, or ``(s_i, c_i, P_i, p_i)``, which stands
    for ``s_i.shift_h(P_i).scale(p_i)`` in place of ``s_i``.  Each sum is
    bit for bit the sum a loop builds by adding ``s_i.scale(c_i)`` to a
    running total in turn, except where the loop drops a running total of
    modulus PRUNE or less that a later summand adds to: the records of
    each ``s_i`` times ``c_i``, in sorted order, those of modulus PRUNE or
    less left out as ``scale`` leaves them out, are summed per key in the
    order of the pairs.  Each result has the smallest window among its
    ``s_i``, and ``discarded`` summed in the same order, each
    ``s_i.discarded * |c_i|`` before the mass its own records lose to the
    window.  The sums share one segment sum, as many consecutive sums as
    have at most ``PASS_LIMIT`` records together (a larger one alone),
    cut by ``_passes`` before any result is built.

    A shifted summand is formed on the concatenated records, not as a
    series: its exponents move by ``P_i``; a record of modulus PRUNE or
    less drops out as ``shift_h`` would not store it; the rest are
    multiplied by ``p_i``, pruned as ``scale`` prunes, then multiplied by
    ``c_i``.  Its mark is ``s_i.discarded * |p_i| * |c_i|``, the
    ``discarded`` of ``shift_h`` and ``scale`` times ``|c_i|``.
    """
    parts = [[s._sorted() for s, *_ in pairs] for pairs in sums]
    passes = _passes([sum([len(vals) for _, _, vals in mine])
                      for mine in parts])
    if len(passes) > 1:
        return [out for lo, hi in passes
                for out in linear_combinations(sums[lo:hi])]
    outs, summands, scales, owner, folds = [], [], [], [], []
    for pairs in sums:
        first = pairs[0][0]
        for s, *_ in pairs:
            first._check_compat(s)
            if s.components != first.components:
                raise SeriesError("component count mismatch in add")
        out = first._like(vmax=min(s.vmax for s, *_ in pairs))
        owner += [len(outs)] * len(pairs)
        outs.append(out)
        for s, c, *fold in pairs:
            summands.append(s)
            scales.append(complex(c))
            folds.append((fold[0], complex(fold[1])) if fold else None)
    if not outs:
        return outs
    parts = [part for mine in parts for part in mine]
    counts = [len(vals) for _, _, vals in parts]
    exps = np.concatenate([exps for _, exps, _ in parts])
    vals = np.concatenate([vals for _, _, vals in parts])
    keep = np.ones(len(vals), dtype=bool)
    if any(folds):
        n = summands[0].n
        shifted = np.repeat([fold is not None for fold in folds], counts)
        exps[:, :n] += np.repeat(
            np.array([fold[0] if fold else (0,) * n for fold in folds],
                     dtype=np.int64), counts, axis=0)
        keep &= ~shifted | (modulus(vals) > PRUNE)
        pre = np.repeat([fold[1] if fold else 1.0 for fold in folds], counts)
        vals[shifted] = multiply(vals[shifted], pre[shifted])
        keep &= ~shifted | (modulus(vals) > PRUNE)
    vals = multiply(vals, np.repeat(np.array(scales), counts))
    # products of c = 0 are zero (or nan) and fail the test, as in scale
    keep &= modulus(vals) > PRUNE
    # each summand's mark goes before its first kept record
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    starts = kept_before[np.cumsum(counts) - counts].tolist()
    marks = [[] for _ in outs]
    for o, i, s, c, fold in zip(owner, starts, summands, scales, folds):
        own = s.discarded if fold is None else \
            _carried(s.discarded, abs(fold[1]))
        marks[o].append((i, _carried(own, abs(c))))
    if keep.all():
        keep = slice(None)
    ids = np.repeat(owner, counts)[keep] if len(outs) > 1 else None
    ks = None
    if max(s.components for s in summands) > 1:
        ks = np.concatenate([np.zeros(len(v), dtype=np.int64) if k is None
                             else k for k, _, v in parts])[keep]
    _scatter(outs, ids, ks, exps[keep], vals[keep], marks)
    return outs


def _scatter(outs, ids, ks, exps, vals, marks, one_per_key=False):
    """Write records ``ids[i]: (ks[i], exps[i]) -> vals[i]`` into the
    empty series ``outs``: the one write of every sum and every
    re-truncation.

    ``ids`` is nondecreasing (None for one series, and ``ks`` None for
    component 0 throughout).  A record outside its series' window adds its
    modulus to ``discarded``, in record order, and each ``(i, amount)`` in
    ``marks[o]`` adds ``amount`` to ``outs[o].discarded`` just before
    record i.  The records inside are
    summed per series and key by ``segment_sum``, from 0.0 and in record
    order, and the sums of modulus above PRUNE are kept, in sorted key
    order, as the series' ``_sorted`` arrays.  Where the series index and
    the rows of all the series need more than 63 bits together, each
    series' records are summed by a ``segment_sum`` of their own, so a
    scatter of many series packs whatever a scatter of each would.
    Records ``one_per_key``, sorted, have nothing to sum: each is ``0j +
    c``.
    """
    n = outs[0].n
    vmax = outs[0].vmax if ids is None else \
        np.array([o.vmax for o in outs])[ids]
    outside = _outside(exps, n, vmax)
    # each table's lost records and marks, in record order: a mark before
    # record i comes first (marks of 0.0 leave discarded as it is)
    events = {}
    for o, mine in enumerate(marks):
        for i, amount in mine:
            if amount:
                events.setdefault(o, []).append((i, 0, amount))
    if outside.any():
        at = np.flatnonzero(outside)
        for i, o, amount in zip(at.tolist(),
                                repeat(0) if ids is None else ids[at].tolist(),
                                modulus(vals[at]).tolist()):
            events.setdefault(o, []).append((i, 1, amount))
        inside = ~outside
        ids = None if ids is None else ids[inside]
        ks = None if ks is None else ks[inside]
        exps, vals = exps[inside], vals[inside]
    for o, mine in events.items():
        total = outs[o].discarded
        # a stable sort: marks at the same record keep their order
        for _, _, amount in sorted(mine, key=lambda event: event[:2]):
            total += amount
        outs[o].discarded = total
    if one_per_key:
        first, sums = np.arange(len(vals)), vals + 0j
    else:
        columns = [col for col in (ids, ks) if col is not None]
        rows = np.column_stack((*columns, exps)) if columns else exps
        try:
            first, sums = segment_sum(rows, vals)
        except OverflowError:
            if ids is None:
                raise
            # rows too wide to pack with the series index and the ranges
            # of all the series: each series' records are one run, summed
            # alone as a scatter of that series would sum them
            cuts = np.searchsorted(ids, np.arange(len(outs) + 1)).tolist()
            parts = [segment_sum(rows[lo:hi, 1:], vals[lo:hi])
                     for lo, hi in zip(cuts, cuts[1:])]
            first = np.concatenate([lo + run_first for lo, (run_first, _)
                                    in zip(cuts, parts)])
            sums = np.concatenate([run_sums for _, run_sums in parts])
    # a sum starts from +0.0, so it is never -0.0, and adding it to an
    # empty slot (0j + sum) would change no bit
    live = modulus(sums) > PRUNE
    if not live.all():
        first, sums = first[live], sums[live]
    # the sums come in ascending key order, the table index first, so each
    # table's keys are one sorted run
    ids = None if ids is None else ids[first]
    ks = None if ks is None else ks[first]
    exps = exps[first]
    cuts = [0, len(sums)] if ids is None else \
        np.searchsorted(ids, np.arange(len(outs) + 1)).tolist()
    for out, lo, hi in zip(outs, cuts, cuts[1:]):
        out._keep_sorted(None if ks is None or out.components == 1
                         else ks[lo:hi], exps[lo:hi], sums[lo:hi])


def _scatter_each(outs, records, marks, one_per_key=False):
    """``_scatter`` of each series' own records into the empty ``outs``,
    all in one call.

    ``records[o]`` is ``(ks, exps, vals)`` for ``outs[o]`` (``ks`` None for
    component 0 throughout), and ``marks[o]`` its ``(i, amount)`` marks,
    ``i`` counted in its own records.  Consecutive series share a
    ``_scatter`` while their records number at most ``PASS_LIMIT``
    together, a series with more alone (``_passes``).  A single
    series' records go to ``_scatter`` as they are: a series index and
    concatenated copies would change no bit, and would cost time on the
    many one-series substitutions of a one-generator linearization.
    """
    if len(outs) == 1:
        _scatter(outs, None, *records[0], marks, one_per_key)
        return
    passes = _passes([len(vals) for _, _, vals in records])
    if len(passes) > 1:
        for lo, hi in passes:
            _scatter_each(outs[lo:hi], records[lo:hi], marks[lo:hi],
                          one_per_key)
        return
    counts = [len(vals) for _, _, vals in records]
    ks = None
    if any(k is not None for k, _, _ in records):
        ks = np.concatenate([np.zeros(len(vals), dtype=np.int64)
                             if k is None else k for k, _, vals in records])
    _scatter(outs, np.repeat(np.arange(len(outs)), counts), ks,
             np.concatenate([exps for _, exps, _ in records]),
             np.concatenate([vals for _, _, vals in records]),
             [[(start + i, amount) for i, amount in mine] for start, mine
              in zip(accumulate([0] + counts[:-1]), marks)], one_per_key)


def invert_vertical_map(G):
    """Series H with H + G(h, v + H) = 0, i.e. the inverse of (h, v + G).

    Fixed-point iteration from H = 0.  With r = ord_v G, the degree-m part
    of G(h, v + H) reads H only below degree m - r + 2, so each sweep
    settles r - 1 more degrees: sweep s = 1, 2, ... is exact through degree
    (s + 1)(r - 1) and is computed only that far, on G and H cut there.
    The terms it leaves out are exactly the ones the next, wider sweep
    would recompute, and every coefficient it does form is the same sum in
    the same order as in a full-window sweep.  The first sweep on the full
    vmax window that substitutes a nonzero H is the last: it reads H only
    through degree vmax - settle, which the sweep before it has settled
    (the start H = 0 is exact below degree r), so a further sweep would
    give the same coefficients bit for bit, and its record holds what the
    substitution of that H drops above vmax.  Where the first sweep, from
    H = 0, is already on the full window (2 (r - 1) >= vmax), it records
    nothing of that loss, so one more sweep substitutes H = -G: every term
    of G lies past vmax - r + 1, so it forms no product and moves no
    coefficient, and it records the triangle bound of each term's row.
    """
    if G.components != G.d:
        raise SeriesError("vertical map must have d components")
    if G.v_order() < 2:
        raise SeriesError("vertical map must vanish to order >= 2 in v")
    settle = G.v_order() - 1
    H = G._like(components=G.d)
    for sweep in range(1, G.vmax + 2):
        window = min(G.vmax, (sweep + 1) * settle)
        reads_H = not H.is_zero()
        H = substitute_vertical(G.cut(window), H.cut(window)).scale(-1.0) \
            .with_window(vmax=G.vmax)
        # a G without terms gives H = 0 at every sweep
        if window == G.vmax and (reads_H or H.is_zero()):
            break
    return H
