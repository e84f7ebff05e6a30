"""The hot kernels, in numpy: coefficient convolution and point evaluation.

One implementation; ``BACKEND`` names it and is re-exported as
``toruslin.kernel_backend``.

Coefficient tables are (exps, vals) pairs with ``exps`` an int64 array of
shape (N, n+d) holding the h-exponents first and the v-exponents last, and
``vals`` a complex128 array of shape (N,).  Outputs are sorted by packed
exponent key.

``cauchy_product`` forms only the pairs that can land inside the vertical
window, so the ``discarded`` it returns is an upper bound on the absolute
mass its truncation drops, not that mass itself (see its docstring).  It
reads, besides each operand's (exps, vals), the operand's ``table_data``:
vertical degrees, moduli, mass at or above each degree and packed keys,
which a series builds once per component and keeps with its arrays.  It
sums the products per exponent key after one stable argsort of the pair
keys.

Product keys have one fixed layout: a row of ``m = n + d`` exponents packs
into one int64, column j in its own field of ``62 // m`` bits, column 0
the most significant.  Each field holds its exponent plus ``2^(62 // m -
2)``, which leaves one bit of headroom, so the keys of two rows add field
by field without a carry into the key of their sum.  Key order is then the
lexicographic order of the rows, and equal keys mean equal rows.  A
product operand with an exponent of magnitude ``2^(62 // m - 2)`` or more
cannot be packed, and ``table_data`` raises ``OverflowError``: the limit
is 2^29, 2^18 and 2^13 for ``n + d`` = 2, 3 and 4.

``segment_sum`` is the bulk form of a running sum into a coefficient table:
records whose exponent rows are equal are summed, each key's values in
input order, and the keys come out in ascending order.  Its rows pack by
shifts into a layout of their own, each column offset by its minimum in a
field as wide as its range needs.  Both kernels sum per key in
``_sum_runs``, with ``np.bincount`` on the real and imaginary parts of the
values in stable key order.  That is the same sequence of double
additions, from +0.0, as a loop adding Python complexes to a dict, so the
sums are bit for bit those of the loop.

``modulus`` and ``multiply`` are ``abs`` and ``*`` on complex arrays,
bit for bit Python's scalar ``abs`` (libm ``hypot``) and complex multiply.
numpy's own complex ``abs`` and multiply may round differently in the last
ulp, depending on which SIMD loop the CPU selects (the multiply fuses on
FMA hardware).

``evaluate`` splits each monomial ``h^P v^Q`` into a modulus, one real
``exp(P . log|h|)`` per term and point, and a phase gathered from small
per-variable power tables of ``exp(i arg h_j)`` and ``v_j``.  It does not
tabulate ``h_j`` itself, whose powers can overflow at an intermediate step
where the monomial is finite (see its docstring).
"""

import numpy as np

BACKEND = "py"

_CHUNK = 2048


def modulus(z):
    """``abs`` of a complex array, bit for bit Python's scalar ``abs``."""
    z = np.asarray(z)
    return np.hypot(z.real, z.imag)


def multiply(a, b):
    """Elementwise ``a * b`` for same-shape arrays, or an array and a
    scalar, bit for bit Python's scalar complex multiply.

    Each real product and sum is rounded once; numpy's complex multiply
    loop may fuse them (FMA), depending on the CPU.
    """
    out = np.empty(a.shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def vertical_degrees(exps, n):
    """Each row's vertical degree: the sum of its columns past ``n``, added
    column by column."""
    cols = exps.T[n:]
    if len(cols) == 0:
        return np.zeros(len(exps), dtype=np.int64)
    deg = cols[0].copy()
    for col in cols[1:]:
        deg += col
    return deg


def _product_keys(exps):
    """Each row packed into one int64 in the fixed product layout (see the
    module docstring)."""
    m = exps.shape[1]
    width = 62 // m
    limit = 1 << (width - 2)
    if np.abs(exps).max() >= limit:
        raise OverflowError(
            "product operand exponents must be below 2^%d in magnitude "
            "for n + d = %d" % (width - 2, m))
    cols = exps.T
    keys = cols[0] + limit
    for col in cols[1:]:
        keys <<= width
        keys += col
        keys += limit
    return keys


def table_data(exps, vals, n):
    """What ``cauchy_product`` reads of an operand besides (exps, vals).

    Returns (deg, mods, above, keys): each term's vertical degree and
    ``modulus``, the mass at or above each vertical degree with a 0.0 for
    the degree past the last, and each term's packed key in the fixed
    product layout.  Built once per table and passed with it to every
    product; None for an empty table.  Raises ``OverflowError`` for an
    exponent of magnitude ``2^(62 // (n + d) - 2)`` or more, which that
    layout cannot hold.
    """
    if len(vals) == 0:
        return None
    keys = _product_keys(exps)
    deg = vertical_degrees(exps, n)
    mods = modulus(vals)
    # numpy's sums run in a fixed order, where a matrix product would leave
    # it to the BLAS build
    above = np.append(np.bincount(deg, weights=mods)[::-1].cumsum()[::-1],
                      0.0)
    return deg, mods, above, keys


def cauchy_product(exps_a, vals_a, exps_b, vals_b, n, d, vmax, prune,
                   data_a, data_b):
    """Convolution of two coefficient tables truncated to vertical order vmax.

    ``data_a`` and ``data_b`` are the operands' ``table_data``.  Returns
    (exps, vals, discarded).  Only the pairs whose vertical degrees sum to
    at most ``vmax`` are formed, in the row-major order of the full outer
    product, so every kept coefficient is the same sum of the same
    products in the same order as in the full convolution.  ``discarded``
    is ``sum |a_i| |b_j|`` over the pairs not formed: by the triangle
    inequality an upper bound on the mass those pairs would have put above
    ``vmax``.  Sums of modulus ``prune`` or less are dropped and not
    counted.

    Each pair's key is the sum of its operands' packed keys, which is the
    packed key of its exponent row, so no exponent is packed here.  The
    operands' exponents are below the layout's limit, 2^29, 2^18 and 2^13
    for ``n + d`` = 2, 3 and 4, or ``table_data`` would have raised.

    Products are ``multiply``'s and moduli ``modulus``'s, and every sum
    runs in a fixed order, so each kept value, the prune test and
    ``discarded`` have the same bits on every CPU: each kept value is bit
    for bit a loop of Python scalar products and sums over its pairs.
    """
    if len(vals_a) == 0 or len(vals_b) == 0:
        return (
            np.zeros((0, n + d), dtype=np.int64),
            np.zeros(0, dtype=np.complex128),
            0.0,
        )
    deg_a, mods_a, _, keys_a = data_a
    deg_b, _, above_b, keys_b = data_b
    # sum |a_i| |b_j| over the pairs not formed, from the mass of b at or
    # above each vertical degree
    room = vmax - deg_a
    out_from = np.minimum(np.maximum(room + 1, 0), len(above_b) - 1)
    bound = float((mods_a * above_b[out_from]).sum())
    rows, cols = np.nonzero(deg_b[None, :] <= room[:, None])
    if len(rows) == 0:
        return (
            np.zeros((0, n + d), dtype=np.int64),
            np.zeros(0, dtype=np.complex128),
            bound,
        )
    # the fields of two keys add without a carry: the sum is the key of
    # the pair's exponent row
    keys = keys_a[rows] + keys_b[cols]
    # a stable sort keeps each key's pairs in row-major order, the order in
    # which they are summed
    order = keys.argsort(kind="stable")
    rows, cols = rows[order], cols[order]
    start, acc = _sum_runs(keys[order], multiply(vals_a[rows], vals_b[cols]))
    # each output's exponent row is that of the first pair of its run
    exps = exps_a[rows[start]] + exps_b[cols[start]]

    keep = modulus(acc) > prune
    return exps[keep], acc[keep], bound


def _sum_runs(keys, vals):
    """Sum the runs of equal values in sorted ``keys``, each run's ``vals``
    in order.

    Returns (start, sums): ``start`` marks the first entry of each run and
    ``sums`` holds the runs' sums.  ``np.bincount`` adds the real and the
    imaginary parts one entry at a time, from +0.0, in array order.
    """
    start = np.empty(len(keys), dtype=bool)
    start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    group = start.cumsum()
    group -= 1
    nkeys = int(group[-1]) + 1
    sums = np.empty(nkeys, dtype=np.complex128)
    sums.real = np.bincount(group, weights=vals.real, minlength=nkeys)
    sums.imag = np.bincount(group, weights=vals.imag, minlength=nkeys)
    return start, sums


def segment_sum(rows, vals):
    """Sum the values of equal rows, each row's values in input order.

    rows: (N, m) int64 keys; vals: (N,) complex128.  Returns (first, sums):
    ``first`` indexes the first occurrence of each distinct row, the rows
    in ascending (lexicographic) order, and ``sums`` holds their sums.  No
    product is formed, so no complex multiply can fuse.

    The rows pack by shifts into one int64 key each, column 0 the most
    significant: each column, less its minimum, in a field of the bits its
    range needs.  Raises ``OverflowError`` where the fields need more than
    63 bits together.
    """
    if len(vals) == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.complex128)
    keys = np.zeros(len(vals), dtype=np.int64)
    width = 0
    for col in rows.T:
        lo = int(col.min())
        bits = (int(col.max()) - lo).bit_length()
        width += bits
        if width > 63:
            raise OverflowError("rows too wide to pack into int64")
        # a column of one value adds nothing to any key
        if bits:
            keys <<= bits
            keys += col
            keys -= lo
    # a stable sort keeps each key's records in input order
    order = keys.argsort(kind="stable")
    start, sums = _sum_runs(keys[order], vals[order])
    return order[start], sums


def _power_table(z, lo, hi):
    """Rows z**lo .. z**hi of each point's z, for lo <= 0 <= hi.

    Built by repeated multiplication from the row of ones; negative powers
    are powers of the reciprocal, which is formed only when ``lo < 0``.
    """
    table = np.empty((hi - lo + 1, len(z)), dtype=np.complex128)
    table[-lo] = 1.0
    for k in range(1, hi + 1):
        np.multiply(table[-lo + k - 1], z, out=table[-lo + k])
    if lo < 0:
        inv = 1.0 / z
        for k in range(1, -lo + 1):
            np.multiply(table[-lo - k + 1], inv, out=table[-lo - k])
    return table


def evaluate(exps, vals, logh, v):
    """Evaluate sum_t vals[t] * exp(P_t . logh) * v^Q_t at many points.

    logh: (M, n) complex log of the h coordinates; v: (M, d) complex.

    Each monomial is split into a modulus and a phase.  The modulus
    ``exp(P_t . Re(logh))`` is one real ``exp`` per term and point.  The
    phase is a product of gathers from per-variable power tables: one of
    ``exp(i Im(logh_j))`` for each h variable and one of ``v_j`` for each
    vertical variable, each built by repeated multiplication.  ``h_j``
    itself is not tabulated: on a domain far from ``|h| = 1`` a power
    ``h_j^k`` can overflow (or underflow) at an intermediate step although
    ``exp(P_t . log|h|)`` is finite, and the table would carry ``inf`` or
    ``nan`` into the sum.  The unit-modulus phase tables cannot overflow,
    and the v tables hold powers of ``|v_j| <= r`` with nonnegative
    exponents in every series this package builds.
    """
    m_pts, n = logh.shape
    out = np.zeros(m_pts, dtype=np.complex128)
    if len(vals) == 0:
        return out
    pexp = exps[:, :n].astype(np.float64)
    lo = np.minimum(exps.min(axis=0), 0)
    hi = np.maximum(exps.max(axis=0), 0)
    for start in range(0, m_pts, _CHUNK):
        pts = slice(start, start + _CHUNK)
        lh = logh[pts]
        mono = np.exp(pexp @ lh.real.T)
        for j in range(exps.shape[1]):
            z = np.exp(1j * lh[:, j].imag) if j < n else v[pts, j - n]
            # the gather is a fresh array, so the product can go in place
            factor = _power_table(z, lo[j], hi[j])[exps[:, j] - lo[j]]
            factor *= mono
            mono = factor
        out[pts] = vals @ mono
    return out
