"""The hot kernels, in numpy: coefficient convolution and point evaluation.

One implementation; ``BACKEND`` names it and is re-exported as
``toruslin.kernel_backend``.

Coefficient tables are (exps, vals) pairs with ``exps`` an int64 array of
shape (N, n+d) holding the h-exponents first and the v-exponents last, and
``vals`` a complex128 array of shape (N,).  Outputs are sorted by packed
exponent key.

``cauchy_products`` forms several independent products in one call, each
job with its own operands and vertical window; ``cauchy_product`` is the
call of one job, with the signature the benchmark's trace hooks.  A job
forms only the pairs that can land inside its vertical window, so the
``discarded`` it returns is an upper bound on the absolute mass its
truncation drops, not that mass itself (see the docstring).  It reads,
besides each operand's (exps, vals), the operand's ``table_data``: vertical
degrees, moduli, mass at or above each degree and packed keys, which a
series builds once per component and keeps with its arrays.  Each job's
pairs are ordered by one stable argsort of their keys; then the pairs of
the jobs, one job after another, are multiplied, summed per (job, key)
and pruned in one pass, at most ``PASS_LIMIT`` pairs to a pass, so every
job's output is bit for bit the one it gives alone.

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
where the monomial is finite (see its docstring).  It forms no matrix
product: the exponent sums ``P . log|h|`` (``exponent_sums``) and the term
sums run in a fixed order per point, with ``multiply`` for every complex
product, so a point's value does not depend on which other points share
the call, and ``norms`` can evaluate a few points of a sample and get the
bits that the whole sample would give them.
"""

from itertools import accumulate

import numpy as np

BACKEND = "py"

_CHUNK = 2048
# the most pairs, or records, that the batched calls (``cauchy_products``
# and, in ``series``, the sums and scatters of many series) sum in one
# pass: a larger batch is cut into passes, so that batching saves calls
# without making a pass's arrays larger than those of its largest part
PASS_LIMIT = 1 << 12


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


def table_data(exps, vals, deg):
    """What ``cauchy_products`` reads of an operand besides (exps, vals).

    ``deg`` holds each term's vertical degree (``vertical_degrees``), which
    a series computes once and keeps with its arrays.  Returns (deg, mods,
    above, keys): the degrees, each term's ``modulus``, the mass at or
    above each vertical degree with a 0.0 for the degree past the last, and
    each term's packed key in the fixed product layout.  Built once per
    table and passed with it to every product; None for an empty table.
    Raises ``OverflowError`` for an exponent of magnitude ``2^(62 // (n +
    d) - 2)`` or more, which that layout cannot hold.
    """
    if len(vals) == 0:
        return None
    keys = _product_keys(exps)
    mods = modulus(vals)
    # numpy's sums run in a fixed order, where a matrix product would leave
    # it to the BLAS build
    above = np.append(np.bincount(deg, weights=mods)[::-1].cumsum()[::-1],
                      0.0)
    return deg, mods, above, keys


def cauchy_products(jobs, prune):
    """Several independent convolutions of coefficient tables in one pass.

    Each job is ``(exps_a, vals_a, exps_b, vals_b, vmax, data_a, data_b)``,
    with ``data_a`` and ``data_b`` the operands' ``table_data``; returns
    one (exps, vals, discarded) per job, in job order, each bit for bit
    what ``cauchy_product`` returns for that job alone.

    Each job forms only the pairs whose vertical degrees sum to at most
    its ``vmax``, in the row-major order of its full outer product, so
    every kept coefficient is the same sum of the same products in the
    same order as in the full convolution.  ``discarded`` is ``sum |a_i|
    |b_j|`` over the pairs a job does not form: by the triangle inequality
    an upper bound on the mass those pairs would have put above ``vmax``.
    Sums of modulus ``prune`` or less are dropped and not counted.

    Each pair's key is the sum of its operands' packed keys, which is the
    packed key of its exponent row, so no exponent is packed here.  The
    operands' exponents are below the layout's limit, 2^29, 2^18 and 2^13
    for ``n + d`` = 2, 3 and 4, or ``table_data`` would have raised.  A
    stable sort of each job's pair keys keeps the pairs of a key in
    row-major order; then the pairs of consecutive jobs, one job after
    another, are multiplied, summed per (job, key) and pruned together, at
    most ``PASS_LIMIT`` pairs to a pass (a larger job alone).

    Products are ``multiply``'s and moduli ``modulus``'s, and every sum
    runs in a fixed order, so each kept value, the prune test and
    ``discarded`` have the same bits on every CPU: each kept value is bit
    for bit a loop of Python scalar products and sums over its pairs.
    """
    out, block, size = [], [], 0
    for exps_a, vals_a, exps_b, vals_b, vmax, data_a, data_b in jobs:
        if len(vals_a) == 0 or len(vals_b) == 0:
            out.append(_no_terms(exps_a, 0.0))
            continue
        deg_a, mods_a, _, keys_a = data_a
        deg_b, _, above_b, keys_b = data_b
        # sum |a_i| |b_j| over the pairs not formed, from the mass of b at
        # or above each vertical degree
        room = vmax - deg_a
        out_from = np.minimum(np.maximum(room + 1, 0), len(above_b) - 1)
        bound = float((mods_a * above_b[out_from]).sum())
        rows, cols = np.nonzero(deg_b[None, :] <= room[:, None])
        count = len(rows)
        if not count:
            out.append(_no_terms(exps_a, bound))
            continue
        # the cut of ``_passes``, made as the pairs are formed, so that a
        # pass's pairs are summed before the next job's are formed
        if block and size + count > PASS_LIMIT:
            _sum_block(jobs, out, block, prune)
            block, size = [], 0
        # the fields of two keys add without a carry: the sum is the key
        # of the pair's exponent row
        keys = keys_a[rows] + keys_b[cols]
        # a stable sort keeps each key's pairs in row-major order, the
        # order in which they are summed
        order = keys.argsort(kind="stable")
        # the bound waits here for the block's sums
        out.append(bound)
        block.append((len(out) - 1, keys[order], rows[order], cols[order]))
        size += count
        # the unsorted pairs are not read again: free them before the sums
        del keys, order, rows, cols
    if block:
        _sum_block(jobs, out, block, prune)
    return out


def _no_terms(exps, discarded):
    """A product without terms, (exps, vals, discarded), for operands with
    the columns of ``exps``."""
    return (np.zeros((0, exps.shape[1]), dtype=np.int64),
            np.zeros(0, dtype=np.complex128), discarded)


def _sum_block(jobs, out, block, prune):
    """Multiply the pairs of the jobs in ``block``, ``(job, keys, rows,
    cols)`` with the pairs sorted by key, sum them per (job, key) and
    prune the sums, all the jobs' pairs together, one job after another;
    ``out[job]``, the job's ``discarded``, becomes (exps, vals,
    discarded).  The pairs of one job need no concatenation and no cuts.
    """
    if len(block) == 1:
        (job, keys, rows, cols), = block
        start, acc = _sum_runs(keys, multiply(jobs[job][1][rows],
                                              jobs[job][3][cols]))
        # each output's exponent row is that of the first pair of its run
        exps = jobs[job][0][rows[start]] + jobs[job][2][cols[start]]
        keep = modulus(acc) > prune
        out[job] = (exps[keep], acc[keep], out[job])
        return
    # a run also starts where a job's pairs start
    breaks = list(accumulate(len(rows) for _, _, rows, _ in block[:-1]))
    start, acc = _sum_runs(
        np.concatenate([keys for _, keys, _, _ in block]),
        multiply(
            np.concatenate([jobs[job][1][rows] for job, _, rows, _ in block]),
            np.concatenate([jobs[job][3][cols] for job, _, _, cols in block])),
        breaks)
    keep = modulus(acc) > prune
    # each job's sums are the runs from that of its first pair on
    cuts = np.searchsorted(np.flatnonzero(start),
                           [0, *breaks, len(start)]).tolist()
    for (job, _, rows, cols), lo, first, last in zip(
            block, [0, *breaks], cuts, cuts[1:]):
        mine = start[lo:lo + len(rows)]
        exps = jobs[job][0][rows[mine]] + jobs[job][2][cols[mine]]
        kept = keep[first:last]
        out[job] = (exps[kept], acc[first:last][kept], out[job])


def cauchy_product(exps_a, vals_a, exps_b, vals_b, n, d, vmax, prune,
                   data_a, data_b):
    """Convolution of two coefficient tables truncated to vertical order
    vmax: ``cauchy_products`` of this one job.

    Returns (exps, vals, discarded).  ``n`` and ``d`` are not read (the
    exponent rows have ``n + d`` columns); the parameters stay in this
    order because the benchmark's trace hooks this function by them.
    """
    return cauchy_products([(exps_a, vals_a, exps_b, vals_b, vmax, data_a,
                             data_b)], prune)[0]


def _sum_runs(keys, vals, breaks=None):
    """Sum the runs of equal values in sorted ``keys``, each run's ``vals``
    in order; a run also starts at each index in ``breaks``.

    Returns (start, sums): ``start`` marks the first entry of each run and
    ``sums`` holds the runs' sums.  ``np.bincount`` adds the real and the
    imaginary parts one entry at a time, from +0.0, in array order.
    """
    start = np.empty(len(keys), dtype=bool)
    start[0] = True
    np.not_equal(keys[1:], keys[:-1], out=start[1:])
    if breaks is not None:
        start[breaks] = True
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

    Built by repeated ``multiply`` from the row of ones; negative powers
    are powers of the reciprocal, which is formed only when ``lo < 0``.
    """
    table = np.empty((hi - lo + 1, len(z)), dtype=np.complex128)
    table[-lo] = 1.0
    for k in range(1, hi + 1):
        table[-lo + k] = multiply(table[-lo + k - 1], z)
    if lo < 0:
        inv = 1.0 / z
        for k in range(1, -lo + 1):
            table[-lo - k] = multiply(table[-lo - k + 1], inv)
    return table


def exponent_sums(P, x):
    """``P @ x.T`` in a fixed order: entry (t, i) is ``P[t, 0] x[i, 0] +
    P[t, 1] x[i, 1] + ...``, added column by column.

    P: (N, n) float; x: (M, n) float.  Each entry's bits depend on its
    row of P and its point alone, where a matrix product's depend on the
    BLAS build and on the shape of the call.
    """
    sums = np.multiply.outer(P[:, 0], x[:, 0])
    for j in range(1, P.shape[1]):
        sums += np.multiply.outer(P[:, j], x[:, j])
    return sums


def evaluate(exps, vals, logh, v):
    """Evaluate sum_t vals[t] * exp(P_t . logh) * v^Q_t at many points.

    logh: (M, n) complex log of the h coordinates; v: (M, d) complex.

    Each monomial is split into a modulus and a phase.  The modulus
    ``exp(P_t . Re(logh))`` is one real ``exp`` per term and point, of
    the ``exponent_sums``.  The phase is a product of gathers from
    per-variable power tables: one of ``exp(i Im(logh_j))`` for each h
    variable and one of ``v_j`` for each vertical variable, each built by
    repeated multiplication.  ``h_j`` itself is not tabulated: on a domain
    far from ``|h| = 1`` a power ``h_j^k`` can overflow (or underflow) at
    an intermediate step although ``exp(P_t . log|h|)`` is finite, and the
    table would carry ``inf`` or ``nan`` into the sum.  The unit-modulus
    phase tables cannot overflow, and the v tables hold powers of ``|v_j|
    <= r`` with nonnegative exponents in every series this package builds.

    Each term is ``vals[t]`` times its phase factors, one at a time, then
    times its modulus, so it overflows only where ``|vals[t]| exp(P_t .
    log|h|) |v^Q_t|`` itself nearly does; the terms are added in table
    order.  Every step is an elementwise
    ``multiply``, real product or sum in a fixed order per point, so each
    point's value has the same bits whatever other points share the call.
    """
    m_pts, n = logh.shape
    out = np.zeros(m_pts, dtype=np.complex128)
    if len(vals) == 0:
        return out
    pexp = exps[:, :n].astype(np.float64)
    lo = np.minimum(exps.min(axis=0), 0)
    hi = np.maximum(exps.max(axis=0), 0)
    # a column of zero exponents multiplies every term by 1: it is skipped
    cols = [j for j in range(exps.shape[1]) if lo[j] < hi[j]]
    for start in range(0, m_pts, _CHUNK):
        pts = slice(start, start + _CHUNK)
        lh = logh[pts]
        terms = np.repeat(vals[:, None], len(lh), axis=1)
        for j in cols:
            z = np.exp(1j * lh[:, j].imag) if j < n else v[pts, j - n]
            terms = multiply(_power_table(z, lo[j], hi[j])[exps[:, j] - lo[j]],
                             terms)
        mono = np.exp(exponent_sums(pexp, lh.real))
        terms.real *= mono
        terms.imag *= mono
        acc = out[pts]
        for row in terms:
            acc += row
    return out
