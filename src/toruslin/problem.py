"""Problem-file parsing and canonical serialization.

The format is line oriented with ``[section]`` headers and
whitespace-separated fields, chosen for diff-friendliness and bit-exact
round trips:

    [lattice]     n, d, then 2n generator rows ``e re im  re im ...``
    [multipliers] n rows ``mu_angle t_1 .. t_d`` (turns; |mu| = 1 exactly)
                  or ``mu re im ...``; optional ``lambda`` override rows
    [perturbation] records ``p i k  p_1..p_n  q_1..q_d  re im`` (1-based
                  generator i and component k, h components first)
    [run]         key/value pairs: vmax hband epsilon radius order pmax
                  qmax precision

``hband`` is the retired horizontal band.  It is still parsed (default 8)
and written by ``to_text``, so older files and the benchmark under
``perfbench/``, which reads ``run["hband"]``, keep working; nothing else
reads it.  A series is truncated at vertical order ``vmax`` alone.

Angles in turns are preferred in unitary mode so |mu| = 1 holds by
construction.  ``#`` starts a comment.
"""

from dataclasses import dataclass, field

import numpy as np

from .divisors import MultiplierData
from .lattice import LatticeSpec

RUN_DEFAULTS = {
    "vmax": 8, "hband": 8, "epsilon": 0.2, "radius": 0.5,
    "order": 8, "pmax": 12, "qmax": 12, "precision": "double",
}
_RUN_INT = {"vmax", "hband", "order", "pmax", "qmax"}
_RUN_FLOAT = {"epsilon", "radius"}


class ProblemParseError(ValueError):
    def __init__(self, message, lineno=None):
        self.lineno = lineno
        where = "" if lineno is None else " (line %d)" % lineno
        super().__init__(message + where)


@dataclass
class ProblemFile:
    lattice: LatticeSpec
    data: MultiplierData
    mu_angles: list | None
    lam_overridden: bool
    pert_records: list
    run: dict
    source: str = ""

    def to_text(self):
        """Canonical serialization; parse(to_text()) reproduces the object."""
        lines = ["[lattice]", "n %d" % self.lattice.n, "d %d" % self.lattice.d]
        for row in self.lattice.generators:
            fields = []
            for z in row:
                fields += [repr(float(z.real)), repr(float(z.imag))]
            lines.append("e " + " ".join(fields))
        lines.append("")
        lines.append("[multipliers]")
        if self.mu_angles is not None:
            for row in self.mu_angles:
                lines.append("mu_angle " + " ".join(repr(float(a))
                                                    for a in row))
        else:
            for row in self.data.mu:
                fields = []
                for z in row:
                    fields += [repr(float(z.real)), repr(float(z.imag))]
                lines.append("mu " + " ".join(fields))
        if self.lam_overridden:
            for row in self.data.lam:
                fields = []
                for z in row:
                    fields += [repr(float(z.real)), repr(float(z.imag))]
                lines.append("lambda " + " ".join(fields))
        lines.append("")
        lines.append("[perturbation]")
        for (i, k, P, Q, c) in sorted(self.pert_records,
                                      key=lambda r: (r[0], r[1], r[2], r[3])):
            fields = ["p", str(i + 1), str(k + 1)]
            fields += [str(p) for p in P] + [str(q) for q in Q]
            fields += [repr(float(c.real)), repr(float(c.imag))]
            lines.append(" ".join(fields))
        lines.append("")
        lines.append("[run]")
        for key in sorted(RUN_DEFAULTS):
            lines.append("%s %s" % (key, self.run[key]))
        return "\n".join(lines) + "\n"


def _numbers(fields, lineno, what, kind=float):
    try:
        return [kind(x) for x in fields]
    except ValueError:
        raise ProblemParseError("bad %s value" % what, lineno)


def _value(fields, lineno, kind):
    """The one value of a ``key value`` line, as ``kind``."""
    if len(fields) != 2:
        raise ProblemParseError("%s needs one value" % fields[0], lineno)
    return _numbers(fields[1:], lineno, fields[0], kind)[0]


def parse_problem_text(text, source=""):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ProblemParseError("content before any [section]", lineno)
        sections[current].append((lineno, line.split()))

    for required in ("lattice", "multipliers", "run"):
        if required not in sections:
            raise ProblemParseError("missing [%s] section" % required)

    # lattice
    n = d = None
    gen_rows = []
    for lineno, fields in sections["lattice"]:
        key = fields[0]
        if key == "n":
            n = _value(fields, lineno, int)
        elif key == "d":
            d = _value(fields, lineno, int)
        elif key == "e":
            vals = _numbers(fields[1:], lineno, "generator")
            if n is None or len(vals) != 2 * n:
                raise ProblemParseError(
                    "generator row needs %s re/im pairs" % n, lineno)
            gen_rows.append((lineno,
                             [complex(vals[2 * t], vals[2 * t + 1])
                              for t in range(n)]))
        else:
            raise ProblemParseError("unknown lattice key %r" % key, lineno)
    if n is None or d is None:
        raise ProblemParseError("lattice must declare n and d")
    if len(gen_rows) != 2 * n:
        raise ProblemParseError("expected %d generator rows, got %d"
                                % (2 * n, len(gen_rows)))
    try:
        lattice = LatticeSpec(n, d, [row for _, row in gen_rows])
    except ValueError as exc:
        raise ProblemParseError(str(exc), gen_rows[0][0])

    # multipliers
    mu_rows, mu_angles, lam_rows = [], [], []
    for lineno, fields in sections["multipliers"]:
        key = fields[0]
        vals = _numbers(fields[1:], lineno, "multiplier")
        if key == "mu_angle":
            if len(vals) != d:
                raise ProblemParseError("mu_angle row needs %d turns" % d,
                                        lineno)
            mu_angles.append(vals)
            mu_rows.append([np.exp(2j * np.pi * a) for a in vals])
        elif key == "mu":
            if len(vals) != 2 * d:
                raise ProblemParseError("mu row needs %d re/im pairs" % d,
                                        lineno)
            mu_rows.append([complex(vals[2 * t], vals[2 * t + 1])
                            for t in range(d)])
        elif key == "lambda":
            if len(vals) != 2 * n:
                raise ProblemParseError("lambda row needs %d re/im pairs" % n,
                                        lineno)
            lam_rows.append([complex(vals[2 * t], vals[2 * t + 1])
                             for t in range(n)])
        else:
            raise ProblemParseError("unknown multipliers key %r" % key, lineno)
    if len(mu_rows) != n:
        raise ProblemParseError("expected %d mu rows, got %d"
                                % (n, len(mu_rows)))
    derived_lam = lattice.lam_matrix()
    if lam_rows:
        if len(lam_rows) != n:
            raise ProblemParseError("expected %d lambda rows" % n)
        lam = np.array(lam_rows)
        if not np.allclose(np.abs(lam), np.abs(derived_lam), rtol=1e-9):
            raise ProblemParseError(
                "inconsistent lambda override: moduli do not match the "
                "lattice log-geometry")
    else:
        lam = derived_lam
    mu = np.array(mu_rows)
    if not np.allclose(np.abs(mu), 1.0, atol=1e-12):
        first_bad = sections["multipliers"][0][0]
        raise ProblemParseError(
            "unitary mode violated: |mu| != 1 (max modulus %r)"
            % float(np.abs(mu).max()), first_bad)
    try:
        data = MultiplierData(lam, mu)
    except ValueError as exc:
        raise ProblemParseError(str(exc))

    # perturbation records
    records = []
    for lineno, fields in sections.get("perturbation", []):
        if fields[0] != "p":
            raise ProblemParseError("perturbation rows start with 'p'", lineno)
        want = 1 + 2 + n + d + 2
        if len(fields) != want:
            raise ProblemParseError("perturbation row needs %d fields" % want,
                                    lineno)
        index = _numbers(fields[1:3 + n + d], lineno, "index", int)
        i, k = index[0] - 1, index[1] - 1
        P, Q = tuple(index[2:2 + n]), tuple(index[2 + n:])
        if not 0 <= i < n:
            raise ProblemParseError("generator index out of range", lineno)
        if not 0 <= k < n + d:
            raise ProblemParseError("component index out of range", lineno)
        if any(q < 0 for q in Q):
            raise ProblemParseError("vertical exponents must be >= 0", lineno)
        if sum(Q) < 2:
            raise ProblemParseError(
                "perturbation records must vanish to order >= 2 in v "
                "(split tangent bundle)", lineno)
        re, im = _numbers(fields[3 + n + d:], lineno, "coefficient")
        records.append((i, k, P, Q, complex(re, im)))

    # run parameters
    run = dict(RUN_DEFAULTS)
    for lineno, fields in sections["run"]:
        key = fields[0]
        if key not in RUN_DEFAULTS:
            raise ProblemParseError("unknown run key %r" % key, lineno)
        run[key] = _value(fields, lineno, int if key in _RUN_INT else
                          float if key in _RUN_FLOAT else str)
    if run["precision"] not in ("double", "extended"):
        raise ProblemParseError("precision must be double or extended")
    for (i, k, P, Q, _) in records:
        if sum(Q) > run["vmax"]:
            raise ProblemParseError(
                "perturbation record P=%s Q=%s above vmax %d"
                % (P, Q, run["vmax"]))

    # the angles stand for the multipliers only where every row is one
    mu_angle_out = mu_angles if len(mu_angles) == len(mu_rows) else None
    return ProblemFile(lattice=lattice, data=data, mu_angles=mu_angle_out,
                       lam_overridden=bool(lam_rows), pert_records=records,
                       run=run, source=source)


def parse_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem_text(fh.read(), source=str(path))
