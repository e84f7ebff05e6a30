"""The four benchmark workloads: inputs, one operation, and its output checks.

Each workload builds its inputs from the seed in ``__init__`` (set-up), runs
one operation per ``op()`` call, and returns from ``check(result)`` the list
of ways that operation's output is wrong (empty when correct).  Library
entry points are looked up as module attributes at call time, so a traced
run sees the wrapped functions.

Why these four: each layer that a later optimisation is likely to touch
does most of the work in one workload and little or none in another.

* ref-cli-scan    -- ``toruslin check-diophantine`` and ``domain-geometry``
                     on the shipped instance; the only workload that runs
                     ``cli``, ``reports`` and ``problem``, and the one where
                     the divisor scan and the enhanced-bound check do most
                     of the work.
* ref-o12-certify -- the shipped perturbation rewritten to ``vmax 12``,
                     order 12, library calls only; the degree loop
                     (``series``, ``deckmaps``, ``_kernels.cauchy_product``)
                     dominates.
* lattice2-o8     -- an n = 2 family psi o diag o psi^-1 with a seeded psi;
                     commutation gate, two-generator solves, 2-D hull
                     geometry (qhull), four translated ledger domains.
* norm-audit      -- sup-norm bounds against sampled lower bounds on the
                     n = 1 and n = 2 lattices; read-only ``series`` use that
                     is almost all ``_kernels.evaluate``.
"""

import csv
import io
import os
import re

import numpy as np

import toruslin
from toruslin import (cli, deckmaps, divisors, lattice, linearize, majorant,
                      norms, problem, series)

RESIDUAL_MAX = 1e-9
PHI_MATCH = 1e-10
# the acceptance test for criterion 5 allows the same relative slack
SAMPLED_SLACK = 1e-12
SCAN_ARTIFACTS = frozenset((
    "divisors.csv", "fit.txt", "resonances.csv", "geometry.txt",
    "base_polytope.txt", "hull_vertices.txt", "translates.txt"))
GOLDEN = (np.sqrt(5) - 1) / 2


def _max_residual(result):
    return max(w for _, w in linearize.residual_table(result))


# -- artifact readers (one per artifact kind) ---------------------------------

_NUMERIC = re.compile(r"^[-+]?(\d|\.\d)")
_TEXT_COLUMNS = ("domain", "flag")


def _read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    head = rows[0]
    for row in rows[1:]:
        if len(row) != len(head):
            raise ValueError("row %r does not match header %r" % (row, head))
        for col, field in zip(head, row):
            if col in _TEXT_COLUMNS or not field:
                continue
            for part in field.split(";"):
                float(part)


def _read_vertices(text):
    rows = [[float(x) for x in line.split()] for line in text.splitlines()]
    if len({len(r) for r in rows}) != 1:
        raise ValueError("vertex rows of unequal length")


def _read_sections(text):
    """``[section]`` headers and ``key value ...`` rows; numbers must parse."""
    for line in text.splitlines():
        fields = line.split()
        if not fields or (line.startswith("[") and line.endswith("]")):
            continue
        if fields[0] == "note":  # free text
            continue
        for token in fields:
            if "np." in token:
                raise ValueError("numpy scalar repr in %r" % line)
            for piece in re.split(r"[=(),]|\.\.", token):
                if _NUMERIC.match(piece):
                    float(piece)


def read_artifact(name, data):
    """Parse one report artifact with the reader for its kind."""
    text = data.decode("utf-8")
    if name.endswith(".csv"):
        _read_csv(text)
    elif name in ("base_polytope.txt", "hull_vertices.txt", "translates.txt"):
        _read_vertices(text)
    else:
        _read_sections(text)


# -- workloads ----------------------------------------------------------------


class RefScan:
    """``toruslin check-diophantine`` and ``domain-geometry``, in process.

    The ``report`` verb is not a workload: it writes ``phi_v.tls``, which
    does not read back at this revision, so every operation would fail
    (see the README's known defects).
    """

    name = "ref-cli-scan"

    def __init__(self, seed, workdir):
        self.outdir = os.path.join(workdir, "scan")
        os.makedirs(self.outdir, exist_ok=True)
        tail = [toruslin.reference_problem_path(), "--out", self.outdir,
                "--pmax", "20", "--qmax", "20"]
        self.argvs = [["check-diophantine"] + tail,
                      ["domain-geometry"] + tail]
        self.reference = None

    def prepare(self):
        for name in os.listdir(self.outdir):
            os.remove(os.path.join(self.outdir, name))

    def op(self):
        return [cli.main(argv) for argv in self.argvs]

    def check(self, codes):
        fails = ["%s exit code %d" % (argv[0], code)
                 for argv, code in zip(self.argvs, codes) if code != 0]
        arts = {}
        for name in sorted(os.listdir(self.outdir)):
            with open(os.path.join(self.outdir, name), "rb") as fh:
                arts[name] = fh.read()
        if set(arts) != SCAN_ARTIFACTS:
            fails.append("artifact set differs: missing %s, extra %s" % (
                sorted(SCAN_ARTIFACTS - set(arts)),
                sorted(set(arts) - SCAN_ARTIFACTS)))
        if self.reference is None:
            self.reference = arts
        changed = sorted(n for n in arts if arts[n] != self.reference.get(n))
        if changed:
            fails.append("bytes differ from the first run: %s" % changed)
        for name, data in arts.items():
            try:
                read_artifact(name, data)
            except (ValueError, IndexError, UnicodeDecodeError) as exc:
                fails.append("%s does not read back: %s" % (name, exc))
        fit = dict(line.split(None, 1) for line in arts.get(
            "fit.txt", b"").decode("utf-8", "replace").splitlines()
            if " " in line)
        if fit.get("resonant") != "no" or fit.get("all_pass") != "yes":
            fails.append("fit.txt: resonant %r, enhanced bound all_pass %r"
                         % (fit.get("resonant"), fit.get("all_pass")))
        rows = arts.get("divisors.csv", b"").count(b"\n") - 1
        if fit.get("points") != str(rows) or rows < 1:
            fails.append("fit.txt counts %r points, divisors.csv has %d rows"
                         % (fit.get("points"), rows))
        return fails


class RefCertify:
    """The shipped perturbation at vmax 12, order 12: library calls only."""

    name = "ref-o12-certify"
    order = 12

    def __init__(self, seed, workdir):
        # The CLI accepts --order 12 on the shipped vmax-8 file and quietly
        # answers at order 8, so the benchmark writes a vmax-12 problem file.
        base = problem.parse_problem(toruslin.reference_problem_path())
        base.run["vmax"] = self.order
        base.run["order"] = self.order
        path = os.path.join(workdir, "ref_o12.prob")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(base.to_text())
        self.problem = problem.parse_problem(path)
        run = self.problem.run
        if (run["vmax"], run["order"]) != (self.order, self.order):
            raise RuntimeError("rewritten problem lost vmax/order %d"
                               % self.order)

    def prepare(self):
        pass

    def op(self):
        p, run = self.problem, self.problem.run
        family = linearize.build_family(
            p.lattice, p.data, p.pert_records, run["vmax"], run["hband"],
            eps0=run["epsilon"], r0=run["radius"])
        result = linearize.linearize(family, run["order"], run["epsilon"],
                                     run["radius"], pmax=run["pmax"],
                                     qmax=run["qmax"])
        state = majorant.build_state(result.order, result.constants,
                                     p.lattice.n, p.lattice.d,
                                     run["epsilon"], run["radius"])
        return result, majorant.dominance_and_radius(result, state)

    def check(self, out):
        result, cert = out
        fails = []
        if result.order != self.order or result.phi_v.vmax != self.order:
            fails.append("ran at order %d, vmax %d" % (result.order,
                                                       result.phi_v.vmax))
        worst = _max_residual(result)
        if not worst <= RESIDUAL_MAX:
            fails.append("residual %.3e > %.0e" % (worst, RESIDUAL_MAX))
        empty = [m for m in range(2, self.order + 1)
                 if not result.per_degree.get(m, {}).get("base_norm", 0.0) > 0]
        if empty:
            fails.append("ledger norm zero at degrees %s" % empty)
        if max(row["m"] for row in cert["rows"]) != self.order:
            fails.append("certificate does not reach order %d" % self.order)
        return fails


class Lattice2:
    """n = 2 family psi o diag o psi^-1; its linearization must return psi."""

    name = "lattice2-o8"
    order = 8
    hband, work = 2, 10

    def __init__(self, seed, workdir):
        self.lattice = lattice.LatticeSpec(
            2, 1, [[1, 0], [0, 1],
                   [0.31 + 0.07j, 0.5 + 0.02j], [0.7 + 0.01j, 0.2 + 0.09j]])
        mu = [[np.exp(2j * np.pi * GOLDEN)],
              [np.exp(2j * np.pi * (np.sqrt(2) - 1))]]
        data = divisors.MultiplierData(self.lattice.lam_matrix(), mu)
        # A fixed support (one term per vertical degree) keeps the work the
        # same for every seed; the seed draws the coefficients.
        rng = np.random.default_rng(seed)
        psi = series.TruncatedSeries(2, 1, 1, self.order, 1)
        for q in range(2, self.order + 1):
            P = (q % 3 - 1, (q + 1) % 3 - 1)
            psi.coeffs[(0, P, (q,))] = 1e-3 * rng.uniform(0.5, 1.0) \
                * complex(np.exp(2j * np.pi * rng.uniform()))
        self.psi = psi.with_window(hband=self.work)
        zero_h = series.TruncatedSeries.zero(2, 1, 2, self.order, self.work)
        zero_v = series.TruncatedSeries.zero(2, 1, 1, self.order, self.work)
        maps, invs = [], []
        for i in range(2):
            diag = deckmaps.DeckMap(lam=data.lam[i], mu=data.mu[i],
                                    pert_h=zero_h, pert_v=zero_v)
            diag_inv = deckmaps.DeckMap(lam=1 / data.lam[i],
                                        mu=1 / data.mu[i],
                                        pert_h=zero_h, pert_v=zero_v)
            maps.append(deckmaps.conjugate_by_vertical(diag, self.psi))
            invs.append(deckmaps.conjugate_by_vertical(diag_inv, self.psi))
        self.family = linearize.DeckMapFamily(
            lattice=self.lattice, data=data, maps=maps, inv_maps=invs,
            eps0=0.3, r0=0.6, hband=self.hband)

    def prepare(self):
        pass

    def op(self):
        result = linearize.linearize(self.family, order=self.order, eps1=0.2,
                                     r1=0.5, pmax=6, qmax=6)
        state = majorant.build_state(self.order, result.constants, 2, 1,
                                     0.2, 0.5)
        return result, majorant.dominance_and_radius(result, state)

    def check(self, out):
        result, cert = out
        fails = []
        gap = result.phi_v.max_coeff_diff(self.psi)
        if not gap <= PHI_MATCH:
            fails.append("phi_v differs from psi by %.3e" % gap)
        worst = _max_residual(result)
        if not worst <= RESIDUAL_MAX:
            fails.append("residual %.3e > %.0e" % (worst, RESIDUAL_MAX))
        pairs = set(result.per_degree[2]["translated"])
        if pairs != {(0, 1), (0, -1), (1, 1), (1, -1)}:
            fails.append("translated ledger domains %s" % sorted(pairs))
        if not cert["rows"]:
            fails.append("empty certificate")
        return fails


class NormAudit:
    """Certified sup-norm upper bounds against sampled lower bounds."""

    name = "norm-audit"
    points = 20_000
    nterms, vmax, hband = 15, 5, 3

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        lat1 = lattice.LatticeSpec(1, 1, [[1.0], [0.3 + 1.1j]])
        lat2 = lattice.LatticeSpec(2, 1, [[1, 0], [0, 1],
                                          [0.3 + 1.0j, 0.5 + 0.2j],
                                          [0.7 + 0.1j, 0.2 + 1.0j]])
        self.pairs = []
        for lat in (lat1, lat2):
            f = self._series(rng, lat.n)
            n = lat.n
            for dom in (lattice.DomainSpec(lat, 0.15, 0.45),
                        lattice.DomainSpec(lat, 0.1, 0.5, word=((0, 1),)),
                        lattice.DomainSpec(lat, 0.2, 0.4,
                                           word=((n - 1, -2),)),
                        lattice.DomainSpec(lat, 0.1, 0.5, union_ell=2),
                        lattice.DomainSpec(lat, 0.12, 0.5, hull=True)):
                self.pairs.append((f, dom, int(rng.integers(2**31))))

    def _series(self, rng, n):
        """Exactly ``nterms`` distinct terms, so every seed costs the same."""
        f = series.TruncatedSeries(n, 1, 1, self.vmax, self.hband)
        while len(f.coeffs) < self.nterms:
            P = tuple(int(x) for x in rng.integers(-self.hband,
                                                   self.hband + 1, size=n))
            Q = (int(rng.integers(0, self.vmax + 1)),)
            f.coeffs[(0, P, Q)] = complex(rng.standard_normal(),
                                          rng.standard_normal())
        return f

    def prepare(self):
        pass

    def op(self):
        return [(norms.sup_norm_bound(f, dom).value,
                 norms.sampled_lower_bound(f, dom, points=self.points,
                                           seed=s).value)
                for f, dom, s in self.pairs]

    def check(self, bounds):
        return ["sampled %.17g exceeds certified %.17g on %s"
                % (lower, upper, dom.describe())
                for (upper, lower), (_, dom, _) in zip(bounds, self.pairs)
                if lower > upper * (1 + SAMPLED_SLACK)]


WORKLOADS = {w.name: w for w in (RefScan, RefCertify, Lattice2, NormAudit)}
