"""Deterministic report and CSV emission.

Identical inputs produce byte-identical files: floats are printed with
shortest round-trip ``repr``, all iteration orders are sorted, and no
timestamps or environment details enter any artifact.
"""

import math
import os

import numpy as np

from .divisors import RESONANCE_TOL
from .lattice import log_indicatrix, max_margin_eta, polytope_to_text, \
    union_and_hull


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def fit_report(fit, enhanced=None):
    lines = ["[diophantine-fit]",
             "form %s" % fit.form,
             "D %s" % _fmt(fit.D),
             "tau %s" % _fmt(fit.tau),
             "tau_point floor" if fit.tau_point is None else
             "tau_point P=%s Q=%s j=%d size=%d value=%s" % (
                 *fit.tau_point[:2], fit.tau_point[2] + 1,
                 fit.tau_point[3], _fmt(fit.tau_point[4])),
             "scan pmax=%d qmax=%d" % (fit.pmax, fit.qmax),
             "points %d" % fit.n_points,
             "anchor_size %d" % fit.anchor_size,
             "resonant %s" % ("yes" if fit.resonant else "no"),
             "resonance_threshold %s * (|P|+|Q|)" % _fmt(RESONANCE_TOL),
             "note desk-scale certificate over the scanned range only"]
    for (P, Q, j, l) in fit.resonances:
        lines.append("resonance P=%s Q=%s j=%d%s"
                     % (P, Q, j + 1, "" if l is None else " l=%d" % (l + 1)))
    if enhanced is not None:
        lines += ["",
                  "[enhanced-bound]",
                  "B %s" % _fmt(enhanced["B"]),
                  "d_prime_envelope %s" % _fmt(enhanced["d_prime_envelope"]),
                  "d_prime_empirical %s" % _fmt(enhanced["d_prime_empirical"]),
                  "checked %d" % enhanced["checked"],
                  "all_pass %s" % ("yes" if enhanced["all_pass"] else "no")]
        for (P, Q, j, branch) in enhanced["failures"]:
            lines.append("failure P=%s Q=%s j=%d branch=%s"
                         % (P, Q, j + 1, branch))
    return "\n".join(lines) + "\n"


def resonance_csv(fit):
    lines = ["p,q,j,l"]
    for (P, Q, j, l) in fit.resonances:
        lines.append("%s,%s,%d,%s" % (";".join(map(str, P)),
                                      ";".join(map(str, Q)), j + 1,
                                      "" if l is None else l + 1))
    return "\n".join(lines) + "\n"


def geometry_report(lattice, eps):
    base = log_indicatrix(lattice, eps)
    polys, hull = union_and_hull(lattice, eps)
    eta = max_margin_eta(lattice, eps)
    lines = ["[domain-geometry]",
             "n %d" % lattice.n,
             "eps %s" % _fmt(float(eps)),
             "kappa %s" % _fmt(lattice.decay_rate()),
             "hartogs_margin_eta %s" % _fmt(eta),
             "translates %d" % len(polys),
             "hull_vertices %d" % len(hull.vertices),
             "hull_facets %d" % len(hull.normals)]
    artifacts = {
        "base_polytope.txt": polytope_to_text(base.vertices()),
        "hull_vertices.txt": polytope_to_text(hull.vertices),
        "translates.txt": "".join(polytope_to_text(p.vertices())
                                  for p in polys),
    }
    return "\n".join(lines) + "\n", artifacts


def ledger_csv(result):
    lines = ["m,domain,norm,theoretical"]
    for m in range(2, result.order + 1):
        rec = result.per_degree[m]
        step = result.step_records[m - 2]
        theo = step["theoretical"]
        theo_s = "" if theo is None else _fmt(theo)
        lines.append("%d,base,%s,%s" % (m, _fmt(rec["base_norm"]), theo_s))
        lines.append("%d,goal-union,%s,%s" % (m, _fmt(rec["goal_norm"]),
                                              theo_s))
        for (i, s), norm in sorted(rec["translated"].items()):
            lines.append("%d,t%d^%+d-pair,%s,%s" % (m, i + 1, s, _fmt(norm),
                                                    theo_s))
        for (i, k), norm in sorted(rec["word_norms"].items()):
            lines.append("%d,t%d^%+d,%s,%s" % (m, i + 1, k, _fmt(norm),
                                               theo_s))
    return "\n".join(lines) + "\n"


def residual_csv(result):
    from .linearize import residual_table

    lines = ["m,residual"]
    for m, worst in residual_table(result):
        lines.append("%d,%s" % (m, _fmt(worst)))
    return "\n".join(lines) + "\n"


def linearize_report(result):
    from .linearize import residual_table

    lines = ["[linearize]",
             "order %d" % result.order,
             "route %s" % result.route,
             "phi_terms %d" % result.phi_v.nterms(),
             "tailflag %s" % ("yes" if result.phi_v.tailflag else "no")]
    lines.append("schedule " + " ".join(
        "(%s,%s)" % (_fmt(float(e)), _fmt(float(r)))
        for e, r in zip(result.eps_m[1:], result.r_m[1:])))
    for m, worst in residual_table(result):
        lines.append("residual m=%d %s" % (m, _fmt(worst)))
    return "\n".join(lines) + "\n"


def certificate_csv(cert):
    lines = ["m,domain,norm,majorant,flag"]
    for row in cert["rows"]:
        lines.append("%d,%s,%s,%s,%s" % (
            row["m"], row["domain"], _fmt(row["norm"]), _fmt(row["majorant"]),
            "pass" if row["ok"] else "fail"))
    return "\n".join(lines) + "\n"


def _log10_slack(row):
    """log10(majorant / norm), from the row's log majorant: finite where
    the majorant itself overflows; inf for a zero norm."""
    log_norm = math.log(row["norm"]) if row["norm"] > 0 else -math.inf
    return (row["log_majorant"] - log_norm) / math.log(10)


def certificate_text(cert, state):
    c = state.constants
    lines = ["[constants]",
             "kappa %s" % _fmt(c.kappa),
             "nu %d" % c.nu,
             "tau %s" % _fmt(c.tau),
             "tau_eff %s" % _fmt(c.tau_eff),
             "D %s" % _fmt(c.D),
             "C1 %s" % _fmt(c.C1),
             "C %s" % _fmt(c.C),
             "C_prime %s" % _fmt(c.Cp),
             "C_second %s" % _fmt(c.Cpp),
             "R %s" % _fmt(c.R),
             "eta %s" % _fmt(c.eta),
             "eta_over_kappa %s" % _fmt(c.eta_ratio)]
    for note in c.notes:
        lines.append("note %s" % note)
    lines += ["",
              "[gain-sequence]",
              "envelope_d %s" % _fmt(state.d_env)]
    for m in range(1, state.order + 1):
        lines.append("eta_%d %s" % (m, _fmt(float(state.etas[m]))))
    # finite past the double range, where eta_m prints as inf
    for m in range(1, state.order + 1):
        lines.append("log10_eta_%d %s"
                     % (m, _fmt(float(state.log_etas[m]) / math.log(10))))
    lines += ["",
              "[certificate]",
              "status %s" % cert["status"],
              "all_dominated %s" % ("yes" if cert["all_dominated"] else "no"),
              "radius_estimate %s" % _fmt(cert["radius"]),
              "stabilization %s" % _fmt(cert["stabilization"]),
              "window %d..%d" % cert["window"]]
    lines.append("")
    lines.append("m domain norm majorant log10_slack flag")
    for row in cert["rows"]:
        lines.append("%d %s %s %s %s %s" % (
            row["m"], row["domain"], _fmt(row["norm"]), _fmt(row["majorant"]),
            _fmt(_log10_slack(row)), "pass" if row["ok"] else "fail"))
    return "\n".join(lines) + "\n"


def combined_report(problem, fit_text, geometry_text, linearize_text,
                    certificate_body):
    header = ["[problem]",
              "source %s" % (os.path.basename(problem.source) or "<inline>"),
              "n %d" % problem.lattice.n,
              "d %d" % problem.lattice.d,
              "perturbation_records %d" % len(problem.pert_records),
              "run " + " ".join("%s=%s" % (k, problem.run[k])
                                for k in sorted(problem.run)),
              ""]
    return "\n".join(header) + fit_text + "\n" + geometry_text + "\n" \
        + linearize_text + "\n" + certificate_body
