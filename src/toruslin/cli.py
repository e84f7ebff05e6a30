"""Command-line interface: problem ingestion, verbs, artifact emission.

Verbs map one-to-one onto the library entry points:

    check-diophantine   divisor scan, (D, tau) fit, enhanced-bound check
    domain-geometry     log polytopes, convex hull, Hartogs margin
    linearize           order-by-order vertical linearization
    certify             constants, gain sequence, majorant dominance
    report              everything above in one summary

Exit codes: 0 success, 2 resonance, 1 any other error, a usage error
included.  Failures print a machine-readable ``[error]`` block on stderr.
"""

import argparse
import functools
import os
import sys

from . import __version__
from .divisors import ResonanceError, enhanced_bound_check, scan_and_fit
from .linearize import build_family, linearize
from .majorant import build_state, dominance_and_radius
from .problem import parse_problem
from . import reports

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_RESONANCE = 2


class UsageError(Exception):
    """A command line argparse rejects; ``main`` reports it as an error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser():
    """The parser, built on first use and shared by every later call."""
    parser = _Parser(
        prog="toruslin",
        description="vertical linearization of torus-neighborhood deck "
                    "transformations, with convergence certification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file path")
    common.add_argument("--out", default="toruslin-out",
                        help="output directory (default: toruslin-out)")
    common.add_argument("--order", type=int, help="target vertical order M")
    common.add_argument("--pmax", type=int, help="horizontal scan bound")
    common.add_argument("--qmax", type=int, help="vertical scan bound")
    common.add_argument("--epsilon", type=float, help="eps_1 starting width")
    common.add_argument("--radius", type=float, help="r_1 starting radius")
    common.add_argument("--precision", choices=("double", "extended"),
                        help="divisor arithmetic precision")
    for verb in ("check-diophantine", "domain-geometry", "linearize",
                 "certify", "report"):
        sub.add_parser(verb, parents=[common])
    return parser


def _effective_run(problem, args):
    run = dict(problem.run)
    for key in ("order", "pmax", "qmax", "precision"):
        val = getattr(args, key)
        if val is not None:
            run[key] = val
    if args.epsilon is not None:
        run["epsilon"] = args.epsilon
    if args.radius is not None:
        run["radius"] = args.radius
    return run


def _dps(run):
    return 33 if run["precision"] == "extended" else None


def _family(problem, run):
    return build_family(problem.lattice, problem.data, problem.pert_records,
                        run["vmax"], eps0=run["epsilon"], r0=run["radius"])


def _do_check_diophantine(problem, run, outdir):
    table, fit = scan_and_fit(problem.data, run["pmax"], run["qmax"],
                              dps=_dps(run))
    enhanced = None if fit.resonant else enhanced_bound_check(
        problem.data, fit, run["pmax"], run["qmax"])
    reports.write_text(os.path.join(outdir, "divisors.csv"), table.to_csv())
    reports.write_text(os.path.join(outdir, "fit.txt"),
                       reports.fit_report(fit, enhanced))
    reports.write_text(os.path.join(outdir, "resonances.csv"),
                       reports.resonance_csv(fit))
    return fit, enhanced, EXIT_RESONANCE if fit.resonant else EXIT_OK


def _do_domain_geometry(problem, run, outdir):
    text, artifacts = reports.geometry_report(problem.lattice, run["epsilon"])
    reports.write_text(os.path.join(outdir, "geometry.txt"), text)
    for name, body in sorted(artifacts.items()):
        reports.write_text(os.path.join(outdir, name), body)
    return text


def _do_linearize(problem, run, outdir, fit=None):
    family = _family(problem, run)
    result = linearize(family, run["order"], run["epsilon"], run["radius"],
                       fit=fit, pmax=run["pmax"], qmax=run["qmax"])
    reports.write_text(os.path.join(outdir, "phi_v.tls"),
                       result.phi_v.to_text())
    reports.write_text(os.path.join(outdir, "ledger.csv"),
                       reports.ledger_csv(result))
    reports.write_text(os.path.join(outdir, "residuals.csv"),
                       reports.residual_csv(result))
    reports.write_text(os.path.join(outdir, "linearize.txt"),
                       reports.linearize_report(result))
    return result


def _do_certify(problem, run, outdir, result=None, fit=None):
    if result is None:
        result = _do_linearize(problem, run, outdir, fit=fit)
    state = build_state(result.order, result.constants, problem.lattice.n,
                        problem.lattice.d, run["epsilon"], run["radius"])
    cert = dominance_and_radius(result, state)
    reports.write_text(os.path.join(outdir, "certificate.csv"),
                       reports.certificate_csv(cert))
    body = reports.certificate_text(cert, state)
    reports.write_text(os.path.join(outdir, "certificate.txt"), body)
    return result, cert, body


def run_command(argv=None):
    args = _build_parser().parse_args(argv)
    problem = parse_problem(args.problem)
    run = _effective_run(problem, args)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)

    if args.verb == "check-diophantine":
        _, _, code = _do_check_diophantine(problem, run, outdir)
        return code
    if args.verb == "domain-geometry":
        _do_domain_geometry(problem, run, outdir)
        return EXIT_OK
    if args.verb == "linearize":
        _do_linearize(problem, run, outdir)
        return EXIT_OK
    if args.verb == "certify":
        _do_certify(problem, run, outdir)
        return EXIT_OK
    if args.verb == "report":
        fit, enhanced, code = _do_check_diophantine(problem, run, outdir)
        if code == EXIT_RESONANCE:
            geometry = _do_domain_geometry(problem, run, outdir)
            body = reports.combined_report(
                problem, reports.fit_report(fit), geometry,
                "[linearize]\nskipped resonant instance\n",
                "[certificate]\nskipped resonant instance\n")
            reports.write_text(os.path.join(outdir, "report.txt"), body)
            return EXIT_RESONANCE
        geometry = _do_domain_geometry(problem, run, outdir)
        result, cert, cert_body = _do_certify(problem, run, outdir, fit=fit)
        body = reports.combined_report(
            problem, reports.fit_report(fit, enhanced), geometry,
            reports.linearize_report(result), cert_body)
        reports.write_text(os.path.join(outdir, "report.txt"), body)
        return EXIT_OK
    raise AssertionError("unhandled verb %r" % args.verb)


def main(argv=None):
    try:
        return run_command(argv)
    except ResonanceError as exc:
        sys.stderr.write("[error]\ncode resonance\nmessage %s\n" % exc)
        return EXIT_RESONANCE
    except Exception as exc:  # deliberate catch-all at the process boundary
        sys.stderr.write("[error]\ncode %s\nmessage %s\n"
                         % (type(exc).__name__, exc))
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
