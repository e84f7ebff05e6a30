import argparse
import dataclasses
import filecmp
import hashlib
import os

import numpy as np
import pytest

import toruslin
from toruslin import TruncatedSeries
from toruslin.cli import EXIT_ERROR, EXIT_OK, EXIT_RESONANCE, main
from toruslin.linearize import build_family, linearize
from toruslin.problem import ProblemParseError, parse_problem, \
    parse_problem_text

from test_symmetry import conjugate_problem, term_bits

MINIMAL = """
[lattice]
n 1
d 1
e 1.0 0.0
e 0.3 1.1

[multipliers]
mu_angle 0.6180339887498949

[run]
vmax 4
hband 4
epsilon 0.2
radius 0.5
order 3
pmax 4
qmax 4
"""

RESONANT = MINIMAL.replace("mu_angle 0.6180339887498949", "mu_angle 0.0")

# Resonances in the turns that double arithmetic does not land exactly on:
# problem text, first resonance as resonances.csv lists it, and as the
# error block names it.
with open(toruslin.reference_problem_path()) as fh:
    SHIPPED = fh.read()
ROUNDED_RESONANT = {
    "mu=-1": (SHIPPED.replace("mu_angle 0.6180339887498949", "mu_angle 0.5"),
              "0,3,1,", "P=(0,), Q=(3,), j=1"),
    "mu=i": (SHIPPED.replace("mu_angle 0.6180339887498949", "mu_angle 0.25"),
             "0,5,1,", "P=(0,), Q=(5,), j=1"),
    "mu^3=1": (SHIPPED.replace("mu_angle 0.6180339887498949",
                               "mu_angle 0.3333333333333333"),
               "0,4,1,", "P=(0,), Q=(4,), j=1"),
    # mu_2 = mu_1^2 to the last bit of the turns, with a record on the key
    "mu2=mu1^2": (MINIMAL.replace("d 1", "d 2").replace(
        "mu_angle 0.6180339887498949",
        "mu_angle 0.6180339887498949 0.2360679774997898")
        + "\n[perturbation]\np 1 3 0 2 0 0.001 0.0\n",
        "0,2;0,2,", "P=(0,), Q=(2, 0), j=2"),
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_minimal_file_linear_family(self):
        problem = parse_problem_text(MINIMAL)
        assert problem.lattice.n == 1 and problem.lattice.d == 1
        assert problem.pert_records == []
        assert problem.run["order"] == 3

    def test_reference_file_lambda_derived(self):
        problem = parse_problem(toruslin.reference_problem_path())
        lam = problem.data.lam[0, 0]
        assert lam == pytest.approx(np.exp(2j * np.pi * (0.3 + 1.1j)))
        assert len(problem.pert_records) == 12
        assert max(abs(c) for *_, c in problem.pert_records) <= 1e-3

    def test_nonunitary_mu_rejected(self):
        bad = MINIMAL.replace("mu_angle 0.6180339887498949", "mu 1.01 0.0")
        with pytest.raises(ProblemParseError, match="unitary"):
            parse_problem_text(bad)

    def test_inconsistent_lambda_override_rejected(self):
        bad = MINIMAL.replace(
            "[run]", "lambda 0.5 0.0\n\n[run]")
        with pytest.raises(ProblemParseError, match="inconsistent lambda"):
            parse_problem_text(bad)

    def test_consistent_lambda_override_accepted(self):
        lam = complex(np.exp(2j * np.pi * (0.3 + 1.1j)))
        good = MINIMAL.replace(
            "[run]", "lambda %r %r\n\n[run]" % (lam.real, lam.imag))
        problem = parse_problem_text(good)
        assert problem.lam_overridden

    def test_syntax_error_carries_line_number(self):
        bad = MINIMAL.replace("e 0.3 1.1", "e 0.3")
        with pytest.raises(ProblemParseError, match=r"line \d+"):
            parse_problem_text(bad)

    @pytest.mark.parametrize("old,line,message", [
        ("vmax 4", "vmax", "vmax needs one value"),
        ("order 3", "order x", "bad order value"),
        ("n 1", "n one", "bad n value"),
        ("[run]", "p x 2 0 2 1e-4 0.0", "bad index value"),
        ("[run]", "p 1 2 0 2.5 1e-4 0.0", "bad index value"),
    ])
    def test_bad_field_names_its_line(self, old, line, message):
        # a perturbation row goes into its own section before [run]
        new = line if old != "[run]" else "[perturbation]\n%s\n\n[run]" % line
        bad = MINIMAL.replace(old, new, 1)
        with pytest.raises(ProblemParseError, match=message) as err:
            parse_problem_text(bad)
        assert err.value.lineno == bad.splitlines().index(line) + 1

    def test_low_order_perturbation_rejected(self):
        bad = MINIMAL.replace(
            "[run]", "[perturbation]\np 1 2 0 1 1e-4 0.0\n\n[run]")
        with pytest.raises(ProblemParseError, match="order >= 2"):
            parse_problem_text(bad)

    @pytest.mark.parametrize("rows", [("mu 1 0", "mu_angle 0.3"),
                                      ("mu_angle 0.3", "mu 1 0")])
    def test_mixed_mu_rows_parse_in_either_order(self, rows):
        # with any mu row the multipliers are written back as mu rows
        text = MINIMAL.replace("n 1", "n 2").replace(
            "e 1.0 0.0\ne 0.3 1.1",
            "e 1.0 0.0 0.0 0.0\ne 0.0 0.0 1.0 0.0\n"
            "e 0.31 0.07 0.5 0.02\ne 0.7 0.01 0.2 0.09").replace(
            "mu_angle 0.6180339887498949", "\n".join(rows))
        problem = parse_problem_text(text)
        assert problem.mu_angles is None
        mu = [[1.0 + 0j], [complex(np.exp(2j * np.pi * 0.3))]]
        assert problem.data.mu.tolist() == (mu if rows[0] == "mu 1 0"
                                            else mu[::-1])
        again = parse_problem_text(problem.to_text())
        assert again.to_text() == problem.to_text()
        assert again.mu_angles is None
        assert np.array_equal(again.data.mu, problem.data.mu)

    def test_roundtrip_identity(self):
        problem = parse_problem(toruslin.reference_problem_path())
        text = problem.to_text()
        again = parse_problem_text(text)
        assert again.to_text() == text
        assert np.array_equal(again.data.mu, problem.data.mu)
        assert np.array_equal(again.lattice.generators,
                              problem.lattice.generators)
        assert again.pert_records == sorted(
            problem.pert_records, key=lambda r: (r[0], r[1], r[2], r[3]))
        assert again.run == problem.run


class TestVerbs:
    def test_check_diophantine_resonant_exit(self, tmp_path):
        prob = write(tmp_path, "resonant.prob", RESONANT)
        out = str(tmp_path / "out")
        code = main(["check-diophantine", prob, "--out", out])
        assert code == EXIT_RESONANCE
        body = (tmp_path / "out" / "resonances.csv").read_text()
        assert len(body.strip().splitlines()) > 1
        assert "0,2,1," in body  # P=0, Q=2, j=1

    def test_resonance_csv_header_only_when_clean(self, tmp_path):
        prob = write(tmp_path, "ok.prob", MINIMAL)
        out = str(tmp_path / "out")
        assert main(["check-diophantine", prob, "--out", out]) == EXIT_OK
        body = (tmp_path / "out" / "resonances.csv").read_text()
        assert body == "p,q,j,l\n"

    def test_linearize_refuses_resonant(self, tmp_path):
        prob = write(tmp_path, "resonant.prob", RESONANT)
        out = str(tmp_path / "out")
        code = main(["linearize", prob, "--out", out])
        assert code == EXIT_RESONANCE

    def test_linearize_residual_rows(self, tmp_path):
        prob = write(tmp_path, "ref.prob",
                     open(toruslin.reference_problem_path()).read())
        out = str(tmp_path / "out")
        code = main(["linearize", prob, "--out", out, "--order", "8",
                     "--pmax", "12", "--qmax", "12"])
        assert code == EXIT_OK
        lines = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
        assert lines[0] == "m,residual"
        assert len(lines) == 1 + 7  # m = 2..8
        phi = (tmp_path / "out" / "phi_v.tls").read_text()
        assert phi.startswith("TLS 1 1 1 8 ")

    def test_linearize_phi_v_reads_back(self, tmp_path):
        path = toruslin.reference_problem_path()
        out = str(tmp_path / "out")
        assert main(["linearize", path, "--out", out, "--pmax", "12",
                     "--qmax", "12"]) == EXIT_OK
        back = TruncatedSeries.from_text(
            (tmp_path / "out" / "phi_v.tls").read_text())
        p = parse_problem(path)
        run = p.run
        fam = build_family(p.lattice, p.data, p.pert_records, run["vmax"],
                           eps0=run["epsilon"], r0=run["radius"])
        phi = linearize(fam, run["order"], run["epsilon"], run["radius"],
                        pmax=12, qmax=12).phi_v
        assert (back.n, back.d, back.components, back.vmax) == \
            (phi.n, phi.d, phi.components, phi.vmax)
        assert [key for *key, _ in back.terms()] == \
            [key for *key, _ in phi.terms()]
        for k, P, Q, c in phi.terms():
            got = back.get(k, P, Q)
            assert (got.real.hex(), got.imag.hex()) \
                == (float(c.real).hex(), float(c.imag).hex())

    def test_order_above_vmax_is_an_error(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        code = main(["linearize", toruslin.reference_problem_path(), "--out",
                     out, "--order", "12", "--pmax", "12", "--qmax", "12"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("[error]\ncode ValueError\n")
        assert "exceeds the family's vmax 8" in err

    def test_domain_geometry_artifacts(self, tmp_path):
        prob = write(tmp_path, "ok.prob", MINIMAL)
        out = str(tmp_path / "out")
        assert main(["domain-geometry", prob, "--out", out]) == EXIT_OK
        text = (tmp_path / "out" / "geometry.txt").read_text()
        assert "hartogs_margin_eta" in text
        verts = (tmp_path / "out" / "hull_vertices.txt").read_text()
        assert len(verts.strip().splitlines()) == 2  # 1-d hull: two endpoints

    def test_certificate_csv_schema(self, tmp_path):
        prob = write(tmp_path, "ok.prob", MINIMAL.replace(
            "[run]", "[perturbation]\np 1 2 0 2 1e-4 0.0\n\n[run]"))
        out = str(tmp_path / "out")
        assert main(["certify", prob, "--out", out, "--pmax", "6",
                     "--qmax", "6"]) == EXIT_OK
        lines = (tmp_path / "out" / "certificate.csv").read_text().splitlines()
        assert lines[0] == "m,domain,norm,majorant,flag"

    def test_error_block_on_missing_file(self, tmp_path, capsys):
        code = main(["linearize", str(tmp_path / "nope.prob")])
        assert code == 1
        err = capsys.readouterr().err
        assert "[error]" in err and "code" in err

    @pytest.mark.parametrize("old, new", [
        ("p 1 2 0 2 -0.0004376395663731474 -0.0004353734792976885",
         "p 1 2 0 2 nan 0.0"),
        ("p 1 2 0 2 -0.0004376395663731474 -0.0004353734792976885",
         "p 1 2 0 2 inf 0.0"),
        ("epsilon 0.2", "epsilon nan"),
        ("radius 0.5", "radius inf"),
    ], ids=["record-nan", "record-inf", "epsilon-nan", "radius-inf"])
    def test_non_finite_value_is_refused(self, tmp_path, capsys, old, new):
        # a nan or inf in the shipped problem is a parse error on its line,
        # not a record the series drops or a schedule that runs out
        text = SHIPPED.replace(old, new)
        assert text != SHIPPED
        prob = write(tmp_path, "bad.prob", text)
        out = tmp_path / "out"
        assert main(["report", prob, "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("[error]\ncode ProblemParseError\n")
        assert "(line %d)" % (text.splitlines().index(new) + 1) in err
        assert not out.exists()

    def test_report_on_resonant_instance(self, tmp_path):
        prob = write(tmp_path, "resonant.prob", RESONANT)
        out = str(tmp_path / "out")
        code = main(["report", prob, "--out", out])
        assert code == EXIT_RESONANCE
        body = (tmp_path / "out" / "report.txt").read_text()
        assert "skipped resonant instance" in body

    @pytest.mark.parametrize("case", sorted(ROUNDED_RESONANT))
    @pytest.mark.parametrize("verb", ["check-diophantine", "linearize",
                                      "report"])
    def test_rounded_resonance_exits_2(self, tmp_path, capsys, verb, case):
        text, row, where = ROUNDED_RESONANT[case]
        prob = write(tmp_path, "near.prob", text)
        out = tmp_path / "out"
        assert main([verb, prob, "--out", str(out)]) == EXIT_RESONANCE
        if verb == "linearize":
            assert where in capsys.readouterr().err
        else:
            rows = (out / "resonances.csv").read_text().splitlines()
            assert rows[1].startswith(row)
            assert "resonant yes" in (out / "fit.txt").read_text()

    def test_shipped_instance_not_resonant(self, tmp_path):
        out = tmp_path / "out"
        assert main(["check-diophantine", toruslin.reference_problem_path(),
                     "--out", str(out)]) == EXIT_OK
        assert (out / "resonances.csv").read_text() == "p,q,j,l\n"
        fit = (out / "fit.txt").read_text().splitlines()
        assert "resonant no" in fit
        # a key, a number that parses on its own, then its unit
        assert "resonance_threshold 1.4210854715202004e-14 * (|P|+|Q|)" in fit

    def test_extended_precision_scan(self, tmp_path):
        prob = write(tmp_path, "ok.prob", MINIMAL)
        out_d = str(tmp_path / "d")
        out_x = str(tmp_path / "x")
        assert main(["check-diophantine", prob, "--out", out_d]) == EXIT_OK
        assert main(["check-diophantine", prob, "--out", out_x,
                     "--precision", "extended"]) == EXIT_OK
        vals_d = [float(ln.split(",")[2]) for ln in
                  (tmp_path / "d" / "divisors.csv").read_text().splitlines()[1:]]
        vals_x = [float(ln.split(",")[2]) for ln in
                  (tmp_path / "x" / "divisors.csv").read_text().splitlines()[1:]]
        assert np.allclose(vals_d, vals_x, rtol=1e-12)

    def test_report_determinism(self, tmp_path):
        prob = write(tmp_path, "ref.prob",
                     open(toruslin.reference_problem_path()).read())
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["report", prob, "--order", "5", "--pmax", "8", "--qmax", "8"]
        assert main(args + ["--out", out1]) == EXIT_OK
        assert main(args + ["--out", out2]) == EXIT_OK
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2))
        match, mismatch, errors = filecmp.cmpfiles(out1, out2, names,
                                                   shallow=False)
        assert mismatch == [] and errors == []
        assert "report.txt" in match


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (["frobnicate", "x.prob"],
         "argument verb: invalid choice: 'frobnicate'"),
        (["check-diophantine", "x.prob", "--pmax", "abc"],
         "argument --pmax: invalid int value: 'abc'"),
        (["check-diophantine"],
         "the following arguments are required: problem"),
    ])
    def test_exits_1_with_the_error_block(self, capsys, argv, message):
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("[error]\ncode UsageError\nmessage " + message)
        assert err.count("\n") == 3

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["report", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out

    def test_resonance_still_exits_2(self, tmp_path, capsys):
        prob = write(tmp_path, "resonant.prob", RESONANT)
        code = main(["linearize", prob, "--out", str(tmp_path / "out")])
        assert code == EXIT_RESONANCE
        assert capsys.readouterr().err.startswith("[error]\ncode resonance\n")


def test_repeated_calls_share_only_the_parser(tmp_path, monkeypatch, capsys):
    # flagless runs write to the default directory under the working one
    monkeypatch.chdir(tmp_path)
    prob = toruslin.reference_problem_path()
    out = tmp_path / "toruslin-out"

    def artifacts():
        return {path.name: path.read_bytes() for path in out.iterdir()}

    assert main(["check-diophantine", prob, "--pmax", "5",
                 "--qmax", "5"]) == EXIT_OK
    assert "scan pmax=5 qmax=5" in (out / "fit.txt").read_text().splitlines()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["check-diophantine", prob]) == EXIT_OK
    first = artifacts()
    assert main(["check-diophantine", prob, "--pmax", "abc"]) == EXIT_ERROR
    assert main(["check-diophantine", prob]) == EXIT_OK
    assert artifacts() == first
    assert "scan pmax=20 qmax=20" in first["fit.txt"].decode().splitlines()
    assert built == []


def rescaled_problem(problem, c):
    """The problem in the coordinate ``w = c v``: h-records times
    ``c^(-|Q|)``, v-records times ``c^(1 - |Q|)``, the radius times ``c``."""
    n = problem.lattice.n
    return dataclasses.replace(
        problem,
        pert_records=[(i, k, P, Q, x * c ** ((k >= n) - sum(Q)))
                      for i, k, P, Q, x in problem.pert_records],
        run=dict(problem.run, radius=problem.run["radius"] * c))


def test_symmetries_through_the_cli(tmp_path):
    # test_symmetry's exact relations, on problem files the writer wrote
    # and on the phi_v.tls the report wrote and the reader read back
    p = parse_problem(toruslin.reference_problem_path())
    phis = []
    for name, problem in [("base", p), ("conj", conjugate_problem(p)),
                          ("scaled", rescaled_problem(p, 2.0))]:
        prob = write(tmp_path, name + ".prob", problem.to_text())
        out = tmp_path / name
        assert main(["report", prob, "--out", str(out)]) == EXIT_OK
        phis.append(TruncatedSeries.from_text(
            (out / "phi_v.tls").read_text()))
    base, conj, scaled = phis
    assert base.nterms() > 10
    assert term_bits(conj) == term_bits(base, conj=True)
    assert term_bits(scaled) == term_bits(base, lambda Q: 2.0 ** (1 - sum(Q)))


# sha256 of each artifact ``toruslin report`` writes for the shipped problem
# at its own settings; criterion 10 compares two runs, this compares every
# run with the bytes the report has always written.
PINNED_REPORT = {
    "base_polytope.txt":
        "dbbc85143b51a9caac072e2b1ecba13fbe7c09d48d1a7cfa56b57dd24539a7cc",
    "certificate.csv":
        "db619f30c41d83ccf74117b31592eb9df2d1da6aaa38affc814e47a8a4032bc2",
    "certificate.txt":
        "19ce79c6729334854011862f2c176751cc94315c61d0d7e2daf5ff3c7e885dc5",
    "divisors.csv":
        "52bbbc6d4b8c3d7e609349f9180513c9840b1e8fd453709f34e17ef15a76f49f",
    "fit.txt":
        "e83cae85a96e1da0e49cd292cd8a6827c31de5e178ced182b42e63de553f52e8",
    "geometry.txt":
        "c46d76113fabaa7d7b33dad2a61c6aceb456edbac87238d1d4797e450f15559c",
    "hull_vertices.txt":
        "d13205c6c9fc9e43d337e9eaec06a48dee21ce271556f72798744722b5311cfd",
    "ledger.csv":
        "f23418ace00a690bec3a508f179a6e9dd8b609b5e87724b9826db2e0270e66ba",
    "linearize.txt":
        "9b5ea198d126c1cbd38ffb36d78558c47de2f8de8c4139cb6925a14fca1a600c",
    "phi_v.tls":
        "e01a9179c5666615a22fc687b5ee0d25622d4671350b33e1541782035443cf9b",
    "report.txt":
        "00a92f479e84f109d77d1602669ee25e06ccd4c53a1e6223c151d37e0eef45a6",
    "residuals.csv":
        "baa75c7378647df2b1c1bb9301a56d178d6f2ef283f737c5580795c610237a53",
    "resonances.csv":
        "5bd5f060893f28472a9e786f04134edf3363cc8edc979bdc61f0c7b8cbbd926d",
    "translates.txt":
        "ef717b35ef6101ec6c37ff33a9b81c4d7019cbb40b65dc170688d9863e6e9e73",
}


def test_report_artifacts_are_pinned(tmp_path):
    # report.txt names the problem file by its base name
    prob = write(tmp_path, "ref.prob",
                 open(toruslin.reference_problem_path()).read())
    out = tmp_path / "out"
    assert main(["report", prob, "--out", str(out)]) == EXIT_OK
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in out.iterdir()}
    assert got == PINNED_REPORT
