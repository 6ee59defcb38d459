"""Command-line interface: subcommands, exit codes, output formats."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arrlog import corpus, derivation, linalg
from arrlog.arrangement import n_H, to_document
from arrlog.cli import main
from arrlog.corpus import FIXTURES, fixture, near_pencil
from arrlog.criteria import (ConsistencyFailure, random_external_lines,
                             yoshinaga_defect)
from arrlog.derivation import CertificationFailure
from arrlog.multiarr import FreenessCertificateFailure

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_classify_fixture(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("pog6a").document())
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "plus-one-generated"
    assert doc["exponents"] == [3, 3]
    assert doc["level"] == 4


def test_classify_text_output(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("generic4").document())
    code, out, _ = run(capsys, "classify", path, "--output", "text")
    assert code == 0
    assert "nearly-free" in out


def set_stdin(monkeypatch, data: bytes):
    # the CLI reads the bytes under sys.stdin, as it reads a file
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))


def test_classify_stdin(capsys, monkeypatch):
    set_stdin(monkeypatch, json.dumps(fixture("nf6").document()).encode())
    code, out, _ = run(capsys, "classify", "-")
    assert code == 0
    assert json.loads(out)["verdict"] == "nearly-free"


UNDECODABLE = b'{"lines": [[1, 0, 0]], "name": "\xff"}'


def test_undecodable_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(UNDECODABLE)
    code, out, err = run(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:") and "UTF-8" in err


def test_undecodable_stdin_exit_2(capsys, monkeypatch):
    set_stdin(monkeypatch, UNDECODABLE)
    code, out, err = run(capsys, "classify", "-")
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:") and "UTF-8" in err


@pytest.mark.parametrize("doc", [
    {"factored": "x(y+\u00b2z)z"}, {"factored": "x(y+\u0663z)z"},
    {"lines": [[1, 0, 0], ["\u00b2", 1, 0], [0, 0, 1]]},
    {"lines": [[1, 0, 0], ["\u0663", 1, 0], [0, 0, 1]]},
], ids=["factored-superscript", "factored-arabic-indic", "lines-superscript",
        "lines-arabic-indic"])
def test_non_ascii_digit_exit_2(tmp_path, capsys, doc):
    # only the ASCII digits 0-9 are digits of a coefficient
    code, out, err = run(capsys, "classify", write_doc(tmp_path, doc))
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:") and "Traceback" not in err


def test_duplicate_line_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, {"lines": [[1, 0, 0], [2, 0, 0]]})
    code, _, err = run(capsys, "classify", path)
    assert code == 2
    assert "DuplicateLine" in err


def test_juxtaposed_terms_in_a_factor_exit_2(tmp_path, capsys):
    # a linear factor needs a sign between its terms: (xy + z) is not the
    # line x + y + z
    path = write_doc(tmp_path, {"factored": "(x+y)(xy+z)"})
    code, out, err = run(capsys, "classify", path)
    assert (code, out) == (2, "")
    assert err.startswith("ParseError:") and "Traceback" not in err


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2


def test_zero_denominator_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, {"lines": [[1, 0, 0], [0, "1/0", 1]]})
    code, _, err = run(capsys, "classify", path)
    assert code == 2
    assert err.startswith("ParseError:") and "Traceback" not in err


def test_bad_degree_cap_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ARRLOG_MAX_DEGREE", "abc")
    # an arrangement not classified elsewhere, so no cached result skips the cap
    path = write_doc(tmp_path, {"lines": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                          [1, 1, 1], [1, 3, 7]]})
    code, _, err = run(capsys, "classify", path)
    assert code == 2
    assert err.startswith("DegreeCapError:") and "ARRLOG_MAX_DEGREE" in err


def test_negative_degree_cap_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ARRLOG_MAX_DEGREE", "-1")
    path = write_doc(tmp_path, {"lines": [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                          [1, 1, 1], [1, 3, 11]]})
    code, out, err = run(capsys, "classify", path)
    assert code == 2 and not out
    assert err.startswith("DegreeCapError:") and "negative" in err


@pytest.mark.parametrize("value", ["1_0", "\u0663", " 4 ", "+5"],
                         ids=["underscore", "arabic-indic", "blanks", "plus"])
def test_non_ascii_digit_degree_cap_exit_2(tmp_path, capsys, monkeypatch,
                                           value):
    # int() reads each of these as a number; the cap takes ASCII digits only
    monkeypatch.setenv("ARRLOG_MAX_DEGREE", value)
    # a cached classification would skip the cap
    derivation.classify.cache_clear()
    path = write_doc(tmp_path, to_document(near_pencil(5)))
    code, out, err = run(capsys, "classify", path)
    assert code == 2 and not out
    assert err.startswith("DegreeCapError:") and "not an integer" in err


@pytest.mark.parametrize("error", [CertificationFailure, ConsistencyFailure,
                                   FreenessCertificateFailure])
def test_internal_certificate_failure_exit_3(tmp_path, capsys, monkeypatch,
                                             error):
    def fail(A):
        raise error("identity broken")

    monkeypatch.setattr("arrlog.cli.classify", fail)
    path = write_doc(tmp_path, fixture("generic4").document())
    code, out, err = run(capsys, "classify", path)
    assert code == 3
    assert out == ""
    assert err == f"{error.__name__}: identity broken\n"


@pytest.mark.parametrize("error", [IndexError, ZeroDivisionError,
                                   RecursionError, NotImplementedError])
def test_crash_inside_a_computation_exit_3(tmp_path, capsys, monkeypatch,
                                           error):
    # line indices are checked up front, so an IndexError from inside a
    # computation is a bug, not a usage error; nor is a RuntimeError such
    # as RecursionError or NotImplementedError
    def crash(A, H):
        raise error("deep inside")

    monkeypatch.setattr("arrlog.cli.property_P", crash)
    path = write_doc(tmp_path, fixture("generic4").document())
    code, out, err = run(capsys, "property-p", path, "--all")
    assert code == 3
    assert out == ""
    assert err == f"{error.__name__}: deep inside\n"


def test_exhausted_generator_budget_exit_2(capsys, monkeypatch):
    # more random lines than the draws of one line set can give, and a
    # general-position search with no line set to draw
    code, out, err = run(capsys, "gen", "--family", "random", "--n",
                         str(corpus.LINE_ATTEMPTS + 1))
    assert (code, out) == (2, "")
    assert err == "BudgetExhausted: resampling budget exhausted\n"
    monkeypatch.setattr(corpus, "GENERIC_ATTEMPTS", 0)
    code, out, err = run(capsys, "gen", "--family", "generic", "--n", "4")
    assert (code, out) == (2, "")
    assert err == ("BudgetExhausted: could not reach general position "
                   "within budget\n")


def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch):
    # a reader that closed the pipe (as `| head -c 100` does) is an output
    # error, exit 2, not a crash
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("arrlog.cli.sys.stdout", ClosedPipe())
    path = write_doc(tmp_path, fixture("generic4").document())
    code = main(["classify", path])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "BrokenPipeError: [Errno 32] Broken pipe\n"


def test_directory_as_input_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "classify", str(tmp_path))
    assert code == 2 and out == ""
    assert err.count("\n") == 1


def capped_run(tmp_path, doc: dict, cap: int, command: str, *options):
    """An arrlog subcommand on an arrangement document under
    ARRLOG_MAX_DEGREE, in a fresh interpreter, so no cached classification
    skips the cap."""
    path = write_doc(tmp_path, doc)
    env = dict(os.environ, ARRLOG_MAX_DEGREE=str(cap))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "arrlog.cli", command, path,
                           *options],
                          capture_output=True, text=True, env=env, check=False)


def capped_verify(tmp_path, doc: dict, cap: int) -> dict:
    """`arrlog verify` under ARRLOG_MAX_DEGREE (capped_run)."""
    proc = capped_run(tmp_path, doc, cap, "verify")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)[0]


def test_capped_verify_reports_na(tmp_path):
    report = capped_verify(tmp_path, fixture("generic4").document(), 1)
    assert report["classification"]["cap_hit"] is True
    checks = {c["id"]: c for c in report["checks"]}
    capped = ("thm1.2 thm1.3 thm1.5 thm1.6 thm1.7 thm2.3 thm2.8 prop3.2 "
              "prop3.5 cor3.6 thm4.3 lemma4.4 cor4.5 prop4.6 prop4.7").split()
    for cid in capped:
        assert checks[cid]["status"] == "na", cid
        assert "degree cap 1" in checks[cid]["detail"], cid
    for cid in ("prop2.5", "thm2.7", "prop3.1", "prop4.1"):
        assert checks[cid]["status"] == "pass", cid
    assert len(checks) == len(capped) + 4


def test_capped_splitting_range_names_the_cap(tmp_path):
    # pog7 is plus-one generated; under cap 2 the scan stops before its
    # verdict, and the range reports the cap, as verify's na checks do
    proc = capped_run(tmp_path, fixture("pog7").document(), 2,
                      "splitting", "--all", "--range")
    assert proc.returncode == 2
    assert proc.stderr == (
        "NotApplicable: resolution stopped at the degree cap 2\n")


@pytest.mark.parametrize("cap", [1, 3])
@pytest.mark.parametrize("name", ["pog7", "pog6a"])
def test_capped_verify_scans_cokernel_past_cap(tmp_path, name, cap):
    # the cap bounds the resolution only: the cokernel of the restriction map
    # on these fixtures vanishes past degree 3, and that scan must still finish
    report = capped_verify(tmp_path, fixture(name).document(), cap)
    assert report["classification"]["cap_hit"] is True
    A = fixture(name).build()
    assert report["lines"] == [
        {"H": d.H, "exponents": list(d.exponents), "defect": d.defect,
         "n_H": n_H(A, d.H), "coker_by_degree": list(d.coker_by_degree)}
        for d in (yoshinaga_defect(A, H) for H in range(len(A)))]
    assert all(c["status"] in ("pass", "na") for c in report["checks"])


@pytest.mark.parametrize("cap", [4, 5])
def test_verify_under_a_cap_above_the_certified_end(tmp_path, cap):
    # near_pencil(6) is free with exponents (1, 4): Saito's criterion ends
    # its scan at degree 4, so a cap of 4 or 5 changes nothing against the
    # default cap 2 |A| = 12
    doc = to_document(near_pencil(6))
    report = capped_verify(tmp_path, doc, cap)
    assert report["classification"]["verdict"] == "free"
    assert report["classification"]["cap_hit"] is False
    assert not any("degree cap" in c["detail"] for c in report["checks"])
    assert report == capped_verify(tmp_path, doc, 12)


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/file.json")
    assert code == 2


def test_analyze(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("generic4").document())
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["size"] == 4
    assert doc["chi0"]["b2_0"] == 3
    assert doc["nr_form"] == {"n": 1, "r": 1, "c": 1}
    assert doc["balanced"] is True
    assert doc["n_H"] == [3, 3, 3, 3]
    assert len(doc["points"]) == 6


def test_ziegler_all(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("pog6b").document())
    code, out, _ = run(capsys, "ziegler", path, "--all")
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 6
    assert all(e["exponents"] == [2, 3] for e in entries)


def test_ziegler_basis(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("nf6").document())
    code, out, _ = run(capsys, "ziegler", path, "--line", "0", "--basis")
    assert code == 0
    entry = json.loads(out)[0]
    assert entry["saito"] is True
    assert len(entry["basis"]) == 2


def test_ziegler_bad_index_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("nf6").document())
    code, _, err = run(capsys, "ziegler", path, "--line", "99")
    assert code == 2


def test_ziegler_needs_line_or_all(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("nf6").document())
    code, _, err = run(capsys, "ziegler", path)
    assert code == 2
    assert "UsageError" in err


def test_defects_all(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("generic4").document())
    code, out, _ = run(capsys, "defects", path, "--all")
    assert code == 0
    entries = json.loads(out)
    assert [e["defect"] for e in entries] == [1, 1, 1, 1]
    assert all(e["coker_by_degree"] == [0, 1, 0] for e in entries)


def test_property_p(tmp_path, capsys):
    A = fixture("pog6c").build()
    zi = next(i for i, l in enumerate(A.lines)
              if [str(c) for c in l.coeffs] == ["0", "0", "1"])
    path = write_doc(tmp_path, fixture("pog6c").document())
    code, out, _ = run(capsys, "property-p", path, "--line", str(zi))
    assert code == 0
    entry = json.loads(out)[0]
    assert entry["holds"] == "variant1"
    assert entry["alpha_lifted"][0] == "0"
    assert entry["alpha_lifted"][2] == "0"


def test_splitting_all_with_range(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("pog6a").document())
    code, out, _ = run(capsys, "splitting", path, "--all", "--range")
    assert code == 0
    doc = json.loads(out)
    assert doc["range"]["candidates"] == [[2, 3], [1, 4]]
    types = [tuple(sorted(t["exponents"])) for t in doc["types"]]
    assert set(types) <= {(2, 3), (1, 4)}


def test_splitting_inadmissible_form_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("generic4").document())
    for form, printed in [("1,1,0", "x + y"), ("2,-3,0", "x - 3/2*y")]:
        code, _, err = run(capsys, "splitting", path, "--form", form)
        assert (code, err) == (2, f"InadmissibleLine: {printed} passes through "
                                  "an intersection point\n")


def test_splitting_bad_form_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("generic4").document())
    code, _, err = run(capsys, "splitting", path, "--form", "1,1")
    assert code == 2


@pytest.mark.parametrize("form", ["٣,1_0,7", "٣,1,7", "3,1_0,7",
                                  "3, 1,7", "+3,1,7", "3,1,²"])
def test_splitting_form_takes_ascii_digits_only(tmp_path, capsys, form):
    # int() reads "٣,1_0,7" as the line (3, 10, 7)
    path = write_doc(tmp_path, to_document(near_pencil(5)))
    code, out, err = run(capsys, "splitting", path, "--form", form)
    assert (code, out) == (2, "")
    assert err.startswith("UsageError:") and "bad --form" in err


@pytest.mark.parametrize("argv", [
    ("gen", "--family", "near-pencil", "--n", "٦"),
    ("gen", "--family", "random", "--n", "7", "--seed", "1_0"),
    ("verify", "--corpus", "--random", "٣"),
    ("verify", "--corpus", "--max-lines", " 8"),
    ("verify", "--corpus", "--seed", "٤٢"),
    ("verify", "--corpus", "--external", "+3"),
    ("ziegler", "-", "--line", "١"),
    ("defects", "-", "--line", "١"),
    ("property-p", "-", "--line", "١"),
    ("splitting", "-", "--line", "١"),
], ids=["gen-n", "gen-seed", "random", "max-lines", "verify-seed", "external",
        "ziegler-line", "defects-line", "property-p-line", "splitting-line"])
def test_integer_options_take_ascii_digits_only(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "not an integer" in out.err


def test_verify_single(tmp_path, capsys):
    path = write_doc(tmp_path, fixture("generic4").document())
    code, out, err = run(capsys, "verify", path, "--external", "3")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert all(c["status"] != "fail" for c in reports[0]["checks"])
    assert "1 arrangements verified, 0 with failing checks" in err


def test_verify_corpus(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "--corpus", "--random", "0",
                         "--external", "3")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 6
    # report order matches fixture order
    verdicts = [r["classification"]["verdict"] for r in reports]
    assert verdicts == ["nearly-free", "plus-one-generated",
                       "plus-one-generated", "nearly-free",
                       "plus-one-generated", "plus-one-generated"]


def test_verify_without_input_exit_2(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "UsageError" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--corpus", "--max-lines", "2"),
    ("verify", "--corpus", "--random", "-1"),
    ("verify", "--corpus", "--external", "-1"),
    ("gen", "--family", "near-pencil", "--n", "2"),
], ids=["max-lines", "random", "external", "near-pencil-n"])
def test_bad_generator_argument_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("UsageError:") and err.count("\n") == 1


# sha256 of the concatenated stdout over the six fixtures, in FIXTURES
# order; "form" runs splitting --form on random_external_lines(A, 10, 42);
# "property-p-transformed" runs property-p --all on the fixtures after each
# integer coordinate change of TRANSFORMS, where most lines are no
# coordinate line, so the witnesses are no longer read off beta_f = 1;
# "analyze" runs analyze on the fixtures and then on their TRANSFORMS
# images, whose intersection points have non-integer coordinates, so it
# pins the printed lines and points
GOLDEN_DIGESTS = {
    "ziegler": "6b03bff1b81f3b6b5527da290e8d78c48d70967a37d2910e78e77599a5b3d0c8",
    "property-p": "ce1119f67752487ccf079e9963be29319d4a6b4b8afa99739146c525cd94cedd",
    "splitting": "b3aac8f7aa8786420a4e5b214b56344c5818d32dad8d900a085fab4c0f948c24",
    "form": "ab1bd9a2a235150d78c78164fa6c78e7d972babddc85b87cbdc9210e606413e3",
    "property-p-transformed":
        "102e43b08aa0e6acc2110a81a8c95fba5edf547e1638a924a8d681eb1058bb54",
    "analyze": "0a3a433f47b7af588b964d679dffa59e4351a5497594594266727a07760263a4",
}
TRANSFORMS = (((2, 1, 0), (1, 3, 1), (0, 1, 5)),
              ((1, -2, 3), (4, 1, -1), (2, 0, 7)))


def transformed_document(fx, T) -> dict:
    """The fixture's lines alpha replaced by the integer forms alpha . T."""
    rows = [linalg._int_row([sum(a[i] * T[i][j] for i in range(3))
                             for j in range(3)])
            for a in (line.int_coeffs for line in fx.build().lines)]
    return {"name": fx.name, "lines": rows}


def test_golden_output_digests(tmp_path, capsys):
    hashes = {key: hashlib.sha256() for key in GOLDEN_DIGESTS}

    def feed(key, *argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        hashes[key].update(out.encode())

    for fx in FIXTURES:
        path = write_doc(tmp_path, fx.document(), f"{fx.name}.json")
        feed("ziegler", "ziegler", path, "--all", "--basis")
        feed("property-p", "property-p", path, "--all")
        feed("splitting", "splitting", path, "--all")
        feed("analyze", "analyze", path)
        for form in random_external_lines(fx.build(), 10, 42):
            coeffs = ",".join(map(str, form.int_coeffs))
            feed("form", "splitting", path, "--form", coeffs)
    for T in TRANSFORMS:
        for fx in FIXTURES:
            path = write_doc(tmp_path, transformed_document(fx, T))
            feed("property-p-transformed", "property-p", path, "--all")
            feed("analyze", "analyze", path)
    assert {k: h.hexdigest() for k, h in hashes.items()} == GOLDEN_DIGESTS


def test_gen_families(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--family", "near-pencil", "--n", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["lines"]) == 5
    # generated document classifies as expected
    path = write_doc(tmp_path, doc)
    code, out, _ = run(capsys, "classify", path)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["verdict"] == "free"
    assert parsed["exponents"] == [1, 3]


def test_gen_pencil_b2(tmp_path, capsys):
    code, out, _ = run(capsys, "gen", "--family", "pencil", "--n", "3")
    assert code == 0
    path = write_doc(tmp_path, json.loads(out))
    code, out, _ = run(capsys, "analyze", path)
    assert json.loads(out)["chi0"]["b2_0"] == 0


def test_gen_generic_lattice(capsys):
    code, out, _ = run(capsys, "gen", "--family", "generic", "--n", "4",
                       "--seed", "7")
    assert code == 0
    from arrlog.arrangement import intersection_points, parse_arrangement

    A = parse_arrangement(json.loads(out))
    pts = intersection_points(A)
    assert len(pts) == 6
    assert all(p.multiplicity == 2 for p in pts)


def test_gen_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "--family", "random", "--n", "6",
                         "--seed", "11")
    code2, out2, _ = run(capsys, "gen", "--family", "random", "--n", "6",
                         "--seed", "11")
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_bad_n_exit_2(capsys):
    code, _, err = run(capsys, "gen", "--family", "pencil", "--n", "0")
    assert code == 2
    assert "UsageError" in err


PUBLIC_API = {
    "Arrangement", "DuplicateLine", "FlatPoint", "LinearForm3", "ParseError",
    "ZeroForm", "arrangement", "chi0", "intersection_points", "is_balanced",
    "n_H", "nr_form", "parse_arrangement", "parse_factored", "to_document",
    "DefectReport", "InadmissibleLine", "NotApplicable", "PropertyPResult",
    "SplittingRange", "SplittingType", "TheoremReport", "ZieglerMapData",
    "is_admissible", "property_P", "splitting_range", "splitting_type",
    "verify", "yoshinaga_defect", "ziegler_map", "Classification",
    "ResolutionShape", "ar_dim", "classify", "minimal_resolution",
    "Derivation2", "Exponents", "LinearForm2", "Multiarrangement2", "basis",
    "exponents", "multiarrangement", "saito_check", "ziegler_restriction",
    "HomPoly", "XorShift64",
}


def readme_library_snippet() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_public_api_is_pinned_and_covers_the_readme():
    import arrlog

    assert len(arrlog.__all__) == len(PUBLIC_API)
    assert set(arrlog.__all__) == PUBLIC_API
    snippet = readme_library_snippet()
    imported = snippet.split("from arrlog import (", 1)[1].split(")", 1)[0]
    assert {n.strip() for n in imported.split(",")} <= PUBLIC_API
    exec(snippet, {})
