"""CLI behavior: subcommands, formats, exit codes."""

import csv
import io
import json

import pytest

from dpl.cli import main

JSON_KEYS = ["identity", "params", "digits", "strategy", "lhs", "rhs",
             "residual", "bound", "pass", "elapsed_ms"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass_text(capsys):
    code, out, _ = run(capsys, "verify", "--id", "euler-sum", "--l", "3")
    assert code == 0
    assert "[pass] euler-sum" in out


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--id", "aux-phi", "--s", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc.keys()) == JSON_KEYS
    assert set(doc["lhs"].keys()) == {"re", "im"}
    assert doc["pass"] is True


def test_verify_json_prints_working_precision_digits(capsys):
    import mpmath

    code, out, _ = run(capsys, "verify", "--id", "euler-sum", "--l", "3",
                       "--digits", "50", "--format", "json")
    assert code == 0
    with mpmath.mp.workdps(50):
        assert json.loads(out)["rhs"]["re"] == mpmath.nstr(mpmath.zeta(3), 25)


def test_verify_csv_projection(capsys):
    code, out, _ = run(capsys, "verify", "--id", "aux-phi", "--s", "2,3",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["identity", "params", "digits", "strategy", "lhs_re", "lhs_im",
                       "rhs_re", "rhs_im", "residual", "bound", "pass", "elapsed_ms"]
    assert len(rows) == 3


def test_verify_domain_error_exit2(capsys):
    code, _, err = run(capsys, "verify", "--id", "thm-1.1", "--k", "1",
                       "--b", "2", "--x", "1")
    assert code == 2
    assert "outside (0,1]" in err


def test_verify_accepts_root_of_unity_x(capsys):
    # the comma inside ru(f,a) does not split the list of x values
    code, out, _ = run(capsys, "verify", "--id", "thm-4.1", "--k", "1", "--N", "3",
                       "--x", "ru(3,1),-1", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert [d["params"]["x"] for d in docs] == ["ru(3,1)", "-1"]
    assert all(d["pass"] for d in docs)


def test_unknown_identity_exit2(capsys):
    code, _, err = run(capsys, "verify", "--id", "thm-9.9")
    assert code == 2
    assert "near matches" in err


def test_residual_failure_exit1(tmp_path, monkeypatch, capsys):
    # a deliberately false identity must fail with exit code 1
    (tmp_path / "false.dpl").write_text(
        'identity "false" params (k: int >= 1) {\n'
        "  lhs: 1 * [ single(n>=1) 1 / (n^(k+2)) ];\n"
        "  rhs: 2 * [ single(n>=1) 1 / (n^(k+2)) ];\n}\n")
    (tmp_path / "false.meta.json").write_text(
        '{"id": "false", "paper_ref": "negative control", "tags": [],'
        ' "tolerance": "1e-10", "strategy": "reduction", "battery": [{"k": "1"}]}\n')
    monkeypatch.setenv("DPL_IDENTITY_DIR", str(tmp_path))
    code, out, _ = run(capsys, "verify", "--id", "false")
    assert code == 1
    assert "FAIL" in out


def test_sweep_aggregates(capsys):
    code, out, err = run(capsys, "sweep", "--id", "gkz-odd", "--N", "2..4")
    assert code == 0
    assert "3/3 pass" in err


def test_derive_commands(capsys):
    code, out, _ = run(capsys, "derive", "--from", "prop-4.3", "--to", "thm-4.1",
                       "--k", "1..2")
    assert code == 0
    assert "exact multiset match" in out
    code, _, err = run(capsys, "derive", "--from", "thm-1.1", "--to", "cor-1.3")
    assert code == 2
    assert "not a registered partial-fraction pair" in err


def test_derive_json(capsys):
    code, out, _ = run(capsys, "derive", "--from", "prop-4.5", "--to", "thm-4.4",
                       "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["samples"][0]["k"] == 1


def test_eval_term(capsys):
    code, out, _ = run(capsys, "eval-term",
                       "sum(m>=1,n>=1) x^n / (m*(m+n)^3)", "--x", "1/2",
                       "--digits", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "direct_tail"    # the geometric outer sum's tail bound is empirical
    assert abs(float(doc["value"]["re"]) - 0.0930971259917686) < 1e-12


def test_eval_term_with_symbols(capsys):
    code, out, _ = run(capsys, "eval-term",
                       "single(n>=1) x^n / (n^(k+2))", "--x", "1", "--k", "1",
                       "--digits", "30")
    assert code == 0
    doc = json.loads(out)
    assert abs(float(doc["value"]["re"]) - 1.2020569031595943) < 1e-12


def test_eval_term_unknown_character_exit2(capsys):
    # an unknown --chi is a usage error, as it is for verify
    code, _, err = run(capsys, "eval-term", "single(n>=1) chi(n) / (n^2)", "--chi", "chi5")
    assert code == 2
    assert "unknown character" in err
    code, _, err = run(capsys, "verify", "--id", "cor-1.3", "--k", "1", "--chi", "chi5")
    assert code == 2
    assert "unknown character" in err


@pytest.mark.parametrize("strategy", ["auto", "reduction", "direct"])
def test_eval_term_geometric_single_sum_on_the_circle_exit2(capsys, strategy):
    # |x| = 1 but not a root of unity: no route sums it, and each says so alike
    code, _, err = run(capsys, "eval-term", "single(n>=1) x^n / (n^2)",
                       "--x=3/5+4/5i", "--strategy", strategy)
    assert code == 2
    assert "needs |x| < 1" in err


@pytest.mark.parametrize("strategy", ["auto", "reduction", "direct"])
@pytest.mark.parametrize("term", ["sum(m>=1,n>=1) x^n / (m * (m+n)^2)",
                                  "sum(m>=1,n>=1) x^(m+n) / (m * (m+n)^2)"],
                         ids=["xn", "xmn"])
def test_eval_term_double_sum_on_the_circle_exit2(capsys, term, strategy):
    code, _, err = run(capsys, "eval-term", term, "--x=3/5+4/5i", "--strategy", strategy)
    assert code == 2
    assert "needs |x| < 1" in err


@pytest.mark.parametrize("strategy", ["auto", "reduction"])
@pytest.mark.parametrize("x", ["1", "-1", "ru(3,1)"])
@pytest.mark.parametrize("term", ["single(n>=1) x^n / (n^(1/2))",
                                  "single(n>=1) x^n / ((n+1/3)^(1/2))",
                                  "single(n>=1) x^n / (n^(-1))"],
                         ids=["n^1/2", "(n+1/3)^1/2", "n^-1"])
def test_eval_term_single_sum_on_the_circle_below_exponent_1_exit2(capsys, term, x, strategy):
    # a single sum on the unit circle diverges, or needs a continuation no
    # route makes, below exponent 1: a domain error, as under direct
    code, out, err = run(capsys, "eval-term", term, f"--x={x}", "--strategy", strategy)
    assert code == 2
    assert err.startswith("error:") and not out


@pytest.mark.parametrize("args", [
    ("single(n>=1) x^n / (n^2)", "--b", "abc"),
    ("single(n>=1) x^n / (n^2)", "--k", "1/0"),
    ("sum(m>=1",),
    ("single(n>=1) 1/(n^0)",)],
    ids=["b-abc", "k-1/0", "unparsable", "zero-exponent"])
def test_eval_term_malformed_input_exit2(capsys, args):
    # a literal that is no number, or a term that does not parse, is a usage
    # error, found before anything is evaluated
    code, out, err = run(capsys, "eval-term", *args)
    assert code == 2
    assert err.startswith("error:") and not out


@pytest.mark.parametrize("x", ["ru(4)", "ru(4,x)", "ru(0,1)"])
def test_eval_term_malformed_root_of_unity_exit2(capsys, x):
    # a root literal without two integers, or of order 0, is a usage error
    code, _, err = run(capsys, "eval-term", "single(n>=1) x^n / (n^2)", f"--x={x}")
    assert code == 2
    assert "root of unity" in err


@pytest.mark.parametrize("args", [
    ("--id", "thm-1.1", "--k", "1", "--x", "1", "--b", "abc"),
    ("--id", "thm-1.1", "--k", "1", "--x", "1", "--b", "1/0"),
    ("--id", "thm-1.1", "--k", "1", "--x", "1", "--b", "1/2+1/2i"),
    ("--id", "thm-1.1", "--k", "abc", "--x", "1", "--b", "1/2"),
    ("--id", "thm-1.1", "--k", "1", "--x", "1/0", "--b", "1/2"),
    ("--id", "thm-2.1", "--s", "abc"),
    ("--id", "thm-4.1", "--N", "abc"),
    ("--id", "euler-sum", "--l", "1..x")],
    ids=["b-abc", "b-1/0", "b-complex", "k-abc", "x-1/0", "s-abc", "N-abc", "l-range"])
def test_verify_malformed_numeric_literal_exit2(capsys, args):
    # a literal that is no number, or a range that is no pair of integers,
    # is a usage error, found before anything is evaluated
    code, out, err = run(capsys, "verify", *args)
    assert code == 2
    assert err.startswith("error: cannot parse") and not out


def test_derive_malformed_k_exit2(capsys):
    code, out, err = run(capsys, "derive", "--from", "thm-2.1", "--to", "thm-1.1", "--k", "abc")
    assert code == 2
    assert err.startswith("error: cannot parse") and not out


def test_eval_term_spellings_of_a_point_print_alike(capsys):
    outs = [run(capsys, "eval-term", "single(n>=1) x^n / (n^2)", f"--x={x}")
            for x in ("-1", "-1+0i", "ru(2,1)")]
    assert outs[0][0] == 0
    assert outs[1:] == outs[:1] * 2


@pytest.mark.parametrize("flag", ["--out=report.json", "--format=json", "--tolerance=1e-8"])
def test_eval_term_rejects_the_report_flags(capsys, flag):
    # eval-term writes one JSON record to stdout and computes no residual
    with pytest.raises(SystemExit) as exc:
        main(["eval-term", "single(n>=1) 1 / (n^2)", flag])
    assert exc.value.code == 2


def test_list_output(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert len(out.strip().splitlines()) == 25
    code, out, _ = run(capsys, "list", "--filter", "character")
    assert [line.split()[0] for line in out.strip().splitlines()] == \
        ["cor-1.3", "cor-1.5-L"]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--id", "aux-phi", "--s", "2",
                       "--format", "json", "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["identity"] == "aux-phi"


def test_digits_bounds(capsys):
    code, _, err = run(capsys, "verify", "--id", "aux-phi", "--s", "2",
                       "--digits", "10")
    assert code == 2 and "digits" in err


def test_jobs_parallel(capsys):
    code, _, err = run(capsys, "sweep", "--id", "aux-phi", "--s", "2..5",
                       "--jobs", "2")
    assert code == 0
    assert "4/4 pass" in err


def test_evaluation_failure_exit3(tmp_path, monkeypatch, capsys):
    # forcing the reduction strategy onto an uncatalogued shape (two-sided,
    # with non-integer exponents) is an evaluation failure, not a usage error
    (tmp_path / "hard.dpl").write_text(
        'identity "hard" params (s: real >= 1, x: unit, b: b01) {\n'
        "  lhs: 1 * [ sum(m>=1,n>=0) x^(m+n) / (m^s * (n+b)^(1/2) * (m+n+b)^2) ];\n"
        "  rhs: 1 * [ sum(m>=1,n>=0) x^(m+n) / (m^s * (n+b)^(1/2) * (m+n+b)^2) ];\n}\n")
    (tmp_path / "hard.meta.json").write_text(
        '{"id": "hard", "paper_ref": "shape gap", "tags": [], "tolerance": "1e-8",'
        ' "strategy": "reduction", "battery": [{"s": "3/2", "x": "1", "b": "1/2"}]}\n')
    monkeypatch.setenv("DPL_IDENTITY_DIR", str(tmp_path))
    code, _, err = run(capsys, "verify", "--id", "hard", "--strategy", "reduction")
    assert code == 3
    assert "evaluation error" in err


def test_verify_example_n3_at_30_digits(capsys):
    code, out, _ = run(capsys, "verify", "--id", "example-n3", "--digits", "30")
    assert code == 0 and "[pass]" in out


def test_sweep_congruence_battery(capsys):
    code, _, err = run(capsys, "sweep", "--id", "thm-4.1", "--N", "1,3",
                       "--k", "1", "--x", "1,0.5")
    assert code == 0
    assert "4/4 pass" in err
