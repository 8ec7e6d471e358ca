import json
import subprocess
import sys

import pytest

from ringlab.cli import main

from test_core import NON_INTEGER_ENTRIES, with_entry


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def test_construct_writes_bit_exact_file(tmp_path, capsys):
    out = tmp_path / "m2z3.json"
    code, _, _ = run_cli("construct", "M(2,Zn(3))", "--out", str(out), capsys=capsys)
    assert code == 0
    first = out.read_bytes()
    d = json.loads(first)
    assert d["order"] == 81
    # construct -> load -> re-serialize is byte-identical
    code, _, _ = run_cli("construct", f'File("{out}")', "--out", str(out), capsys=capsys)
    assert code == 0
    assert out.read_bytes() == first


def test_construct_zn1(capsys):
    code, out, _ = run_cli("construct", "Zn(1)", capsys=capsys)
    assert code == 0
    assert json.loads(out)["order"] == 1


def test_construct_hst_order(tmp_path, capsys):
    out = tmp_path / "h.json"
    code, printed, _ = run_cli("construct", "Hst(Zn(4),s=1,t=3)", "--out", str(out),
                               capsys=capsys)
    assert code == 0
    assert json.loads(out.read_text())["order"] == 64
    assert "order 64" in printed


def test_construct_parse_error_exit_2(capsys):
    code, _, err = run_cli("construct", "Zn(", capsys=capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("field,row,col,value", NON_INTEGER_ENTRIES)
def test_non_integer_ring_json_exit_2(tmp_path, capsys, field, row, col, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(with_entry(field, row, col, value)))
    code, _, err = run_cli("construct", f'File("{path}")', capsys=capsys)
    assert code == 2
    assert err.startswith("error:") and "bad arguments" not in err
    assert "Traceback" not in err


def test_radical_delta_z4(capsys):
    code, out, _ = run_cli("radical", "Zn(4)", "--which", "delta", capsys=capsys)
    assert code == 0
    assert json.loads(out)["radicals"]["delta"] == [0, 2]


def test_radical_delta_m2z3_full_ring(capsys):
    code, out, _ = run_cli("radical", "M(2,Zn(3))", "--which", "delta", capsys=capsys)
    assert code == 0
    assert len(json.loads(out)["radicals"]["delta"]) == 81


def test_radical_jacobson_z2(capsys):
    code, out, _ = run_cli("radical", "Zn(2)", "--which", "jacobson", capsys=capsys)
    assert code == 0
    assert json.loads(out)["radicals"]["jacobson"] == [0]


def test_radical_all_characterizations(capsys):
    code, out, _ = run_cli("radical", "Zn(4)", "--all-characterizations", capsys=capsys)
    assert code == 0
    d = json.loads(out)
    assert d["agreement"] == "ok"
    assert d["characterizations"]["r1"] == [0, 2]
    assert d["characterizations"]["r2"] == [0, 2]


def test_radical_markdown(capsys):
    code, out, _ = run_cli("radical", "Zn(4)", "--which", "delta",
                           "--format", "markdown", capsys=capsys)
    assert code == 0
    assert "- delta: [0, 2]" in out


def test_radical_unknown_which_exit_2(capsys):
    code, _, _ = run_cli("radical", "Zn(4)", "--which", "nope", capsys=capsys)
    assert code == 2


def test_check_m2z3(capsys):
    code, out, _ = run_cli("check", "M(2,Zn(3))", "--props",
                           "delta-reversible,j-reversible", capsys=capsys)
    assert code == 1  # one predicate fails
    d = json.loads(out)
    assert d["results"]["delta-reversible"]["verdict"] is True
    assert d["results"]["j-reversible"]["verdict"] is False
    assert d["results"]["j-reversible"]["witness"]


def test_check_all_true_exit_0(capsys):
    code, out, _ = run_cli("check", "Zn(6)", "--props", "reversible,abelian",
                           capsys=capsys)
    assert code == 0


def test_check_unknown_predicate_exit_2(capsys):
    code, _, _ = run_cli("check", "Zn(4)", "--props", "bogus", capsys=capsys)
    assert code == 2


def test_hunt_small_corpus(capsys):
    code, out, _ = run_cli("hunt", "--implies", "delta-reversible => j-reversible",
                           "--corpus", "Zn(6); M(2,Zn(3))", capsys=capsys)
    assert code == 1
    d = json.loads(out)
    assert d["counterexamples"][0]["ring"] == "M2(Z3)"


def test_hunt_nothing_found_exit_0(capsys):
    code, out, _ = run_cli("hunt", "--implies", "reversible => delta-reversible",
                           "--corpus", "Zn(6); Zn(4)", capsys=capsys)
    assert code == 0
    assert json.loads(out)["counterexamples"] == []


def test_hunt_malformed_implication_exit_2(capsys):
    code, _, _ = run_cli("hunt", "--implies", "reversible", "--corpus", "Zn(4)",
                         capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("expr", ["Quot(Zn(4),gens=[-1])", "Quot(Zn(4),gens=[7])",
                                  "Ks(Zn(3),s=-1)", "Corner(Zn(4),e=9)"])
def test_out_of_range_element_parameter_exit_2(capsys, expr):
    code, out, err = run_cli("radical", expr, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "is not an element of" in err
    assert "bad arguments" not in err and "Traceback" not in err


def test_enumerate_order_4(capsys):
    code, out, _ = run_cli("enumerate", "--order", "4", "--up-to-iso", capsys=capsys)
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) == 4
    for ln in lines:
        assert json.loads(ln)["order"] == 4


def test_enumerate_too_big_exit_2(capsys):
    code, _, _ = run_cli("enumerate", "--order", "9", capsys=capsys)
    assert code == 2


def test_suite_small_corpus_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_cli("suite", "--corpus", "Zn(4); Zn(6)", "--out", str(out),
                         capsys=capsys)
    assert code == 0
    d = json.loads(out.read_text())
    assert d["corpus_size"] == 2
    assert all(c["verdict"] == "PASS" for c in d["cases"])


def test_suite_markdown_output(tmp_path, capsys):
    out = tmp_path / "report.md"
    code, _, _ = run_cli("suite", "--corpus", "Zn(4)", "--format", "markdown",
                         "--out", str(out), capsys=capsys)
    assert code == 0
    assert "# Theorem suite report" in out.read_text()


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_installed_entry_point():
    proc = subprocess.run([sys.executable, "-m", "ringlab.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ringlab" in proc.stdout


def test_env_var_corpus(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RINGLAB_CORPUS", "Zn(4)")
    out = tmp_path / "report.json"
    code, _, _ = run_cli("suite", "--out", str(out), capsys=capsys)
    assert code == 0
    assert json.loads(out.read_text())["corpus_size"] == 1
