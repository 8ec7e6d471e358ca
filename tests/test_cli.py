import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ringlab import core, ideals
from ringlab.cli import _parser, main
from ringlab.constructions import construct, enumerate_unital_rings

from test_core import BAD_LABELS, BAD_NAMES, NON_INTEGER_ENTRIES, Z2_JSON, with_entry


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


def test_lattice_cap_bounds_only_lattice_routes(capsys, monkeypatch):
    # Zn(4) has 3 right ideals: the lattice-free delta ignores a cap of 2,
    # the lattice routes of --all-characterizations stop at it
    construct("Zn(4)").cache.clear()
    monkeypatch.setattr(ideals, "LATTICE_CAP", 2)
    code, out, _ = run_cli("radical", "Zn(4)", "--which", "delta", capsys=capsys)
    assert code == 0 and json.loads(out)["radicals"]["delta"] == [0, 2]
    code, _, err = run_cli("radical", "Zn(4)", "--which", "delta",
                           "--all-characterizations", capsys=capsys)
    assert code == 2 and "more than 2 right ideals" in err


def test_construct_parse_error_exit_2(capsys):
    code, _, err = run_cli("construct", "Zn(", capsys=capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [("construct", "Zn(\u00b2)"),
                                  ("radical", "Corner(Zn(4),e=\u00b9)"),
                                  ("construct", "Zn(\u0663)")])
def test_non_ascii_digit_is_a_parse_error_exit_2(capsys, argv):
    # str.isdigit takes these for digits; integers in an expression are ASCII
    code, out, err = run_cli(*argv, capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "position" in err


@pytest.mark.parametrize("field,row,col,value", NON_INTEGER_ENTRIES)
def test_non_integer_ring_json_exit_2(tmp_path, capsys, field, row, col, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(with_entry(field, row, col, value)))
    code, _, err = run_cli("construct", f'File("{path}")', capsys=capsys)
    assert code == 2
    assert err.startswith("error:") and "bad arguments" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("labels", BAD_LABELS)
def test_bad_labels_ring_json_exit_2(tmp_path, capsys, labels):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(Z2_JSON, labels=labels)))
    code, out, err = run_cli("construct", f'File("{path}")', capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("name", BAD_NAMES)
def test_non_string_ring_name_exit_2(tmp_path, capsys, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(Z2_JSON, name=name)))
    code, out, err = run_cli("radical", f'File("{path}")', capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "name must be a string" in err


@pytest.mark.parametrize("argv", [("radical", 'File("{d}")'),
                                  ("suite", "--corpus", "@{d}"),
                                  ("suite", "--corpus", "@{d}/latin1.txt"),
                                  ("construct", "Zn(2)", "--out", "{d}")])
def test_unreadable_path_exit_2(tmp_path, capsys, argv):
    # a directory where a file is read or written, or a corpus file not in UTF-8
    (tmp_path / "latin1.txt").write_bytes("Zn(4); Zn(\xe9)".encode("latin-1"))
    code, out, err = run_cli(*(a.format(d=tmp_path) for a in argv), capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


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


def test_check_above_the_armendariz_cap_exit_2(capsys):
    code, out, err = run_cli("check", "M(2,Zn(4))", "--props", "delta-linear-armendariz",
                             capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: M2(Z4): order 256 exceeds Armendariz cap 128\n"


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


@pytest.mark.parametrize("expr", ["Zn(4,5)", "K0(Zn(2),s=1)", "Corner(Zn(4),e=1,x=2)",
                                  "Zn('4')", "Hst(Zn(3),s=1,t=1,s=2)", "File(0)", "Prod()",
                                  "Quot(Zn(4),gens=2)", "Corner(Zn(4),e=[1])", "Ks(Zn(2))",
                                  "M(Zn(2),2)", "Tri(Zn(2))"])
def test_arguments_a_constructor_would_ignore_exit_2(capsys, expr):
    # a surplus argument, a wrong kind, an unknown, missing or repeated keyword;
    # File(0) would read file descriptor 0, stdin
    code, out, err = run_cli("radical", expr, "--which", "delta", capsys=capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "position" in err


def test_zn_obeys_the_size_cap_exit_2(capsys, monkeypatch):
    code, out, err = run_cli("construct", "M(2,Zn(9))", capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: M2(Z9): order 6561 exceeds size cap 4096\n"
    monkeypatch.setattr(core, "SIZE_CAP", 100)
    code, out, err = run_cli("construct", "Zn(300)", capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: Z300: order 300 exceeds size cap 100\n"


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
    code, out, err = run_cli("enumerate", "--order", "9", capsys=capsys)
    assert code == 2 and out == ""
    assert err == "error: enumeration is capped at order 8, got 9\n"


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


def test_env_var_corpus(monkeypatch):
    # only --corpus picks the corpus; the environment does not
    monkeypatch.setenv("RINGLAB_CORPUS", "Zn(4)")
    assert _parser().parse_args(["suite"]).corpus == "default"


# ---------------------------------------------------------------------------
# each subcommand takes exactly the options its command reads

OPTIONS = {
    "construct": ["--out"],
    "radical": ["--out", "--format", "--which", "--all-characterizations"],
    "check": ["--out", "--format", "--props"],
    "suite": ["--out", "--format", "-v", "--corpus", "--jobs"],
    "hunt": ["--implies", "--corpus", "--all", "--out"],
    "enumerate": ["--order", "--up-to-iso", "--out"],
}


def _subparsers() -> dict:
    action = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _declared(command: str) -> list:
    return [a for a in _subparsers()[command]._actions if a.dest != "help"]


def test_option_slots():
    assert list(_subparsers()) == list(OPTIONS)
    for command, flags in OPTIONS.items():
        assert [a.option_strings[0] for a in _declared(command) if a.option_strings] == flags


class ReadRecorder(argparse.Namespace):
    """A namespace that records every attribute read once `reads` is a set."""
    reads = None

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "reads")
        if reads is not None:
            reads.add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("argv", [
    ["construct", "Zn(2)", "--out", "{d}/z2.json"],
    ["radical", "Zn(4)", "--all-characterizations", "--format", "markdown"],
    ["check", "Zn(4)", "--props", "reversible"],
    ["suite", "--corpus", "Zn(4)", "-v", "--out", "{d}/report.json"],
    ["hunt", "--implies", "reversible => delta-reversible", "--corpus", "Zn(4)"],
    ["enumerate", "--order", "2"],
])
def test_every_declared_option_is_read(tmp_path, capsys, argv):
    args = _parser().parse_args([a.format(d=tmp_path) for a in argv], namespace=ReadRecorder())
    args.reads = set()
    assert args.fn(args) == 0
    declared = {a.dest for a in _declared(argv[0])}
    # suite --jobs is kept for old scripts and does nothing
    assert declared - args.reads == ({"jobs"} if argv[0] == "suite" else set())


@pytest.mark.parametrize("argv", [
    ["construct", "Zn(2)", "--format", "markdown"],
    ["radical", "Zn(4)", "--armendariz-cap", "1"],
    ["check", "Zn(4)", "--quantifier-cap", "1"],
    ["hunt", "--implies", "reversible => abelian", "--corpus", "Zn(4)", "-v"],
    ["enumerate", "--order", "4", "--size-cap", "2"],
    ["radical", "Zn(4)", "--quantifier-cap", "1"],
    ["suite", "--corpus", "Zn(4)", "--quantifier-cap", "1"],
    ["radical", "Zn(4)", "--lattice-cap", "2"],
    ["check", "Zn(4)", "--lattice-cap", "2"],
    ["suite", "--corpus", "Zn(4)", "--lattice-cap", "2"],
    ["hunt", "--implies", "reversible => abelian", "--corpus", "Zn(4)", "--lattice-cap", "2"],
    ["construct", "Zn(4)", "--size-cap", "100"],
    ["radical", "Zn(4)", "--size-cap", "100"],
    ["check", "Zn(4)", "--size-cap", "100"],
    ["suite", "--corpus", "Zn(4)", "--size-cap", "100"],
    ["hunt", "--implies", "reversible => abelian", "--corpus", "Zn(4)", "--size-cap", "100"],
    ["check", "Zn(4)", "--props", "reversible", "--armendariz-cap", "1"],
    ["suite", "--corpus", "Zn(4)", "--armendariz-cap", "1"],
    ["hunt", "--implies", "reversible => abelian", "--corpus", "Zn(4)", "--armendariz-cap", "1"],
])
def test_a_removed_option_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _workloads():
    """perfbench/workloads.py, loaded read-only as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _benchmark_argvs() -> list:
    """Every argv shape that perfbench/workloads.py passes to the CLI."""
    workloads = _workloads()
    argvs = [workloads.SUITE_ARGV]
    for _, _, exprs in workloads.QUERY_STRATA:
        argvs += workloads.query_argvs(exprs[0])
    return argvs + [["construct", expr] for expr in workloads.ROUNDTRIP_SET]


@pytest.mark.parametrize("argv", _benchmark_argvs())
def test_benchmark_argv_parses(argv):
    # a usage error raises SystemExit, which is not an Exception: it would
    # kill a benchmark worker instead of failing one operation
    try:
        _parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"{argv} is a usage error (exit {exc.code})")


def test_benchmark_enumerated_rings_exist():
    # the benchmark worker's set-up writes these rings for File(...) queries
    # and exits 2, outside any per-operation guard, if one is missing
    workloads = _workloads()
    names = {ring.name for order in workloads.ENUM_ORDERS
             for ring in enumerate_unital_rings(order, up_to_iso=True)}
    assert set(workloads.ENUM_RINGS) <= names
