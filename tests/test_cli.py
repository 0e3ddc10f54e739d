"""End-to-end checks of the command line front end via cli.main."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauseq import cli
from tauseq.sequences import enumerate_ordered

DATA = resources.files("tauseq").joinpath("data")

KRONECKER = """\
field 32003
vertex 1
vertex 2
arrow a 1 2
arrow b 1 2
"""


def _args(example, *rest):
    return ["--algebra", str(DATA / f"ex{example}.alg"),
            "--fixtures", str(DATA / f"ex{example}.mods"), *rest]


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_info_table(capsys):
    code, out, err = run(capsys, ["info", *_args("1")])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("key")
    assert set(lines[1]) == {"-", " "}
    assert any(l.startswith("field") and "32003" in l for l in lines)
    assert any(l.startswith("invariants") for l in lines)


def test_exit_code_unreadable_file(capsys, tmp_path):
    code, out, err = run(capsys, ["info", "--algebra",
                                  str(tmp_path / "missing.alg")])
    assert code == 1 and out == "" and err.startswith("error:")


def test_exit_code_usage(capsys):
    code, out, err = run(capsys, ["tau", *_args("1")])  # missing --module
    assert code == 1 and err.startswith("error:")
    code, out, err = run(capsys, ["st-pairs", *_args("1"), "--cap", "0"])
    assert code == 1


@pytest.mark.parametrize("body", [
    "module S1\ndims 1:x\n",
    "module S1\ndims 1:-1\n",
    "module P1\ndims 1:2 2:1\narrow a = [[1, 2], [1]]\n",
    "module P1\ndims 1:1 2:1\narrow a = [[1.5]]\n",
], ids=["dims-not-integer", "dims-negative", "ragged-arrow-matrix",
        "float-arrow-entry"])
def test_exit_code_malformed_module_file(capsys, tmp_path, body):
    path = tmp_path / "bad.mods"
    path.write_text(body, encoding="utf-8")
    code, out, err = run(capsys, ["tau", "--algebra", str(DATA / "ex1.alg"),
                                  "--fixtures", str(path), "--module", "S1"])
    assert code == 1 and out == "" and err.startswith("error: line ")


def test_exit_code_unknown_name(capsys):
    code, out, err = run(capsys, ["tau", *_args("1"), "--module", "Z9"])
    assert code == 2 and err.startswith("error:")


# the loop x0 lies on no relation, so the path basis is infinite
CYCLIC = """\
field 32003
vertex 1
vertex 2
vertex 3
arrow x0 3 3
arrow x1 2 3
arrow x2 3 1
arrow x3 2 2
arrow x4 3 2
rel x4 x1 x2
rel x1 x2
rel x1 x2
rel x1 x4 x3
rel x0 x4 x1
rel x3 x3
"""


def test_infinite_path_basis_exits_1_without_hanging(tmp_path):
    # in a child with a timeout, so that a search that does not stop fails
    path = tmp_path / "cyclic.alg"
    path.write_text(CYCLIC)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys; from tauseq import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, "info", "--algebra",
                           str(path)], capture_output=True, text=True,
                          env=env, timeout=20)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: path basis is infinite: relations are not "
                           "admissible\n")


def test_exit_code_cap_exceeded(capsys, tmp_path):
    path = tmp_path / "kron.alg"
    path.write_text(KRONECKER, encoding="utf-8")
    code, out, err = run(capsys, ["st-pairs", "--algebra", str(path),
                                  "--cap", "12"])
    assert code == 3 and "more than 12" in err


def test_tau_json(capsys):
    code, out, err = run(capsys, ["tau", *_args("2"), "--module", "S1",
                                  "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"]["name"] == "S2"
    assert payload["tau"]["dims"] == [0, 1]
    assert set(payload["module"]) == {"name", "dims", "shift"}


def test_indec_tau_rigid_formats(capsys):
    code, table, _ = run(capsys, ["indec-tau-rigid", *_args("3")])
    assert code == 0
    assert table.splitlines()[0].startswith("object")
    code, tsv, _ = run(capsys, ["indec-tau-rigid", *_args("3"),
                                "--format", "tsv"])
    lines = tsv.splitlines()
    assert len(lines) == 12  # header + 11 items
    assert all(l.count("\t") == 2 for l in lines)
    code, raw, _ = run(capsys, ["indec-tau-rigid", *_args("3"),
                                "--format", "json"])
    payload = json.loads(raw)
    assert len(payload) == 11
    assert sum(1 for e in payload if e["shift"]) == 3


def test_st_pairs_counts(capsys):
    code, out, _ = run(capsys, ["st-pairs", *_args("2"), "--format", "json"])
    payload = json.loads(out)
    assert code == 0 and payload["total"] == 6
    code, out, _ = run(capsys, ["st-pairs", *_args("2"), "--ordered",
                                "--format", "json"])
    assert json.loads(out)["total"] == 12
    for length in ("0", "4"):
        for ordered in ([], ["--ordered"]):
            code, out, err = run(capsys, ["st-pairs", *_args("3"), *ordered,
                                          "--length", length])
            assert code == 2 and out == ""
            assert err == f"error: length {length} is outside 1..3\n"


def test_bongartz_and_correspond(capsys):
    code, out, _ = run(capsys, ["bongartz", *_args("3"), "--module", "S2",
                                "--format", "json"])
    payload = json.loads(out)
    assert code == 0
    assert sorted(e["name"] for e in payload["complement"]) == ["N", "P2"]
    code, out, _ = run(capsys, ["correspond", *_args("1"), "--module", "P1"])
    assert code == 0
    row = out.splitlines()[2].split()
    assert row[0] == "P2" and row[1] == "a"


def test_reduce_output(capsys):
    code, out, _ = run(capsys, ["reduce", *_args("3"), "--object", "P1"])
    assert code == 0
    assert out.splitlines()[0].startswith("reduced algebra: vertices=2")
    assert any("S3[1]" in l and l.startswith("I2") for l in out.splitlines())


@pytest.mark.parametrize("obj", ["P1", "P1[1]"])
def test_reduce_on_one_vertex_leaves_the_zero_algebra(capsys, tmp_path, obj):
    # both reducer kinds remove the only vertex: Gamma would have no vertex
    path = tmp_path / "k.alg"
    path.write_text("field 32003\nvertex 1\n", encoding="utf-8")
    got = run(capsys, ["reduce", "--algebra", str(path), "--object", obj])
    assert got == (2, "", "error: quotient is the zero algebra\n")


def test_out_of_memory_exits_3(capsys, monkeypatch):
    # a numpy MemoryError deep in enumeration is reported, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli.red, "root_context", exhausted)
    code, out, err = run(capsys, ["indec-tau-rigid", *_args("1")])
    assert code == 3 and out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_psi_phi_worked_row(capsys):
    code, out, _ = run(capsys, ["psi", *_args("3"), "--object", "M,I2,P1"])
    assert code == 0 and out == "S2[1], S3[1], P1\n"
    code, out, _ = run(capsys, ["phi", *_args("3"),
                                "--sequence", "S2[1],S3[1],P1"])
    assert code == 0 and out == "M, I2, P1\n"


def test_psi_rejects_bad_object(capsys):
    code, out, err = run(capsys, ["psi", *_args("3"), "--object", "S2,S3"])
    assert code == 2 and err.startswith("error:")


@pytest.mark.parametrize("command,flag,text", [
    ("psi", "--object", "S1,,S2"), ("psi", "--object", "M,I2,"),
    ("phi", "--sequence", "S1,,S2"), ("phi", "--sequence", ",S2[1],P1"),
    ("reduce", "--object", "P1,"), ("reduce", "--object", " ,P1")])
def test_empty_tokens_are_refused(capsys, command, flag, text):
    # a list with an empty entry is malformed input (exit 1), not a
    # shorter list
    what = flag[2:]
    code, out, err = run(capsys, [command, *_args("3"), flag, text])
    assert code == 1 and out == ""
    assert err == f"error: empty entry in {what} string\n"


def test_dimension_vector_names_survive_comma_lists(capsys):
    # with no fixture file ex3 names two modules by dimension vector; psi,
    # phi and reduce read them whole, commas included, and phi inverts psi
    # on every ordered object naming one (handlers on one workspace, as
    # the CLI enumerates afresh on each call)
    ex3 = ["--algebra", str(DATA / "ex3.alg")]
    code, out, err = run(capsys, ["psi", *ex3, "--object", "M(1,0,1),P1"])
    assert code == 0 and out == "P2[1], P1\n"
    code, out, err = run(capsys, ["reduce", *ex3, "--object", "M(1,0,1)"])
    assert code == 0 and err == ""
    assert out.startswith("reduced algebra: vertices=2")
    parse = cli.build_parser().parse_args
    ws = cli._load_workspace(parse(["info", *ex3]))
    objs = [[ws.root.registry.display_item(it) for it in tup]
            for t in (1, 2, 3)
            for tup in enumerate_ordered(ws.root, t)]
    objs = [obj for obj in objs if "M(" in ",".join(obj)]
    assert len(objs) == 74
    for obj in objs:
        out = cli.cmd_psi(ws, parse(["psi", *ex3, "--object", ",".join(obj)]))
        back = cli.cmd_phi(ws, parse(["phi", *ex3, "--sequence",
                                      out.strip().replace(", ", ",")]))
        assert back == ", ".join(obj) + "\n"


@pytest.mark.parametrize("command,flag", [
    ("psi", "--object"), ("phi", "--sequence"), ("reduce", "--object")])
def test_blank_lists_are_refused(capsys, command, flag):
    for text in ("", " ", ","):
        code, out, err = run(capsys, [command, *_args("3"), flag, text])
        assert code == 1 and out == ""
        assert err == f"error: empty {flag[2:]} string\n"


def test_count_totals(capsys):
    code, out, _ = run(capsys, ["count", *_args("3"), "--length", "3"])
    assert code == 0 and out == "108\n"
    code, out, _ = run(capsys, ["count", *_args("3"), "--length", "3",
                                "--last", "I2"])
    assert code == 0 and out == "12\n"
    code, out, _ = run(capsys, ["count", *_args("3"), "--length", "3",
                                "--format", "json"])
    payload = json.loads(out)
    assert payload["total"] == 108
    assert payload["per_last"]["N"] == 8


@pytest.mark.parametrize("field,code,out,err", [
    (65521, 0, "108\n", ""),
    (1000000000039, 2, "", "error: field order 1000000000039 is not below "
     "2^16, the bound for exact int64 arithmetic\n"),
    (15, 2, "", "error: field order 15 is not prime\n"),
])
def test_field_order_bound(capsys, tmp_path, field, code, out, err):
    # the largest prime below 2^16 still counts ex3 exactly; a larger field
    # is refused like a composite one instead of overflowing int64
    text = (DATA / "ex3.alg").read_text(encoding="utf-8")
    path = tmp_path / "ex3.alg"
    path.write_text(text.replace("field 32003", f"field {field}"),
                    encoding="utf-8")
    got = run(capsys, ["count", "--algebra", str(path), "--length", "3"])
    assert got == (code, out, err)


def test_parser_is_built_once(capsys):
    assert cli.build_parser() is cli.build_parser()
    first = run(capsys, ["count", *_args("1"), "--length", "7"])
    assert run(capsys, ["count", *_args("1"), "--length", "2"]) == (
        0, "10\n", "")
    assert run(capsys, ["count", *_args("1"), "--length", "7"]) == first


def test_paper_example_table(capsys):
    code, out, _ = run(capsys, ["paper-example", "1"])
    assert code == 0
    assert "5 unordered, 10 ordered" in out.splitlines()[0]
    body = "".join(out.split())  # ignore column padding
    assert "S1,P1P2[1],P1" in body
    assert "P1[1],P2S1[1],P2" in body


def test_paper_example_3_sections(capsys):
    code, out, _ = run(capsys, ["paper-example", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["unordered"] == 18 and payload["ordered"] == 108
    assert sorted(payload["j_membership"]["N"]) == ["M", "P2"]
    assert payload["gamma_invariants"]["I2"] == [2, 5, 2]
    assert payload["worked"]["M,I2,P1"] == "S2[1],S3[1],P1"
    assert payload["worked"]["M,P1,I2"] == "S2[1],P1,I2"


def test_paper_example_deterministic(capsys):
    first = run(capsys, ["paper-example", "3"])
    second = run(capsys, ["paper-example", "3"])
    assert first == second and first[0] == 0


# the fuzz test's input files: a field line, one to three vertices, arrows
# and relations from these lists on those vertices, and one or two module
# blocks, with up to two broken lines inserted in each file.  The arrows can
# make the path basis infinite (the 2-cycle a d and the loop e without
# their relations) or the algebra tau-tilting infinite (the parallel arrows
# a and f, the triangle a b c)
ARROWS = [("a", 1, 2), ("b", 2, 3), ("c", 1, 3), ("d", 2, 1), ("e", 1, 1),
          ("f", 1, 2)]
RELATIONS = ["a b", "b d", "d a", "a d", "e e", "a b d"]
BROKEN_ALGEBRA = ["field 7", "field 6", "field x", "field 65537", "field",
                  "vertex 1 2", "vertex", "arrow a 2 3", "arrow g 1 4",
                  "arrow h 1", "rel c", "rel a z", "bogus line", "# comment"]
DIMS = [(1, "1:1"), (1, "1:0"), (2, "1:1 2:1"), (2, "1:2 2:2"),
        (3, "2:1 3:1"), (3, "1:1 2:1 3:1")]
MODULE_ARROWS = ["a = [[1]]", "a = [[1], [0]]", "a = [[1, 0], [0, 1]]",
                 "b = [[1]]", "c = [[2]]", "d = [[1]]", "e = [[0]]",
                 "f = [[0, 1], [1, 0]]"]
BROKEN_MODULE = ["module M", "module", "dims 1:x", "dims 4:1", "dims 1:-1",
                 "dims 11", "arrow a [[1]]", "arrow z = [[1]]",
                 "arrow a = [[", "arrow a = 5", "arrow a = [[1, 2]]"]
FUZZ_COMMANDS = [["info"], ["tau", "--module", "M"], ["indec-tau-rigid"],
                 ["count", "--length", "1"], ["bongartz", "--module", "M"]]


def _some(draw, pool, most):
    return draw(st.lists(st.sampled_from(pool), max_size=most,
                         unique=True)) if pool else []


@st.composite
def fuzz_files(draw):
    """(algebra text, module text) for the fuzz test."""
    n = draw(st.integers(1, 3))
    arrows = _some(draw, [a for a in ARROWS if max(a[1:]) <= n], 4)
    names = {a for a, _, _ in arrows}
    alg = ["field 32003"] + [f"vertex {v}" for v in range(1, n + 1)]
    alg += [f"arrow {a} {s} {t}" for a, s, t in arrows]
    alg += ["rel " + r for r in _some(draw, [
        r for r in RELATIONS if names.issuperset(r.split())], 3)]
    mods = []
    for name in ("M", "N")[:draw(st.integers(1, 2))]:
        mods += [f"module {name}", "dims " + draw(st.sampled_from(
            [d for top, d in DIMS if top <= n]))]
        mods += ["arrow " + a for a in _some(draw, [
            a for a in MODULE_ARROWS if a[0] in names], 2)]
    for lines, broken in ((alg, BROKEN_ALGEBRA), (mods, BROKEN_MODULE)):
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(broken)))
    return "\n".join(alg) + "\n", "\n".join(mods) + "\n"


@settings(max_examples=150, deadline=None)
@given(fuzz_files(), st.sampled_from(FUZZ_COMMANDS))
def test_cli_survives_fuzzed_input_files(files, command):
    # every input ends in an exit code 0-3 with no traceback: an error is
    # one stderr line and prints nothing on stdout
    with tempfile.TemporaryDirectory() as tmp:
        paths = [pathlib.Path(tmp, name) for name in ("a.alg", "a.mods")]
        for path, text in zip(paths, files):
            path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*command, "--algebra", str(paths[0]),
                             "--fixtures", str(paths[1]), "--cap", "30"])
    assert code in (0, 1, 2, 3)
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
