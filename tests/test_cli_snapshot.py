"""Byte-for-byte CLI snapshot: exit code, stdout and stderr of a fixed call
list on the bundled examples, compared with tests/cli_snapshot.json.

Refactors promise identical CLI output; this test holds them to it.  After
a deliberate output change, rewrite the golden with

    PYTHONPATH=src python tests/test_cli_snapshot.py

and review its diff.
"""

import contextlib
import io
import itertools
import json
import pathlib
from importlib import resources

import pytest

from tauseq import cli

GOLDEN = pathlib.Path(__file__).resolve().parent / "cli_snapshot.json"
DATA = resources.files("tauseq").joinpath("data")
FORMATS = ("table", "tsv", "json")
# (fixture names, vertex count) of each bundled example
EXAMPLES = {"1": (["P1", "P2", "S1"], 2),
            "2": (["S1", "S2", "P1", "P2", "I1"], 2),
            "3": (["S1", "S2", "S3", "P1", "P2", "M", "N", "I2", "I3"], 3)}
# psi objects and phi sequences, one per format
PSI = {"1": ["P1,P2", "P1[1],P2", "S1"],
       "2": ["P1,P2", "S1,P1", "P2[1]"],
       "3": ["M,I2,P1", "P1,M,I2", "M,P1,I2"]}
PHI = {"1": ["S1,P2", "S1[1],P2", "P2[1],S1"],
       "2": ["S2[1],P1", "S1,P2", "P2"],
       "3": ["S2[1],S3[1],P1", "P1,M,I2", "S2[1],P1"]}


def _tokens(ex):
    names, n = EXAMPLES[ex]
    return names + [f"P{v}[1]" for v in range(1, n + 1)]


def _calls():
    """{group: [argv]}; argv name files as {data}/exN.alg."""
    groups = {}
    for ex, (names, n) in EXAMPLES.items():
        files = ["--algebra", f"{{data}}/ex{ex}.alg",
                 "--fixtures", f"{{data}}/ex{ex}.mods"]
        toks = _tokens(ex)
        calls = []
        # every subcommand in every format, each format on other arguments
        for k, fmt in enumerate(FORMATS):
            f = [*files, "--format", fmt]
            name = names[(2 * k + 3) % len(names)]
            calls += [["info", *f], ["indec-tau-rigid", *f],
                      ["st-pairs", *f, *(["--ordered"] if k == 1 else []),
                       *(["--length", str(n - 1)] if k == 2 else [])],
                      ["count", "--length", str(n - k % n), *f,
                       *(["--last", toks[k - 1]] if k else [])],
                      ["reduce", "--object", toks[-1 - k], *f],
                      ["psi", "--object", PSI[ex][k], *f],
                      ["phi", "--sequence", PHI[ex][k], *f]]
            calls += [[cmd, "--module", name, *f]
                      for cmd in ("tau", "bongartz", "cobongartz",
                                  "correspond")]
        groups[f"ex{ex}"] = calls
    for ex in ("1", "2"):
        files = ["--algebra", f"{{data}}/ex{ex}.alg",
                 "--fixtures", f"{{data}}/ex{ex}.mods"]
        pairs = list(itertools.permutations(_tokens(ex), 2))
        groups[f"ex{ex}-psi-phi"] = (
            [["psi", "--object", ",".join(p), *files] for p in pairs] +
            [["phi", "--sequence", ",".join(p), *files] for p in pairs])
    groups["paper-example"] = [["paper-example", ex] for ex in EXAMPLES]
    files = ["--algebra", "{data}/ex2.alg", "--fixtures", "{data}/ex2.mods"]
    groups["errors"] = [
        ["info", "--algebra", "missing.alg"],
        ["tau", *files],
        ["count", *files, "--length", "2", "--cap", "0"],
        ["tau", *files, "--module", "nope"],
        ["bongartz", *files, "--module", "I1"],
        ["reduce", *files, "--object", "P1,P2"],
        ["psi", *files, "--object", "S1,S1"],
        ["count", *files, "--length", "3"],
        ["count", *files, "--length", "2", "--last", "M(9)"]]
    return groups


def _run(argv):
    argv = [a.replace("{data}", str(DATA)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "out": out.getvalue(),
            "err": err.getvalue().replace(str(DATA), "{data}")}


def _snapshot(group):
    return [{"argv": argv, **_run(argv)} for argv in _calls()[group]]


@pytest.mark.parametrize("group", sorted(_calls()))
def test_cli_output_matches_golden(group):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[group]
    got = _snapshot(group)
    assert [g["argv"] for g in got] == [w["argv"] for w in want]
    for g, w in zip(got, want):
        assert g == w, g["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({g: _snapshot(g) for g in sorted(_calls())},
                                 indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
