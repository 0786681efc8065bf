import json
import os
import random
import shlex
import subprocess
import sys

import pytest

from multired import cli
from multired import harness
from multired import reduction as red
from multired.cli import (
    EXIT_COUNTEREXAMPLE, EXIT_INCONCLUSIVE, EXIT_OK, EXIT_USAGE, build_parser, dispatch, main,
)
from multired.monoid import MonoidContext
from multired.multifraction import format_multifraction, parse_multifraction
from multired.presentation import preset
from overflows import overflow_left_moves


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_preset_list(capsys):
    code, out = run(capsys, "preset", "list")
    assert code == EXIT_OK and "A2tilde" in out


def test_preset_show(capsys):
    code, out = run(capsys, "preset", "show", "braid(3)")
    assert code == EXIT_OK and "rel: aba = bab" in out


def test_reduce(capsys):
    code, out = run(capsys, "reduce", "--preset", "A2tilde", "ac/ca/ba/ab/cb/bc")
    assert code == EXIT_OK
    assert out.strip().endswith("1/1/1/1/1/1")


def test_reduce_json_deterministic(capsys):
    code, out1 = run(capsys, "reduce", "--preset", "A2tilde", "--format", "json", "1/c/aba")
    _, out2 = run(capsys, "reduce", "--preset", "A2tilde", "--format", "json", "1/c/aba")
    assert code == EXIT_OK and out1 == out2
    payload = json.loads(out1)
    assert payload["end"] in ("ac/ca/ba", "bc/cb/ab")
    # a move's kind is spelled by its side
    assert [m["kind"] for m in payload["moves"]] == ["left"] * payload["steps"] == ["left"]
    _, out = run(capsys, "rreduce", "--preset", "A2tilde", "--format", "json", "ac/aca/aba/ab")
    moves = json.loads(out)["moves"]
    assert moves and {m["kind"] for m in moves} == {"right"}


def test_rreduce_derdiv_redtame_irr(capsys):
    code, out = run(capsys, "derdiv", "--preset", "A2tilde", "ab/aba/aca")
    assert code == EXIT_OK and out.strip() == "ab/ba/ca"
    code, out = run(capsys, "redtame", "--preset", "A2tilde", "ac/aca/aba")
    assert code == EXIT_OK and out.strip() == "1/c/aba"
    code, out = run(capsys, "irr", "--preset", "A2tilde", "1/c/aba")
    assert code == EXIT_OK and out.split() == ["ac/ca/ba", "bc/cb/ab"]
    code, out = run(capsys, "rreduce", "--preset", "A2tilde", "a/a")
    assert code == EXIT_OK and out.strip().endswith("1/1")


def test_derdiv_deep_common_divisor(capsys):
    # the two entries share a suffix of 1,401 letters, which divides out
    w = "ab" * 700
    assert main(["derdiv", "--preset", "free(2)", f"a{w}/b{w}"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "a/b"


def test_graph_dot(capsys):
    code, out = run(capsys, "graph", "--preset", "A2tilde", "--dot", "1/c/aba")
    assert code == EXIT_OK
    assert out.startswith("digraph") and "R(2,a)" in out
    # a move that is both a left and a right reduction is drawn as a division
    code, out = run(capsys, "graph", "--preset", "A2tilde", "--dot", "a/a")
    assert code == EXIT_OK
    assert out.splitlines()[-2] == '  n0 -> n1 [label="D(1,a)"];'


def test_basics(capsys):
    code, out = run(capsys, "basics", "--preset", "A2tilde")
    assert code == EXIT_OK and len(out.split()) == 10
    code, out = run(capsys, "basics", "--preset", "K(4,3)", "--format", "json")
    assert json.loads(out)["count"] == 17


def test_basics_cap_overflow_inconclusive(capsys, monkeypatch):
    # A2tilde has 10 basic elements: a closure past basics_cap is
    # inconclusive, exit 2, and a cap that holds them all lists them
    monkeypatch.setenv("MULTIRED_CAPS", "basics_cap=3")
    assert main(["basics", "--preset", "A2tilde"]) == EXIT_INCONCLUSIVE
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "inconclusive: basic-element closure exceeds basics_cap=3; finiteness not witnessed\n"
    )
    monkeypatch.setenv("MULTIRED_CAPS", "basics_cap=10")
    assert main(["basics", "--preset", "A2tilde"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert len(out.split()) == 10 and err == ""


def test_nested_reversal_past_basics_cap_inconclusive(capsys, monkeypatch):
    # a nested reversal reverses two basic elements, so basics_cap is its
    # guard: A2tilde's nested cells have 2-letter words, which basics_cap=1
    # refuses, and a reduction that needs one is inconclusive, exit 2
    monkeypatch.setenv("MULTIRED_CAPS", "basics_cap=1")
    assert main(["reduce", "--preset", "A2tilde", "ac/ca/ba/ab/cb/bc"]) == EXIT_INCONCLUSIVE
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "inconclusive: basic-element closure exceeds basics_cap=1; finiteness not witnessed\n"
    )


def test_wordproblem(capsys):
    code, out = run(capsys, "wordproblem", "--preset", "braid3", "a B")
    assert code == EXIT_OK and "nontrivial (unconditional)" in out
    code, out = run(capsys, "wordproblem", "--preset", "A2tilde", "acAC baBA cbCB")
    assert code == EXIT_OK and out.strip() == "trivial"


def test_conjecture_campaign(capsys, tmp_path):
    log = str(tmp_path / "trials.jsonl")
    code, out = run(
        capsys,
        "conjecture", "B", "--preset", "A2tilde", "--depth", "4",
        "--length", "14", "--trials", "5", "--seed", "3", "--log", log,
        "--format", "json",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["counts"] == {"confirmed": 5}
    lines = open(log).read().splitlines()
    assert len(lines) == 5
    assert all({"seed", "input", "verdict", "millis"} <= set(json.loads(l)) for l in lines)


def test_conjecture_log_parallel(capsys, tmp_path):
    def records(jobs):
        log = tmp_path / f"trials{jobs}.jsonl"
        code, _ = run(
            capsys,
            "conjecture", "Cunif", "--preset", "A2tilde", "--depth", "3",
            "--length", "9", "--trials", "4", "--jobs", str(jobs), "--log", str(log),
        )
        assert code == EXIT_OK
        out = [json.loads(line) for line in log.read_text().splitlines()]
        for rec in out:
            del rec["millis"]
        return out

    serial = records(1)
    assert [rec["trial"] for rec in serial] == [0, 1, 2, 3]
    assert records(2) == serial


def test_threeore(capsys):
    code, out = run(capsys, "threeore", "--preset", "A2tilde", "--maxlen", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["violations"] == [["a", "b", "c"]]


def test_threeore_overflow_inconclusive(capsys, monkeypatch):
    # the cube check fits reversing_cap=6 and some lcms of the scan do not:
    # their triples are listed as inconclusive, and the scan exits 2
    monkeypatch.setenv("MULTIRED_CAPS", "reversing_cap=6")
    code, out = run(capsys, "threeore", "--preset", "A2tilde", "--maxlen", "2", "--format", "json")
    report = json.loads(out)
    assert code == EXIT_INCONCLUSIVE
    assert (len(report["violations"]), len(report["inconclusive"])) == (11, 18)
    assert report["inconclusive"][0] == ["b", "aa", "ab"]


def test_unknown_conjecture_lists_the_kinds(capsys):
    assert main(["conjecture", "X"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "invalid choice" in err
    assert err.split("choose from", 1)[1].translate(str.maketrans("", "", "',()")).split() == (
        list(harness.CONJECTURES)
    )


def test_cycleprobe(capsys):
    code, out = run(capsys, "cycleprobe", "--preset", "A2tilde")
    assert code == EXIT_OK and out.splitlines()[0] == "bacbac/a/bc/acbacb"


def test_vankampen(capsys):
    code, out = run(capsys, "vankampen", "--preset", "A2tilde", "--format", "json",
                    "ab/ba/ca/ac/bc/cb")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload["vertices"]) == 14


def test_presentation_file(capsys, tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text("atoms: x y\nrel: xyx = yxy\n")
    code, out = run(capsys, "basics", "--presentation-file", str(path))
    assert code == EXIT_OK and len(out.split()) == 5


def test_wordproblem_multiletter_atoms(capsys, tmp_path):
    # atoms with names longer than one letter are joined by "." within a token
    path = tmp_path / "pres.txt"
    path.write_text("atoms: x1 x2\nrel: x1.x2.x1 = x2.x1.x2\n")
    code, out = run(capsys, "wordproblem", "--presentation-file", str(path),
                    "x1.x2.x1 x2^-1.x1^-1.x2^-1")
    assert code == EXIT_OK and out.strip() == "trivial"


def test_campaign_counterexample_dumped(capsys, monkeypatch, tmp_path):
    # a counterexample halts the campaign at its trial, is dumped as a DOT
    # graph and a JSON record, the one printed, with no timing, and exits 1
    calls = []

    def tester(ctx, a, cert):
        calls.append(a)
        return harness.Verdict("counterexample" if len(calls) == 2 else "confirmed", {})

    monkeypatch.setattr(harness, "test_conjecture_B", tester)
    dump = tmp_path / "dump"
    code = main(["conjecture", "B", "--preset", "A2tilde", "--length", "8", "--trials", "5",
                 "--dump-dir", str(dump), "--format", "json"])
    assert code == EXIT_COUNTEREXAMPLE
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert payload["counts"] == {"confirmed": 1, "counterexample": 1}
    assert [rec["trial"] for rec in payload["records"]] == [0, 1]
    assert sorted(os.listdir(dump)) == ["counterexample_1.dot", "counterexample_1.json"]
    assert (dump / "counterexample_1.dot").read_text().startswith("digraph")
    record = json.loads((dump / "counterexample_1.json").read_text())
    assert record["verdict"] == "counterexample" and record["input"] == payload["counterexample"]["input"]
    assert record == payload["counterexample"]  # the printed, timing-free record
    assert err.startswith("counterexample dumped: ")
    # a reduct graph past its cap leaves the record, not the verdict, and
    # says why the DOT graph is missing
    calls.clear()
    capped = tmp_path / "capped"
    monkeypatch.setenv("MULTIRED_CAPS", "graph_node_cap=1")
    code = main(["conjecture", "B", "--preset", "A2tilde", "--length", "8", "--trials", "5",
                 "--dump-dir", str(capped), "--format", "json"])
    assert code == EXIT_COUNTEREXAMPLE
    out, err = capsys.readouterr()
    assert json.loads(out)["counts"] == {"confirmed": 1, "counterexample": 1}
    assert os.listdir(capped) == ["counterexample_1.json"]
    capped_record = json.loads((capped / "counterexample_1.json").read_text())
    assert (capped_record["trial"], capped_record["input"]) == (1, record["input"])
    assert err.splitlines() == [
        "counterexample graph not dumped: reduct graph exceeded 1 nodes",
        f"counterexample dumped: {[str(capped / 'counterexample_1.json')]}",
    ]


def test_cube_failure_refused_at_first_element(capsys, tmp_path):
    # ab = bc, bc = ca without ca = ab: a nonzero-weight word needs no lcm,
    # but its letters are canonicalised over the right table
    path = tmp_path / "pres.txt"
    path.write_text("atoms: a b c\nrel: ab = bc\nrel: bc = ca\n")
    assert main(["wordproblem", "--presentation-file", str(path), "a b"]) == EXIT_USAGE
    assert "cube condition fails on atoms (a, b, c)" in capsys.readouterr().err


def test_atom_named_1_refused(capsys, tmp_path):
    # derdiv would print 1b/b as 1/1, which reads back as the trivial
    # multifraction
    path = tmp_path / "pres.txt"
    path.write_text("atoms: 1 b\nrel: 1b1 = b1b\n")
    assert main(["derdiv", "--presentation-file", str(path), "1b/b"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "bad names: ['1']" in err


def test_more_atoms_than_code_points_refused(capsys, tmp_path):
    # a relation over an atom index past sys.maxunicode has no word to
    # spell it: a usage error, not a traceback
    n = sys.maxunicode + 2
    path = tmp_path / "pres.txt"
    path.write_text("atoms:" + " a" * n + "\nrel: aa = aa\n")
    assert main(["basics", "--presentation-file", str(path)]) == EXIT_USAGE
    assert f"atom_names: {n} atoms, at most {n - 1}" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("atoms: a b c\nrel: ab = bc\nrel: bc = ca\n", "cube condition fails on atoms (a, b, c)"),
    ("atoms: a b\nrel: ab = ab\n", "both sides of ab = ab start with a"),
])
def test_lattice_error_is_no_parse_error(capsys, tmp_path, text, message):
    # the presentation is at fault, not the multifraction: no position
    path = tmp_path / "pres.txt"
    path.write_text(text)
    assert main(["reduce", "--presentation-file", str(path), "a/b"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err and "position" not in err


@pytest.mark.parametrize("argv", [
    ["basics"], ["basics", "--side", "left"], ["threeore"], ["cycleprobe"],
    ["reduce", "a/b"], ["rreduce", "a/b"], ["derdiv", "a/b"], ["redtame", "a/b"],
    ["irr", "a/b"], ["graph", "a/b"], ["vankampen", "ab/ba/ab/ba"], ["wordproblem", "a B"],
    ["conjecture", "Cunif", "--trials", "1"], ["reduce", "1"], ["wordproblem", ""],
], ids=lambda argv: " ".join(argv))
def test_non_complemented_file_refused(capsys, tmp_path, argv):
    # parsing checks names and homogeneity only; the atom tables of a file
    # are judged as it is loaded, so even a query naming no atom refuses it
    path = tmp_path / "pres.txt"
    path.write_text("atoms: a b\nrel: ab = ab\n")
    assert main(argv + ["--presentation-file", str(path)]) == EXIT_USAGE
    assert "both sides of ab = ab" in capsys.readouterr().err


def test_left_complement_failure_refused_at_load(capsys, tmp_path):
    # complemented on the right only: a query that never reverses on the
    # left still refuses the file
    path = tmp_path / "pres.txt"
    path.write_text("atoms: a b c\nrel: ab = cb\n")
    assert main(["reduce", "--presentation-file", str(path), "1"]) == EXIT_USAGE
    assert "both sides of ab = cb end with b" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--presentation-file", "atoms: a b\natoms: c\n", "line 2, col 0: duplicate atoms: line"),
    ("--presentation-file", "atoms:\n", "line 1, col 5: empty atom list"),
    ("--presentation-file", "atoms: a b\n\nrel: ab = bz\n",
     "line 3, col 0: unknown atom 'z' in word 'bz'"),
    ("--presentation-file", "# no atoms\n", "line 1, col 0: missing atoms: line"),
    ("--preset", "K(4,4)", "unsupported complete-graph preset 'K(4,4)'"),
    ("--preset", "free(0)", "free(n) needs n >= 1"),
    ("--preset", "I2(1)", "I2(m) needs m >= 2"),
], ids=["second-atoms", "empty-atoms", "unknown-atom", "no-atoms", "K(4,4)", "free(0)", "I2(1)"])
def test_bad_presentation_refused(capsys, tmp_path, option, value, message):
    # a presentation file that does not parse, or a preset outside its
    # family's range, is an input error: exit 3, and stderr says what is wrong
    if option == "--presentation-file":
        path = tmp_path / "pres.txt"
        path.write_text(value)
        value = str(path)
    assert main(["basics", option, value]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_usage_error():
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["reduce", "--preset", "nope", "a/b"]) == EXIT_USAGE


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--strategy", "nope", "a/b"],
     "multired reduce: error: argument --strategy: invalid choice: 'nope'"),
    (["reduce", "--bogus", "a/b"], "multired: error: unrecognized arguments: --bogus"),
    ([], "multired: error: the following arguments are required: command"),
])
def test_usage_error_names_argument(capsys, argv, message):
    # the usage block, then what is wrong with the command line
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: multired")
    assert err.splitlines()[-1].startswith(message)


def test_top_level_help_is_for_users(capsys):
    # help says what the tool does, its exit codes and MULTIRED_CAPS; the
    # module's notes for readers of the code (how a line is read, which
    # options belong where) stay out of it
    def flat(text):
        return " ".join(text.split())

    notes = [flat(n) for n in cli.__doc__.split(".  ") if flat(n) not in flat(cli._DESCRIPTION)]
    assert len(notes) > 5
    for flag in ("-h", "--help"):
        assert main([flag]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: multired")
        text = flat(out)
        assert "Exit codes: 0 success, 1 counterexample found, 2 inconclusive, 3 usage" in text
        assert "MULTIRED_CAPS=" in text
        assert not [n for n in notes if n in text]
        assert "argparse" not in text and "front end" not in text


# the positionals each subcommand needs; the others take a multifraction
_POSITIONALS = {"preset": ["list"], "wordproblem": ["a B"], "conjecture": ["A"],
                "basics": [], "threeore": [], "cycleprobe": []}


def _parser_corpus():
    corpus = [["-h"], [], ["bogus"], ["--preset", "A2tilde", "reduce", "a/b"],
              ["reduce", "--strategy", "nope", "a/b"], ["graph", "--format", "xml", "a/b"],
              # an abbreviated option, --opt=value, a "--" separator, an option
              # before its positional, an unknown option with a value, a
              # repeated option, and help after a bad option
              ["reduce", "--strat", "high_lex", "a/b"], ["reduce", "--strategy=high_lex", "a/b"],
              ["reduce", "--", "a/b"], ["reduce", "a/b", "--"], ["reduce", "--", "--strategy"],
              ["graph", "--side", "right", "--format=json", "a/b"],
              ["reduce", "--bogus", "x", "a/b"], ["reduce", "--bogus=x", "a/b"],
              ["reduce", "--strategy", "low_lex", "--strategy", "high_lex", "a/b"],
              ["reduce", "--strategy", "nope", "-h"], ["reduce", "--bogus", "-h", "a/b"],
              ["reduce", "--he"], ["reduce", "--pre", "braid3", "a/b"], ["reduce", "a/b", "extra"],
              # lines that look plain but that argparse reads its own way: the
              # optional name is taken, empty, before the option, so the last
              # argument is left over; a negative value; "-" and "" as
              # positionals; a repeated option, whose last value holds
              ["preset", "show", "--format", "json", "A2tilde"],
              ["conjecture", "A", "--trials", "1", "--seed", "-1"],
              ["reduce", "-"], ["wordproblem", ""],
              ["graph", "--side", "right", "--side", "left", "a/b"]]
    for name in cli.SUBCOMMANDS:
        positionals = _POSITIONALS.get(name, ["a/b"])
        corpus += [[name, "-h"], [name, "--bogus", *positionals]]
        if positionals:
            corpus.append([name])
    return corpus


def test_per_command_parser_matches_full(capsys, monkeypatch):
    # dispatch reads a plain line off the option table: output, usage
    # errors and exit codes are those of a parse by the parser of every
    # subcommand
    def outputs():
        seen = []
        for argv in _parser_corpus():
            code = main(list(argv))
            seen.append((argv, code, *capsys.readouterr()))
        return seen

    full_builds = []
    full = build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: full_builds.append(1) or full())
    per_command = outputs()
    # both paths ran: some queries were read without the full parser
    assert 0 < len(full_builds) < len(per_command)
    monkeypatch.setattr(cli, "parse_args", lambda argv: full().parse_args(argv))
    assert outputs() == per_command
    assert {code for _, code, _, _ in per_command} == {EXIT_OK, EXIT_USAGE}


def test_signed_word_unknown_inverse_name(capsys):
    assert main(["wordproblem", "--preset", "A2tilde", "x^-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown letter 'x'\n"


def test_signed_word_unknown_letter(capsys):
    assert main(["wordproblem", "--preset", "A2tilde", "aB zA"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unknown letter 'z'\n"


@pytest.mark.parametrize("argv, message", [
    (["reduce", "--preset", "A2tilde", "a..b/.c."],
     "error: position 0: empty atom name in word 'a..b'\n"),
    (["wordproblem", "--preset", "A2tilde", "a..b B A"], "error: empty atom name in 'a..b'\n"),
], ids=["reduce", "wordproblem"])
def test_empty_atom_name_is_a_usage_error(capsys, argv, message):
    # both readers of a word refuse the empty name on either side of a "."
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == message


def test_cunif_over_undecided_right_moves_exits_inconclusive(capsys, monkeypatch):
    monkeypatch.setenv("MULTIRED_CAPS", "reversing_cap=4")
    argv = ["conjecture", "Cunif", "--preset", "A2tilde", "--depth", "4", "--length", "16",
            "--trials", "20", "--seed", "1"]
    assert main(argv) == EXIT_INCONCLUSIVE
    assert json.loads(capsys.readouterr().out)["counts"] == {"confirmed": 16, "inconclusive": 4}


def test_options_are_those_read():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    options = {
        name: {a.dest for a in sub._actions if a.dest != "help"}
        for name, sub in subparsers.items()
    }
    context = {"preset", "presentation_file", "format"}
    assert options == {
        "preset": {"action", "name", "preset", "format"},
        "reduce": {"multifraction", "strategy"} | context,
        "rreduce": {"multifraction", "strategy"} | context,
        "derdiv": {"multifraction"} | context,
        "redtame": {"multifraction"} | context,
        "irr": {"multifraction"} | context,
        "graph": {"multifraction", "side", "dot"} | context,
        "wordproblem": {"word"} | context,
        "conjecture": {"which", "depth", "length", "trials", "log", "dump_dir",
                       "seed", "jobs"} | context,
        "vankampen": {"multifraction"} | context,
        "basics": {"side"} | context,
        "threeore": {"maxlen", "side"} | context,
        "cycleprobe": {"iterations"} | context,
    }


@pytest.mark.parametrize("argv", [
    ["reduce", "--seed", "3", "a/a"],
    ["graph", "--jobs", "2", "1/c/aba"],
    ["conjecture", "A", "--strategy", "high_lex"],
    ["preset", "show", "--presentation-file", "x"],
])
def test_unread_option_refused(capsys, argv):
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["conjecture", "A", "--depth", "3", "--trials", "2"],
     "conjecture A runs on central crosses, which need an even depth >= 2; got depth 3"),
    (["conjecture", "B", "--depth", "0", "--trials", "2"],
     "conjecture B runs on central crosses, which need an even depth >= 2; got depth 0"),
    (["conjecture", "depth4", "--depth", "6", "--trials", "2"],
     "conjecture depth4 runs at depth 4 only; got depth 6"),
    (["conjecture", "C", "--depth", "0", "--trials", "2"],
     "conjecture C needs depth >= 1; got depth 0"),
    (["conjecture", "Cunif", "--trials", "-1"], "trials must be >= 1; got -1"),
    (["conjecture", "A", "--trials", "2", "--jobs", "0"], "jobs must be >= 1; got 0"),
    (["vankampen", "1/1"], "universal diagrams need even depth >= 4"),
    (["vankampen", "a/b/c"], "universal diagrams need even depth >= 4"),
    (["vankampen", "/1/1/1/1"], "positive multifractions only"),
    (["conjecture", "C", "--depth", "3", "--length", "-5"], "length must be >= 0; got -5"),
    (["conjecture", "A", "--length", "-1"], "length must be >= 0; got -1"),
    (["threeore", "--maxlen", "-1"], "max_len must be >= 1; got -1"),
    (["cycleprobe", "--iterations", "0"], "iterations must be >= 1; got 0"),
])
def test_campaign_settings_refused(capsys, argv, message):
    # refused before any trial or diagram is built: nothing is reported
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_refused_campaign_leaves_log(capsys, tmp_path):
    # the settings are checked before --log is opened, which truncates it
    kept, missing = tmp_path / "kept.jsonl", tmp_path / "missing.jsonl"
    kept.write_bytes(b'{"trial": 0}\n')
    for log in (kept, missing):
        assert main(["conjecture", "A", "--trials", "0", "--log", str(log)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""
    assert kept.read_bytes() == b'{"trial": 0}\n'
    assert not missing.exists()


def _readme_argvs():
    # every `multired ...` line in the README's code blocks, less its
    # comment and output redirection
    argvs, in_block = [], False
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        for line in fh:
            if line.startswith("```"):
                in_block = not in_block
            elif in_block and line.startswith("multired "):
                argv = shlex.split(line, comments=True)[1:]
                argvs.append(argv[:argv.index(">")] if ">" in argv else argv)
    return argvs


def test_readme_examples_parse():
    argvs = _readme_argvs()
    assert len(argvs) >= 15
    parser = build_parser()
    for argv in argvs:
        # dispatch reads each line as the parser of every subcommand does
        assert cli.parse_args(argv) == parser.parse_args(argv)


# the benchmark's one-shot queries
_CLI_COLD = [
    ["reduce", "--preset", "A2tilde", "ac/ca/ba/ab/cb/bc"],
    ["irr", "--preset", "A2tilde", "1/c/aba"],
    ["derdiv", "--preset", "A2tilde", "ab/aba/aca"],
    ["redtame", "--preset", "A2tilde", "ac/aca/aba"],
    ["wordproblem", "--preset", "braid3", "a B"],
    ["vankampen", "--preset", "A2tilde", "--format", "json", "ab/ba/ca/ac/bc/cb"],
    ["wordproblem", "--preset", "braid(4)", "aba BAB"],
    ["basics", "--preset", "I2(5)"],
]


def test_plain_lines_build_no_parser(monkeypatch):
    built = []
    init = cli._Parser.__init__
    monkeypatch.setattr(cli._Parser, "__init__",
                        lambda self, *a, **kw: built.append(kw["prog"]) or init(self, *a, **kw))
    for argv in _CLI_COLD + _readme_argvs():
        cli.parse_args(argv)
    assert built == []
    # help, an abbreviation, --opt=value and a negative value are read by
    # the parser of every subcommand, built once
    for argv in (["-h"], ["reduce", "--strat", "high_lex", "a/b"],
                 ["reduce", "--strategy=high_lex", "a/b"],
                 ["conjecture", "A", "--trials", "1", "--seed", "-1"]):
        built.clear()
        try:
            cli.parse_args(argv)
        except SystemExit as e:  # help was printed
            assert argv == ["-h"] and e.code == 0
        assert built.count("multired") == 1, argv
        assert len(built) == 1 + len(cli.SUBCOMMANDS)


def _random_argv(rng):
    """A command line drawn from the subcommands' own options and values,
    plus arguments that argparse reads in its own way."""
    odd = ["-h", "--help", "--", "-", "", "-1", "+3", " 7", "1_0", "nope", "x y", "--bogus"]
    name = rng.choice([*cli.SUBCOMMANDS] * 8 + ["bogus", "red", "-h", ""])
    if name not in cli.SUBCOMMANDS:
        return [name] + rng.sample(odd, rng.randrange(3))
    _, positionals, options = cli.SUBCOMMANDS[name]
    words = ["a/b", "1/c/aba", "A2tilde", "a B", "list", "show", "A", "Cunif"]
    for pos in positionals:
        words += pos.choices or ()
    argv = [name]
    for _ in range(rng.randrange(7)):
        kind = rng.random()
        if kind < 0.45 and options:
            opt = rng.choice(options)
            flag = opt.flag
            values = [*(opt.choices or ()), "0", "3", "12", "A2tilde", "json"]
            value = rng.choice(values) if rng.random() < 0.8 else rng.choice(odd)
            roll = rng.random()
            if roll < 0.08:
                argv.append(flag[:rng.randrange(3, len(flag))])  # an abbreviation
            elif roll < 0.14:
                argv.append(f"{flag}={value}")
                continue
            elif roll < 0.2:  # another option, which this subcommand may not take
                argv.append(rng.choice(["--seed", "--strategy", "--side", "--dot", "--depth"]))
            else:
                argv.append(flag)
            # a tenth of the time a store-true flag gets a value, and an
            # option that takes one goes without
            if (opt.kind is bool) == (rng.random() < 0.1):
                argv.append(value)
        elif kind < 0.85:
            argv.append(rng.choice(words))
        else:
            argv.append(rng.choice(odd))
    return argv


def test_plain_reader_matches_argparse():
    # whenever the table reads a line, argparse reads it alike, and accepts it
    rng = random.Random(1)
    parser = build_parser()
    read = 0
    for _ in range(4000):
        argv = _random_argv(rng)
        args = cli._read_plain(argv)
        if args is None:
            continue
        read += 1
        try:
            full = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse refuses {argv!r}, which the table reads")
        assert args == full, argv
    assert read > 400


@pytest.mark.parametrize("argv, expected", [
    (["reduce", "abcd/dcba/ab/ba"],
     ["R(2,a)", "R(2,b)", "R(3,a)", "R(3,b)", "-> abcbdc/badcba/1/1"]),
    (["wordproblem", "abcd DCBA"], ["trivial"]),
    (["wordproblem", "acdb DCAB"], ["nontrivial (unconditional)"]),
], ids=["reduce", "wordproblem-trivial", "wordproblem-nontrivial"])
def test_one_shot_query_builds_no_basic_table(capsys, monkeypatch, argv, expected):
    # the step-bound guard of a short reduction holds at C = 2, so the
    # basic tables (a fifth of a second on braid(5)) are never built
    def refuse(self, side):
        raise AssertionError(f"{side.value} basic table built")

    monkeypatch.setattr(MonoidContext, "basic_table", refuse)
    assert main([argv[0], "--preset", "braid(5)", *argv[1:]]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == expected


def test_caps_env(capsys, monkeypatch):
    # a cap overflow is inconclusive, not an input error
    for caps, argv in (
        ("reversing_cap=1", ["reduce", "--preset", "A2tilde", "ababab/1"]),
        ("reversing_cap=1", ["wordproblem", "--preset", "A2tilde", "aba BAB"]),
        ("reversing_cap=1", ["rreduce", "ababab/1/ab"]),
        ("reversing_cap=1", ["derdiv", "ab/aba/aca"]),
        ("reversing_cap=1", ["redtame", "ac/aca/aba"]),
        ("reversing_cap=1", ["vankampen", "ac/ca/ca/ac"]),
        ("reversing_cap=1", ["basics"]),
        ("reversing_cap=1", ["threeore", "--maxlen", "2"]),
        ("reversing_cap=1", ["cycleprobe"]),
    ):
        monkeypatch.setenv("MULTIRED_CAPS", caps)
        assert main(argv) == EXIT_INCONCLUSIVE, argv
        assert capsys.readouterr().err.startswith("inconclusive: ")
    monkeypatch.delenv("MULTIRED_CAPS")


@pytest.mark.parametrize("caps", ["bogus_cap=3", "class_cap=3", "reversing_cap=many"])
def test_caps_env_malformed(capsys, monkeypatch, caps):
    monkeypatch.setenv("MULTIRED_CAPS", caps)
    assert main(["reduce", "--preset", "A2tilde", "a/b"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: MULTIRED_CAPS: ")
    assert "reversing_cap, basics_cap, graph_node_cap" in err


@pytest.mark.parametrize("argv", [
    ["irr", "--preset", "A2tilde", "1/c/aba"],
    ["graph", "--preset", "A2tilde", "--dot", "1/c/aba"],
])
def test_incomplete_graph_inconclusive(capsys, monkeypatch, argv):
    # one move overflows a cap: what the graph holds is printed, but it is
    # no result
    ctx = MonoidContext(preset("A2tilde"))
    c = ctx.element("c")
    overflow_left_moves(monkeypatch, lambda a, i, x, b: x == c)
    g = red.reduct_graph(ctx, parse_multifraction(ctx, "1/c/aba"))
    assert not g.complete
    if argv[0] == "irr":
        expected = sorted(format_multifraction(ctx, x) for x in g.sinks())
    else:
        expected = g.to_dot(ctx).splitlines()
    assert main(argv) == EXIT_INCONCLUSIVE
    out, err = capsys.readouterr()
    assert out.splitlines() == expected
    assert err.startswith("inconclusive: reduct graph incomplete")


def test_campaign_cap_overflow_per_trial(capsys, monkeypatch):
    # an overflow makes its trial inconclusive; the campaign still reports
    monkeypatch.setenv("MULTIRED_CAPS", "reversing_cap=1")
    code = main(["conjecture", "A", "--preset", "A2tilde", "--trials", "2", "--length", "8",
                 "--format", "json"])
    assert code == EXIT_INCONCLUSIVE
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"inconclusive": 2}
    for rec in payload["records"]:
        assert rec["evidence"] == {"reason": "reversing exceeded 1 cell fills",
                                   "cap": "reversing_cap"}


def test_graph_right_side(capsys):
    code, out = run(capsys, "graph", "--preset", "A2tilde", "--side", "right",
                    "--format", "json", "a/bac/bb/aca")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["side"] == "right" and len(payload["nodes"]) == 10


def test_conjecture_output_byte_identical(capsys):
    argv = ["conjecture", "A", "--preset", "A2tilde", "--depth", "4",
            "--length", "12", "--trials", "6", "--seed", "11", "--format", "json"]
    code1, out1 = run(capsys, *argv)
    code2, out2 = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    payload = json.loads(out1)
    assert "millis" not in payload
    assert all("millis" not in rec for rec in payload["records"])


@pytest.mark.parametrize("argv, caps, code", [
    (["conjecture", "A", "--preset", "A2tilde", "--trials", "50", "--format", "json"], "", EXIT_OK),
    (["graph", "--preset", "A2tilde", "--dot", "1/c/aba"], "", EXIT_OK),
    (["conjecture", "Cunif", "--preset", "A2tilde", "--length", "16", "--trials", "20",
      "--seed", "1"], "reversing_cap=4", EXIT_INCONCLUSIVE),
], ids=["campaign", "dot", "inconclusive"])
def test_closed_pipe_ends_output_not_command(capsys, monkeypatch, argv, caps, code):
    # stdout is a pipe whose reader is gone (`multired ... | head`), so
    # each write to it raises BrokenPipeError: the rest of the output is
    # dropped with nothing on stderr, and the exit code is the command's
    monkeypatch.setenv("MULTIRED_CAPS", caps)
    reader, writer = os.pipe()
    os.close(reader)
    with open(writer, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(BrokenPipeError):
            os.write(stdout.fileno(), b"x")
        assert main(argv) == code
        print("later output is dropped too")
    assert capsys.readouterr().err == ""


def test_closed_pipe_leaves_no_noise_at_exit():
    # in a process of its own, the flush of stdout at exit meets the
    # closed pipe as well; the reader is gone before the first write
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "multired.cli", "reduce", "--preset", "A2tilde", "ac/ca/ba"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_OK
    assert err == b""
