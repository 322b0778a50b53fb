import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from microhol.article import FORMAT_HEADER
from microhol.cli import main
from microhol.fuzz import weakened_abs_generator
from microhol.kernel import Theory

from .test_article import art, deep_comb_chain


@pytest.fixture()
def refl_article(tmp_path):
    thy = Theory()
    text = (
        f"{FORMAT_HEADER}\ntheory {thy.fingerprint()}\n"
        "1. TERM x:bool\n2. REFL 1\n3. THM 2 |- (x:bool) = (x:bool)\n"
    )
    path = tmp_path / "refl.art"
    path.write_text(text)
    return str(path)


class TestCheck:
    def test_ok_article(self, refl_article, capsys):
        assert main(["check", refl_article]) == 0
        out = capsys.readouterr().out
        assert "theorems: 1" in out

    def test_failing_article(self, tmp_path, capsys):
        thy = Theory()
        bad = (
            f"{FORMAT_HEADER}\ntheory {thy.fingerprint()}\n"
            "1. TERM x:bool\n2. REFL 1\n3. THM 2 |- (y:bool) = (y:bool)\n"
        )
        path = tmp_path / "bad.art"
        path.write_text(bad)
        assert main(["check", str(path)]) == 1

    def test_choice_after_hostile_imp_fails(self, tmp_path, capsys):
        # imp := \p q. q would make AXIOM choice state |- P x ==> P (@P)
        # with a false meaning; the axiom must refuse the theory.
        thy = Theory()
        text = (
            f"{FORMAT_HEADER}\ntheory {thy.fingerprint()}\n"
            "1. TERM \\p:bool. \\q:bool. q\n2. DEFINE imp 1\n3. AXIOM choice\n"
        )
        path = tmp_path / "hostile.art"
        path.write_text(text)
        assert main(["check", str(path)]) == 1
        assert "line 5: AXIOM: axiom_choice needs 'imp'" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.art"]) == 2

    def test_json_deterministic(self, refl_article, capsys):
        main(["check", refl_article, "--json"])
        first = capsys.readouterr().out
        main(["check", refl_article, "--json"])
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["articles"][0]["ok"] is True


class TestParse:
    def test_term(self, capsys):
        assert main(["parse", r"\x:bool. x"]) == 0
        assert capsys.readouterr().out.strip() == r"\x:bool. x"

    def test_bad_term(self, capsys):
        assert main(["parse", r"\x. x"]) == 1

    def test_type(self, capsys):
        assert main(["parse", "--type", "bool -> bool"]) == 0
        assert capsys.readouterr().out.strip() == "bool -> bool"


class TestProveTaut:
    def test_peirce(self, capsys):
        assert main(["prove-taut", "((p ==> q) ==> p) ==> p"]) == 0

    def test_conjunction_rejected_with_assignment(self, capsys):
        assert main(["prove-taut", "p /\\ q", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["proved"] is False
        asg = payload["assignment"]
        assert not (asg["p"] and asg["q"])

    @pytest.mark.parametrize(
        "term, expected",
        [
            ("p /\\ q", '{"assignment":{"p":false,"q":false},"proved":false}'),
            ("p \\/ ~q", '{"assignment":{"p":false,"q":true},"proved":false}'),
        ],
    )
    def test_first_falsifying_assignment_pinned(self, term, expected, capsys):
        # the first assignment in name order, false before true
        assert main(["prove-taut", term, "--json"]) == 1
        assert capsys.readouterr().out == expected + "\n"

    def test_non_propositional(self, capsys):
        assert main(["prove-taut", "!x:bool. x"]) == 2


class TestProveMeson:
    def test_problem_file(self, tmp_path, capsys):
        path = tmp_path / "p.fol"
        path.write_text(
            "# syllogism\n"
            "AXIOM !x:ind. (P:ind -> bool) x ==> (Q:ind -> bool) x\n"
            "AXIOM (P:ind -> bool) (a:ind)\n"
            "GOAL (Q:ind -> bool) (a:ind)\n"
        )
        assert main(["prove-meson", str(path)]) == 0
        assert "|-" in capsys.readouterr().out

    def test_depth_exhausted(self, tmp_path, capsys):
        path = tmp_path / "p.fol"
        path.write_text("GOAL (P:ind -> bool) (a:ind)\n")
        assert main(["prove-meson", str(path), "--depth", "3"]) == 1

    def test_trace(self, tmp_path, capsys):
        path = tmp_path / "p.fol"
        path.write_text(
            "AXIOM (P:ind -> bool) (a:ind)\nGOAL (P:ind -> bool) (a:ind)\n"
        )
        assert main(["prove-meson", str(path), "--trace"]) == 0
        out = capsys.readouterr().out
        assert "clauses:" in out and "steps:" in out

    def test_trace_shows_condensed_clauses(self, tmp_path, capsys):
        # the axiom's clause P x \/ P y is searched as one literal, the one
        # the step cites; the proved sequent is the axiom's
        path = tmp_path / "p.fol"
        path.write_text(
            "AXIOM !x:ind. !y:ind. (P:ind -> bool) x \\/ (P:ind -> bool) y\n"
            "GOAL (P:ind -> bool) (a:ind)\n"
        )
        assert main(["prove-meson", str(path)]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(["prove-meson", str(path), "--trace"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == plain[0] == (
            "!x:ind. !y:ind. (P:ind -> bool) x \\/ (P:ind -> bool) y |- (P:ind -> bool) (a:ind)"
        )
        assert out[2] == "  0: axiom 0: (P:ind -> bool) (y_2:ind)"
        assert "condensed 1 clauses (1 literals merged)" in out
        assert out[-1] == "  0: extend  ~(P:ind -> bool) (a:ind) by clause 0 literal 0"

    def test_missing_goal(self, tmp_path):
        path = tmp_path / "p.fol"
        path.write_text("AXIOM T\n")
        assert main(["prove-meson", str(path)]) == 2

    def test_tabs_and_spaces_after_the_keyword(self, tmp_path, capsys):
        # a run of spaces and tabs after the keyword reads as one space
        texts = []
        for sep in (" ", "\t", "  "):
            path = tmp_path / "p.fol"
            path.write_text(
                f"AXIOM{sep}(P:ind -> bool) (a:ind)\n GOAL{sep}(P:ind -> bool) (a:ind)\n"
            )
            assert main(["prove-meson", str(path)]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]


class TestFuzzCommand:
    def test_single_rule(self, capsys):
        assert main(["fuzz", "--rule", "refl", "--trials", "50", "--seed", "7"]) == 0
        assert "refl" in capsys.readouterr().out

    def test_unknown_rule(self):
        assert main(["fuzz", "--rule", "nonsense", "--trials", "5"]) == 2

    def test_json_byte_identical(self, capsys):
        args = ["fuzz", "--rule", "assume", "--trials", "40", "--seed", "3", "--json"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_all_rules_pinned(self, capsys):
        # Evaluations per rule, and the whole output, as recorded before
        # the evaluator compiled terms to closures.
        args = ["fuzz", "--rule", "all", "--trials", "400", "--seed", "7", "--json"]
        assert main(args) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        got = {r["rule"]: (r["evaluations"], r["skipped_overflow"]) for r in payload["rules"]}
        assert got == {
            "refl": (7444, 0),
            "trans": (395620, 0),
            "mk_comb": (572150, 0),
            "abs": (14389, 0),
            "beta": (14089, 0),
            "assume": (18212, 0),
            "eq_mp": (60958, 0),
            "deduct_antisym": (233577, 0),
            "inst_type": (179628, 1),
            "inst": (132049, 0),
        }
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "c0573f292a481906290c93d3fbeb6694ef69ec5360d7be8e29dc18e8a0811d5b"
        )

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MICROHOL_SEED", "99")
        assert main(["fuzz", "--rule", "refl", "--trials", "10", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 99


class TestFuzzCounterexamples:
    """How a failed rule is reported: `weakened-abs`, ABS without its side
    condition, stands in for the generator of `abs`."""

    ARGS = ["fuzz", "--rule", "abs", "--trials", "3", "--seed", "3"]
    LABEL = "abs-without-side-condition"
    PREMISE = "(x:ind) = (y:ind) |- (x:ind) = (y:ind)"
    CONCLUSION = "(x:ind) = (y:ind) |- (\\x:ind. x) = (\\x:ind. (y:ind))"
    VALUATION = "{x:=0, y:=0}"

    @pytest.fixture(autouse=True)
    def weakened_abs(self, monkeypatch):
        monkeypatch.setattr("microhol.cli.make_generator", lambda rule: weakened_abs_generator)

    def test_json(self, capsys):
        assert main([*self.ARGS, "--json"]) == 1
        (rule,) = json.loads(capsys.readouterr().out)["rules"]
        assert rule["ok"] is False
        assert rule["counterexamples"] == [
            {
                "trial": trial,
                "label": self.LABEL,
                "premises": [self.PREMISE],
                "conclusion": self.CONCLUSION,
                "valuation": self.VALUATION,
            }
            for trial in (1, 2)
        ]

    def test_text(self, capsys):
        assert main(self.ARGS) == 1
        lines = ["abs              trials=3 evals=3 2 COUNTEREXAMPLES"]
        for trial in (1, 2):
            lines += [
                f"  trial {trial} [{self.LABEL}]",
                f"    premise    {self.PREMISE}",
                f"    conclusion {self.CONCLUSION}",
                f"    valuation  {self.VALUATION}",
            ]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


class TestStats:
    def test_theory_info(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "microhol" in out and "fingerprint" in out

    def test_article_stats(self, refl_article, capsys):
        assert main(["stats", refl_article, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["articles"][0]["line_count"] == 3


_SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _run_cli(*argv, **environ):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(
        os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""), **environ
    )
    return subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; from microhol.cli import main; sys.exit(main(sys.argv[1:]))",
            *argv,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestProblemFileErrors:
    """A bad .fol line is reported at its line in the file, with parse
    errors at their column in that line."""

    @pytest.mark.parametrize(
        "lines,expected",
        [
            (
                ["# syllogism", "AXIOM (P:ind -> bool) (a:ind)", "  AXIOM ((P:ind -> bool) (a:ind)"],
                "error: 3:33: expected ')', found 'end of input'",
            ),
            (["", "GOAL (P:ind -> bool) (a:bool)"], "error: 2:30: operand type"),
            (
                ["AXIOM (P:ind -> bool) (a:ind)", "AXIOM !p:bool. p"],
                "error: line 2: quantification over (p:bool) is not first-order",
            ),
            (["GOAL (a:ind)"], "error: line 1: problem parts must be boolean"),
            (
                ["AXIOM\t((P:ind -> bool) (a:ind)"],
                "error: 1:31: expected ')', found 'end of input'",
            ),
            (["\tGOAL \t (P:ind -> bool) (a:bool)"], "error: 1:33: operand type"),
            (["AXIOM"], "error: line 1: AXIOM has no formula"),
            (["# no goal yet", "GOAL \t "], "error: line 2: GOAL has no formula"),
            (["AXIOMS (P:ind -> bool) (a:ind)"], "error: line 1: expected AXIOM or GOAL"),
        ],
        ids=[
            "unbalanced",
            "ill-typed",
            "higher-order",
            "not-boolean",
            "after-tab",
            "after-run",
            "bare-keyword",
            "keyword-then-blanks",
            "keyword-run-on",
        ],
    )
    def test_error_carries_the_file_line(self, tmp_path, lines, expected):
        path = tmp_path / "p.fol"
        path.write_text("\n".join(lines + ["GOAL (P:ind -> bool) (a:ind)"]) + "\n")
        proc = _run_cli("prove-meson", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(expected)


class TestNoTraceback:
    def test_bad_seed_variable_is_a_usage_error(self):
        proc = _run_cli("fuzz", "--rule", "refl", "--trials", "2", MICROHOL_SEED="abc")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: MICROHOL_SEED must be an integer, got 'abc'\n"

    def test_deeply_nested_input_is_an_error_not_a_crash(self):
        # the parser recurses once per `~`; 3,000 of them overflow the
        # interpreter's stack, which is reported as a parse error
        proc = _run_cli("parse", "~" * 3000 + "p")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stdout.startswith("parse error: 1:")
        assert "input nested too deeply" in proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["parse", "(" * 3000 + "p:bool" + ")" * 3000],
            ["parse", "--json", "!x:bool. " * 3000 + "x"],
            ["parse", "--type", "(" * 3000 + "bool" + ")" * 3000],
        ],
    )
    def test_deep_nesting_at_3000_levels(self, argv):
        proc = _run_cli(*argv)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert "1:" in proc.stdout and "input nested too deeply" in proc.stdout

    def test_a_connective_the_theory_lacks_is_a_failed_check(self, tmp_path):
        # `and` defined at bool: the token `/\` names no constant of the theory
        path = tmp_path / "and.art"
        path.write_text(
            art(
                Theory(),
                "TERM (\\x:bool. x) = (\\x:bool. x)",
                "DEFINE and 1",
                "TERM (p:bool) /\\ (q:bool)",
            )
        )
        proc = _run_cli("check", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert proc.stdout.endswith(
            "error at line 5: TERM: 1:10: bool -> bool -> bool is not an instance "
            "of 'and''s type\n"
        )

    def test_kernel_depth_is_a_failed_check(self, tmp_path):
        lines = deep_comb_chain(3000)
        path = tmp_path / "deep.art"
        path.write_text(art(Theory(), *lines))
        proc = _run_cli("check", str(path))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stdout + proc.stderr
        assert f"error at line {2 + len(lines)}: TRANS: term nested too deeply" in proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--rule", "refl", "--trials", "-5"],
            ["fuzz", "--rule", "refl", "--trials", "five"],
            ["prove-meson", "--depth", "-1", str(_SAMPLES / "syllogism.fol")],
        ],
    )
    def test_negative_count_is_a_usage_error(self, argv):
        proc = _run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: microhol ")
        assert "expected a non-negative integer" in proc.stderr

    @pytest.mark.parametrize(
        "option,value,expected",
        [
            ("--ind-size", "0", "expected a positive integer"),
            ("--ind-size", "-1", "expected a positive integer"),
            ("--cap", "1", "expected an integer in [2, 2**31]"),
            ("--cap", "0", "expected an integer in [2, 2**31]"),
            ("--cap", "-1", "expected an integer in [2, 2**31]"),
            ("--cap", str((1 << 31) + 1), "expected an integer in [2, 2**31]"),
        ],
    )
    def test_model_bounds_are_usage_errors(self, option, value, expected):
        # Model rejects these with ValueError; argparse must catch them first
        proc = _run_cli("fuzz", "--rule", "refl", "--trials", "3", option, value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage: microhol ")
        assert f"argument {option}: {expected}" in proc.stderr
        assert "ValueError" not in proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr

    def test_model_bounds_accepted_at_their_limits(self, capsys):
        for extra in (["--ind-size", "1", "--cap", "2"], ["--cap", str(1 << 31)]):
            assert main(["fuzz", "--rule", "refl", "--trials", "2", *extra]) == 0
        capsys.readouterr()

    def test_unexpected_exception_is_reported(self, monkeypatch, capsys):
        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr("microhol.cli.cmd_parse", crash)
        assert main(["parse", "x"]) == 2
        assert capsys.readouterr().err == "error: RuntimeError: boom\n"


def _os_error(path):
    """The text of the OSError that opening `path` for reading raises."""
    try:
        open(path, encoding="utf-8").close()
    except OSError as exc:
        return str(exc)
    raise AssertionError(f"{path} can be read")


class TestMainReportsErrors:
    """A command raises what is not a failed check, and `main` alone
    prints it as `error: ...` on stderr, with nothing on stdout, and
    exits 2."""

    @pytest.mark.parametrize("command", ["check", "stats", "prove-meson"])
    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_file(self, command, target, tmp_path, capsys):
        path = str(tmp_path / "absent" if target == "missing" else tmp_path)
        assert main([command, path]) == 2
        assert capsys.readouterr() == ("", f"error: {_os_error(path)}\n")

    @pytest.mark.parametrize("command", ["check", "stats", "prove-meson"])
    @pytest.mark.parametrize(
        "byte, reason",
        [(b"\xe9", "invalid continuation byte"), (b"\xff", "invalid start byte")],
        ids=["0xe9", "0xff"],
    )
    def test_file_not_utf8(self, command, byte, reason, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# one\n# caf" + byte + b"\nGOAL T\n")
        assert main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: line 2: not UTF-8 ({reason})\n"
        assert "position" not in err

    @pytest.mark.parametrize(
        "term, message",
        [
            ("!x:bool. x", "not a propositional formula: !x:bool. x"),
            ("(p", "1:3: expected ')', found 'end of input'"),
        ],
        ids=["not-propositional", "unparsable"],
    )
    def test_prove_taut(self, term, message, capsys):
        assert main(["prove-taut", term]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
