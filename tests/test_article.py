import hashlib
import importlib.util
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microhol import article, kernel
from microhol.article import (
    FORMAT_HEADER,
    FingerprintMismatch,
    _Replay,
    article_stats,
    check_article,
    standard_theory_for,
)
from microhol.bootstrap import install_logic
from microhol.fuzz import alpha_variant
from microhol.kernel import Theory
from microhol.surface import (
    ParseError,
    parse_sequent,
    parse_term,
    print_sequent,
    print_term,
)
from microhol.syntax import BOOL, Comb, Const, Var, fn, mk_eq

from .strategies import bool_terms


def art(theory, *lines):
    body = "\n".join(f"{i}. {line}" for i, line in enumerate(lines, start=1))
    return f"{FORMAT_HEADER}\ntheory {theory.fingerprint()}\n{body}\n"


def deep_comb_chain(depth):
    """Article lines proving f (f ... (f x)) = f (f ... (f x)), `depth`
    applications deep, by MKCOMB, then TRANS of that theorem with itself."""
    lines = ["TERM f:bool->bool", "TERM x:bool", "REFL 1", "REFL 2"]
    lines += [f"MKCOMB 3 {no}" for no in range(4, 4 + depth)]
    lines.append(f"TRANS {len(lines)} {len(lines)}")
    return lines


class TestBasics:
    def test_refl_article(self):
        thy = Theory()
        text = art(thy, "TERM x:bool", "REFL 1", "THM 2 |- (x:bool) = (x:bool)")
        rep = check_article(text, thy)
        assert rep.ok
        assert rep.line_count == 3
        assert len(rep.theorems) == 1

    def test_wrong_thm_fails_with_line(self):
        thy = Theory()
        text = art(thy, "TERM x:bool", "REFL 1", "THM 2 |- (x:bool) = (y:bool)")
        rep = check_article(text, thy)
        assert not rep.ok
        assert rep.failures[0]["line"] == 5  # physical line of the THM

    def test_alpha_tolerant_thm(self):
        thy = Theory()
        text = art(
            thy,
            "TERM \\x:bool. x",
            "REFL 1",
            "THM 2 |- (\\y:bool. y) = (\\z:bool. z)",
        )
        assert check_article(text, thy).ok

    def test_assumption_set_compared(self):
        thy = Theory()
        text = art(
            thy,
            "TERM x:bool",
            "ASSUME 1",
            "THM 2 (x:bool) |- (x:bool)",
        )
        assert check_article(text, thy).ok
        text = art(thy, "TERM x:bool", "ASSUME 1", "THM 2 |- (x:bool)")
        assert not check_article(text, thy).ok

    # {p, (\x. x) q} |- p <=> (\x. x) q, then a THM line for it
    TWO_HYPS = [
        "TERM p:bool",
        "TERM (\\x:bool. x) (q:bool)",
        "ASSUME 1",
        "ASSUME 2",
        "DEDUCT 3 4",
    ]
    TWO_HYPS_CONCL = "(p:bool) = (\\x:bool. x) (q:bool)"

    def _check_two_hyps(self, hyps):
        thy = Theory()
        return check_article(art(thy, *self.TWO_HYPS, f"THM 5 {hyps} |- {self.TWO_HYPS_CONCL}"), thy)

    def test_reordered_hyps_pass(self):
        assert self._check_two_hyps("(\\x:bool. x) (q:bool), (p:bool)").ok

    def test_alpha_renamed_hyps_pass(self):
        assert self._check_two_hyps("(p:bool), (\\z:bool. z) (q:bool)").ok

    @pytest.mark.parametrize(
        "hyps",
        [
            "(p:bool), (p:bool), (\\x:bool. x) (q:bool)",
            "(p:bool), (\\x:bool. x) (q:bool), (\\z:bool. z) (q:bool)",
            "(p:bool)",
            "(\\x:bool. x) (q:bool), (q:bool)",
        ],
    )
    def test_duplicated_or_missing_hyp_fails(self, hyps):
        rep = self._check_two_hyps(hyps)
        assert rep.failures == [
            {
                "line": 8,
                "message": "THM: line 6: assumption mismatch: produced "
                "(p:bool), (\\x:bool. x) (q:bool) |- (p:bool) <=> (\\x:bool. x) (q:bool)",
            }
        ]

    def test_all_commands(self):
        thy = Theory()
        install_logic(thy)
        text = art(
            thy,
            "TYPE bool -> bool",
            "TERM x:bool",
            "TERM y:bool",
            "TERM (\\x:bool. x) (x:bool)",
            "BETA 4",
            "ASSUME 2",
            "REFL 2",
            "TRANS 7 7",
            "REFL 4",
            "REFL 3",
            "DEDUCT 6 6",
            "THM 11 |- (x:bool) <=> (x:bool)",
            "AXIOM extensionality",
            "AXIOM choice",
            "AXIOM infinity",
            "THM 15 |- ?f:ind -> ind. ONE_ONE f /\\ ~(ONTO f)",
        )
        rep = check_article(text, thy)
        assert rep.ok, rep.failures
        assert rep.uses_infinity == [False, True]

    def test_inst_commands(self):
        thy = Theory()
        text = art(
            thy,
            "TERM x:A",
            "REFL 1",
            "TYPE bool",
            "INSTTYPE 2 A=3",
            "THM 4 |- (x:bool) = (x:bool)",
            "TERM x:bool",
            "TERM y:bool",
            "INST 5 6=7",
            "THM 8 |- (y:bool) = (y:bool)",
        )
        rep = check_article(text, thy)
        assert rep.ok, rep.failures

    def test_define_and_typedef(self):
        thy = Theory()
        install_logic(thy)
        text = art(
            thy,
            "TERM \\b:bool. b <=> T",
            "DEFINE myconst 1",
            "THM 2 |- (myconst:bool -> bool) = (\\b:bool. b <=> T)",
        )
        rep = check_article(text, thy)
        assert rep.ok, rep.failures
        assert "myconst" in thy.term_constants


class TestTypedefCommand:
    def test_typedef_and_snd(self):
        # refl of the identity gives |- P w with P = (=) (\p. p), a closed
        # predicate over bool -> bool whose support is the identity table
        thy = Theory()
        text = art(
            thy,
            "TERM \\p:bool. p",
            "REFL 1",
            "TYPEDEF idty mk_idty dest_idty 2",
            "SND 3",
            "THM 3 |- (mk_idty:(bool -> bool) -> idty) ((dest_idty:idty -> (bool -> bool)) (a:idty)) = (a:idty)",
        )
        rep = check_article(text, thy)
        assert rep.ok, rep.failures
        assert "idty" in thy.type_constructors
        from microhol.semantics import Model, carrier_size

        assert carrier_size(__import__("microhol.syntax", fromlist=["TyApp"]).TyApp("idty"), Model(), {}, thy) == 1

    def test_snd_on_non_typedef(self):
        thy = Theory()
        text = art(thy, "TERM x:bool", "SND 1")
        rep = check_article(text, thy)
        assert not rep.ok


class TestValidation:
    def test_bad_header(self):
        rep = check_article("not-an-article\n", Theory())
        assert not rep.ok

    def test_fingerprint_mismatch(self):
        thy = Theory()
        text = f"{FORMAT_HEADER}\ntheory {'0' * 64}\n1. TERM x:bool\n"
        rep = check_article(text, thy)
        assert not rep.ok
        assert "fingerprint" in rep.failures[0]["message"]

    def test_dangling_reference(self):
        thy = Theory()
        text = art(thy, "TERM x:bool", "REFL 5")
        rep = check_article(text, thy)
        assert not rep.ok

    def test_forward_reference_rejected(self):
        thy = Theory()
        text = art(thy, "REFL 2", "TERM x:bool")
        rep = check_article(text, thy)
        assert not rep.ok

    def test_wrong_slot_kind(self):
        thy = Theory()
        text = art(thy, "TERM x:bool", "TRANS 1 1")
        rep = check_article(text, thy)
        assert not rep.ok

    def test_line_numbering_enforced(self):
        thy = Theory()
        text = (
            f"{FORMAT_HEADER}\ntheory {thy.fingerprint()}\n"
            "1. TERM x:bool\n3. REFL 1\n"
        )
        rep = check_article(text, thy)
        assert not rep.ok

    def test_kernel_error_reported(self):
        thy = Theory()
        text = art(thy, "TERM x:ind", "ASSUME 1")
        rep = check_article(text, thy)
        assert not rep.ok
        assert "ASSUME" in rep.failures[0]["message"]

    def test_ill_typed_inst_is_a_line_numbered_failure(self, tmp_path, capsys):
        from microhol.cli import main

        lines = ["TERM x:bool", "ASSUME 1", "TERM y:ind", "INST 2 1=3"]
        path = tmp_path / "ill_typed.art"
        path.write_text(art(Theory(), *lines))
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr()
        assert "error at line 6: INST: substitution image for x has type" in out.out
        assert "Traceback" not in out.out + out.err

    def test_mismatch_reported_at_the_theory_line(self, tmp_path, capsys):
        from microhol.cli import main

        path = tmp_path / "other.art"
        path.write_text(f"{FORMAT_HEADER}\n# built elsewhere\n\ntheory {'1' * 64}\n")
        assert main(["check", "--json", str(path)]) == 1
        (report,) = json.loads(capsys.readouterr().out)["articles"]
        assert report["failures"] == [
            {
                "line": 4,
                "message": f"article requires theory {'1' * 64}; neither the "
                "fresh nor the bootstrapped standard theory matches",
            }
        ]

    def test_comments_and_blanks_ignored(self):
        thy = Theory()
        text = (
            f"{FORMAT_HEADER}\n\n# comment\ntheory {thy.fingerprint()}\n\n"
            "1. TERM x:bool\n# another\n2. REFL 1\n"
        )
        assert check_article(text, thy).ok


# Each command with its last argument missing.
_SHORT_COMMANDS = [
    "TYPE",
    "TERM",
    "REFL",
    "TRANS 1",
    "MKCOMB 1",
    "ABS 1",
    "BETA",
    "ASSUME",
    "EQMP 1",
    "DEDUCT 1",
    "INSTTYPE",
    "INST",
    "AXIOM",
    "DEFINE c",
    "TYPEDEF ty mk dest",
    "SND",
    "THM 1",
]


# Line 5 of an article whose lines 1-4 hold a type, a variable, a term
# that is not a variable, and a theorem; each with its exact failure.
_ARITY_PREFIX = ["TYPE bool", "TERM x:bool", "TERM (\\y:bool. y) (x:bool)", "REFL 2"]
_FAILURES = [
    ("TYPE", "TYPE: line 5: TYPE takes at least 1 arguments, got 0"),
    ("TERM", "TERM: line 5: TERM takes at least 1 arguments, got 0"),
    ("REFL", "REFL: line 5: REFL takes 1 argument, got 0"),
    ("REFL 2 2", "REFL: line 5: REFL takes 1 argument, got 2"),
    ("REFL 4", "REFL: line 5: line 4 holds a thm, expected a term"),
    ("REFL 5", "REFL: line 5: reference 5 is not strictly earlier"),
    ("REFL 0", "REFL: line 5: no line 0"),
    ("TRANS 4", "TRANS: line 5: TRANS takes 2 arguments, got 1"),
    ("TRANS 4 4 4", "TRANS: line 5: TRANS takes 2 arguments, got 3"),
    ("TRANS 2 4", "TRANS: line 5: line 2 holds a term, expected a thm"),
    ("TRANS 4 5", "TRANS: line 5: reference 5 is not strictly earlier"),
    ("TRANS 0 4", "TRANS: line 5: no line 0"),
    ("MKCOMB 4", "MKCOMB: line 5: MKCOMB takes 2 arguments, got 1"),
    ("MKCOMB 4 4 4", "MKCOMB: line 5: MKCOMB takes 2 arguments, got 3"),
    ("MKCOMB 4 2", "MKCOMB: line 5: line 2 holds a term, expected a thm"),
    ("MKCOMB 5 4", "MKCOMB: line 5: reference 5 is not strictly earlier"),
    ("MKCOMB 4 0", "MKCOMB: line 5: no line 0"),
    ("ABS 2", "ABS: line 5: ABS takes 2 arguments, got 1"),
    ("ABS 2 4 4", "ABS: line 5: ABS takes 2 arguments, got 3"),
    ("ABS 4 4", "ABS: line 5: line 4 holds a thm, expected a term"),
    ("ABS 2 2", "ABS: line 5: line 2 holds a term, expected a thm"),
    ("ABS 2 5", "ABS: line 5: reference 5 is not strictly earlier"),
    ("ABS 0 4", "ABS: line 5: no line 0"),
    ("ABS 3 9", "ABS: line 5: ABS needs a variable TERM line"),
    ("BETA", "BETA: line 5: BETA takes 1 argument, got 0"),
    ("BETA 3 3", "BETA: line 5: BETA takes 1 argument, got 2"),
    ("BETA 4", "BETA: line 5: line 4 holds a thm, expected a term"),
    ("BETA 5", "BETA: line 5: reference 5 is not strictly earlier"),
    ("BETA 0", "BETA: line 5: no line 0"),
    ("ASSUME", "ASSUME: line 5: ASSUME takes 1 argument, got 0"),
    ("ASSUME 2 2", "ASSUME: line 5: ASSUME takes 1 argument, got 2"),
    ("ASSUME 4", "ASSUME: line 5: line 4 holds a thm, expected a term"),
    ("ASSUME 5", "ASSUME: line 5: reference 5 is not strictly earlier"),
    ("ASSUME 0", "ASSUME: line 5: no line 0"),
    ("EQMP 4", "EQMP: line 5: EQMP takes 2 arguments, got 1"),
    ("EQMP 4 4 4", "EQMP: line 5: EQMP takes 2 arguments, got 3"),
    ("EQMP 1 4", "EQMP: line 5: line 1 holds a type, expected a thm"),
    ("EQMP 4 6", "EQMP: line 5: reference 6 is not strictly earlier"),
    ("EQMP 4 0", "EQMP: line 5: no line 0"),
    ("DEDUCT 4", "DEDUCT: line 5: DEDUCT takes 2 arguments, got 1"),
    ("DEDUCT 4 4 4", "DEDUCT: line 5: DEDUCT takes 2 arguments, got 3"),
    ("DEDUCT 4 3", "DEDUCT: line 5: line 3 holds a term, expected a thm"),
    ("DEDUCT 5 4", "DEDUCT: line 5: reference 5 is not strictly earlier"),
    ("DEDUCT 0 4", "DEDUCT: line 5: no line 0"),
    ("INSTTYPE", "INSTTYPE: line 5: INSTTYPE takes at least 1 arguments, got 0"),
    ("INSTTYPE 2 A=1", "INSTTYPE: line 5: line 2 holds a term, expected a thm"),
    ("INSTTYPE 4 A=2", "INSTTYPE: line 5: line 2 holds a term, expected a type"),
    ("INSTTYPE 4 A=5", "INSTTYPE: line 5: reference 5 is not strictly earlier"),
    ("INSTTYPE 0 A=1", "INSTTYPE: line 5: no line 0"),
    ("INSTTYPE 4 A", "INSTTYPE: line 5: malformed substitution pair 'A'"),
    ("INST", "INST: line 5: INST takes at least 1 arguments, got 0"),
    ("INST 2 2=2", "INST: line 5: line 2 holds a term, expected a thm"),
    ("INST 4 2=4", "INST: line 5: line 4 holds a thm, expected a term"),
    ("INST 5 2=2", "INST: line 5: reference 5 is not strictly earlier"),
    ("INST 4 0=2", "INST: line 5: no line 0"),
    ("INST 4 3=2", "INST: line 5: INST domain line 3 is not a variable"),
    ("INST 4 2", "INST: line 5: malformed substitution pair '2'"),
    ("AXIOM", "AXIOM: line 5: AXIOM takes 1 argument, got 0"),
    ("AXIOM choice choice", "AXIOM: line 5: AXIOM takes 1 argument, got 2"),
    ("AXIOM nope", "AXIOM: line 5: unknown axiom 'nope'"),
    ("DEFINE c", "DEFINE: line 5: DEFINE takes 2 arguments, got 1"),
    ("DEFINE c 3 3", "DEFINE: line 5: DEFINE takes 2 arguments, got 3"),
    ("DEFINE c 4", "DEFINE: line 5: line 4 holds a thm, expected a term"),
    ("DEFINE c 5", "DEFINE: line 5: reference 5 is not strictly earlier"),
    ("DEFINE c 0", "DEFINE: line 5: no line 0"),
    ("TYPEDEF t mk dest", "TYPEDEF: line 5: TYPEDEF takes 4 arguments, got 3"),
    ("TYPEDEF t mk dest 4 4", "TYPEDEF: line 5: TYPEDEF takes 4 arguments, got 5"),
    ("TYPEDEF t mk dest 2", "TYPEDEF: line 5: line 2 holds a term, expected a thm"),
    ("TYPEDEF t mk dest 5", "TYPEDEF: line 5: reference 5 is not strictly earlier"),
    ("TYPEDEF t mk dest 0", "TYPEDEF: line 5: no line 0"),
    ("SND", "SND: line 5: SND takes 1 argument, got 0"),
    ("SND 4 4", "SND: line 5: SND takes 1 argument, got 2"),
    ("SND 4", "SND: line 5: line 4 is not a TYPEDEF line"),
    ("SND 5", "SND: line 5: reference 5 is not strictly earlier"),
    ("SND 0", "SND: line 5: line 0 is not a TYPEDEF line"),
    ("THM 4", "THM: line 5: THM takes at least 2 arguments, got 1"),
    ("THM 2 |- (x:bool)", "THM: line 5: line 2 holds a term, expected a thm"),
    ("THM 5 |- (x:bool)", "THM: line 5: reference 5 is not strictly earlier"),
    ("THM 0 |- (x:bool)", "THM: line 5: no line 0"),
    ("FOO", "FOO: line 5: unknown command 'FOO'"),
    ("FOO 1 2", "FOO: line 5: unknown command 'FOO'"),
]


class TestArity:
    @pytest.mark.parametrize("line", _SHORT_COMMANDS)
    def test_missing_argument_is_a_line_numbered_failure(self, line, tmp_path, capsys):
        from microhol.cli import main

        path = tmp_path / "short.art"
        path.write_text(art(Theory(), line))
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr()
        assert "error at line 3:" in out.out
        assert "Traceback" not in out.out + out.err

    @pytest.mark.parametrize("line, message", _FAILURES)
    def test_exact_failure(self, line, message):
        thy = Theory()
        rep = check_article(art(thy, *_ARITY_PREFIX, line), thy)
        assert rep.failures == [{"line": 7, "message": message}]

    def test_every_command_is_covered(self):
        from microhol.article import _COMMANDS

        covered = {line.split()[0] for line, _ in _FAILURES}
        assert covered == set(_COMMANDS) | {"FOO"}

    def test_readme_lists_the_table(self):
        from pathlib import Path

        from microhol.article import _COMMANDS

        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        listing = readme.split("Commands: ", 1)[1].split(".\n", 1)[0]
        assert re.findall(r"`([A-Z]+)[^`]*`", listing) == list(_COMMANDS)

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("١. TERM x:bool", 3, "unparsable line: '١. TERM x:bool'"),
            ("1. TERM x:bool\n2. REFL +1", 4, "REFL: line 2: bad line reference '+1'"),
            ("1. TERM x:bool\n2. REFL ١", 4, "REFL: line 2: bad line reference '١'"),
            ("1. TERM x:bool\n2. REFL 0_1", 4, "REFL: line 2: bad line reference '0_1'"),
            ("1. TERM x:bool\n2. REFL 01", 4, "REFL: line 2: bad line reference '01'"),
        ],
        ids=["arabic_indic_line", "plus_sign", "arabic_indic_ref", "underscore", "leading_zero"],
    )
    def test_numbers_are_plain_ascii_decimals(self, body, line, message, tmp_path, capsys):
        from microhol.cli import main

        path = tmp_path / "number.art"
        text = f"{FORMAT_HEADER}\ntheory {Theory().fingerprint()}\n{body}\n"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr()
        assert f"error at line {line}: {message}" in out.out
        assert "Traceback" not in out.out + out.err

    def test_separators_are_ascii(self, tmp_path, capsys):
        from microhol.cli import main

        fp = Theory().fingerprint()
        path = tmp_path / "spaces.art"
        path.write_text(
            f"{FORMAT_HEADER}\ntheory {fp}\n1.\tTERM x:bool\n2. REFL \t1 \r\n"
            "3. THM 2\t|- (x:bool)\t= (x:bool)\n",
            encoding="utf-8",
        )
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        for body, line, message in [
            ("1.\u00a0TERM x:bool", 3, "unparsable line: '1.\\xa0TERM x:bool'"),
            ("1. TERM x:bool\n2. REFL\u20031", 4, "unparsable line: '2. REFL\\u20031'"),
            ("1. TERM x:bool\n2. REFL 1\u2003", 4, "REFL: line 2: bad line reference '1\\u2003'"),
        ]:
            path.write_text(f"{FORMAT_HEADER}\ntheory {fp}\n{body}\n", encoding="utf-8")
            assert main(["check", str(path)]) == 1
            out = capsys.readouterr()
            assert f"error at line {line}: {message}" in out.out
            assert "Traceback" not in out.out + out.err

    def test_extra_argument_rejected(self):
        thy = Theory()
        rep = check_article(art(thy, "TERM x:bool", "REFL 1 1"), thy)
        assert not rep.ok
        assert rep.failures[0] == {
            "line": 4,
            "message": "REFL: line 2: REFL takes 1 argument, got 2",
        }


class TestDeepNesting:
    @pytest.mark.parametrize(
        "lines",
        [
            ["TERM " + "~" * 3000 + "(p:bool)"],
            ["TERM " + "(" * 3000 + "p:bool" + ")" * 3000],
            ["TYPE " + "(" * 3000 + "bool" + ")" * 3000],
            ["TERM p:bool", "REFL 1", "THM 2 |- " + "~" * 3000 + "(p:bool)"],
        ],
    )
    def test_too_deep_is_a_line_numbered_failure(self, lines):
        thy = install_logic(Theory()).theory
        rep = check_article(art(thy, *lines), thy)
        assert not rep.ok
        failure = rep.failures[0]
        assert failure["line"] == 2 + len(lines)
        assert "input nested too deeply" in failure["message"]

    def test_kernel_depth_is_a_line_numbered_failure(self):
        # the terms are built without recursion; comparing them in TRANS
        # recurses once per application
        thy = Theory()
        lines = deep_comb_chain(3000)
        rep = check_article(art(thy, *lines), thy)
        assert not rep.ok
        assert rep.failures == [
            {"line": 2 + len(lines), "message": "TRANS: term nested too deeply"}
        ]


class TestDeterminism:
    def test_two_replays_identical(self):
        thy1, thy2 = Theory(), Theory()
        text = art(
            thy1,
            "TERM x:ind",
            "REFL 1",
            "TRANS 2 2",
            "THM 3 |- (x:ind) = (x:ind)",
        )
        a = check_article(text, thy1).to_json()
        b = check_article(text, thy2).to_json()
        assert a == b

    def test_standard_theory_resolution(self):
        fresh = Theory()
        text = art(fresh, "TERM x:bool")
        assert standard_theory_for(text).fingerprint() == fresh.fingerprint()
        boot = Theory()
        install_logic(boot)
        text2 = f"{FORMAT_HEADER}\ntheory {boot.fingerprint()}\n1. TERM T\n"
        assert standard_theory_for(text2).fingerprint() == boot.fingerprint()
        with pytest.raises(FingerprintMismatch):
            standard_theory_for(f"{FORMAT_HEADER}\ntheory {'1' * 64}\n")


class TestNoKernelBypass:
    def test_replay_goes_through_primitives_only(self):
        from microhol.audit import replay_trace
        from microhol.kernel import PRIMITIVE_RULES, tracing
        from microhol.syntax import alpha_equiv

        thy = Theory()
        text = art(
            thy,
            "TERM x:bool",
            "REFL 1",
            "TRANS 2 2",
            "ASSUME 1",
            "DEDUCT 4 4",
            "THM 5 |- (x:bool) <=> (x:bool)",
        )
        with tracing() as log:
            rep = check_article(text, thy)
        assert rep.ok
        names = {name for name, _, _ in log}
        assert names <= set(PRIMITIVE_RULES)
        assert replay_trace(log)
        # every theorem the article produced appears as a traced result
        produced = [res.conclusion for _, _, res in log]
        assert any(alpha_equiv(c, log[-1][2].conclusion) for c in produced)


class TestStats:
    def test_histogram(self):
        thy = Theory()
        text = art(thy, "TERM x:bool", "REFL 1", "TRANS 2 2")
        stats = article_stats(text)
        assert stats["line_count"] == 3
        assert stats["commands"] == {"REFL": 1, "TERM": 1, "TRANS": 1}


def _replay(theory, *lines):
    return check_article(art(theory, *lines), theory)


class TestParseMemo:
    """A replay parses each distinct term text once, and forgets the parses
    whenever a definition changes what a name means.  It prints each
    distinct THM part once."""

    def test_define_empties_the_memo(self):
        # before line 4, `(c:bool)` is a variable; after it, the constant
        rep = _replay(
            Theory(),
            "TERM (c:bool)",
            "ASSUME 1",
            "TERM (\\x:bool. x) = (\\x:bool. x)",
            "DEFINE c 3",
            "THM 2 (c:bool) |- (c:bool)",
        )
        assert rep.failures == [
            {
                "line": 7,
                "message": "THM: line 5: conclusion mismatch: produced (c:bool) |- (c:bool)",
            }
        ]

    def test_typedef_empties_the_memo(self):
        # after line 5, `mk` is the abs constant, which no `bool` fits
        rep = _replay(
            Theory(),
            "TERM (mk:bool)",
            "ASSUME 1",
            "TERM \\p:bool. p",
            "REFL 3",
            "TYPEDEF idty mk dest 4",
            "THM 2 (mk:bool) |- (mk:bool)",
        )
        assert rep.failures == [
            {
                "line": 8,
                "message": "THM: 1:2: 'mk' is a constant and bool does not fit it",
            }
        ]

    def test_define_between_identical_texts_parses_afresh(self, monkeypatch):
        body = "(\\x:bool. x) = (\\x:bool. x)"
        parsed = _counted(monkeypatch, "parse_term")
        rep = _replay(Theory(), f"TERM {body}", "DEFINE c 1", f"TERM {body}", "REFL 3")
        assert rep.ok and parsed == [body, body]
        # with no DEFINE between, the second text is not parsed
        parsed.clear()
        rep = _replay(Theory(), f"TERM {body}", "REFL 1", f"TERM {body}", "REFL 3")
        assert rep.ok and parsed == [body]

    def test_a_repeated_text_gives_the_same_term(self):
        thy = Theory()
        replay = _Replay(thy)
        t = replay.term("(p:bool) = (q:bool)")
        assert replay.term("(p:bool) = (q:bool)") is t

    def test_seed_1_benchmark_report_is_unchanged(self):
        # the report of the article the benchmark replays, pinned before
        # the memo and the parser's fast paths were added
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "article_gen", root / "perfbench" / "article_gen.py"
        )
        article_gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(article_gen)
        rep = check_article(article_gen.generate(1, 2000), Theory())
        assert rep.ok
        assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
            "34f49dfa5fc36a496ddf50f95f996dddba17dd152ca670647099123eb9a119db"
        )


def _counted(monkeypatch, name):
    """The first arguments of every call of `article`'s `name` from now on."""
    calls = []
    real = getattr(article, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(article, name, counting)
    return calls


class TestThmText:
    """Over a theory with no definitions, a THM text that is the theorem's
    own printing is accepted unparsed; any other text is parsed."""

    @given(bool_terms, bool_terms, st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_printed_respaced_and_renamed_texts_agree(self, p, q, seed):
        th = kernel.deduct_antisym(kernel.assume(p), kernel.assume(q))
        printed = print_sequent(th.assumptions, th.conclusion)
        rng = random.Random(seed)
        renamed = print_sequent(
            [alpha_variant(rng, h) for h in th.assumptions],
            alpha_variant(rng, th.conclusion),
        )
        reports = []
        for text in (printed, printed.replace("|- ", "|-  "), renamed):
            with pytest.MonkeyPatch.context() as mp:
                calls = _counted(mp, "parse_sequent")
                rep = _replay(
                    Theory(),
                    f"TERM {print_term(p)}",
                    f"TERM {print_term(q)}",
                    "ASSUME 1",
                    "ASSUME 2",
                    "DEDUCT 3 4",
                    f"THM 5 {text}",
                )
            assert calls == ([] if text == printed else [text])
            reports.append(rep.to_json())
        assert rep.ok
        # the respaced text is always parsed: the others report as it does
        assert reports == [reports[1]] * 3

    def test_the_seed_1_benchmark_article_parses_no_sequent(self, monkeypatch):
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "article_gen", root / "perfbench" / "article_gen.py"
        )
        article_gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(article_gen)
        text = article_gen.generate(1, 2000)
        calls = _counted(monkeypatch, "parse_sequent")
        rep = check_article(text, Theory())
        assert rep.ok and len(rep.theorems) == 2000
        assert calls == []

    def test_a_printed_theorem_deeper_than_the_parser_reads_is_accepted(self):
        lines = deep_comb_chain(300)[:-1]
        f, t = Var("f", fn(BOOL, BOOL)), Var("x", BOOL)
        for _ in range(300):
            t = Comb(f, t)
        text = print_sequent((), mk_eq(t, t))
        with pytest.raises(ParseError, match="input nested too deeply"):
            parse_sequent(text, Theory())
        rep = _replay(Theory(), *lines, f"THM {len(lines)} {text}")
        assert rep.ok and rep.theorems == [text]

    def test_a_truth_constant_under_a_binder_of_its_name(self, theory):
        text = "|- (\\T:ind. (T:bool)) = (\\T:ind. (T:bool))"
        rep = _replay(theory, "TERM \\T:ind. (T:bool)", "REFL 1", f"THM 2 {text}")
        assert rep.ok and rep.theorems == [text]

    def test_a_theory_with_definitions_parses_every_text(self, monkeypatch):
        # `t` names a constant here, so the axiom's free variable `t` prints
        # as `(t:A -> B)`, which reads back as the constant
        thy = Theory()
        kernel.new_basic_definition(thy, "t", parse_term("\\x:A. @y:B. y = y", thy))
        ext = kernel.axiom_extensionality()
        text = print_sequent(ext.assumptions, ext.conclusion)
        assert text == "|- (\\x:A. (t:A -> B) x) = (t:A -> B)"
        calls = _counted(monkeypatch, "parse_sequent")
        rep = _replay(thy, "AXIOM extensionality", f"THM 1 {text}")
        assert calls == [text]
        assert rep.failures == [
            {"line": 4, "message": f"THM: line 2: conclusion mismatch: produced {text}"}
        ]
