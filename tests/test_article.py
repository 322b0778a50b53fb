import pytest

from microhol.article import (
    FORMAT_HEADER,
    FingerprintMismatch,
    article_stats,
    check_article,
    standard_theory_for,
)
from microhol.bootstrap import install_logic
from microhol.kernel import Theory


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
        assert thy.has_constant("myconst")


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
        from microhol.kernel import PRIMITIVE_RULES, tracing, replay_trace
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
