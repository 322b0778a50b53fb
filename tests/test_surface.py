import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microhol import surface
from microhol.audit import check_term, check_type
from microhol.fuzz import TermGen
from microhol.kernel import Theory, new_basic_definition
from microhol.surface import (
    ParseError,
    UnknownConstant,
    parse_sequent,
    parse_term,
    parse_type,
    print_sequent,
    print_term,
    print_type,
)
from microhol.syntax import (
    BOOL,
    IND,
    Abs,
    Comb,
    Const,
    TyApp,
    TyVar,
    Var,
    alpha_equiv,
    fn,
    mk_abs,
    mk_comb,
    mk_eq,
    type_match,
)

from .oracles import (
    legacy_lex,
    legacy_parse_sequent,
    legacy_parse_term,
    legacy_parse_type,
)
from .test_kernel import predicate_type_theory


class TestTypes:
    @pytest.mark.parametrize(
        "src,want",
        [
            ("bool", BOOL),
            ("ind", IND),
            ("A", TyVar("A")),
            ("B2", TyVar("B2")),
            ("bool -> bool", fn(BOOL, BOOL)),
            ("bool -> bool -> ind", fn(BOOL, fn(BOOL, IND))),
            ("(bool -> bool) -> ind", fn(fn(BOOL, BOOL), IND)),
        ],
    )
    def test_parse(self, src, want, theory):
        assert parse_type(src, theory) == want

    def test_roundtrip(self, theory):
        for ty in (fn(fn(BOOL, IND), fn(TyVar("A"), BOOL)), BOOL, TyVar("A")):
            assert parse_type(print_type(ty), theory) == ty

    def test_applied_constructors_roundtrip(self):
        thy = predicate_type_theory("T")
        A = TyVar("A")

        def t(arg):
            return TyApp("t", (arg,))

        for ty, text in (
            (t(t(A)), "t (t A)"),
            (fn(t(A), BOOL), "t A -> bool"),
            (fn(BOOL, t(fn(A, A))), "bool -> t (A -> A)"),
        ):
            assert print_type(ty) == text
            assert parse_type(print_type(ty), thy) is ty

    def test_unknown_constructor(self, theory):
        with pytest.raises(ParseError):
            parse_type("mystery", theory)

    def test_no_theory_reads_a_fresh_theory(self):
        assert parse_type("ind -> bool") == fn(IND, BOOL)
        with pytest.raises(ParseError, match="1:1: unknown type constructor 'foo'"):
            parse_type("foo")
        with pytest.raises(UnknownConstant, match="1:1: constant 'forall'"):
            parse_term("!x:bool. x")


class TestTermParsing:
    def test_annotated_abstraction(self, theory):
        t = parse_term(r"\x:bool. x", theory)
        assert t == mk_abs(Var("x", BOOL), Var("x", BOOL))

    def test_unannotated_binder_rejected(self, theory):
        with pytest.raises(ParseError) as err:
            parse_term(r"\x. x", theory)
        assert "mandatory" in str(err.value)

    def test_eta_equation_types(self, theory):
        t = parse_term(r"(\x:A. (f:A -> B) x) = (f:A -> B)", theory)
        f = Var("f", fn(TyVar("A"), TyVar("B")))
        x = Var("x", TyVar("A"))
        assert t == mk_eq(mk_abs(x, mk_comb(f, x)), f)

    def test_free_vars_need_annotation(self, theory):
        with pytest.raises(ParseError):
            parse_term("zzz", theory)

    def test_free_default(self, theory):
        t = parse_term("p /\\ q", theory, free_default=BOOL)
        assert t.rator.rand == Var("p", BOOL)

    def test_unknown_constant_in_binder(self):
        with pytest.raises(UnknownConstant):
            parse_term("!x:bool. x", Theory())  # no bootstrap: no forall

    def test_positions_in_errors(self, theory):
        with pytest.raises(ParseError) as err:
            parse_term("(x:bool) = (y:ind)", theory)
        assert err.value.line == 1
        assert err.value.col > 1

    def test_errors_print_types_in_the_surface_syntax(self, theory):
        with pytest.raises(ParseError) as err:
            parse_term("(T:ind)", theory)
        assert str(err.value).endswith("'T' is a constant and ind does not fit it")
        with pytest.raises(ParseError) as err:
            parse_term("(/\\:ind -> bool)", theory)
        assert "ind -> bool is not an instance of 'and''s type" in str(err.value)

    def test_binder_sugar(self, theory):
        t = parse_term("!x:ind. x = x", theory)
        assert t.rator == Const("forall", fn(fn(IND, BOOL), BOOL))
        assert isinstance(t.rand, Abs)

    def test_operator_atoms(self, theory):
        t = parse_term("(=:ind -> ind -> bool)", theory)
        assert t == Const("=", fn(IND, fn(IND, BOOL)))
        t = parse_term("(/\\)", theory)
        assert t == Const("and", fn(BOOL, fn(BOOL, BOOL)))
        t = parse_term("(<=>)", theory)
        assert t == Const("=", fn(BOOL, fn(BOOL, BOOL)))

    def test_bare_iff_roundtrip(self, theory):
        iff = Const("=", fn(BOOL, fn(BOOL, BOOL)))
        assert print_term(iff) == "(<=>)"
        assert parse_term(print_term(iff), theory) is iff

    def test_polymorphic_head_inference(self, theory):
        t = parse_term("ONE_ONE (f:ind -> bool)", theory)
        assert t.rator == Const("ONE_ONE", fn(fn(IND, BOOL), BOOL))

    def test_shadowing(self, theory):
        t = parse_term(r"\x:bool. \x:ind. x", theory)
        assert t.body.body == Var("x", IND)

    def test_precedences(self, theory):
        t = parse_term("p \\/ q /\\ r ==> p <=> q", theory, free_default=BOOL)
        # <=> loosest, then ==>, then \/, then /\
        assert t.rator.rator.name == "="
        imp_side = t.rator.rand
        assert imp_side.rator.rator.name == "imp"


class TestSequents:
    def test_parse_and_print(self, theory):
        hyps, concl = parse_sequent(
            "(p:bool), (q:bool) |- (p:bool) /\\ (q:bool)", theory
        )
        assert len(hyps) == 2
        printed = print_sequent(hyps, concl)
        h2, c2 = parse_sequent(printed, theory)
        assert h2 == hyps and c2 == concl

    def test_empty_assumptions(self, theory):
        hyps, concl = parse_sequent("|- T", theory)
        assert hyps == ()
        assert concl == Const("T", BOOL)


@pytest.mark.parametrize(
    "parse, src, message",
    [
        (parse_type, "(", "1:2: expected a type, found 'end of input'"),
        (parse_term, "(x:bool", "1:8: expected ')', found 'end of input'"),
        (parse_term, "~", "1:2: expected a term, found 'end of input'"),
        (parse_sequent, "(p:bool)", "1:9: expected ',' or '|-', found 'end of input'"),
    ],
    ids=["type", "close-paren", "term", "sequent"],
)
def test_end_of_input_is_named(parse, src, message):
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == message


_ROUNDTRIP_THEORY = []


def _roundtrip_theory():
    if not _ROUNDTRIP_THEORY:
        from microhol.bootstrap import install_logic

        _ROUNDTRIP_THEORY.append(install_logic(Theory()).theory)
    return _ROUNDTRIP_THEORY[0]


_SMALL_TYPES = (BOOL, IND, TyVar("A"), fn(BOOL, BOOL), fn(IND, BOOL))


@st.composite
def _constant_terms(draw, theory, ty, bound, depth):
    """A term of type `ty` over the theory's constants, with free variables
    named `x` or `y` and binders named as constants too; `bound` holds
    the binders in scope, innermost last.  A constant-named binder is not
    used under an inner binder of its name, where it prints as a free
    variable would."""
    names = [n for n in theory.term_constants if n[0].isalpha()]
    visible = [
        v
        for i, v in enumerate(bound)
        if v.ty is ty
        and (v.name not in names or all(w.name != v.name for w in bound[i + 1 :]))
    ]
    consts = [
        Const(n, ty)
        for n, generic in theory.term_constants.items()
        if type_match(generic, ty) is not None
    ]
    leaves = [Var(n, ty) for n in ("x", "y")] + visible + consts
    choice = draw(st.integers(0, 3)) if depth > 0 else 0
    if choice == 0:
        return draw(st.sampled_from(leaves))
    if choice == 1 and getattr(ty, "con", None) == "fun":
        v = Var(draw(st.sampled_from(names + ["x", "y"])), ty.args[0])
        body = draw(_constant_terms(theory, ty.args[1], (*bound, v), depth - 1))
        return Abs(v, body)
    arg = draw(st.sampled_from(_SMALL_TYPES))
    f = draw(_constant_terms(theory, fn(arg, ty), bound, depth - 1))
    return Comb(f, draw(_constant_terms(theory, arg, bound, depth - 1)))


class TestRoundTrip:
    @given(st.integers(0, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_parse_print_identity(self, seed):
        # parse after print is the identity *exactly* (binder names and
        # all); print after parse is then a fixed point
        theory = _roundtrip_theory()
        rng = random.Random(seed)
        g = TermGen(rng, max_free=4)
        t = g.term(g.small_type(), rng.randrange(0, 7))
        s = print_term(t)
        t2 = parse_term(s, theory)
        assert t2 == t, s
        assert print_term(t2) == s

    def test_free_variable_with_a_constant_name_reads_back_as_the_constant(self):
        # the exception to parse(print(t)) == t: an annotated name that
        # the theory has as a constant of a fitting type is the constant
        theory = _roundtrip_theory()
        assert print_term(Var("T", BOOL)) == "(T:bool)"
        assert parse_term("(T:bool)", theory) == Const("T", BOOL)

    def test_truth_constant_under_a_binder_of_its_name(self):
        theory = _roundtrip_theory()
        t = parse_term("\\T:ind. (T:bool)", theory)
        assert t == Abs(Var("T", IND), Const("T", BOOL))
        assert print_term(t) == "\\T:ind. (T:bool)"
        assert parse_term(print_term(t), theory) == t

    @pytest.mark.parametrize(
        "t, src",
        [
            (
                Abs(Var("x", BOOL), Abs(Var("x", IND), Var("x", IND))),
                "\\x:bool. \\x:ind. x",
            ),
            (
                # the bound T bare, the constant T annotated
                Abs(Var("T", BOOL), mk_eq(Var("T", BOOL), Const("T", BOOL))),
                "\\T:bool. T <=> (T:bool)",
            ),
        ],
        ids=["binder-of-another-type", "truth-named-binder"],
    )
    def test_shadowing_binders_print_and_read_back(self, t, src):
        assert print_term(t) == src
        assert parse_term(src, _roundtrip_theory()) == t

    def test_a_shadowed_constant_named_binder_prints_as_a_free_variable(self):
        # the other exception: the outer `not` under an inner `not` binder
        outer = Var("not", BOOL)
        quant = Const("exists", fn(fn(fn(IND, IND), BOOL), BOOL))
        t = Abs(outer, Comb(quant, Abs(Var("not", fn(IND, IND)), outer)))
        assert print_term(t) == "\\not:bool. ?not:ind -> ind. (not:bool)"
        with pytest.raises(ParseError):
            parse_term(print_term(t), _roundtrip_theory())

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_constants_and_binders_named_as_constants(self, data):
        theory = _roundtrip_theory()
        t = data.draw(_constant_terms(theory, BOOL, (), 4))
        s = print_term(t)
        assert parse_term(s, theory) == t, s

    def test_print_parse_modulo_whitespace(self):
        theory = _roundtrip_theory()
        src = "!x:ind.   x =    x"
        t = parse_term(src, theory)
        assert print_term(t) == "!x:ind. x = x"
        assert parse_term(print_term(t), theory) == t


# Surface tokens, whitespace, stray characters, and characters on either
# side of the identifier rules: `é` and `λ` are letters, `²` and `½` are
# alphanumeric but not letters, `'` may only continue an identifier.
_PIECES = [
    "==>", "<=>", "|-", "->", "/\\", "\\/", *"\\().:,=~!?@",
    " ", "\t", "\r", "\n", "\x0c", "\u00a0",
    "x", "p", "T", "A", "A1", "bool", "ind", "fun", "é", "λ", "²", "½", "'", "_",
    "1", "#", "<", "/", "|", "-", "$",
]
_BOOL2 = fn(BOOL, fn(BOOL, BOOL))


def _formula(g, rng, depth):
    """A boolean term using every connective, over TermGen atoms."""
    r = rng.random()
    if depth <= 0 or r < 0.25:
        return g.term(BOOL, rng.randrange(0, 4))
    if r < 0.35:
        return mk_comb(Const("not", fn(BOOL, BOOL)), _formula(g, rng, depth - 1))
    if r < 0.45:
        v = g.var(g.small_type())
        q = Const(rng.choice(("forall", "exists")), fn(fn(v.ty, BOOL), BOOL))
        return mk_comb(q, mk_abs(v, _formula(g, rng, depth - 1)))
    left, right = _formula(g, rng, depth - 1), _formula(g, rng, depth - 1)
    op = rng.choice(("and", "or", "imp", "="))
    if op == "=":
        return mk_eq(left, right)
    return mk_comb(mk_comb(Const(op, _BOOL2), left), right)


def _edited(rng, src):
    """`src` with a few pieces inserted, spans deleted or tokens swapped."""
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(src) + 1)
        r = rng.random()
        if r < 0.4:
            src = src[:i] + rng.choice(_PIECES) + src[i:]
        elif r < 0.7:
            src = src[:i] + src[i + rng.randrange(1, 4):]
        else:
            old, new = rng.sample(("/\\", "\\/", "==>", "<=>", "=", "~", "(", ")"), 2)
            src = src.replace(old, new, 1)
    return src


def _tokens(src):
    toks = surface._lex(src)
    n = len(toks) - surface._EOF_PAD
    kinds = ["punct" if t in surface._PUNCT else "ident" for t in toks[:n]] + ["eof"]
    return [(k, t, *surface._position(src, i)) for i, (k, t) in enumerate(zip(kinds, toks))]


def _legacy_tokens(src):
    return [(t.kind, t.text, t.line, t.col) for t in legacy_lex(src)]


def _outcome(parse, *args, **kw):
    """("ok", value) or ("error", type, message, line, col)."""
    try:
        return ("ok", parse(*args, **kw))
    except Exception as exc:
        return ("error", type(exc).__name__, str(exc),
                getattr(exc, "line", None), getattr(exc, "col", None))


def _same_terms(a, b):
    return alpha_equiv(a, b) and a.ty == b.ty


def _assert_matches_legacy(src):
    assert _outcome(_tokens, src) == _outcome(_legacy_tokens, src), src
    for theory in (_roundtrip_theory(), Theory()):
        for free_default in (None, BOOL):
            new = _outcome(parse_term, src, theory, free_default)
            old = _outcome(legacy_parse_term, src, theory, free_default)
            if new[0] == old[0] == "ok":
                assert _same_terms(new[1], old[1]), src
            else:
                assert new == old, src
        new = _outcome(parse_sequent, src, theory)
        old = _outcome(legacy_parse_sequent, src, theory)
        if new[0] == old[0] == "ok":
            (h1, c1), (h2, c2) = new[1], old[1]
            assert len(h1) == len(h2) and all(map(_same_terms, h1, h2)), src
            assert _same_terms(c1, c2), src
        else:
            assert new == old, src
        assert _outcome(parse_type, src, theory) == _outcome(legacy_parse_type, src, theory), src


class TestAgainstLegacyFrontEnd:
    """The regex tokenizer and the precedence-climbing parser give the
    tokens, positions, trees and errors of the per-character lexer and the
    one-method-per-level parser kept in `oracles`."""

    @given(st.integers(0, 10**9))
    @settings(max_examples=200, deadline=None)
    def test_printed_and_edited_text(self, seed):
        rng = random.Random(seed)
        g = TermGen(rng, max_free=4)
        hyps = [_formula(g, rng, 2) for _ in range(rng.randrange(0, 3))]
        concl = _formula(g, rng, rng.randrange(0, 4))
        for src in (
            print_term(concl),
            print_sequent(hyps, concl),
            print_type(g.small_type()),
        ):
            _assert_matches_legacy(src)
            _assert_matches_legacy(_edited(rng, src))

    @given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_random_strings(self, src):
        _assert_matches_legacy(src)

    @pytest.mark.parametrize(
        "src",
        ["x\u00b2 = x\u00b2", "\u00b2x", "\u00bd", "x\u00bd'", "a\n  b \u00b2", "\u00e9\u03bb'1_", "p\n\t/\\ #"],
    )
    def test_identifier_edges(self, src):
        _assert_matches_legacy(src)


class TestTrailingWhitespace:
    def test_is_scanned_once(self):
        # a search retrying the token pattern at every trailing blank
        # takes time quadratic in their number
        blanks = " \n" * 25_000
        start = time.perf_counter()
        assert parse_term("(p:bool)" + blanks, _roundtrip_theory()) == Var("p", BOOL)
        with pytest.raises(ParseError) as err:
            parse_term("(p:bool" + blanks, _roundtrip_theory())
        assert (err.value.line, err.value.col) == (25_001, 1)
        assert time.perf_counter() - start < 2.0


class TestDeepNesting:
    @pytest.mark.parametrize(
        "parse,src",
        [
            (parse_term, "~" * 3000 + "p"),
            (parse_term, "(" * 3000 + "p" + ")" * 3000),
            (parse_sequent, "|- " + "(" * 3000 + "p" + ")" * 3000),
            (parse_type, "(" * 3000 + "bool" + ")" * 3000),
            (parse_type, "bool -> " * 3000 + "bool"),
        ],
    )
    def test_is_a_parse_error(self, parse, src):
        with pytest.raises(ParseError) as err:
            parse(src, _roundtrip_theory())
        assert "input nested too deeply" in str(err.value)
        assert err.value.line == 1 and 1 < err.value.col <= len(src)

    def test_deep_printed_application_reads_back(self):
        # f (f (... x)), written as the printer writes it, 180 deep
        f, t = Var("f", fn(IND, IND)), Var("x", IND)
        for _ in range(180):
            t = Comb(f, t)
        assert parse_term(print_term(t), _roundtrip_theory()) == t


_REDEFINED_THEORY = []


def _redefined_theory():
    """A fresh theory with `and` and `not` defined at bool, and `forall`
    at bool by a body over ind: no connective token names its constant."""
    if not _REDEFINED_THEORY:
        thy = Theory()
        for name, ty in (("and", BOOL), ("not", BOOL), ("forall", IND)):
            x = Var("x", ty)
            new_basic_definition(thy, name, mk_eq(mk_abs(x, x), mk_abs(x, x)))
        _REDEFINED_THEORY.append(thy)
    return _REDEFINED_THEORY[0]


# The six connective forms the redefined theory has no constant for.
_CONNECTIVE_FORMS = [
    ("(p:bool) /\\ (q:bool)", "1:10: bool -> bool -> bool is not an instance of 'and''s type"),
    ("~(p:bool)", "1:1: bool -> bool is not an instance of 'not''s type"),
    ("!x:bool. x", "1:1: (bool -> bool) -> bool is not an instance of 'forall''s type"),
    ("(/\\)", "1:2: bool -> bool -> bool is not an instance of 'and''s type"),
    ("(~)", "1:2: bool -> bool is not an instance of 'not''s type"),
    (
        "(!:(bool->bool)->bool)",
        "1:2: (bool -> bool) -> bool is not an instance of 'forall''s type",
    ),
]
_TYPE_TEXTS = [
    "bool", "ind", "A", "bool -> bool", "bool -> bool -> bool",
    "(bool -> bool) -> bool", "(ind -> bool) -> bool", "(A -> bool) -> bool",
]
# Connective forms, bare and annotated: `{a}` and `{b}` are operands,
# `{ty}` a type.
_FORM_TEMPLATES = [
    "{a} /\\ {b}", "{a} \\/ {b}", "{a} ==> {b}", "{a} <=> {b}", "~{a}",
    "!x:{ty}. {a}", "?x:{ty}. {a}", "@x:{ty}. {a}",
    "(/\\)", "(/\\:{ty})", "(~)", "(~:{ty})", "(==>:{ty}) {a}",
    "(!)", "(!:{ty})", "(?) (P:{ty})", "(!) (P:ind -> bool)", "(=:{ty})", "(<=>:{ty})",
]
_OPERANDS = ["p", "(p:bool)", "x", "(x:{ty})", "T", "(T:{ty})", "and", "(not:{ty})"]


@st.composite
def _signature_sources(draw):
    """A printed random formula or sequent, or a connective form."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 10**9)))
        g = TermGen(rng, max_free=4)
        hyps = [_formula(g, rng, 2) for _ in range(rng.randrange(0, 3))]
        concl = _formula(g, rng, rng.randrange(0, 4))
        return draw(st.sampled_from((print_term(concl), print_sequent(hyps, concl))))
    a, b = (draw(st.sampled_from(_OPERANDS)) for _ in range(2))
    src = draw(st.sampled_from(_FORM_TEMPLATES)).format(a=a, b=b, ty="{ty}")
    return src.format(ty=draw(st.sampled_from(_TYPE_TEXTS)))


class TestSignature:
    """Over a theory, the parser builds each constant at an instance of the
    theory's type for it, and each type with registered constructors."""

    @pytest.mark.parametrize("src,message", _CONNECTIVE_FORMS)
    def test_a_connective_the_theory_lacks_is_refused(self, src, message):
        with pytest.raises(ParseError) as err:
            parse_term(src, _redefined_theory())
        assert str(err.value) == message
        assert err.value.line == 1 and err.value.col >= 1

    @pytest.mark.parametrize("src", ["(!) (P:ind->bool)", "(?) (P:ind->bool)"])
    def test_a_quantifier_atom_needs_the_quantifier(self, src):
        with pytest.raises(UnknownConstant, match="1:2: constant '(forall|exists)'"):
            parse_term(src, Theory())

    @given(
        _signature_sources(),
        st.sampled_from(_TYPE_TEXTS + ["bool -> A1", "fun bool ind", "ind bool", "w bool"]),
        st.sampled_from((None, BOOL)),
    )
    @settings(max_examples=300, deadline=None)
    def test_whatever_parses_passes_the_audit(self, src, type_text, free_default):
        for theory in (_roundtrip_theory(), _redefined_theory()):
            for parse in (lambda s, t: parse_term(s, t, free_default), parse_sequent):
                try:
                    parsed = parse(src, theory)
                except (ParseError, UnknownConstant):
                    continue
                hyps, concl = parsed if parse is parse_sequent else ((), parsed)
                for t in (*hyps, concl):
                    check_term(theory, t)
            try:
                ty = parse_type(type_text, theory)
            except ParseError:
                continue
            check_type(theory, ty)
