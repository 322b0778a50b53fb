"""Proof articles: a line-based, bit-exact format that replays primitive
inference through the kernel in batch.

Format (UTF-8, LF line endings; `#` starts a comment line):

    microhol-article 1
    theory <sha256 hex of the base theory's definition log>
    1. TERM x:bool
    2. REFL 1
    3. THM 2 |- (x:bool) = (x:bool)

Commands (one table, `_COMMANDS`, gives each one's argument kinds, and
for REFL to DEDUCT the kernel rule it calls):

    TYPE s | TERM s | REFL t | TRANS a b | MKCOMB a b | ABS v t |
    BETA t | ASSUME t | EQMP a b | DEDUCT a b | INSTTYPE t A=ty ... |
    INST t v=tm ... | AXIOM name | DEFINE name t | TYPEDEF ty abs rep t |
    SND t | THM t <sequent>

An INSTTYPE pair names a type variable (a capital letter, then any
digits: A, B1) and an INST pair a variable's TERM line; each type
variable or variable is given at most once per line.

A TYPEDEF line holds the abs/rep bijection theorem; SND on that line
number retrieves the second (predicate characterization) theorem.
Lines are numbered consecutively from 1 and may only reference strictly
earlier lines (the proof is a DAG unfolded in order).  THM declares an
expected sequent.  If the theory has no definitions and the text is the
line's theorem exactly as `print_sequent` writes it, THM accepts it
without parsing: over that signature the printing reads back as the
theorem.  Any other text is parsed and compared modulo
alpha-equivalence.

The parser checks every name and type constructor of a TERM or TYPE
line against the theory's signature as it stands, and nothing checks
them again.  One replay (one `check_article` call) remembers each
distinct TERM text, with the term parsed from it, and forgets it when it
returns.  A parse depends on the signature, so each DEFINE and TYPEDEF
line forgets them all.

Replay produces theorems exclusively through kernel calls; the first
failure aborts the run and is reported with its line number.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from functools import cmp_to_key

from . import kernel
from .kernel import Theorem, Theory
from .surface import _is_tyvar_name, parse_sequent, parse_term, parse_type, print_sequent
from .syntax import (
    HolError,
    HolType,
    Term,
    Var,
    alpha_equiv,
    term_compare,
)

__all__ = [
    "FORMAT_HEADER",
    "ReplayError",
    "FingerprintMismatch",
    "DanglingReference",
    "ArticleReport",
    "check_article",
    "article_stats",
    "standard_theory_for",
]

FORMAT_HEADER = "microhol-article 1"

# Line numbers and references are plain ASCII decimals with no leading
# zero, sign or digit separator, and fields are separated by ASCII spaces
# and tabs only, so each line has exactly one spelling.  A line's ends are
# stripped of `_BLANKS` (ASCII, with the CR of a CRLF line end).
_BLANKS = " \t\r"
_LINE_RE = re.compile(r"^([1-9][0-9]*)\.[ \t]+([A-Z]+)(?:[ \t]+(.*))?$")
_SEP_RE = re.compile(r"[ \t]+")
_REF_RE = re.compile(r"0|[1-9][0-9]*")


def _fields(rest: str, maxsplit: int = -1) -> list[str]:
    """`rest`, which has no blank at either end, split at runs of ASCII
    spaces and tabs, at most `maxsplit` times if that is not negative."""
    if not rest:
        return []
    if maxsplit == 0:
        return [rest]
    return _SEP_RE.split(rest, max(maxsplit, 0))


class ReplayError(HolError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class FingerprintMismatch(HolError):
    """No standard theory has the fingerprint an article declares;
    `report` is the failed check, at the theory line."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.report = ArticleReport(ok=False, line_count=0).fail(line, message)


class DanglingReference(HolError):
    pass


@dataclass
class ArticleReport:
    ok: bool
    line_count: int
    theorems: list[str] = field(default_factory=list)
    uses_infinity: list[bool] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    fingerprint: str = ""

    def fail(self, line: int, message: str) -> ArticleReport:
        self.ok = False
        self.failures.append({"line": line, "message": message})
        return self

    def to_json(self) -> str:
        payload = asdict(self) | {"format": FORMAT_HEADER}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def render(self) -> str:
        lines = [
            f"article: {'ok' if self.ok else 'FAILED'}",
            f"lines:   {self.line_count}",
            f"theorems: {len(self.theorems)}",
        ]
        for t, inf in zip(self.theorems, self.uses_infinity):
            flag = "  [uses-infinity]" if inf else ""
            lines.append(f"  {t}{flag}")
        for f in self.failures:
            lines.append(f"error at line {f['line']}: {f['message']}")
        return "\n".join(lines)


_AXIOMS = {
    "extensionality": lambda thy: kernel.axiom_extensionality(),
    "choice": kernel.axiom_choice,
    "infinity": kernel.axiom_infinity,
}


# Command -> (kernel rule or None, argument kinds in the order they are
# checked).  "term", "thm", "type": the number of an earlier line holding
# one; "var": a TERM line holding a variable; "typedef": a TYPEDEF line,
# for its second theorem; "name": a bare word; "pairs": any number of
# `a=b` tokens; "text": the rest of the line.  A rule is looked up on
# `kernel` at each call, so a wrapper installed there sees it.
_COMMANDS = {
    "TYPE": (None, "text"),
    "TERM": (None, "text"),
    "REFL": ("refl", "term"),
    "TRANS": ("trans", "thm", "thm"),
    "MKCOMB": ("mk_comb_rule", "thm", "thm"),
    "ABS": ("abs_rule", "var", "thm"),
    "BETA": ("beta", "term"),
    "ASSUME": ("assume", "term"),
    "EQMP": ("eq_mp", "thm", "thm"),
    "DEDUCT": ("deduct_antisym", "thm", "thm"),
    "INSTTYPE": (None, "thm", "pairs"),
    "INST": (None, "thm", "pairs"),
    "AXIOM": (None, "name"),
    "DEFINE": (None, "name", "term"),
    "TYPEDEF": (None, "name", "name", "name", "thm"),
    "SND": (None, "typedef"),
    "THM": (None, "thm", "text"),
}


class _Replay:
    def __init__(self, theory: Theory):
        self.theory = theory
        self.slots: dict[int, tuple[str, object]] = {}
        self.pending_second: dict[int, Theorem] = {}
        # exact TERM line text -> the term parsed from it under the current
        # signature; emptied whenever a definitional rule changes that.
        # `parsed` holds only terms that the slots hold too.
        self.parsed: dict[str, Term] = {}

    def term(self, text: str) -> Term:
        t = self.parsed.get(text)
        if t is None:
            t = self.parsed[text] = parse_term(text, self.theory)
        return t

    def forget_signature(self):
        """Drop what depends on the signature, which is about to change."""
        self.parsed.clear()

    def ref(self, tok: str, line: int, kind: str):
        if not _REF_RE.fullmatch(tok):
            raise ReplayError(line, f"bad line reference {tok!r}")
        n = int(tok)
        if n >= line:
            raise DanglingReference(
                f"line {line}: reference {n} is not strictly earlier"
            )
        if kind == "typedef":
            th2 = self.pending_second.get(n)
            if th2 is None:
                raise ReplayError(line, f"line {n} is not a TYPEDEF line")
            return th2
        got = self.slots.get(n)
        if got is None:
            raise DanglingReference(f"line {line}: no line {n}")
        if got[0] != kind:
            raise DanglingReference(
                f"line {line}: line {n} holds a {got[0]}, expected a {kind}"
            )
        return got[1]

    def arguments(self, no: int, cmd: str, kinds: list[str], rest: str) -> list:
        """The arguments of line `no`, resolved in table order.  The line is
        split only into as many fields as its kinds take (and one more, to
        see an extra argument); a trailing text is the rest of the line."""
        n, last = len(kinds), kinds[-1]
        toks = _fields(rest, -1 if last == "pairs" else n - (last == "text"))
        least = n - (last == "pairs")
        most = None if last in ("pairs", "text") else n
        if len(toks) < least or (most is not None and len(toks) > most):
            wanted = str(least) if most is not None else f"at least {least}"
            noun = "argument" if wanted == "1" else "arguments"
            got = len(_fields(rest))
            raise ReplayError(no, f"{cmd} takes {wanted} {noun}, got {got}")
        args = []
        for i, kind in enumerate(kinds):
            if kind in ("text", "name"):
                args.append(toks[i])
            elif kind == "pairs":
                bad = [tok for tok in toks[i:] if "=" not in tok]
                if bad:
                    raise ReplayError(no, f"malformed substitution pair {bad[0]!r}")
                args.append([tok.split("=", 1) for tok in toks[i:]])
            elif kind == "var":
                v = self.ref(toks[i], no, "term")
                if not isinstance(v, Var):
                    raise ReplayError(no, f"{cmd} needs a variable TERM line")
                args.append(v)
            else:
                args.append(self.ref(toks[i], no, kind))
        return args


def _read_header(text: str) -> tuple[list[tuple[int, str]], int, str]:
    """An article's content lines as (source line number, stripped text),
    the number of its theory line, and the fingerprint that line declares.
    Raises ReplayError at a missing or malformed header line."""
    body = []
    for i, raw in enumerate(text.split("\n"), start=1):
        s = raw.strip(_BLANKS)
        if s and not s.startswith("#"):
            body.append((i, s))
    if not body or body[0][1] != FORMAT_HEADER:
        raise ReplayError(body[0][0] if body else 1, "missing or bad format header")
    if len(body) < 2 or not body[1][1].startswith("theory "):
        raise ReplayError(body[1][0] if len(body) > 1 else 1, "missing theory fingerprint")
    return body, body[1][0], _fields(body[1][1], 1)[1]


def check_article(text: str, theory: Theory) -> ArticleReport:
    """Replay an article against a theory; stops at the first failure."""
    base_fp = theory.fingerprint()
    report = ArticleReport(ok=True, line_count=0, fingerprint=base_fp)
    try:
        body, theory_line, declared_fp = _read_header(text)
    except ReplayError as exc:
        return report.fail(exc.line, exc.message)
    if declared_fp != base_fp:
        return report.fail(
            theory_line,
            f"theory fingerprint mismatch: article wants "
            f"{declared_fp}, base theory is {base_fp}",
        )

    replay = _Replay(theory)
    for expected_no, (src_line, content) in enumerate(body[2:], start=1):
        m = _LINE_RE.match(content)
        if not m:
            return report.fail(src_line, f"unparsable line: {content!r}")
        no = int(m.group(1))
        cmd = m.group(2)
        if no != expected_no:
            return report.fail(src_line, f"expected line number {expected_no}, got {no}")
        report.line_count = expected_no
        try:
            slot = _execute(replay, no, cmd, m.group(3) or "", report)
        except HolError as exc:
            return report.fail(src_line, f"{cmd}: {exc}")
        except RecursionError:
            # The term walkers recurse once per level of nesting.
            return report.fail(src_line, f"{cmd}: term nested too deeply")
        replay.slots[no] = slot
    return report


def _execute(replay: _Replay, no: int, cmd: str, rest: str, report: ArticleReport):
    spec = _COMMANDS.get(cmd)
    if spec is None:
        raise ReplayError(no, f"unknown command {cmd!r}")
    rule, *kinds = spec
    args = replay.arguments(no, cmd, kinds, rest)
    if rule is not None:
        return ("thm", getattr(kernel, rule)(*args))
    theory = replay.theory
    if cmd == "TYPE":
        return ("type", parse_type(args[0], theory))
    if cmd == "TERM":
        return ("term", replay.term(args[0]))
    if cmd == "INSTTYPE":
        th, pairs = args
        types: dict[str, HolType] = {}
        for name, ref in pairs:
            if not _is_tyvar_name(name):
                raise ReplayError(no, f"{name!r} is not a type variable name")
            if name in types:
                raise ReplayError(no, f"type variable {name} is given twice")
            types[name] = replay.ref(ref, no, "type")
        return ("thm", kernel.inst_type_rule(types, th))
    if cmd == "INST":
        th, pairs = args
        terms: dict[Var, Term] = {}
        for vref, tref in pairs:
            v = replay.ref(vref, no, "term")
            if not isinstance(v, Var):
                raise ReplayError(no, f"INST domain line {vref} is not a variable")
            if v in terms:
                raise ReplayError(no, f"INST domain line {vref} repeats variable {v.name}")
            terms[v] = replay.ref(tref, no, "term")
        return ("thm", kernel.inst_rule(terms, th))
    if cmd == "AXIOM":
        if args[0] not in _AXIOMS:
            raise ReplayError(no, f"unknown axiom {args[0]!r}")
        return ("thm", _AXIOMS[args[0]](theory))
    if cmd == "DEFINE":
        replay.forget_signature()
        return ("thm", kernel.new_basic_definition(theory, *args))
    if cmd == "TYPEDEF":
        replay.forget_signature()
        th1, th2 = kernel.new_basic_type_definition(theory, *args)
        # the line itself holds the abs/rep bijection; SND fetches the
        # second theorem (the predicate characterization)
        replay.pending_second[no] = th2
        return ("thm", th1)
    if cmd == "SND":
        return ("thm", args[0])
    # THM
    th, text = args
    produced = print_sequent(th.assumptions, th.conclusion)
    # A theory with no definitions has only the constants `=` and `@`, and
    # no variable can have either name, so the parser would read the
    # theorem's own printing back as the theorem: that text is accepted
    # unread, even nested deeper than the parser reads.
    if text != produced or theory.definition_log:
        hyps, concl = parse_sequent(text, theory)
        if not alpha_equiv(concl, th.conclusion):
            raise ReplayError(no, f"conclusion mismatch: produced {produced}")
        # th.assumptions is sorted by term_compare with no two alpha-equal, so
        # the sorted hyps must match it pairwise; a repeated hyp fails on length
        hyps = sorted(hyps, key=cmp_to_key(term_compare))
        if len(hyps) != len(th.assumptions) or not all(
            map(alpha_equiv, hyps, th.assumptions)
        ):
            raise ReplayError(no, f"assumption mismatch: produced {produced}")
    report.theorems.append(produced)
    report.uses_infinity.append(th.uses_infinity)
    return ("thm", th)


def standard_theory_for(text: str) -> Theory:
    """The base theory an article asks for: fresh, or fresh+bootstrap.

    Articles carrying any other fingerprint must be checked against an
    explicitly constructed theory.  An article without a readable header
    gets the fresh theory; `check_article` reports the fault.
    """
    fresh = Theory()
    try:
        _, line, fp = _read_header(text)
    except ReplayError:
        return fresh
    if fresh.fingerprint() == fp:
        return fresh
    from .bootstrap import install_logic

    boot = Theory()
    install_logic(boot)
    if boot.fingerprint() == fp:
        return boot
    raise FingerprintMismatch(
        line,
        f"article requires theory {fp}; neither the fresh nor the bootstrapped "
        "standard theory matches",
    )


def article_stats(text: str) -> dict:
    """Command histogram and size facts for an article (no replay)."""
    commands: dict[str, int] = {}
    count = 0
    for raw in text.split("\n"):
        s = raw.strip(_BLANKS)
        m = _LINE_RE.match(s)
        if m:
            count += 1
            commands[m.group(2)] = commands.get(m.group(2), 0) + 1
    return {"line_count": count, "commands": dict(sorted(commands.items()))}
