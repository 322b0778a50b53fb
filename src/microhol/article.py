"""Proof articles: a line-based, bit-exact format that replays primitive
inference through the kernel in batch.

Format (UTF-8, LF line endings; `#` starts a comment line):

    microhol-article 1
    theory <sha256 hex of the base theory's definition log>
    1. TERM x:bool
    2. REFL 1
    3. THM 2 |- (x:bool) = (x:bool)

Commands: TYPE s | TERM s | REFL t | TRANS a b | MKCOMB a b | ABS v t |
BETA t | ASSUME t | EQMP a b | DEDUCT a b | INSTTYPE t A=ty ... |
INST t v=tm ... | AXIOM name | DEFINE name t | TYPEDEF ty abs rep t |
SND t | THM t <sequent>.  A TYPEDEF line holds the abs/rep bijection
theorem; SND on that line number retrieves the second (predicate
characterization) theorem.  Lines are numbered consecutively from 1 and may only
reference strictly earlier lines (the proof is a DAG unfolded in order).
THM declares an expected sequent, compared modulo alpha-equivalence.

Replay produces theorems exclusively through kernel calls; the first
failure aborts the run and is reported with its line number.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from . import kernel
from .kernel import Theorem, Theory
from .surface import parse_sequent, parse_term, parse_type, print_sequent
from .syntax import (
    HolError,
    HolType,
    Term,
    Var,
    alpha_equiv,
    term_order_key,
)

__all__ = [
    "FORMAT_HEADER",
    "ReplayError",
    "FingerprintMismatch",
    "DanglingReference",
    "ArticleReport",
    "check_article",
    "check_article_file",
    "article_stats",
    "standard_theory_for",
]

FORMAT_HEADER = "microhol-article 1"

_LINE_RE = re.compile(r"^(\d+)\.\s+([A-Z]+)(?:\s+(.*))?$")


class ReplayError(HolError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class FingerprintMismatch(HolError):
    pass


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

    def to_json(self) -> str:
        payload = {
            "ok": self.ok,
            "line_count": self.line_count,
            "theorems": self.theorems,
            "uses_infinity": self.uses_infinity,
            "failures": self.failures,
            "fingerprint": self.fingerprint,
            "format": FORMAT_HEADER,
        }
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


# Argument count of each command: (least, most), most None for no limit.
# TYPE and TERM read the rest of the line as one type or term.
_ARITY = {
    "TYPE": (1, None),
    "TERM": (1, None),
    "REFL": (1, 1),
    "TRANS": (2, 2),
    "MKCOMB": (2, 2),
    "ABS": (2, 2),
    "BETA": (1, 1),
    "ASSUME": (1, 1),
    "EQMP": (2, 2),
    "DEDUCT": (2, 2),
    "INSTTYPE": (1, None),
    "INST": (1, None),
    "AXIOM": (1, 1),
    "DEFINE": (2, 2),
    "TYPEDEF": (4, 4),
    "SND": (1, 1),
    "THM": (2, None),
}


def _check_arity(no: int, cmd: str, toks: list[str]):
    least, most = _ARITY.get(cmd, (0, None))  # unknown: rejected later
    if least <= len(toks) and (most is None or len(toks) <= most):
        return
    wanted = str(least) if most is not None else f"at least {least}"
    noun = "argument" if wanted == "1" else "arguments"
    raise ReplayError(no, f"{cmd} takes {wanted} {noun}, got {len(toks)}")


class _Replay:
    def __init__(self, theory: Theory):
        self.theory = theory
        self.slots: dict[int, tuple[str, object]] = {}
        self.pending_second: dict[int, Theorem] = {}

    def ref(self, n: int, line: int, kind: str):
        if n >= line:
            raise DanglingReference(
                f"line {line}: reference {n} is not strictly earlier"
            )
        got = self.slots.get(n)
        if got is None:
            raise DanglingReference(f"line {line}: no line {n}")
        if got[0] != kind:
            raise DanglingReference(
                f"line {line}: line {n} holds a {got[0]}, expected a {kind}"
            )
        return got[1]

    def term(self, tok: str, line: int) -> Term:
        return self.ref(int(tok), line, "term")

    def thm(self, tok: str, line: int) -> Theorem:
        return self.ref(int(tok), line, "thm")

    def type_(self, tok: str, line: int) -> HolType:
        return self.ref(int(tok), line, "type")


def _split_pairs(tokens: list[str], line: int) -> list[tuple[str, str]]:
    pairs = []
    for tok in tokens:
        if "=" not in tok:
            raise ReplayError(line, f"malformed substitution pair {tok!r}")
        a, b = tok.split("=", 1)
        pairs.append((a, b))
    return pairs


def check_article(
    text: str, theory: Theory, expected_fingerprint_check: bool = True
) -> ArticleReport:
    """Replay an article against a theory; stops at the first failure."""
    base_fp = theory.fingerprint()
    report = ArticleReport(ok=True, line_count=0, fingerprint=base_fp)

    def fail(line: int, message: str) -> ArticleReport:
        report.ok = False
        report.failures.append({"line": line, "message": message})
        return report

    lines = text.split("\n")
    body: list[tuple[int, str]] = []  # (source line number, content)
    for i, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        body.append((i, s))

    if not body or body[0][1] != FORMAT_HEADER:
        return fail(body[0][0] if body else 1, "missing or bad format header")
    if len(body) < 2 or not body[1][1].startswith("theory "):
        return fail(body[1][0] if len(body) > 1 else 1, "missing theory fingerprint")
    declared_fp = body[1][1].split(None, 1)[1].strip()
    if expected_fingerprint_check and declared_fp != base_fp:
        report.ok = False
        report.failures.append(
            {
                "line": body[1][0],
                "message": f"theory fingerprint mismatch: article wants "
                f"{declared_fp}, base theory is {base_fp}",
            }
        )
        return report

    replay = _Replay(theory)
    expected_no = 0
    for src_line, content in body[2:]:
        m = _LINE_RE.match(content)
        if not m:
            return fail(src_line, f"unparsable line: {content!r}")
        no = int(m.group(1))
        cmd = m.group(2)
        rest = m.group(3) or ""
        expected_no += 1
        if no != expected_no:
            return fail(src_line, f"expected line number {expected_no}, got {no}")
        report.line_count = expected_no
        try:
            slot = _execute(replay, no, cmd, rest, report)
        except (HolError, ValueError) as exc:
            return fail(src_line, f"{cmd}: {exc}")
        except RecursionError:
            # The term walkers recurse once per level of nesting.
            return fail(src_line, f"{cmd}: term nested too deeply")
        replay.slots[no] = slot
    return report


def _execute(replay: _Replay, no: int, cmd: str, rest: str, report: ArticleReport):
    toks = rest.split()
    _check_arity(no, cmd, toks)
    theory = replay.theory
    if cmd == "TYPE":
        ty = parse_type(rest, theory)
        kernel.check_type(theory, ty)
        return ("type", ty)
    if cmd == "TERM":
        t = parse_term(rest, theory)
        kernel.check_term(theory, t)
        return ("term", t)
    if cmd == "REFL":
        return ("thm", kernel.refl(replay.term(toks[0], no)))
    if cmd == "TRANS":
        return ("thm", kernel.trans(replay.thm(toks[0], no), replay.thm(toks[1], no)))
    if cmd == "MKCOMB":
        return (
            "thm",
            kernel.mk_comb_rule(replay.thm(toks[0], no), replay.thm(toks[1], no)),
        )
    if cmd == "ABS":
        v = replay.term(toks[0], no)
        if not isinstance(v, Var):
            raise ReplayError(no, "ABS needs a variable TERM line")
        return ("thm", kernel.abs_rule(v, replay.thm(toks[1], no)))
    if cmd == "BETA":
        return ("thm", kernel.beta(replay.term(toks[0], no)))
    if cmd == "ASSUME":
        return ("thm", kernel.assume(replay.term(toks[0], no)))
    if cmd == "EQMP":
        return ("thm", kernel.eq_mp(replay.thm(toks[0], no), replay.thm(toks[1], no)))
    if cmd == "DEDUCT":
        return (
            "thm",
            kernel.deduct_antisym(replay.thm(toks[0], no), replay.thm(toks[1], no)),
        )
    if cmd == "INSTTYPE":
        th = replay.thm(toks[0], no)
        mapping: dict[str, HolType] = {}
        for name, ref in _split_pairs(toks[1:], no):
            mapping[name] = replay.type_(ref, no)
        return ("thm", kernel.inst_type_rule(mapping, th))
    if cmd == "INST":
        th = replay.thm(toks[0], no)
        mapping: dict[Var, Term] = {}
        for vref, tref in _split_pairs(toks[1:], no):
            v = replay.term(vref, no)
            if not isinstance(v, Var):
                raise ReplayError(no, f"INST domain line {vref} is not a variable")
            mapping[v] = replay.term(tref, no)
        return ("thm", kernel.inst_rule(mapping, th))
    if cmd == "AXIOM":
        name = toks[0]
        if name not in _AXIOMS:
            raise ReplayError(no, f"unknown axiom {name!r}")
        return ("thm", _AXIOMS[name](theory))
    if cmd == "DEFINE":
        name = toks[0]
        rhs = replay.term(toks[1], no)
        return ("thm", kernel.new_basic_definition(theory, name, rhs))
    if cmd == "TYPEDEF":
        tyname, absname, repname, thref = toks[0], toks[1], toks[2], toks[3]
        th = replay.thm(thref, no)
        th1, th2 = kernel.new_basic_type_definition(theory, tyname, absname, repname, th)
        # the line itself holds the abs/rep bijection; SND fetches the
        # second theorem (the predicate characterization)
        replay.pending_second[no] = th2
        return ("thm", th1)
    if cmd == "SND":
        ref = int(toks[0])
        if ref >= no:
            raise DanglingReference(f"line {no}: reference {ref} is not strictly earlier")
        th2 = replay.pending_second.get(ref)
        if th2 is None:
            raise ReplayError(no, f"line {ref} is not a TYPEDEF line")
        return ("thm", th2)
    if cmd == "THM":
        tokens = rest.split(None, 1)
        th = replay.thm(tokens[0], no)
        hyps, concl = parse_sequent(tokens[1], theory)
        if not alpha_equiv(concl, th.conclusion):
            raise ReplayError(
                no,
                f"conclusion mismatch: produced {print_sequent(th.assumptions, th.conclusion)}",
            )
        want = sorted(term_order_key(h) for h in hyps)
        got = sorted(term_order_key(h) for h in th.assumptions)
        if want != got:
            raise ReplayError(
                no,
                f"assumption mismatch: produced {print_sequent(th.assumptions, th.conclusion)}",
            )
        report.theorems.append(print_sequent(th.assumptions, th.conclusion))
        report.uses_infinity.append(th.uses_infinity)
        return ("thm", th)
    raise ReplayError(no, f"unknown command {cmd!r}")


def check_article_file(path: str, theory: Theory) -> ArticleReport:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return check_article(fh.read(), theory)


def standard_theory_for(text: str) -> Theory:
    """The base theory an article asks for: fresh, or fresh+bootstrap.

    Articles carrying any other fingerprint must be checked against an
    explicitly constructed theory.
    """
    m = re.search(r"^theory\s+([0-9a-f]+)\s*$", text, re.MULTILINE)
    fresh = Theory()
    if not m:
        return fresh
    fp = m.group(1)
    if fresh.fingerprint() == fp:
        return fresh
    from .bootstrap import install_logic

    boot = Theory()
    install_logic(boot)
    if boot.fingerprint() == fp:
        return boot
    raise FingerprintMismatch(
        f"article requires theory {fp}; neither the fresh nor the bootstrapped "
        "standard theory matches"
    )


def article_stats(text: str) -> dict:
    """Command histogram and size facts for an article (no replay)."""
    commands: dict[str, int] = {}
    count = 0
    for raw in text.split("\n"):
        s = raw.strip()
        m = _LINE_RE.match(s)
        if m:
            count += 1
            commands[m.group(2)] = commands.get(m.group(2), 0) + 1
    return {"line_count": count, "commands": dict(sorted(commands.items()))}
