"""Differential test: `parse_ring_expr` against the character-loop tokenizer
and token-string parser it replaced, kept here as the oracle.

The inputs are every ring expression quoted in README.md, in tests/ and in
the query and round-trip sets of perfbench/workloads.py (copied in as
literals), every proper prefix of each, and seeded one-character edits.
Wherever the oracle parses, the parser gives the same tree and positions;
wherever the oracle raises ParseError, so does the parser.  Three differences
are allowed: the oracle took any Unicode digit for a digit (`str.isdigit`),
so "Zn(\u00b2)" ended in int()'s ValueError where the parser raises
ParseError; the oracle read non-ASCII letters into names, which
`build_ring_expr` then refused, where the parser refuses them itself; and
the oracle kept the last of a repeated keyword, which the parser refuses.
"""
import random
from typing import Optional

import pytest

from ringlab.constructions import RingExpr, parse_ring_expr
from ringlab.core import ParseError

# every ring expression quoted in README.md
README_EXPRS = (
    'J(R)', 'delta(R)', 'J(R/socle)', 'eR(1-e) + (1-e)Re inside delta(R)', 'M_n(R)',
    'T_n(R)', 'H_(s,t)(R)', 'L_(s,t)(R)', 'M_3(R)', 'K_s(R)', 'H_(s,t)', 'L_(s,t)', 'L(Z4)',
    'delta(eRe) = e delta(R) e', 'delta(L_(s,t)(Z3))', 'L_(s,t)(Z3)', 'K_0(R)', 'K_0(Z2)',
    'M(2,Zn(3))', 'Zn(4)', 'T(2,Zn(2))', 'Zn(k)', 'M(n,expr)', 'T(n,expr)',
    'Prod(expr,...)', 'Corner(expr,e=idx)', 'Quot(expr,gens=[..])', 'Hst(expr,s=..,t=..)',
    'Lst(expr,s=..,t=..)', 'K0(expr)', 'Ks(expr,s=..)', 'Tri(expr,expr)',
    'Morita(expr,expr)', 'File("path.json")',
)
# every other one in tests/
TEST_EXPRS = (
    'M2(Z2)', 'M2(Z3)', 'Zn(1)', 'Hst(Zn(4),s=1,t=3)', 'Zn(2)', 'Zn(6)',
    'Quot(Zn(4),gens=[-1])', 'Quot(Zn(4),gens=[7])', 'Ks(Zn(3),s=-1)', 'Corner(Zn(4),e=9)',
    'File("{d}")', 'Zn(é)', 'Quot(Zn(4),gens=[2,4])', 'Ks(Zn(3),s=3)',
    'Hst(Zn(4),s=-1,t=1)', 'Hst(Zn(4),s=1,t=4)', 'Lst(Zn(4),s=-3,t=1)',
    'Lst(Zn(4),s=1,t=-1)', 'Corner(Zn(4),e=-1)', 'Corner(Zn(4),e=4)',
    'Prod(Zn(2),Zn(3),Zn(2))', 'M(2,Zn(2))', 'T(3,Zn(2))', 'Hst(Zn(3),s=1,t=2)',
    'Lst(Zn(3),s=2,t=1)', 'Ks(Zn(3),s=2)', 'K0(Zn(2))', 'Tri(Zn(2),Zn(2))',
    'Morita(Zn(2),Zn(2))', 'Corner(M(2,Zn(3)),e=27)', 'Quot(Zn(4),gens=[2])', 'Wat(3)',
    'Corner(Zn(4))', 'T(2,Zn(4))', 'Prod(Zn(2),Zn(3))', 'K0(Zn(4))', 'Ks(Zn(2),s=1)',
    'Prod(Zn(2),Zn(2),Zn(2))', 'Zn(4)\n# comment\nT(2,Zn(2))', 'M2(Z4)', 'K0(Z4)',
    'L(3,3)(Z4)', 'Morita(Z3,Z3)', 'Prod(Zn(2),Zn(4))', 'Hst(Zn(2),s=1,t=1)',
    'Lst(Zn(2),s=1,t=1)', 'Corner(T(2,Zn(2)),e=3)',
)
# QUERY_POOL and ROUNDTRIP_SET of perfbench/workloads.py, less the above
BENCH_EXPRS = (
    'Zn(5)', 'Zn(7)', 'Zn(8)', 'Zn(9)', 'Zn(10)', 'Zn(11)', 'Zn(12)', 'Zn(13)', 'Zn(14)',
    'Zn(15)', 'Zn(16)', 'Prod(Zn(2),Zn(2))', 'Prod(Zn(3),Zn(3))', 'Prod(Zn(2),Zn(5))',
    'Prod(Zn(2),Zn(6))', 'Prod(Zn(3),Zn(4))', 'Prod(Zn(2),Zn(8))', 'Prod(Zn(4),Zn(4))',
    'Prod(Zn(2),Zn(2),Zn(3))', 'Prod(Zn(2),Zn(2),Zn(2),Zn(2))',
    'Corner(T(2,Prod(Zn(2),Zn(2))),e=19)', 'Corner(T(2,Prod(Zn(2),Zn(2))),e=27)',
    'Corner(T(2,Prod(Zn(2),Zn(2))),e=49)', 'Corner(T(3,Zn(2)),e=13)',
    'Corner(T(3,Zn(2)),e=29)', 'Corner(Hst(Zn(3),s=1,t=1),e=4)', 'Corner(T(2,Zn(4)),e=9)',
    'Corner(T(2,Zn(4)),e=13)', 'Quot(T(2,Zn(4)),gens=[2])',
    'Quot(Prod(Zn(4),Zn(9)),gens=[3])', 'Prod(T(2,Zn(2)),Zn(2))',
    'File(".perfbench/enum/R4_1.json")', 'File(".perfbench/enum/R4_2.json")',
    'File(".perfbench/enum/R4_4.json")', 'File(".perfbench/enum/R8_1.json")',
    'File(".perfbench/enum/R8_2.json")', 'File(".perfbench/enum/R8_3.json")',
    'File(".perfbench/enum/R8_5.json")', 'File(".perfbench/enum/R8_6.json")',
    'File(".perfbench/enum/R8_7.json")', 'File(".perfbench/enum/R8_9.json")',
    'File(".perfbench/enum/R8_18.json")', 'File(".perfbench/enum/R8_20.json")',
    'File(".perfbench/enum/R8_24.json")', 'Zn(17)', 'Zn(18)', 'Zn(19)', 'Zn(20)', 'Zn(21)',
    'Zn(22)', 'Zn(23)', 'Zn(24)', 'Zn(25)', 'Zn(26)', 'Zn(27)', 'Zn(28)', 'Zn(29)',
    'Zn(30)', 'Zn(31)', 'Zn(32)', 'Prod(Zn(3),Zn(6))', 'Prod(Zn(4),Zn(5))',
    'Prod(Zn(2),Zn(11))', 'Prod(Zn(4),Zn(6))', 'Prod(Zn(5),Zn(5))', 'Prod(Zn(3),Zn(9))',
    'Prod(Zn(2),Zn(16))', 'Prod(Zn(2),Zn(3),Zn(4))', 'Prod(Zn(3),Zn(3),Zn(3))',
    'Prod(Zn(2),Zn(3),Zn(5))', 'Hst(Zn(3),s=1,t=1)', 'Hst(Zn(3),s=2,t=2)',
    'Tri(Zn(3),Zn(3))', 'Quot(Hst(Zn(4),s=1,t=3),gens=[2])', 'Zn(33)', 'Zn(34)', 'Zn(35)',
    'Zn(36)', 'Zn(37)', 'Zn(38)', 'Zn(39)', 'Zn(40)', 'Zn(48)', 'Zn(54)', 'Zn(60)',
    'Prod(Zn(6),Zn(6))', 'Prod(Zn(3),Zn(3),Zn(2),Zn(2))', 'Prod(M(2,Zn(2)),Zn(3))',
    'Prod(K0(Zn(2)),Zn(3))', 'Zn(64)', 'Zn(72)', 'Zn(81)', 'T(2,Prod(Zn(2),Zn(2)))',
    'Morita(Zn(3),Zn(3))', 'Tri(Zn(4),Zn(4))', 'Prod(M(2,Zn(2)),Zn(8))',
    'Prod(K0(Zn(2)),Zn(9))', 'Lst(Zn(3),s=1,t=2)', 'M(2,Zn(4))',
)
# whitespace, both quotes, empty lists, negatives and non-ASCII digits
HAND_EXPRS = (
    "Hst( Zn(4) , s = 1 , t = 3 )", "File('r.json')", "Quot(Zn(4), gens=[ ])",
    "Quot(Zn(8),gens=[2, -6])", "\tProd(Zn(2),\n Zn(3))  ", "Zn(\u00b2)",
    "Corner(Zn(4),e=\u00b9)", "Zn(007)", "Corner(Zn(4),e=-0)", "M(2,\u00a0Zn(3))",
)
# expressions added to README.md and tests/ after the lists above, last so
# that the seeded edits of the others stay put: surplus, misfit or repeated
# arguments, then the isomorphism tests' rings
ADDED_EXPRS = (
    'Zn(4,5)', 'K0(Zn(2),s=1)', 'File(0)', 'Corner(Zn(4),e=1,x=2)', "Zn('4')",
    'Hst(Zn(3),s=1,t=1,s=2)', 'Prod()', 'Quot(Zn(4),gens=2)', 'Corner(Zn(4),e=[1])',
    'Ks(Zn(2))', 'M(Zn(2),2)', 'Tri(Zn(2))', 'Quot(Zn(4),gens=[1],gens=[])', 'Zn(300)',
    'Hst(Zn(3),t=1,s=1)', 'Prod(Zn(2),T(2,Zn(2)))', 'Prod(Hst(Zn(2),s=1,t=1),Zn(2))',
    'Quot(T(2,Zn(4)),gens=[2])', 'Quot(Zn(32),gens=[16])', 'Prod(Zn(8),Zn(2))',
    'Prod(Zn(2),Zn(2),Zn(4))', 'Prod(Zn(2),Zn(2),Zn(2),Zn(2),Zn(2),Zn(2))',
)


# ---------------------------------------------------------------------------
# the oracle

_TOKEN_CHARS = set("(),=[]")


def oracle_tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append((ch, i))
            i += 1
        elif ch == '"' or ch == "'":
            j = text.find(ch, i + 1)
            if j < 0:
                raise ParseError("unterminated string", i)
            tokens.append(("STR:" + text[i + 1:j], i))
            i = j + 1
        elif ch.isdigit() or (ch == "-" and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT:" + text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME:" + text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", len(text)))
    return tokens


def oracle_parse(text: str) -> RingExpr:
    tokens = oracle_tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def take(expect: Optional[str] = None):
        tok, at = tokens[pos[0]]
        if expect is not None and tok != expect:
            raise ParseError(f"expected {expect!r}, found {tok!r}", at)
        pos[0] += 1
        return tok, at

    def parse_value(at: int):
        tok, vat = take()
        if tok.startswith("INT:"):
            return int(tok[4:])
        if tok == "[":
            vals = []
            if peek()[0] != "]":
                while True:
                    t2, a2 = take()
                    if not t2.startswith("INT:"):
                        raise ParseError("expected integer in list", a2)
                    vals.append(int(t2[4:]))
                    if peek()[0] == ",":
                        take(",")
                    else:
                        break
            take("]")
            return vals
        raise ParseError("expected integer or [list]", vat)

    def parse_expr() -> RingExpr:
        tok, at = take()
        if not tok.startswith("NAME:"):
            raise ParseError("expected a constructor name", at)
        head = tok[5:]
        take("(")
        args: list = []
        kwargs: dict = {}
        if peek()[0] != ")":
            while True:
                t, a = peek()
                if t.startswith("NAME:") and tokens[pos[0] + 1][0] == "=":
                    take()
                    take("=")
                    kwargs[t[5:]] = parse_value(a)
                elif t.startswith("NAME:"):
                    args.append(parse_expr())
                elif t.startswith("INT:"):
                    take()
                    args.append(int(t[4:]))
                elif t.startswith("STR:"):
                    take()
                    args.append(t[4:])
                else:
                    raise ParseError(f"unexpected token {t!r}", a)
                if peek()[0] == ",":
                    take(",")
                else:
                    break
        take(")")
        return RingExpr(head, args, kwargs, at)

    expr = parse_expr()
    tok, at = peek()
    if tok != "EOF":
        raise ParseError(f"trailing input {tok!r}", at)
    return expr


# ---------------------------------------------------------------------------
# the differential test

EDIT_CHARS = "(),=[]-0a_ \"'\u00b2#."
EDITS_PER_EXPR = 12


def _inputs() -> list[str]:
    rng = random.Random(19)
    seen: dict[str, None] = {}
    for text in README_EXPRS + TEST_EXPRS + BENCH_EXPRS + HAND_EXPRS + ADDED_EXPRS:
        for k in range(len(text) + 1):
            seen[text[:k]] = None
        for _ in range(EDITS_PER_EXPR):
            at, ch = rng.randrange(len(text) + 1), rng.choice(EDIT_CHARS)
            edit = rng.choice(("insert", "replace", "delete"))
            tail = text[at:] if edit == "insert" else text[at + 1:]
            seen[text[:at] + ("" if edit == "delete" else ch) + tail] = None
    return list(seen)


def _outcome(parse, text: str):
    """("tree", unparse, positions) or (error type, position or None)."""
    try:
        tree = parse(text)
    except ParseError as exc:
        return ParseError, exc.position
    except ValueError:
        return ValueError, None
    return "tree", tree.unparse(), _positions(tree)


def _positions(tree: RingExpr) -> list:
    return [tree.pos] + [p for a in tree.args if isinstance(a, RingExpr) for p in _positions(a)]


def _non_ascii_alnum(text: str) -> bool:
    return any(not ch.isascii() and (ch.isalpha() or ch.isdigit()) for ch in text)


def _keywords(tree: RingExpr) -> int:
    return len(tree.kwargs) + sum(_keywords(a) for a in tree.args if isinstance(a, RingExpr))


def _repeats_a_keyword(text: str) -> bool:
    """The oracle kept the last of a repeated keyword: its tree holds fewer
    keywords than the text has "=" tokens."""
    return sum(tok == "=" for tok, _ in oracle_tokenize(text)) > _keywords(oracle_parse(text))


# ParseErrors at another position than the oracle's, all on inputs with a
# non-ASCII letter or digit: the oracle read it into a token and failed
# later, the parser stops at it
MOVED_POSITIONS = 37
# inputs with a repeated keyword: two in ADDED_EXPRS and five of their edits
REPEATED_KEYWORDS = 7


def test_parser_keeps_the_oracle_contract():
    inputs = _inputs()
    assert len(inputs) >= 2000
    counts = dict(same_tree=0, refused_name=0, repeated_keyword=0, parse_error=0, value_error=0,
                  moved=0)
    for text in inputs:
        want, got = _outcome(oracle_parse, text), _outcome(parse_ring_expr, text)
        if want[0] == "tree" and got == want:
            counts["same_tree"] += 1
            continue
        assert got[0] is ParseError and 0 <= got[1] <= len(text), text
        if want[0] == "tree" and _repeats_a_keyword(text):
            counts["repeated_keyword"] += 1
        elif want[0] == "tree":
            assert _non_ascii_alnum(text), text
            counts["refused_name"] += 1
        elif want[0] is ValueError:
            counts["value_error"] += 1
        else:
            counts["parse_error"] += 1
            if want[1] != got[1]:
                assert _non_ascii_alnum(text), text
                counts["moved"] += 1
    assert counts["same_tree"] > 500 and counts["parse_error"] > 1000
    assert counts["moved"] == MOVED_POSITIONS, counts
    assert counts["repeated_keyword"] == REPEATED_KEYWORDS, counts


def test_whitespace_is_str_isspace():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    for ws in spaces:
        text = f"{ws}Quot({ws}Zn({ws}4{ws}){ws},{ws}gens{ws}={ws}[{ws}2{ws}]{ws}){ws}"
        assert parse_ring_expr(text).unparse() == oracle_parse(text).unparse() \
            == "Quot(Zn(4),gens=[2])"


@pytest.mark.parametrize("text", ["Zn(\u00b2)", "Corner(Zn(4),e=\u00b9)", "Zn(4\u00b2)",
                                  "Zn(-\u00b2)", "Zn(4,)", "Quot(Zn(4),gens=[1,])"])
def test_non_ascii_digits_and_trailing_commas_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse_ring_expr(text)


@pytest.mark.parametrize("text,at", [("Hst(Zn(3),s=1,t=1,s=2)", 18),
                                     ("Quot(Zn(4),gens=[1],gens=[])", 20)])
def test_a_repeated_keyword_is_a_parse_error(text, at):
    with pytest.raises(ParseError) as exc:
        parse_ring_expr(text)
    assert exc.value.position == at
