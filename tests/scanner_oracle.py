"""The per-character scanner that the regex scanners of `cohext.logic.parser`
replaced, kept as a test oracle: each line of `str.splitlines` is cut at its
first '//' and read one character at a time, with an `isspace` test and a
`startswith` loop over the punctuation."""

import re
from dataclasses import dataclass

from cohext.logic.parser import ParseError


@dataclass(frozen=True)
class Token:
    kind: str  # ident / keyword / punct / eof
    text: str
    line: int
    col: int


KEYWORDS = {"sort", "fun", "rel", "true", "false", "and", "or", "exists"}
PUNCT = ["|-", "->", "(", ")", ",", ":", ".", "=", "|"]
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def tokenize_oracle(text: str) -> list[Token]:
    out = []
    lines = text.splitlines()
    for ln, line in enumerate(lines, start=1):
        if "//" in line:
            line = line[: line.index("//")]
        col = 0
        while col < len(line):
            ch = line[col]
            if ch.isspace():
                col += 1
                continue
            m = _IDENT.match(line, col)
            if m:
                word = m.group(0)
                kind = "keyword" if word in KEYWORDS else "ident"
                out.append(Token(kind, word, ln, col + 1))
                col = m.end()
                continue
            for p in PUNCT:
                if line.startswith(p, col):
                    out.append(Token("punct", p, ln, col + 1))
                    col += len(p)
                    break
            else:
                raise ParseError(f"unexpected character {ch!r}", (ln, col + 1))
    out.append(Token("eof", "", len(lines) + 1, 1))
    return out
