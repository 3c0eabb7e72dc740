"""Tokenizer for the HypeR SQL extension.

The declarative surface syntax (Figures 4 and 5 of the paper) extends SQL with
the operators ``Use``, ``When``, ``Update``, ``Output``, ``For``,
``HowToUpdate``, ``Limit``, ``ToMaximize`` / ``ToMinimize`` plus the value
markers ``Pre(...)`` and ``Post(...)``.  The lexer turns query text into a
stream of typed tokens; keywords are case-insensitive.

A text is read in one pass: :func:`tokenize` walks one compiled pattern with
``finditer``, one match per token with the whitespace and ``--`` comments
before it, and a :class:`Token` is a ``NamedTuple``.  A number is
decimal digits, so ``²`` is an illegal character, not a number ``float``
rejects.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from ..exceptions import QuerySyntaxError

__all__ = ["TokenType", "Token", "tokenize", "literal_shape", "KEYWORDS"]


class TokenType(Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    DOT = "."
    EOF = "eof"


KEYWORDS = {
    "use",
    "when",
    "update",
    "output",
    "for",
    "howtoupdate",
    "limit",
    "tomaximize",
    "tominimize",
    "pre",
    "post",
    "and",
    "or",
    "not",
    "in",
    "with",
    "as",
    "l1",
    "avg",
    "sum",
    "count",
    "true",
    "false",
    "null",
}

#: one match per token: the whitespace and ``--`` comments before it, then
#: the token.  An upper-case group is the token type of its text; ``\n`` is
#: matched alone so lines are counted, ``\Z`` absorbs trailing whitespace and
#: ``bad`` takes any character no token starts with.  ``\d`` is a decimal
#: digit, so ``float`` reads every number; a word must start with a letter
#: or ``_``, which ``tokenize`` checks.
_TOKEN = re.compile(
    r"""(?:[^\S\n]+|--[^\n]*)*
    (?:(?P<NUMBER>\d+\.?\d*|\.\d+)|(?P<word>\w+)
      |(?P<OPERATOR><=|>=|!=|<>|==|[=<>*+\-/])
      |(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)|(?P<DOT>\.)
      |(?P<string>'[^']*'|"[^"]*")
      |(?P<newline>\n)|(?P<end>\Z)|(?P<bad>.))""",
    re.VERBOSE,
)
_TYPES = dict(TokenType.__members__)


class Token(NamedTuple):
    """A single lexical token with its source position (for error messages)."""

    type: TokenType
    value: str
    position: int
    line: int
    #: ``value.lower()``, taken once by :func:`tokenize` (the parser reads it
    #: for every keyword test)
    lowered: str

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.type.name}, {self.value!r})"


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`QuerySyntaxError` on illegal characters."""
    new = tuple.__new__  # builds a Token without the Python frame of Token.__new__
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        start, end = match.span(kind)
        value = text[start:end]
        if kind == "word" and (value[0].isalpha() or value[0] == "_"):
            lowered = value.lower()
            word_type = TokenType.KEYWORD if lowered in KEYWORDS else TokenType.IDENTIFIER
            append(new(Token, (word_type, value, start, line, lowered)))
        elif kind in _TYPES:  # digits, operators and punctuation have no case
            append(new(Token, (_TYPES[kind], value, start, line, value)))
        elif kind == "newline":
            line += 1
        elif kind == "string":
            value = value[1:-1]
            append(new(Token, (TokenType.STRING, value, start, line, value.lower())))
        elif kind == "end":
            break
        elif value in ("'", '"'):
            raise QuerySyntaxError("unterminated string literal", position=start, line=line)
        else:
            raise QuerySyntaxError(f"illegal character {value[0]!r}", position=start, line=line)
    append(new(Token, (TokenType.EOF, "", len(text), line, "")))
    return tokens


#: where ``tokenize`` finds NUMBER tokens (group 1): a digit run not inside
#: a word (``x1``; ``1e5`` is ``1`` and ``e5``) or ``.digit`` (``a.5`` is ``a``
#: and ``.5``); a comment or a string (group 2) is kept whole
_LITERALS = re.compile(
    r"""(?=[\d.'"-])(?:((?<!\w)\d+\.?\d*|\.\d+)|(--[^\n]*|'[^']*'|"[^"]*"))"""
)


def literal_shape(text: str) -> tuple[tuple, list[float]]:
    """``text``'s pieces, each numeric literal replaced by whether its value is
    integral (the parser reads ``2.0`` as ``int``), and the literals' values."""
    parts = _LITERALS.split(text)
    values = []
    for i in range(1, len(parts), 3):
        number = parts[i]
        if number is not None:
            value = float(number)
            values.append(value)
            parts[i] = value.is_integer()
    return tuple(parts), values
