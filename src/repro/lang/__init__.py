"""Declarative query language (paper §2.2, Figures 4 and 5): lexer, parser and
unparser for the HypeR SQL extension — ``USE … WITH … WHEN … UPDATE() /
HOWTOUPDATE … OUTPUT / TOMAXIMIZE … FOR … LIMIT`` — producing the query
objects the programmatic API builds; a text is parsed once per shape.

**Stable AST identity.**  The parser is deterministic: parsing the same text
twice yields structurally identical query objects — same clause ordering,
same expression-tree shape, same literal values — so the expression trees'
:meth:`~repro.relational.expressions.Expr.canonical` keys (and therefore the
service layer's plan fingerprints, :mod:`repro.service.fingerprint`) are
stable across parses, processes and HTTP requests.  ``parse_query`` caches
per shape of the text (:mod:`repro.lang.template`): a cached parse is bound
fresh, sharing no mutable node with another parse, and is structurally
identical to a full parse (``parse_uncached``).  ``tests/lang`` enforces
this contract; keep it when extending the grammar.
"""

from .lexer import Token, TokenType, tokenize
from .parser import parse_how_to, parse_query, parse_what_if
from .unparse import unparse, unparse_expr

__all__ = [
    "Token",
    "TokenType",
    "parse_how_to",
    "parse_query",
    "parse_what_if",
    "tokenize",
    "unparse",
    "unparse_expr",
]
