"""Tests for the query tokenizer."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QuerySyntaxError
from repro.lang import Token, TokenType, tokenize

KW, ID, NUM, STR, OP = (
    TokenType.KEYWORD,
    TokenType.IDENTIFIER,
    TokenType.NUMBER,
    TokenType.STRING,
    TokenType.OPERATOR,
)
EOF = TokenType.EOF


class TestTokenize:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("USE use Use")
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])
        assert tokens[-1].type is TokenType.EOF

    def test_identifiers_vs_keywords(self):
        tokens = tokenize("Price WHEN Brand")
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[1].type is TokenType.KEYWORD
        assert tokens[2].type is TokenType.IDENTIFIER

    def test_numbers(self):
        tokens = tokenize("1.1 42 0.5")
        assert [t.value for t in tokens[:-1]] == ["1.1", "42", "0.5"]
        assert all(t.type is TokenType.NUMBER for t in tokens[:-1])

    def test_strings_single_and_double_quotes(self):
        tokens = tokenize("'Asus' \"Laptop\"")
        assert tokens[0].type is TokenType.STRING and tokens[0].value == "Asus"
        assert tokens[1].value == "Laptop"

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError, match="unterminated"):
            tokenize("'Asus")

    def test_operators_longest_match(self):
        tokens = tokenize("<= >= != = < >")
        assert [t.value for t in tokens[:-1]] == ["<=", ">=", "!=", "=", "<", ">"]

    def test_parens_and_commas(self):
        tokens = tokenize("(a, b)")
        types = [t.type for t in tokens[:-1]]
        assert types == [
            TokenType.LPAREN,
            TokenType.IDENTIFIER,
            TokenType.COMMA,
            TokenType.IDENTIFIER,
            TokenType.RPAREN,
        ]

    def test_comments_skipped(self):
        tokens = tokenize("USE Product -- this is a comment\nWHEN")
        values = [t.lowered for t in tokens[:-1]]
        assert values == ["use", "product", "when"]

    def test_line_numbers_tracked(self):
        tokens = tokenize("USE\nProduct")
        assert tokens[0].line == 1
        assert tokens[1].line == 2

    def test_illegal_character(self):
        with pytest.raises(QuerySyntaxError, match="illegal"):
            tokenize("USE @Product")

    def test_token_repr_and_lowered(self):
        token, string, eof = tokenize("USE 'Asus'")
        assert (token.lowered, string.lowered, eof.lowered) == ("use", "asus", "")
        assert "USE" in repr(token)
        assert token == Token(TokenType.KEYWORD, "USE", 0, 1, "use")


#: ``text -> [(type, value, position, line), ...]``, the closing EOF included
TOKEN_TABLE = [
    pytest.param(
        "USE\r\n\tP\t= 1",
        [(KW, "USE", 0, 1), (ID, "P", 6, 2), (OP, "=", 8, 2), (NUM, "1", 10, 2), (EOF, "", 11, 2)],
        id="crlf-and-tabs",
    ),
    pytest.param("a -- note", [(ID, "a", 0, 1), (EOF, "", 9, 1)], id="comment-at-end-no-newline"),
    pytest.param("5--3", [(NUM, "5", 0, 1), (EOF, "", 4, 1)], id="double-minus-is-a-comment"),
    pytest.param(
        "5 - -3",
        [(NUM, "5", 0, 1), (OP, "-", 2, 1), (OP, "-", 4, 1), (NUM, "3", 5, 1), (EOF, "", 6, 1)],
        id="separated-minuses",
    ),
    pytest.param(
        "1.2.3", [(NUM, "1.2", 0, 1), (NUM, ".3", 3, 1), (EOF, "", 5, 1)], id="one-dot-per-number"
    ),
    pytest.param(
        ".5 1. a.b",
        [
            (NUM, ".5", 0, 1),
            (NUM, "1.", 3, 1),
            (ID, "a", 6, 1),
            (TokenType.DOT, ".", 7, 1),
            (ID, "b", 8, 1),
            (EOF, "", 9, 1),
        ],
        id="leading-and-trailing-dot",
    ),
    pytest.param("''", [(STR, "", 0, 1), (EOF, "", 2, 1)], id="empty-string"),
    pytest.param(
        "'it\"s' \"don't\"",
        [(STR, 'it"s', 0, 1), (STR, "don't", 7, 1), (EOF, "", 14, 1)],
        id="both-quote-styles",
    ),
    pytest.param(
        "'a\nb' c",
        [(STR, "a\nb", 0, 1), (ID, "c", 6, 1), (EOF, "", 7, 1)],
        id="newline-inside-a-string-is-not-counted",
    ),
    pytest.param("a  \t \r ", [(ID, "a", 0, 1), (EOF, "", 7, 1)], id="trailing-whitespace"),
    pytest.param(
        "a\n b -- c\n  <>\n",
        [(ID, "a", 0, 1), (ID, "b", 3, 2), (OP, "<>", 12, 3), (EOF, "", 15, 4)],
        id="lines-across-three-lines",
    ),
    pytest.param("Crédit_2", [(ID, "Crédit_2", 0, 1), (EOF, "", 8, 1)], id="non-ascii-identifier"),
    pytest.param("٣", [(NUM, "٣", 0, 1), (EOF, "", 1, 1)], id="arabic-indic-digit"),
    pytest.param(
        "HowToUpdate tOmAxImIzE Pre pOST",
        [
            (KW, "HowToUpdate", 0, 1),
            (KW, "tOmAxImIzE", 12, 1),
            (KW, "Pre", 23, 1),
            (KW, "pOST", 27, 1),
            (EOF, "", 31, 1),
        ],
        id="mixed-case-keywords",
    ),
    pytest.param(
        "_x<=y!=2", [(ID, "_x", 0, 1), (OP, "<=", 2, 1), (ID, "y", 4, 1), (OP, "!=", 5, 1),
                     (NUM, "2", 7, 1), (EOF, "", 8, 1)],
        id="operators-between-words",
    ),
]


@pytest.mark.parametrize("text, expected", TOKEN_TABLE)
def test_token_table(text, expected):
    assert [(t.type, t.value, t.position, t.line) for t in tokenize(text)] == expected


#: ``text -> (message pattern, position, line)`` of the error it raises
ERROR_TABLE = [
    pytest.param("'Asus", ("unterminated string literal", 0, 1), id="unterminated-single"),
    pytest.param('a\n "Asus', ("unterminated string literal", 3, 2), id="unterminated-double"),
    pytest.param("a ! b", ("illegal character '!'", 2, 1), id="lone-bang"),
    pytest.param("x\n@", ("illegal character '@'", 2, 2), id="at-sign"),
    pytest.param("½x", ("illegal character '½'", 0, 1), id="numeric-non-digit"),
    # ``str.isdigit`` accepts ``²`` but ``float`` does not: not a number
    pytest.param("²", ("illegal character '²'", 0, 1), id="superscript-digit"),
    pytest.param(
        "UPDATE(Status) = ² * PRE(Status)",
        ("illegal character '²'", 17, 1),
        id="superscript-digit-in-an-update",
    ),
    pytest.param("3²", ("illegal character '²'", 1, 1), id="superscript-after-a-number"),
]


@pytest.mark.parametrize("text, expected", ERROR_TABLE)
def test_error_table(text, expected):
    message, position, line = expected
    with pytest.raises(QuerySyntaxError, match=re.escape(message)) as raised:
        tokenize(text)
    assert (raised.value.position, raised.value.line) == (position, line)


def test_a_decimal_digit_of_any_script_is_a_float_number():
    (token, _eof) = tokenize("٣")
    assert token.type is TokenType.NUMBER and float(token.value) == 3.0


#: the characters queries are made of, plus the ones the lexer must reject
QUERY_ALPHABET = "aAzZ_é019٣² \t\r\n\n'\"().,=<>!*+-/@"

#: what may sit between two tokens: whitespace and ``--`` line comments
_SKIPPED = re.compile(r"(?:\s|--[^\n]*)*")


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=QUERY_ALPHABET, max_size=40))
def test_lexer_laws(text):
    try:
        tokens = tokenize(text)
    except QuerySyntaxError as error:
        assert 0 <= error.position <= len(text)
        assert error.line >= 1
        return
    *body, eof = tokens
    assert eof.type is TokenType.EOF and eof.position == len(text)
    assert all(token.type is not TokenType.EOF for token in body)
    positions = [token.position for token in tokens]
    assert positions == sorted(set(positions))
    cursor = 0
    newlines_in_strings = 0
    for token in tokens:
        # lines count the newlines before a token that no string literal holds
        assert token.line == text.count("\n", 0, token.position) - newlines_in_strings + 1
        # between two tokens only whitespace and comments are skipped
        assert _SKIPPED.fullmatch(text, cursor, token.position)
        if token.type is TokenType.STRING:
            quote = text[token.position]
            width = len(token.value) + 2
            assert quote in "'\"" and text[token.position + width - 1] == quote
            assert text[token.position + 1 : token.position + width - 1] == token.value
            newlines_in_strings += token.value.count("\n")
        else:
            width = len(token.value)
            assert text[token.position : token.position + width] == token.value
        cursor = token.position + width
