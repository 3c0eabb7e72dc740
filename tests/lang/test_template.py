"""A query text is parsed once per shape.

``parse_query`` binds a text's numeric literals into a template compiled on
the second sighting of its shape; these laws hold it to the one parser,
``parse_uncached``: the same query (``repr``, and each numeric leaf's type and
sign), the same error, no mutable node shared between two parses, under
threads, and at a first sighting's cost.
"""

from __future__ import annotations

import math
import re
import threading
import time
from dataclasses import dataclass
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.updates import SetTo
from repro.exceptions import QuerySyntaxError
from repro.lang import TokenType, parse_query, tokenize
from repro.lang import parser
from repro.lang.lexer import literal_shape
from repro.lang.parser import parse_uncached
from repro.lang.template import ShapeMemo

from .test_lexer import QUERY_ALPHABET

#: valid queries as tokens; ``#`` is a signed numeric literal.  Digits also
#: sit inside identifiers, strings and comments, where they are no literal
SKELETONS = [
    "USE Credit UPDATE ( Status ) = # OUTPUT AVG ( POST ( Credit ) ) FOR POST ( Credit ) = #",
    "USE Credit WHEN Age >= # AND a1 < # UPDATE ( Status ) = # * PRE ( Status ) "
    "OUTPUT COUNT ( POST ( Credit ) )",
    "USE Credit UPDATE ( Status ) = # + PRE ( Status ) AND UPDATE ( Housing ) = # "
    "OUTPUT SUM ( POST ( Credit ) ) FOR PRE ( Age ) IN ( # , # , 'x9' ) OR NOT x_2 <> #",
    "USE Credit WHEN Age > # HOWTOUPDATE Status , Housing LIMIT # <= POST ( Status ) <= # "
    "AND L1 ( PRE ( Housing ) , POST ( Housing ) ) <= # AND POST ( Savings ) IN ( # , 'a 1' , # ) "
    "TOMAXIMIZE AVG ( POST ( Credit ) ) FOR # < Age",
    "USE Product WITH AVG ( Review . Rating ) AS Rtng9 WHEN Brand = 'Asus 2' "
    "UPDATE ( Price ) = # * PRE ( Price ) OUTPUT AVG ( POST ( Rtng9 ) ) "
    "FOR PRE ( Category ) = \"5\" AND ( Price >= # OR NOT Price < # )",
]
#: what sits between two tokens.  An empty gap may glue two tokens into one:
#: ``LIMIT.5`` stays two, but two words glued are one, and the text fails
GAPS = st.sampled_from([" "] * 4 + ["\t", "\n", "\r\n", " -- 12 'x' 3\n", ""])
#: numeric literals over the alphabet's digits: integral ones (``2.0``,
#: ``.0``), zeros that keep a sign, digits of another script
NUMBERS = st.from_regex(r"[019٣]{1,3}(\.[019٣]{0,2})?|\.[019٣]{1,2}", fullmatch=True)
SIGNS = st.sampled_from(["", "", "-", "- "])
_WORD = re.compile(r"[A-Za-z_]\w*")


@st.composite
def shapes(draw):
    """One skeleton, its gaps and signs, and four assignments of its literals."""
    tokens = draw(st.sampled_from(SKELETONS)).split(" ")
    gaps = draw(st.lists(GAPS, min_size=len(tokens) - 1, max_size=len(tokens) - 1))
    if not draw(st.booleans()):  # half the texts glue no two words
        gaps = [
            " " if not gap and _WORD.fullmatch(left) and _WORD.fullmatch(right) else gap
            for gap, left, right in zip(gaps, tokens, tokens[1:])
        ]
    slots = tokens.count("#")
    signs = draw(st.lists(SIGNS, min_size=slots, max_size=slots))
    numbers = st.lists(NUMBERS, min_size=slots, max_size=slots)
    variants = [
        [sign + number for sign, number in zip(signs, draw(numbers))] for _ in range(4)
    ]
    return tokens, gaps, variants


def plain(skeleton: str, variants: list[list[str]]):
    """A case of ``skeleton`` with one space between tokens."""
    tokens = skeleton.split(" ")
    return tokens, [" "] * (len(tokens) - 1), variants


def render(tokens: list[str], gaps: list[str], literals: list[str]) -> str:
    values = iter(literals)
    pieces = [next(values) if token == "#" else token for token in tokens]
    return "".join(piece + gap for piece, gap in zip(pieces, gaps + [""]))


def _nodes(root):
    """Every object reachable from a parsed query, depth first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (list, tuple)):
            stack.extend(reversed(node))
        elif isinstance(node, dict):
            stack.extend(node.values())
        elif hasattr(node, "__dict__") and not isinstance(node, (type, Enum)):
            stack.extend(vars(node).values())


def numeric_leaves(query) -> list[tuple[type, float]]:
    return [(type(v), math.copysign(1.0, v)) for v in _nodes(query) if type(v) in (int, float)]


def mutable_nodes(query) -> dict[int, object]:
    return {
        id(node): node
        for node in _nodes(query)
        if isinstance(node, (list, dict))
        or (hasattr(node, "__dict__") and not isinstance(node, Enum))
    }


def outcome(parse, text):
    try:
        query = parse(text)
    except QuerySyntaxError as error:
        return ("syntax", str(error), error.position, error.line)
    except Exception as error:  # noqa: BLE001 - semantic errors must match too
        return (type(error).__name__, str(error))
    return ("query", repr(query), numeric_leaves(query))


# --- the law ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(shapes())
# an integral zero keeps no sign, so a binder that dropped the minus would
# pass its check on ``-0`` and answer ``-5`` wrong
@example(plain(SKELETONS[0], [["-0", "1"], ["-0", "1"], ["-5", "1"], ["-.0", "9"]]))
# ``2`` and ``2.5`` are one shape only with the integer-ness flags
@example(plain(SKELETONS[0], [["2", "1"], ["3", "1"], ["2.5", "1"], ["1.0", "1.5"]]))
def test_a_cached_parse_is_the_uncached_parse(case):
    tokens, gaps, variants = case
    memo = ShapeMemo(parse_uncached)  # fresh: sightings 1, 2 (the fill), hits
    for literals in variants:
        text = render(tokens, gaps, literals)
        expected = outcome(parse_uncached, text)
        assert outcome(memo.parse, text) == expected, text
        assert outcome(parse_query, text) == expected, text


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=QUERY_ALPHABET, max_size=40))
def test_any_text_fails_or_parses_as_the_uncached_parser_does(text):
    memo = ShapeMemo(parse_uncached)
    expected = outcome(parse_uncached, text)
    assert [outcome(memo.parse, text) for _ in range(3)] == [expected] * 3


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=QUERY_ALPHABET, max_size=40))
def test_the_shapes_literals_are_the_lexers_numbers(text):
    try:
        tokens = tokenize(text)
    except QuerySyntaxError:
        return
    numbers = [float(token.value) for token in tokens if token.type is TokenType.NUMBER]
    key, values = literal_shape(text)
    assert values == numbers
    assert [part for part in key if isinstance(part, bool)] == [v.is_integer() for v in numbers]


# --- hits stand alone -----------------------------------------------------------

TEXT = (
    "USE Credit WHEN Age >= {a} UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT AVG(POST(Credit)) FOR PRE(Age) IN ({a}, 7) AND NOT POST(Credit) = {c}"
)


def test_two_parses_of_one_shape_share_no_mutable_node():
    memo = ShapeMemo(parse_uncached)
    texts = [TEXT.format(a=20 + k, c=0.5 + k) for k in range(5)]
    for text in texts[:2]:
        memo.parse(text)
    first, second = memo.parse(texts[2]), memo.parse(texts[3])
    # what two full parses share (the module's ``TRUE``) a hit may share too
    full = [mutable_nodes(parse_uncached(text)) for text in texts[2:4]]
    parser_shared = full[0].keys() & full[1].keys()
    assert mutable_nodes(first).keys() & mutable_nodes(second).keys() <= parser_shared
    for node in mutable_nodes(first).values():
        if id(node) in parser_shared:
            continue
        if isinstance(node, list):
            node.append(None)
        elif isinstance(node, dict):
            node["mutated"] = None
        else:
            for name, value in vars(node).items():
                if type(value) in (int, float):
                    object.__setattr__(node, name, -1)
    assert repr(memo.parse(texts[4])) == repr(parse_uncached(texts[4]))


def test_threads_parsing_one_shape_each_get_the_uncached_answer():
    memo = ShapeMemo(parse_uncached)
    texts = [TEXT.format(a=k, c=k / 8) for k in range(400)]
    expected = {text: repr(parse_uncached(text)) for text in texts}
    barrier = threading.Barrier(8)
    wrong: list[str] = []

    def parse_all(offset: int) -> None:
        barrier.wait()
        for text in texts[offset::8] + texts:
            for parse in (memo.parse, parse_query):
                if repr(parse(text)) != expected[text]:
                    wrong.append(text)

    threads = [threading.Thread(target=parse_all, args=(k,)) for k in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert wrong == []


# --- shapes that stay with the parser ------------------------------------------


def _binder(memo: ShapeMemo, text: str):
    """``False`` for a shape the memo leaves to the parser for good."""
    return memo._slot(literal_shape(text)[0])[0]


def test_a_shape_whose_probe_tokenizes_otherwise_is_never_cached():
    # ``LIMIT.5`` is a keyword and a number, ``LIMIT7000000000.5`` a word
    # and a number: the probe's shape differs, so the parser keeps the shape
    memo = ShapeMemo(parse_uncached)
    texts = [
        f"USE Credit HOWTOUPDATE Status LIMIT.{k} <= POST(Status) TOMAXIMIZE AVG(POST(Credit))"
        for k in range(1, 6)
    ]
    for text in texts:
        assert repr(memo.parse(text)) == repr(parse_uncached(text))
    assert _binder(memo, texts[0]) is False


def test_adjacent_numbers_and_digits_in_words_and_strings_parse_right():
    memo = ShapeMemo(parse_uncached)
    for text in [
        "USE Credit UPDATE(Status) = 1..5 OUTPUT AVG(POST(Credit))",  # two numbers
        "USE Credit UPDATE(Status) = 2 OUTPUT AVG(POST(Credit)) FOR x1 = 'a 3'",
        "USE Credit UPDATE(Status) = 3 OUTPUT AVG(POST(Credit)) FOR x2 = 'a 4'",
        "USE Credit UPDATE(Status) = 4 OUTPUT AVG(POST(Credit)) FOR x1 = 'a 5'",
    ] * 3:
        assert outcome(memo.parse, text) == outcome(parse_uncached, text)
    # a digit in a word or a string is part of the shape, not a literal
    assert literal_shape("FOR x1 = 'a 3' AND y = 4")[1] == [4.0]


def test_a_binder_that_does_not_reproduce_the_parse_is_not_kept(monkeypatch):
    @dataclass(frozen=True)
    class Doubled(SetTo):
        """A node whose constructor does not keep its argument: rebuilt from
        its attribute it doubles again, which verify-on-fill must catch."""

        def __post_init__(self) -> None:
            object.__setattr__(self, "value", self.value * 2)

    monkeypatch.setattr(parser, "SetTo", Doubled)
    memo = ShapeMemo(parse_uncached)
    texts = [f"USE Credit UPDATE(Status) = {k} OUTPUT AVG(POST(Credit))" for k in range(1, 5)]
    for text in texts:
        assert repr(memo.parse(text)) == repr(parse_uncached(text))
    assert _binder(memo, texts[0]) is False


# --- cost -------------------------------------------------------------------------


def _seconds(parse, texts: list[str]) -> float:
    start = time.perf_counter()
    for text in texts:
        parse(text)
    return time.perf_counter() - start


#: three of the benchmark's template texts
SWEEP = [
    "USE Credit UPDATE(Status) = {c} * PRE(Status) "
    "OUTPUT COUNT(POST(Credit)) FOR POST(Credit) = 1",
    "USE Credit WHEN Age >= 30 UPDATE(CreditAmount) = {c} * PRE(CreditAmount) "
    "OUTPUT AVG(POST(Credit))",
    "USE Credit UPDATE(Savings) = {c} * PRE(Savings) "
    "OUTPUT SUM(POST(Credit)) FOR PRE(Housing) >= 2",
]


def _alternating_seconds(first, second, texts: list[str]) -> tuple[float, float]:
    """Seconds ``first`` and ``second`` spend on ``texts``, each text parsed by
    one and then the other, so that a drift of the host's speed hits both."""
    clock = time.perf_counter
    spent_first = spent_second = 0.0
    for text in texts:
        start = clock()
        first(text)
        middle = clock()
        second(text)
        spent_first += middle - start
        spent_second += clock() - middle
    return spent_first, spent_second


@pytest.mark.wallclock
def test_a_shape_seen_once_costs_at_most_a_fifth_more_than_the_parser():
    # a digit inside a word is no literal: each text is a shape of its own
    texts = [SWEEP[k % 3].format(c=1.5).replace("Credit)", f"Credit{k})") for k in range(300)]
    # fastest of 7 passes; a fresh memo per pass sees each text once
    passes = [_alternating_seconds(ShapeMemo(parse_uncached).parse, parse_uncached, texts)
              for _ in range(7)]
    assert min(memo for memo, _ in passes) <= 1.2 * min(full for _, full in passes)


@pytest.mark.wallclock
def test_a_sweep_of_one_shape_parses_three_times_faster():
    texts = [SWEEP[k % 3].format(c=round(0.5 + k / 4096, 6)) for k in range(600)]
    memo = ShapeMemo(parse_uncached)
    memo.parse(texts[0])
    passes = [(_seconds(memo.parse, texts), _seconds(parse_uncached, texts)) for _ in range(7)]
    assert 3 * min(cached for cached, _ in passes) <= min(full for _, full in passes)


def test_a_text_holding_the_probe_sentinel_is_parsed_until_a_clean_sighting():
    """A literal equal to the binder's probe sentinel voids the check: the
    shape stays unbound until a text without it comes, then binds."""
    memo = ShapeMemo(parse_uncached)
    sentinel = "USE Credit UPDATE(Status) = 7000000000 OUTPUT AVG(POST(Credit))"
    for _ in range(3):
        assert repr(memo.parse(sentinel)) == repr(parse_uncached(sentinel))
    clean = sentinel.replace("7000000000", "4")
    assert repr(memo.parse(clean)) == repr(parse_uncached(clean))
