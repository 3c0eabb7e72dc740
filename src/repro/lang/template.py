"""A query text is parsed once per shape.

Texts of one shape (:func:`~repro.lang.lexer.literal_shape`) tokenize alike
but for their NUMBER values, which the parser reads only as
``sign * float(literal)``, made an ``int`` when integral (the shape keeps
which).  The second sighting of a shape parses a *probe* too, the text with
each literal a distinct sentinel of the same integer-ness, and compiles from
its query a *binder*: one expression of the parser's constructors with each
sentinel leaf replaced by its literal.  It is kept only if binding the text's
own literals reproduces its parse, ``repr`` for ``repr`` (verify-on-fill).
The binder also records which literals sit only under a what-if's
``updates``, read off the probe's sentinels, so a text's key can leave them
out (:meth:`ShapeMemo.parse_keyed`).

A shape whose probe tokenizes otherwise (``LIMIT.5``) stays with the parser.
A hit rebuilds every node but what the parser itself shares (``TRUE``), so no
two parses share a mutable node; the cache is an LRU of
:data:`SHAPE_CACHE_SIZE` shapes.  Per perf template text on a 2-vCPU x86 VM
(min of 7 passes over 2 000 texts): ``tokenize`` 0.028 ms, ``parse_uncached``
0.057 ms, ``parse_query`` 0.010 ms on a cached shape and 1.11×
``parse_uncached`` on a shape's first sighting.
"""

from __future__ import annotations

import inspect
from enum import Enum
from functools import lru_cache
from typing import Any, Callable

from .lexer import literal_shape

__all__ = ["SHAPE_CACHE_SIZE", "ShapeMemo"]

#: shapes remembered, the least recently used evicted first
SHAPE_CACHE_SIZE = 256

#: literal ``k`` of a probe is ``_SENTINEL + k``, or ``_SENTINEL + k + 0.5``
#: when not integral: exact as a float and far from any constant the parser makes
_SENTINEL = 7_000_000_000

_ATOMS = (str, int, float, bool, type(None))

#: the attribute whose literals a text's key leaves out: a what-if's update
#: constants, which texts of one plan differ in (``docs/service.md``, "Bound plans")
_UPDATES = "updates"


class ShapeMemo:
    """``parse`` memoised by the shape of its text (see the module docstring)."""

    def __init__(self, parse: Callable[[str], Any]) -> None:
        self._parse = parse
        # one slot per shape: None unseen, True seen once, False the parser's
        # for good, else the binder and the positions of the key's literals
        self._slot = lru_cache(maxsize=SHAPE_CACHE_SIZE)(lambda key: [None])

    def parse(self, text: str) -> Any:
        return self._bound(text, False)[0]

    def parse_keyed(self, text: str, eager: bool = False) -> tuple[Any, tuple | None]:
        """``text``'s query and its key: its shape and the values of its literals
        but those only under ``updates``; ``None`` while the shape has no binder,
        which ``eager`` compiles at the shape's first sighting."""
        query, key, values, keyed = self._bound(text, eager)
        return query, None if keyed is None else (key, *[values[i] for i in keyed])

    def _bound(self, text: str, eager: bool) -> tuple[Any, tuple, list[float], tuple | None]:
        """``text``'s query, shape and literals, and the positions of the literals
        its key keeps (``None`` while the shape has no binder)."""
        key, values = literal_shape(text)
        slot = self._slot(key)
        bound = slot[0]
        if type(bound) is tuple:
            bind, keyed = bound
            return bind(values), key, values, keyed
        query = self._parse(text)  # a text that fails raises before it is seen
        if bound is None and not eager:
            slot[0] = True
        elif bound is not False:
            slot[0] = bound = self._compile(key, values, query)
            if type(bound) is tuple:
                return query, key, values, bound[1]
        return query, key, values, None

    def _compile(self, key: tuple, values: list[float], query: Any):
        """The binder of ``key`` and the positions of the literals its key keeps,
        ``False`` if it cannot reproduce ``query``, or ``True`` (try again) when
        ``values`` hold a sentinel and the check is void."""
        sentinels: dict[float, int] = {}
        pieces = []
        for part in key:
            if isinstance(part, bool):
                sentinel = _SENTINEL + len(sentinels) + (0.0 if part else 0.5)
                pieces.append(str(int(sentinel)) if part else repr(sentinel))
                sentinels[sentinel] = len(sentinels)
            elif part:
                pieces.append(part)
        if not sentinels.keys().isdisjoint(values):
            return True
        probe = "".join(pieces)
        if literal_shape(probe) != (key, list(sentinels)):
            return False  # the probe tokenizes otherwise (``LIMIT.5``)
        namespace: dict[str, Any] = {}
        # the literals met under ``updates``, and those met elsewhere
        in_updates: set[int] = set()
        elsewhere: set[int] = set()

        def constant(value: Any) -> str:
            name = f"k{len(namespace)}"
            namespace[name] = value
            return name

        def emit(node: Any, parsed: Any, under: bool = False) -> str:
            """``node`` of the probe's query as source over ``v``, the literal
            values; ``parsed`` is the text's node, to tell what the parser shares;
            ``under`` whether ``updates`` holds ``node``."""
            kind = type(node)
            if node is parsed:
                return constant(node)
            if kind is not type(parsed):
                raise TypeError(f"a {kind.__name__} in the probe, not in the text")
            if (kind is int or kind is float) and abs(node) in sentinels:
                slot = sentinels[abs(node)]
                (in_updates if under else elsewhere).add(slot)
                source = f"{'-' if node < 0 else ''}v[{slot}]"
                return f"int({source})" if kind is int else source
            if kind in _ATOMS or isinstance(node, Enum):
                return constant(node)
            if kind is list or kind is tuple:
                items = "".join(
                    f"{emit(a, b, under)}, " for a, b in zip(node, parsed, strict=True)
                )
                return f"[{items}]" if kind is list else f"({items})"
            if kind is dict:
                if node.keys() != parsed.keys():
                    raise KeyError("the probe's mapping has other keys")
                items = "".join(
                    f"{constant(k)}: {emit(node[k], parsed[k], under)}, " for k in node
                )
                return f"{{{items}}}"
            # a node is rebuilt from its attributes named as its constructor's
            # parameters; verify-on-fill checks that this holds
            arguments = []
            for name in inspect.signature(kind).parameters:
                held = under or name == _UPDATES
                arguments.append(f"{name}={emit(getattr(node, name), getattr(parsed, name), held)}")
            return f"{constant(kind)}({', '.join(arguments)})"

        try:
            exec(f"def bind(v):\n    return {emit(self._parse(probe), query)}\n", namespace)
            bind = namespace["bind"]
            if repr(bind(values)) != repr(query):
                return False
        except Exception:  # noqa: BLE001 - a node the binder cannot rebuild
            return False
        constants = in_updates - elsewhere
        return bind, tuple(i for i in range(len(sentinels)) if i not in constants)
