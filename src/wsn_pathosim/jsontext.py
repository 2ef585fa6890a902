"""Indented JSON text: the bytes of json.dumps(value, indent=2), written
through the C encoder.

json.dumps with an indent takes the pure-Python encoder (CPython 3.10 to
3.13), which keeps every token of the document as its own string until the
final join; a 1000-node report peaks at about seven times its length.
dumps_indent2 lays out in Python only the containers that hold non-empty
containers, and joins each one as soon as its members are written.

Each depth has one encoder, built once and reused: a
json.encoder.c_make_encoder object whose item separator carries that
level's newline and indent, so the encoder writes the indentation itself.
A container whose members are all scalars or empty containers is one call
of its level's encoder. In a container laid out in Python, each run of
consecutive scalar or empty members is one call too: the run is encoded as
a dict or list of its own and its outer brackets are sliced off. Where
json.encoder.c_make_encoder is None, the encoder of a level is the public
json.JSONEncoder with the same separators, and the text is the same.

Dict keys must be str: the key of a member laid out in Python is written
with encode_basestring_ascii, which takes nothing else.
"""

from __future__ import annotations

from functools import cache
from json import encoder as _encoder
from json.encoder import JSONEncoder, encode_basestring_ascii
from typing import Callable, Sequence

_CONTAINERS = (dict, list, tuple)


@cache
def _level(depth: int) -> tuple[str, str, Callable[[object, int], Sequence[str]]]:
    """(item separator, closing indent, encoder) of a container at `depth`.
    The encoder takes a value and 0 and returns the chunks of its text."""
    separator = ",\n" + "  " * (depth + 1)
    make = _encoder.c_make_encoder
    if make is None:
        public = JSONEncoder(separators=(separator, ": "))
        return separator, "\n" + "  " * depth, lambda value, _: (public.encode(value),)
    # markers, default, key encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan: the settings json.dumps passes
    encode = make({}, JSONEncoder().default, encode_basestring_ascii, None,
                  ": ", separator, False, False, True)
    return separator, "\n" + "  " * depth, encode


def _text(value: object, depth: int) -> str:
    separator, close, encode = _level(depth)
    if not isinstance(value, _CONTAINERS) or not value:
        return "".join(encode(value, 0))  # a scalar, {} or []
    is_dict = isinstance(value, dict)
    parts: list[str] | None = None  # from the first member that is a non-empty container
    run: list = []  # the scalar or empty members since the last such container
    for member in (value.items() if is_dict else value):
        child = member[1] if is_dict else member
        if not (isinstance(child, _CONTAINERS) and child):
            run.append(member)
            continue
        if parts is None:
            parts = ["{" if is_dict else "[", separator[1:]]
        if run:
            parts += ("".join(encode(dict(run) if is_dict else run, 0))[1:-1], separator)
            run = []
        if is_dict:
            parts += (encode_basestring_ascii(member[0]), ": ")
        parts += (_text(child, depth + 1), separator)
    if parts is None:
        text = "".join(encode(value, 0))  # "{" or "[", the members, "}" or "]"
        return "".join((text[0], separator[1:], text[1:-1], close, text[-1]))
    if run:
        parts += ("".join(encode(dict(run) if is_dict else run, 0))[1:-1], separator)
    parts[-1] = close
    parts.append("}" if is_dict else "]")
    return "".join(parts)


def dumps_indent2(value: object) -> str:
    """The text of json.dumps(value, indent=2), byte for byte, for a value
    of str-keyed dicts, lists, tuples and JSON scalars."""
    try:
        return _text(value, 0)
    except BaseException:
        # a C encoder stopped by any exception keeps the containers it was
        # inside as markers, and would take them for a cycle if they were
        # written again
        _level.cache_clear()
        raise
