"""Indented JSON text: the bytes of json.dumps(value, indent=2), written
through the C encoder.

json.dumps with an indent takes the pure-Python encoder (CPython 3.10 to
3.13), which keeps every token of the document as its own string until the
final join; a 1000-node report peaks at about seven times its length.
dumps_indent2 lays out in Python only the containers that hold other
containers, and joins each one as soon as its members are written. A
container of scalars is one C-encoder call whose item separator carries
that level's newline and indent, so the encoder writes the indentation
itself; so is each scalar member of a container laid out in Python.

Dict keys must be str: the key of a member laid out in Python is written
with encode_basestring_ascii, which takes nothing else.
"""

from __future__ import annotations

import json
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Callable

_CONTAINERS = (dict, list, tuple)


@cache
def _level(depth: int) -> tuple[str, str, Callable[[object], str]]:
    """(item separator, closing indent, encoder) of a container at `depth`."""
    separator = ",\n" + "  " * (depth + 1)
    encoder = json.JSONEncoder(separators=(separator, ": "))
    return separator, "\n" + "  " * depth, encoder.encode


def _text(value: object, depth: int) -> str:
    separator, close, encode = _level(depth)
    if not isinstance(value, _CONTAINERS) or not value:
        return encode(value)  # a scalar, {} or []
    is_dict = isinstance(value, dict)
    if not any(isinstance(member, _CONTAINERS)
               for member in (value.values() if is_dict else value)):
        text = encode(value)  # "{" or "[", the members, "}" or "]"
        return "".join((text[0], separator[1:], text[1:-1], close, text[-1]))
    parts = ["{" if is_dict else "[", separator[1:]]
    if is_dict:
        for key, child in value.items():
            parts += (encode_basestring_ascii(key), ": ", _text(child, depth + 1), separator)
    else:
        for child in value:
            parts += (_text(child, depth + 1), separator)
    parts[-1] = close
    parts.append("}" if is_dict else "]")
    return "".join(parts)


def dumps_indent2(value: object) -> str:
    """The text of json.dumps(value, indent=2), byte for byte, for a value
    of str-keyed dicts, lists, tuples and JSON scalars."""
    return _text(value, 0)
