"""Pattern-template strings: '#' digit, 'A' uppercase, 'a' lowercase, literal otherwise."""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import repeat
from typing import Callable

CLASSES = {
    "#": "0123456789",
    "A": "ABCDEFGHIJKLMNOPQRSTUVWXYZ",
    "a": "abcdefghijklmnopqrstuvwxyz",
}

_REGEX_FOR_CLASS = {"#": "[0-9]", "A": "[A-Z]", "a": "[a-z]"}


@lru_cache(maxsize=512)
def template_regex(template: str) -> re.Pattern:
    """Regex accepting exactly the strings the template can produce."""
    parts = [_REGEX_FOR_CLASS.get(ch, re.escape(ch)) for ch in template]
    return re.compile("".join(parts))


def template_size(template: str) -> int:
    """Number of distinct strings the template can produce."""
    size = 1
    for ch in template:
        size *= len(CLASSES.get(ch, ch)) if ch in CLASSES else 1
    return size


def template_decode(template: str, index: int) -> str:
    """The index-th expansion; the rightmost placeholder varies fastest."""
    out = list(template)
    for pos in range(len(template) - 1, -1, -1):
        alphabet = CLASSES.get(template[pos])
        if alphabet is None:
            continue
        index, digit = divmod(index, len(alphabet))
        out[pos] = alphabet[digit]
    return "".join(out)


def template_attempts(template: str) -> tuple[int, Callable]:
    """(words, attempts): a uniform expansion reads one word per placeholder,
    left to right, and attempts(n, words) builds n expansions from one list
    of words per placeholder, a column of characters at a time."""
    slots = tuple((ch, CLASSES.get(ch), len(CLASSES.get(ch, ""))) for ch in template)

    def attempts(n: int, words: list) -> list[str]:
        columns = iter(words)
        pieces = [
            [alphabet[(w * size) >> 64] for w in next(columns)] if alphabet else repeat(ch, n)
            for ch, alphabet, size in slots
        ]
        return list(map("".join, zip(*pieces)))

    return sum(alphabet is not None for _, alphabet, _ in slots), attempts
