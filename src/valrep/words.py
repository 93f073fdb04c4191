"""Freely reduced words over a generating set, and the one word-ball walk.

A word is a tuple of (generator name, +1 or -1) letters with no adjacent
inverse pair.  Enumeration order everywhere is length-lexicographic with
the letter order c, c^-1 per generator in presentation order, which keeps
sweeps and reported witnesses deterministic.  `ball_levels` is the only
walk of the ball: it lists each word beside its key, its tuple of letter
indices, and the class tests read those keys, never the words.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator, Sequence

Letter = tuple[str, int]
Key = tuple[int, ...]  # a word as letter indices, see `letter_index`


class Word:
    """Freely reduced word; constructed from any letter sequence."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", free_reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def from_reduced(cls, letters: tuple[Letter, ...]) -> "Word":
        """Wrap a letter tuple the caller knows is freely reduced, unchecked."""
        word = object.__new__(cls)
        object.__setattr__(word, "letters", letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(("Word", self.letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        return Word(self.letters * k)

    def inverse(self) -> "Word":
        return Word((g, -e) for g, e in reversed(self.letters))

    def __repr__(self):
        return f"Word({format_word(self)!r})"

    def __str__(self):
        return format_word(self)


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for g, e in letters:
        if e not in (1, -1):
            raise ValueError("letters carry exponent +1 or -1")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


_TOKEN = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(-?\d+))?")
MAX_WORD_LETTERS = 4096  # bounds the memory and product count one exponent can ask for
MAX_BALL_WORDS = 2**16  # the largest word ball a sweep builds: radius 9 over two generators


def parse_word(text: str) -> Word:
    """Parse "c1^-1 c3" or "c1^2 c2" (whitespace-separated syllables).

    A word of more than MAX_WORD_LETTERS letters, before free reduction,
    is rejected before its syllables are expanded.
    """
    letters: list[Letter] = []
    for syllable in text.split():
        m = _TOKEN.fullmatch(syllable)
        if not m:
            raise ValueError(f"bad word syllable {syllable!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if exp == 0:
            continue
        if len(letters) + abs(exp) > MAX_WORD_LETTERS:
            raise ValueError(f"word {text!r} is longer than {MAX_WORD_LETTERS} letters")
        sign = 1 if exp > 0 else -1
        letters.extend([(name, sign)] * abs(exp))
    return Word(letters)


def format_word(word: Word) -> str:
    """Run-length syllable form; the identity prints as "1"."""
    if not word.letters:
        return "1"
    parts = []
    run_name, run_exp = word.letters[0][0], word.letters[0][1]
    count = 1
    for g, e in word.letters[1:]:
        if g == run_name and e == run_exp:
            count += 1
        else:
            parts.append(_syllable(run_name, run_exp * count))
            run_name, run_exp, count = g, e, 1
    parts.append(_syllable(run_name, run_exp * count))
    return " ".join(parts)


def _syllable(name: str, exp: int) -> str:
    return name if exp == 1 else f"{name}^{exp}"


def letter_alphabet(generators: Sequence[str]) -> list[Letter]:
    out: list[Letter] = []
    for g in generators:
        out.append((g, 1))
        out.append((g, -1))
    return out


def letter_index(generators: Sequence[str]) -> dict[Letter, int]:
    """Letters as indices into letter_alphabet: c -> 2i, c^-1 -> 2i + 1.

    The inverse of a letter index k is k ^ 1, so a word's inverse is the
    reversed tuple with every index flipped.  The key functions below
    take keys by this map, which `ball_levels` lists beside each word.
    """
    return {letter: i for i, letter in enumerate(letter_alphabet(generators))}


def ball_levels(
    generators: Sequence[str], radius: int, keep: Callable[[Key], bool] | None = None
) -> Iterator[list[tuple[Word, Key]]]:
    """Levels 1 to radius of the freely reduced ball, each a length-lex list of (word, key).

    A child whose key fails `keep` is neither listed nor extended.
    Children join a level parent by parent, in alphabet order, so each
    level is already length-lex ordered.  Before it builds a level, the
    walk raises ValueError if the full ball through that level would
    hold more than MAX_BALL_WORDS words; a caller that stops early never
    meets the limit.
    """
    alphabet = tuple(enumerate(letter_alphabet(generators)))
    level = [(Word(), ())]
    words = 0
    for length in range(1, radius + 1):
        words += len(alphabet) * (len(alphabet) - 1) ** (length - 1)  # the full ball's level
        if words > MAX_BALL_WORDS:
            raise ValueError(
                f"word ball of radius {radius} exceeds {MAX_BALL_WORDS} words: "
                f"length {length} brings it to {words}"
            )
        level = [
            (Word.from_reduced(word.letters + (letter,)), key + (i,))
            for word, key in level
            for i, letter in alphabet
            if not (key and key[-1] == i ^ 1) and (keep is None or keep(key + (i,)))
        ]
        yield level


def conjugacy_key(key: Key) -> Key:
    """Canonical key of the conjugacy class of a word and its inverse, from its key.

    Cyclic reduction followed by the lex-least rotation among the key's
    rotations and its inverse's rotations.
    """
    while len(key) >= 2 and key[0] == key[-1] ^ 1:
        key = key[1:-1]
    inverse = tuple(k ^ 1 for k in reversed(key))
    return min((k[i:] + k[:i] for k in (key, inverse) for i in range(len(k))), default=())


def is_class_representative(key: Key) -> bool:
    """True when the word keyed `key` is the length-lex first member of its class."""
    return conjugacy_key(key) == key


def is_representative_prefix(key: Key) -> bool:
    """Can a freely reduced extension of `key` be a class representative?

    False when a factor of key starting at a position i >= 1, or a suffix
    of key's inverse, is smaller than key's prefix of the same length at
    a difference.  That factor starts a rotation of every extension or of
    its inverse, which is then smaller than the extension.  Once False, it
    stays False for every extension, so a sweep may drop the whole subtree
    (the prefix pruning of necklace generation).  Slices of equal length
    make tuple order a comparison at a difference.
    """
    n = len(key)
    inverse = tuple(k ^ 1 for k in reversed(key))
    return not any(key[i:] < key[: n - i] for i in range(1, n)) and not any(
        inverse[j:] < key[: n - j] for j in range(n)
    )


def is_power_of_class(word: Word, base: Word, index: dict[Letter, int]) -> bool:
    """Is `word` conjugate to a power k >= 1 of `base` (or of its inverse)?

    A base naming a letter outside `index` is no match.
    """
    if any(letter not in index for letter in base.letters):
        return False
    word_key, base_key = (tuple(index[letter] for letter in w.letters) for w in (word, base))
    return is_key_power(conjugacy_key(word_key), conjugacy_key(base_key))


def is_key_power(key: tuple, base_key: tuple) -> bool:
    """Is `key` the conjugacy key of a power k >= 1 of the class keyed `base_key`?

    The key of a cyclically reduced base's k-th power is its key repeated
    k times; an empty base key matches only the empty key.
    """
    if not base_key:
        return not key
    k, rest = divmod(len(key), len(base_key))
    return k >= 1 and not rest and key == base_key * k
