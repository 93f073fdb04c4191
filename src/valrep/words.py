"""Freely reduced words over a generating set, and word-ball enumeration.

A word is a tuple of (generator name, +1 or -1) letters with no adjacent
inverse pair.  Enumeration order everywhere is length-lexicographic with
the letter order c, c^-1 per generator in presentation order, which keeps
sweeps and reported witnesses deterministic.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Sequence

Letter = tuple[str, int]


class Word:
    """Freely reduced word; constructed from any letter sequence."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", free_reduce(letters))

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    @classmethod
    def identity(cls) -> "Word":
        return cls()

    @classmethod
    def generator(cls, name: str, exponent: int = 1) -> "Word":
        sign = 1 if exponent > 0 else -1
        return cls([(name, sign)] * abs(exponent))

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

    def conjugate_by(self, h: "Word") -> "Word":
        """h w h^-1."""
        return h * self * h.inverse()

    def is_cyclically_reduced(self) -> bool:
        if len(self.letters) < 2:
            return True
        (g1, e1), (g2, e2) = self.letters[0], self.letters[-1]
        return not (g1 == g2 and e1 == -e2)

    def cyclic_reduction(self) -> "Word":
        letters = list(self.letters)
        while len(letters) >= 2 and letters[0][0] == letters[-1][0] and letters[0][1] == -letters[-1][1]:
            letters = letters[1:-1]
        return Word(letters)

    def rotations(self) -> Iterator["Word"]:
        n = len(self.letters)
        for i in range(max(n, 1)):
            yield Word(self.letters[i:] + self.letters[:i])

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


def parse_word(text: str) -> Word:
    """Parse "c1^-1 c3" or "c1^2 c2" (whitespace-separated syllables)."""
    letters: list[Letter] = []
    for syllable in text.split():
        m = _TOKEN.fullmatch(syllable)
        if not m:
            raise ValueError(f"bad word syllable {syllable!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if exp == 0:
            continue
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


def words_of_length(generators: Sequence[str], length: int) -> Iterator[Word]:
    """Freely reduced words of exactly this length, in lexicographic order."""
    alphabet = letter_alphabet(generators)
    if length == 0:
        yield Word()
        return

    def extend(prefix: list[Letter]):
        if len(prefix) == length:
            yield Word(prefix)
            return
        for letter in alphabet:
            if prefix and prefix[-1][0] == letter[0] and prefix[-1][1] == -letter[1]:
                continue
            prefix.append(letter)
            yield from extend(prefix)
            prefix.pop()

    yield from extend([])


def word_ball(generators: Sequence[str], radius: int, include_identity: bool = False) -> Iterator[Word]:
    """All freely reduced words of length <= radius, in length-lex order."""
    if include_identity:
        yield Word()
    for length in range(1, radius + 1):
        yield from words_of_length(generators, length)


def conjugacy_key(word: Word, generators: Sequence[str]) -> tuple:
    """Canonical key of the conjugacy class of word and its inverse.

    Cyclic reduction followed by the lex-least rotation among the word's
    rotations and its inverse's rotations, all as tuples of letter indices
    (see `_index_key`).
    """
    key = _index_key(word, generators)
    while len(key) >= 2 and key[0] == key[-1] ^ 1:
        key = key[1:-1]
    return min(_rotations(key), default=())


def is_class_representative(word: Word, generators: Sequence[str]) -> bool:
    """True when `word` is the length-lex first member of its class."""
    key = _index_key(word, generators)
    if len(key) >= 2 and key[0] == key[-1] ^ 1:
        return False  # not cyclically reduced
    return not any(rot < key for rot in _rotations(key))


def _index_key(word: Word, generators: Sequence[str]) -> tuple[int, ...]:
    """Letters as indices into letter_alphabet: c -> 2i, c^-1 -> 2i + 1.

    The inverse of a letter index k is k ^ 1, so a word's inverse is the
    reversed tuple with every index flipped.
    """
    index = {letter: i for i, letter in enumerate(letter_alphabet(generators))}
    return tuple(index[l] for l in word.letters)


def _rotations(key: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every rotation of a cyclically reduced key and of its inverse."""
    inverse = tuple(k ^ 1 for k in reversed(key))
    for k in (key, inverse):
        for i in range(len(k)):
            yield k[i:] + k[:i]


def is_power_of_class(word: Word, base: Word, generators: Sequence[str]) -> bool:
    """Is `word` conjugate to a power of `base` (or of its inverse)?

    Both are compared through cyclic reductions; powers of a cyclically
    reduced base are recognized as repeated rotations.
    """
    core = word.cyclic_reduction()
    base_core = base.cyclic_reduction()
    if not base_core.letters:
        return not core.letters
    if not core.letters:
        return False
    if len(core) % len(base_core):
        return False
    k = len(core) // len(base_core)
    for rot in base_core.rotations():
        if core == rot ** k or core == (rot.inverse()) ** k:
            return True
    return False
