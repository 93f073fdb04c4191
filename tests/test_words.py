"""Word reduction, enumeration and conjugacy-class keys."""

from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from valrep import words
from valrep.words import (
    MAX_WORD_LETTERS,
    Word,
    ball_levels,
    conjugacy_key,
    format_word,
    is_class_representative,
    is_power_of_class,
    is_representative_prefix,
    letter_alphabet,
    letter_index,
    parse_word,
)

from helpers import (
    _oracle_ball,
    rotation_conjugacy_key,
    rotation_is_class_representative,
    rotation_is_power_of_class,
)


def test_free_reduction():
    w = parse_word("c1 c1^-1 c2")
    assert w == parse_word("c2")
    assert len(parse_word("c1 c2 c2^-1 c1^-1")) == 0


def test_parse_and_format_round_trip():
    for text in ("c1^-1 c3", "c1^2 c2^-3", "1"):
        if text == "1":
            assert format_word(Word()) == "1"
            continue
        assert format_word(parse_word(text)) == text


def test_inverse_and_power():
    w = parse_word("c1 c2^-1")
    assert w * w.inverse() == Word()
    assert w ** 3 == w * w * w
    assert w ** -2 == (w.inverse()) ** 2


def key_of(word, index):
    """A word's index key, built from its letters."""
    return tuple(index[letter] for letter in word.letters)


def ball(generators, radius, keep=None):
    """(word, key) over the whole walk, level after level."""
    return [item for level in ball_levels(generators, radius, keep) for item in level]


def test_word_counts_match_free_group():
    # 4 * 3^(L-1) freely reduced words of length L over two generators
    levels = [len(level) for level in ball_levels(("c1", "c2"), 5)]
    assert levels == [4 * 3 ** (length - 1) for length in (1, 2, 3, 4, 5)]


def test_ball_is_length_lex_ordered():
    seen = [w for w, _ in ball(("a", "b"), 3)]
    lengths = [len(w) for w in seen]
    assert lengths == sorted(lengths)
    assert len(seen) == 4 + 12 + 36


@pytest.mark.parametrize("generators", [("a",), ("a", "b"), ("a", "b", "c")])
@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_ball_levels_match_the_oracle_ball(generators, radius):
    # the words of helpers._oracle_ball, in its order, each beside its index tuple;
    # with the prefix test as `keep`, the same listing filtered by that test
    index = letter_index(generators)
    free = SimpleNamespace(free_generators=generators)  # all the unpruned oracle reads
    images = dict.fromkeys(index)
    oracle = [w for w, _ in _oracle_ball(free, radius, None, images, lambda a, b: None)]
    full = ball(generators, radius)
    assert [w for w, _ in full] == oracle
    assert all(key == key_of(w, index) for w, key in full)
    pruned = ball(generators, radius, is_representative_prefix)
    assert pruned == [(w, key) for w, key in full if is_representative_prefix(key)]


def test_conjugacy_key_invariance():
    index = letter_index(("c1", "c2"))
    w = parse_word("c1 c2 c1^-1 c2^-1")
    h = parse_word("c2 c1")
    assert conjugacy_key(key_of(w, index)) == conjugacy_key(key_of(h * w * h.inverse(), index))
    assert conjugacy_key(key_of(w, index)) == conjugacy_key(key_of(w.inverse(), index))


def test_class_representative_unique_per_class():
    length_3 = list(ball_levels(("c1", "c2"), 3))[-1]
    keys = [conjugacy_key(key) for _, key in length_3 if is_class_representative(key)]
    assert len(keys) == len(set(keys))


def test_power_of_class_detection():
    index = letter_index(("c1", "c2"))
    boundary = parse_word("c2 c1")
    assert is_power_of_class(parse_word("c2 c1 c2 c1"), boundary, index)
    assert is_power_of_class(parse_word("c1 c2"), boundary, index)  # rotation
    assert is_power_of_class(parse_word("c1^-1 c2^-1"), boundary, index)  # inverse
    assert not is_power_of_class(parse_word("c1 c2^-1"), boundary, index)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("c1^")
    with pytest.raises(ValueError):
        parse_word("3x")


def test_parse_caps_word_length_before_expanding():
    assert len(parse_word(f"c1^{MAX_WORD_LETTERS}")) == MAX_WORD_LETTERS
    assert len(parse_word(f"c1^{MAX_WORD_LETTERS - 1} c2^-1")) == MAX_WORD_LETTERS
    for text in (f"c1^{MAX_WORD_LETTERS + 1}", f"c1^{MAX_WORD_LETTERS} c2", "c1^-999999999"):
        with pytest.raises(ValueError, match="longer than"):
            parse_word(text)


@pytest.mark.parametrize("generators", [("a", "b"), ("a", "b", "c")])
def test_index_tuple_keys_match_rotation_words(generators, monkeypatch):
    # every freely reduced word up to length 7, identity included; the three-generator
    # ball holds 117,186 words, beyond the sweeps' limit, which this listing need not keep
    monkeypatch.setattr(words, "MAX_BALL_WORDS", 2**17)
    for w, index_key in [(Word(), ()), *ball(generators, 7)]:
        key = rotation_conjugacy_key(w, generators)
        assert conjugacy_key(index_key) == key, w
        assert is_class_representative(index_key) == (
            rotation_is_class_representative(w, generators, key)
        ), w


POWER_BASES = ["", "c1", "c2 c1", "c1 c2^-1", "c1^2", "c2 c1 c2^-1", "c1 c2 c1^-1 c2^-1", "c3"]


def test_power_of_class_keys_match_rotation_words():
    # every freely reduced word up to length 6, identity included, against each base
    gens = ("c1", "c2")
    index = letter_index(gens)
    bases = [parse_word(text) for text in POWER_BASES]
    for w in [Word(), *(w for w, _ in ball(gens, 6))]:
        for base in bases:
            assert is_power_of_class(w, base, index) == rotation_is_power_of_class(w, base, gens), (
                w, base,
            )


def representative_candidates(letters, max_len):
    """Reduced index keys up to max_len whose first letter is even and least.

    Least among the key's letters and its inverse's: a rotation of the
    word or its inverse starting at a smaller letter is smaller, so every
    class representative's key is among these (an odd first letter k has
    the smaller inverse k ^ 1 in the inverse word).
    """
    for first in range(0, letters, 2):
        stack = [(first,)]
        while stack:
            key = stack.pop()
            yield key
            if len(key) < max_len:
                stack.extend(key + (i,) for i in range(first, letters) if i != key[-1] ^ 1)


@pytest.mark.parametrize("generators,count", [(("a", "b"), 693), (("a", "b", "c"), 31795)])
def test_representative_prefixes_are_sound(generators, count):
    # every prefix of every class representative up to length 8 passes
    alphabet, index = letter_alphabet(generators), letter_index(generators)
    found = []
    for key in representative_candidates(len(alphabet), 8):
        word = Word.from_reduced(tuple(alphabet[i] for i in key))
        assert key == key_of(word, index)
        if is_class_representative(key):
            found.append(word)
            assert all(is_representative_prefix(key[:i]) for i in range(1, len(key) + 1)), word
    assert len(found) == count
    if len(generators) == 2:  # the candidates miss no representative
        full = [w for w, key in ball(generators, 8) if is_class_representative(key)]
        assert sorted(found, key=lambda w: w.letters) == sorted(full, key=lambda w: w.letters)


@st.composite
def reduced_keys(draw):
    """A freely reduced index key over 2 or 3 generators, with its alphabet size."""
    letters = 2 * draw(st.integers(2, 3))
    key = [draw(st.integers(0, letters - 1))]
    for step in draw(st.lists(st.integers(0, letters - 2), max_size=9)):
        # the letters - 1 letters that do not cancel the last one
        key.append(step if step < key[-1] ^ 1 else step + 1)
    return tuple(key), letters


@given(reduced_keys())
def test_a_failed_prefix_fails_every_extension(drawn):
    key, letters = drawn
    if not is_representative_prefix(key):
        for i in range(letters):
            if i != key[-1] ^ 1:
                assert not is_representative_prefix(key + (i,)), (key, i)
