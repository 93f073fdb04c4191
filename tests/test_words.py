"""Word reduction, enumeration and conjugacy-class keys."""

import pytest

from valrep.words import (
    Word,
    conjugacy_key,
    format_word,
    is_class_representative,
    is_power_of_class,
    parse_word,
    word_ball,
    words_of_length,
)

from helpers import rotation_conjugacy_key, rotation_is_class_representative


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


def test_cyclic_reduction():
    w = parse_word("c1 c2 c1^-1")
    assert not w.is_cyclically_reduced()
    assert w.cyclic_reduction() == parse_word("c2")


def test_word_counts_match_free_group():
    # 4 * 3^(L-1) freely reduced words of length L over two generators
    for length in (1, 2, 3, 4, 5):
        count = sum(1 for _ in words_of_length(("c1", "c2"), length))
        assert count == 4 * 3 ** (length - 1)


def test_ball_is_length_lex_ordered():
    seen = list(word_ball(("a", "b"), 3))
    lengths = [len(w) for w in seen]
    assert lengths == sorted(lengths)
    assert len(seen) == 4 + 12 + 36


def test_conjugacy_key_invariance():
    gens = ("c1", "c2")
    w = parse_word("c1 c2 c1^-1 c2^-1")
    h = parse_word("c2 c1")
    assert conjugacy_key(w, gens) == conjugacy_key(w.conjugate_by(h), gens)
    assert conjugacy_key(w, gens) == conjugacy_key(w.inverse(), gens)


def test_class_representative_unique_per_class():
    gens = ("c1", "c2")
    reps = [w for w in words_of_length(gens, 3) if is_class_representative(w, gens)]
    keys = [conjugacy_key(w, gens) for w in reps]
    assert len(keys) == len(set(keys))


def test_power_of_class_detection():
    gens = ("c1", "c2")
    boundary = parse_word("c2 c1")
    assert is_power_of_class(parse_word("c2 c1 c2 c1"), boundary, gens)
    assert is_power_of_class(parse_word("c1 c2"), boundary, gens)  # rotation
    assert is_power_of_class(parse_word("c1^-1 c2^-1"), boundary, gens)  # inverse
    assert not is_power_of_class(parse_word("c1 c2^-1"), boundary, gens)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("c1^")
    with pytest.raises(ValueError):
        parse_word("3x")


@pytest.mark.parametrize("generators", [("a", "b"), ("a", "b", "c")])
def test_index_tuple_keys_match_rotation_words(generators):
    # every freely reduced word up to length 7, identity included
    for w in word_ball(generators, 7, include_identity=True):
        key = rotation_conjugacy_key(w, generators)
        assert conjugacy_key(w, generators) == key, w
        assert is_class_representative(w, generators) == (
            rotation_is_class_representative(w, generators, key)
        ), w
