import itertools
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from dsae.normalize import (ExternalPos, SYNTHETIC, UnigramTable, normalize,
                            pos_tag, segment_hashtag)


UNIGRAMS = UnigramTable({
    "vitamin": 50, "c": 30, "gave": 20, "me": 40, "a": 100,
    "headache": 25, "fish": 15, "oil": 15, "take": 10, "daily": 10,
})


@pytest.fixture
def unigrams():
    return UNIGRAMS


# ----------------------------------------------------------- unigrams/hashtag

def test_unigram_floor_probability(unigrams):
    total = unigrams.total
    assert unigrams.log_prob("vitamin") == pytest.approx(math.log(50 / total))
    assert unigrams.log_prob("zzz") == pytest.approx(
        -math.log(total) - 3 * math.log(10.0))


@pytest.mark.parametrize("record", ["vitamin 5", "vitamin\tfive", "vitamin\t5\t6",
                                    "vitamin\t0", "vitamin\t-2", "\t5"])
def test_unigram_load_names_file_and_line_of_bad_record(tmp_path, record):
    path = tmp_path / "unigrams.tsv"
    path.write_text(f"fish\t3\n\n{record}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: ")):
        UnigramTable.load(path)


def test_unigram_load_reads_counts(tmp_path):
    path = tmp_path / "unigrams.tsv"
    path.write_text("Fish\t3\n\noil\t2\n", encoding="utf-8")
    assert UnigramTable.load(path).counts == {"fish": 3, "oil": 2}


def test_unigram_load_sums_counts_of_one_folded_word(tmp_path):
    path = tmp_path / "unigrams.tsv"
    path.write_text("Fish\t3\noil\t2\nfish\t2\n", encoding="utf-8")
    table = UnigramTable.load(path)
    assert table.counts == {"fish": 5, "oil": 2}
    assert table.total == 7


def exhaustive_best_split(piece, unigrams):
    """Oracle: try every cut of the piece, return the max-likelihood split."""
    n = len(piece)
    best, best_score = None, -math.inf
    for mask in itertools.product([0, 1], repeat=max(0, n - 1)):
        cuts = [0] + [i + 1 for i, m in enumerate(mask) if m] + [n]
        words = [piece[a:b] for a, b in zip(cuts, cuts[1:])]
        if any(len(w) > 24 for w in words):
            continue
        score = sum(unigrams.log_prob(w) for w in words)
        if score > best_score:
            best, best_score = words, score
    return best


def test_segment_hashtag_matches_exhaustive_dp(unigrams):
    for body in ("vitaminc", "fishoil", "takedaily", "headache", "cgavemea",
                 "zzqj", "avitamin"):
        assert segment_hashtag(body, unigrams) == exhaustive_best_split(body, unigrams)


def test_segment_hashtag_camel_case_hard_splits(unigrams):
    assert segment_hashtag("VitaminC", unigrams) == ["vitamin", "c"]
    assert segment_hashtag("FishOilDaily", unigrams) == ["fish", "oil", "daily"]


def test_segment_hashtag_digit_boundary(unigrams):
    assert segment_hashtag("vitamin12", unigrams) == ["vitamin", "12"]


def test_segment_hashtag_unknown_stays_whole(unigrams):
    assert segment_hashtag("qzxv", unigrams) == ["qzxv"]


# ------------------------------------------------------------------ normalize

def test_normalize_removes_urls_handles_emoji(unigrams):
    doc = normalize("d1", "@user vitamin c rocks \U0001F600 https://x.co/abc", unigrams)
    assert doc.surfaces() == ["vitamin", "c", "rocks"]


@pytest.mark.parametrize("text, surfaces", [
    ("love it \U0001F468\u200d\U0001F469\u200d\U0001F467 so much",
     ["love", "it", "so", "much"]),
    ("rate 1\ufe0f\u20e3 stars", ["rate", "stars"]),
    ("i \u2764\ufe0f fish oil", ["i", "fish", "oil"]),
])
def test_normalize_removes_emoji_sequences(unigrams, text, surfaces):
    doc = normalize("d1", text, unigrams)
    assert doc.surfaces() == surfaces
    for t in doc.tokens:
        assert text[t.orig_start:t.orig_end] == t.surface


def test_normalize_offsets_point_to_original(unigrams):
    text = "@u Fish OIL!"
    doc = normalize("d1", text, unigrams)
    assert doc.surfaces() == ["fish", "oil", "!"]
    fish = doc.tokens[0]
    assert text[fish.orig_start:fish.orig_end] == "Fish"
    oil = doc.tokens[1]
    assert text[oil.orig_start:oil.orig_end] == "OIL"


def test_normalize_expands_contractions_with_synthetic_offsets(unigrams):
    doc = normalize("d1", "it doesn't work", unigrams)
    assert doc.surfaces() == ["it", "does", "not", "work"]
    does = doc.tokens[1]
    assert does.orig_start == SYNTHETIC and does.orig_end == SYNTHETIC


def test_normalize_segments_hashtags(unigrams):
    doc = normalize("d1", "ugh #VitaminC gave me a headache", unigrams)
    assert doc.surfaces() == ["ugh", "vitamin", "c", "gave", "me", "a", "headache"]
    assert doc.tokens[1].orig_start == SYNTHETIC


def test_normalize_lowercases_and_aligns_normalized_offsets(unigrams):
    doc = normalize("d1", "Vitamin C Daily", unigrams)
    assert doc.normalized_text == "vitamin c daily"
    for t in doc.tokens:
        assert doc.normalized_text[t.start:t.end] == t.surface


def test_normalize_splits_punctuation_with_offsets(unigrams):
    text = "hello, (world)! it's a-ok"
    doc = normalize("d1", text, unigrams)
    assert doc.surfaces() == ["hello", ",", "(", "world", ")", "!", "it's", "a-ok"]
    for t in doc.tokens:
        assert text[t.orig_start:t.orig_end] == t.surface


def test_normalize_keeps_interior_hyphen_apostrophe(unigrams):
    doc = normalize("d1", "state-of-the-art o'neill's", unigrams)
    assert doc.surfaces() == ["state-of-the-art", "o'neill's"]


def test_normalize_offsets_skip_deleted_characters(unigrams):
    text = "vit\U0001F600amin' rocks"
    doc = normalize("d1", text, unigrams)
    assert doc.surfaces() == ["vitamin", "'", "rocks"]
    spans = [text[t.orig_start:t.orig_end] for t in doc.tokens]
    assert spans == ["vit\U0001F600amin", "'", "rocks"]


# Apostrophes are weighted up: a word that sheds one after a deleted emoji
# is where original offsets are easiest to get wrong.
_FRAGMENTS = st.sampled_from([
    "Vitamin", "Vit\U0001F600amin", "c", "OIL", "headache", "a-ok", "12",
    "https://x.co/a?b=1", "www.ex.com", "@user", "@", "\U0001F600", "\u2705",
    "\U0001F1FA\U0001F1F8", "\U0001F468\u200d\U0001F469", "#\ufe0f\u20e3", "\u2764\ufe0f",
    "#VitaminC", "#fishoil", "#", "'", "'", "'", "\u2019", '"',
    "(", ")", "!", "?", ",", "...", "-", "doesn't", "I'M", "it's", "Y'all", "gonna",
])
_SEPARATORS = st.sampled_from(["", "", "", " ", "  ", "\n"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FRAGMENTS, _SEPARATORS), max_size=12))
def test_normalize_offsets_property(parts):
    text = "".join(fragment + sep for fragment, sep in parts)
    doc = normalize("d1", text, UNIGRAMS)
    assert doc.normalized_text == " ".join(doc.surfaces())
    for t in doc.tokens:
        assert doc.normalized_text[t.start:t.end] == t.surface
        if t.orig_start != SYNTHETIC:
            assert text[t.orig_start].lower() == t.surface[0]
            assert text[t.orig_end - 1].lower() == t.surface[-1]


# ------------------------------------------------------------------------ POS

def test_pos_fallback_rules(unigrams):
    doc = normalize("d1", "the vitamins helped quickly !", unigrams)
    tagged = pos_tag(doc)
    by_surface = {t.surface: t.pos for t in tagged.tokens}
    assert by_surface["the"] == "DET"
    assert by_surface["helped"] == "VERB"
    assert by_surface["quickly"] == "ADV"
    assert by_surface["!"] == "PUNCT"
    assert by_surface["vitamins"] == "NOUN"


def test_pos_external_verbatim_and_missing(unigrams):
    doc = normalize("d1", "vitamin c", unigrams)
    source = ExternalPos({("d1", 0): "NOUN", ("d1", 1): "X"})
    tagged = pos_tag(doc, source)
    assert [t.pos for t in tagged.tokens] == ["NOUN", "X"]
    with pytest.raises(KeyError):
        pos_tag(doc, ExternalPos({("d1", 0): "NOUN"}))


_POS_FIELD = st.text(alphabet="abcXYZ019_.-", min_size=1, max_size=6)
_POS_RECORD = st.tuples(_POS_FIELD, st.integers(0, 99), _POS_FIELD).map(
    lambda r: "\t".join(map(str, r)))
_BAD_POS_RECORD = st.one_of(
    st.lists(_POS_FIELD, min_size=1, max_size=5).filter(lambda f: len(f) != 3)
    .map("\t".join),
    st.tuples(_POS_FIELD, st.one_of(_POS_FIELD.filter(lambda f: not f.isdecimal()),
                                    st.integers(max_value=-1).map(str),
                                    st.floats().map(str)), _POS_FIELD)
    .map("\t".join),
)


@settings(max_examples=60, deadline=None)
@given(good=st.lists(_POS_RECORD, max_size=4), bad=_BAD_POS_RECORD)
def test_pos_external_load_names_file_and_line_of_bad_record(tmp_path_factory, good, bad):
    path = tmp_path_factory.mktemp("pos") / "pos.tsv"
    path.write_text("\n".join(good + [bad]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{len(good) + 1}: ")
                       + ".*" + re.escape(repr(bad))):
        ExternalPos.load(path)


def test_pos_external_load(tmp_path, unigrams):
    path = tmp_path / "pos.tsv"
    path.write_text("d1\t0\tNOUN\nd1\t1\tNUM\n")
    doc = normalize("d1", "vitamin 12", unigrams)
    tagged = pos_tag(doc, ExternalPos.load(path))
    assert [t.pos for t in tagged.tokens] == ["NOUN", "NUM"]
