import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from dsae.corpus import (Lexicon, LoadReport, filter_candidate, load_lexicon,
                         load_tweets, match_terms, merge_lexicons, Tweet)


@pytest.fixture
def ds_lexicon():
    return Lexicon({
        "vitamin c": ("vitamin c", "Supplement"),
        "vitamin": ("vitamin (unspecified)", "Supplement"),
        "fish oil": ("fish oil", "Supplement"),
        "iron": ("iron", "Supplement"),
    })


@pytest.fixture
def event_lexicon():
    return Lexicon({
        "nausea": ("nausea", "Symptom"),
        "sore throat": ("sore throat", "Symptom"),
        "liver": ("liver", "BodyOrgan"),
    })


# -------------------------------------------------------------------- loading

def test_load_tweets_skips_malformed(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text(
        json.dumps({"id": "1", "text": "hello", "lang": "en"}) + "\n"
        + "not json\n"
        + json.dumps({"id": "2", "lang": "en"}) + "\n"          # missing text
        + json.dumps({"id": "", "text": "x", "lang": "en"}) + "\n"  # empty id
        + "\n"
        + json.dumps({"id": 3, "text": "ok", "lang": "es",
                      "created_at": "2020-01-01"}) + "\n")
    report = LoadReport()
    tweets = list(load_tweets(path, report))
    assert [t.id for t in tweets] == ["1", "3"]
    assert report.loaded == 2
    assert report.skipped == 3
    assert len(report.diagnostics) == 3
    assert tweets[1].created_at == "2020-01-01"


# one JSON value of each type, and the empty string
_TYPED = {"null": None, "bool": True, "int": 7, "float": 1.5, "string": "zinc",
          "empty string": "", "list": ["zinc"], "object": {"a": "b"}}
# the JSON types load_tweets accepts in each field; an empty id or text is
# skipped, and only created_at may be absent
_ACCEPTED = {"id": {"int", "string"}, "text": {"string"},
             "lang": {"string", "empty string"},
             "created_at": {"string", "empty string", "null", "absent"}}


@settings(max_examples=80, deadline=None)
@given(field=st.sampled_from(sorted(_ACCEPTED)),
       kind=st.sampled_from(sorted(_TYPED) + ["absent"]))
def test_load_tweets_skips_a_field_of_the_wrong_json_type(tmp_path_factory, field, kind):
    record = {"id": "1", "text": "zinc gave me a rash", "lang": "en",
              "created_at": "2020-01-01"}
    record.pop(field)
    if kind != "absent":
        record[field] = _TYPED[kind]
    path = tmp_path_factory.mktemp("tweets") / "tweets.jsonl"
    path.write_text(json.dumps({"id": "0", "text": "zinc", "lang": "en"}) + "\n"
                    + json.dumps(record) + "\n")
    report = LoadReport()
    tweets = list(load_tweets(path, report))
    if kind in _ACCEPTED[field]:
        assert (report.loaded, report.skipped) == (2, 0)
        tweet = tweets[1]
        assert (tweet.id, tweet.text, tweet.lang, tweet.created_at) == (
            str(record["id"]), record["text"], record["lang"], record.get("created_at"))
        filter_candidate(tweet, Lexicon({}), Lexicon({}))
    else:
        assert (report.loaded, report.skipped) == (1, 1)
        assert report.diagnostics[0].startswith(f"{path}:2: skipped malformed line")


def test_load_lexicon_defaults_and_case(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("Vitamin C\tvitamin c\nIRON\n\n")
    lex = load_lexicon(path, "Supplement")
    assert "vitamin c" in lex and "iron" in lex
    assert lex.canonical("iron") == "iron"
    assert lex.category("vitamin c") == "Supplement"


def test_load_lexicon_conflict_is_error(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("iron\tiron\niron\tferrous sulfate\n")
    with pytest.raises(ValueError, match="conflicting"):
        load_lexicon(path, "Supplement")


def test_load_lexicon_unknown_category(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("iron\n")
    with pytest.raises(ValueError, match="category"):
        load_lexicon(path, "Mineral")


def test_merge_lexicons_conflict(ds_lexicon):
    other = Lexicon({"iron": ("iron the element", "Supplement")})
    with pytest.raises(ValueError, match="iron"):
        merge_lexicons(ds_lexicon, other)
    merged = merge_lexicons(ds_lexicon, Lexicon({"zinc": ("zinc", "Supplement")}))
    assert len(merged) == len(ds_lexicon) + 1


_LEX_FIELD = st.text(alphabet="abc é1-_.", max_size=8)
_LEX_RECORD = st.tuples(
    st.text(alphabet="aé1", min_size=1, max_size=2), _LEX_FIELD,
    st.one_of(st.none(), _LEX_FIELD),
).map(lambda r: r[0] + r[1] if r[2] is None else f"{r[0] + r[1]}\t{r[2]}")
_BAD_LEX_RECORD = st.one_of(
    # a third field
    st.lists(_LEX_FIELD, min_size=3, max_size=5).map("\t".join),
    # a term that does not start with a letter or digit can never match
    st.tuples(st.text(alphabet="-_(.", min_size=1, max_size=2), _LEX_FIELD,
              st.lists(_LEX_FIELD, max_size=1))
    .map(lambda r: "\t".join([r[0] + r[1]] + r[2])),
)


@settings(max_examples=80, deadline=None)
@given(good=st.lists(_LEX_RECORD, max_size=4, unique_by=lambda r: r.split("\t")[0].strip()),
       bad=_BAD_LEX_RECORD)
def test_load_lexicon_names_file_and_line_of_bad_record(tmp_path_factory, good, bad):
    path = tmp_path_factory.mktemp("lex") / "lex.tsv"
    if not bad.strip():
        bad = "\t-" + bad  # a blank line is skipped, not a record
    path.write_text("\n".join(good + [bad]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:{len(good) + 1}: ")
                       + ".*" + re.escape(repr(bad))):
        load_lexicon(path, "Supplement")


@pytest.mark.parametrize("record", ["fish oil\tomega-3\textra", "(iron)", "-zinc",
                                    "\tiron"])
def test_load_lexicon_refuses_extra_field_and_unmatchable_term(tmp_path, record):
    path = tmp_path / "lex.tsv"
    path.write_text(f"iron\n{record}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: ") + ".*"
                       + re.escape(repr(record))):
        load_lexicon(path, "Supplement")


# ------------------------------------------------------------------- matching

def brute_force_match(text, lexicon):
    """Oracle: scan left to right, take the longest boundary-aligned term."""
    low = text.lower()
    n = len(low)

    def boundary(k):
        if k == 0 or k == n:
            return True
        return low[k - 1].isalnum() != low[k].isalnum()

    hits = []
    i = 0
    while i < n:
        if not (low[i].isalnum() and boundary(i)):
            i += 1
            continue
        best = None
        for term in lexicon.entries:
            end = i + len(term)
            if end <= n and low[i:end] == term and boundary(end):
                if best is None or len(term) > len(best):
                    best = term
        if best is None:
            j = i
            while j < n and low[j].isalnum():
                j += 1
            i = j
        else:
            hits.append((i, i + len(best), best))
            i += len(best)
    return hits


def test_match_terms_leftmost_longest(ds_lexicon):
    hits = match_terms("Vitamin C and vitamin D", ds_lexicon)
    assert [(h.term, h.char_start, h.char_end) for h in hits] == [
        ("vitamin c", 0, 9), ("vitamin", 14, 21)]
    assert hits[1].canonical == "vitamin (unspecified)"


def test_match_terms_word_boundaries(ds_lexicon):
    assert match_terms("ironing environment", ds_lexicon) == []
    hits = match_terms("(iron) works, iron!", ds_lexicon)
    assert [(h.char_start, h.char_end) for h in hits] == [(1, 5), (14, 18)]


def test_match_terms_matches_brute_force(ds_lexicon, event_lexicon):
    from dsae.numeric.rng import Rng
    rng = Rng(0, stream=4)
    words = ["vitamin", "c", "d", "fish", "oil", "iron", "ironic", "nausea",
             "sore", "throat", "liver", "x,", "(a)", "the"]
    lex = merge_lexicons(ds_lexicon, event_lexicon)
    for _ in range(200):
        text = " ".join(words[rng.randint(len(words))]
                        for _ in range(rng.randint(10) + 1))
        got = [(h.char_start, h.char_end, h.term) for h in match_terms(text, lex)]
        assert got == brute_force_match(text, lex), text


def _first_word(term):
    out = []
    for ch in term:
        if ch.isalnum():
            out.append(ch)
        else:
            break
    return "".join(out)


def per_character_match(text, lexicon):
    """Oracle: the matcher as a loop over characters, each word found by
    walking its characters."""
    low = text.lower()
    n = len(low)

    def boundary(k):
        return k == 0 or k == n or low[k - 1].isalnum() != low[k].isalnum()

    candidates = {}
    for term in sorted(lexicon.entries, key=len, reverse=True):
        candidates.setdefault(_first_word(term), []).append(term)
    hits = []
    i = 0
    while i < n:
        if not (low[i].isalnum() and boundary(i)):
            i += 1
            continue
        word = _first_word(low[i:])
        matched = None
        for term in candidates.get(word, []):
            end = i + len(term)
            if end <= n and low[i:end] == term and boundary(end):
                matched = term
                break
        if matched is None:
            i += len(word)
        else:
            hits.append((i, i + len(matched), matched))
            i += len(matched)
    return hits


_TERMS = ["vitamin c", "vitamin", "c", "fish oil", "iron", "iron)", "a_b", "b12",
          "émile", "ﬁsh", "x-1", "1", "ß", "(iron)", "-zinc"]
_TEXT_PIECES = st.one_of(
    st.sampled_from(_TERMS + ["ironic", "vitamins", "_", "__", " ", "  ", ",", "!", "-",
                              "(", ")", ".", "9", "Émile", "İ", "Ⅻ", "²", "ﬁ", "日本"]),
    st.text(alphabet="ab c_1é.-(ßİ", max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(st.sampled_from(_TERMS), min_size=1, unique=True),
       pieces=st.lists(_TEXT_PIECES, max_size=12))
def test_match_terms_equals_per_character_loop(terms, pieces):
    lexicon = Lexicon({term: (term, "Supplement") for term in terms})
    text = "".join(pieces)
    got = [(h.char_start, h.char_end, h.term) for h in match_terms(text, lexicon)]
    assert got == per_character_match(text, lexicon), text


# ------------------------------------------------------------------ filtering

def test_filter_candidate(ds_lexicon, event_lexicon):
    yes = Tweet("1", "fish oil gave me nausea", "en")
    ok, ds_hits, event_hits = filter_candidate(yes, ds_lexicon, event_lexicon)
    assert ok and ds_hits[0].term == "fish oil" and event_hits[0].term == "nausea"

    no_event = Tweet("2", "taking fish oil daily", "en")
    assert filter_candidate(no_event, ds_lexicon, event_lexicon)[0] is False

    no_ds = Tweet("3", "bad nausea today", "en")
    assert filter_candidate(no_ds, ds_lexicon, event_lexicon)[0] is False

    wrong_lang = Tweet("4", "fish oil nausea", "de")
    assert filter_candidate(wrong_lang, ds_lexicon, event_lexicon) == (False, [], [])
