"""Corpus ingestion: tweets, term lexicons, and candidate filtering by
supplement/event term co-occurrence.

Lexicon terms are indexed by their first word, a maximal run of
alphanumeric characters. The matcher scans the words of a text with one
regex pass and tries only the terms indexed under each word.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

from .annotation import ENTITY_TYPES

logger = logging.getLogger(__name__)

# a maximal run of str.isalnum characters: \w without the underscore
_WORD = re.compile(r"[^\W_]+")


@dataclass(frozen=True)
class Tweet:
    id: str
    text: str
    lang: str
    created_at: str | None = None


@dataclass(frozen=True)
class LexiconHit:
    term: str
    canonical: str
    category: str
    char_start: int
    char_end: int


class Lexicon:
    """Immutable surface -> (canonical, category) table, lowercase keys."""

    def __init__(self, entries: dict[str, tuple[str, str]]):
        self._entries = dict(entries)
        # index terms by their first word for the matcher; a term that does
        # not start with one can never match
        self._by_first_word: dict[str, list[str]] = {}
        for term in self._entries:
            first = _WORD.match(term)
            if first:
                self._by_first_word.setdefault(first.group(), []).append(term)
        for terms in self._by_first_word.values():
            terms.sort(key=len, reverse=True)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, term: str) -> bool:
        return term in self._entries

    def canonical(self, term: str) -> str:
        return self._entries[term][0]

    def category(self, term: str) -> str:
        return self._entries[term][1]

    @property
    def entries(self) -> dict[str, tuple[str, str]]:
        return dict(self._entries)

    def candidates(self, first_word: str) -> list[str]:
        return self._by_first_word.get(first_word, [])


@dataclass
class LoadReport:
    loaded: int = 0
    skipped: int = 0
    diagnostics: list[str] = field(default_factory=list)


def _tweet(obj) -> Tweet:
    """The tweet one parsed line holds. A missing, empty or mistyped field
    raises KeyError, TypeError or ValueError."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {type(obj).__name__}")
    tweet_id, text, lang = obj["id"], obj["text"], obj["lang"]
    created_at = obj.get("created_at")
    if isinstance(tweet_id, bool) or not isinstance(tweet_id, (str, int)):
        raise TypeError(f"id must be a string or an integer, got {tweet_id!r}")
    for name, value in (("text", text), ("lang", lang)):
        if not isinstance(value, str):
            raise TypeError(f"{name} must be a string, got {value!r}")
    if created_at is not None and not isinstance(created_at, str):
        raise TypeError(f"created_at must be a string or null, got {created_at!r}")
    if tweet_id == "" or not text:
        raise ValueError("empty id or text")
    return Tweet(id=str(tweet_id), text=text, lang=lang, created_at=created_at)


def load_tweets(path, report: LoadReport | None = None):
    """Yield tweets from a JSON Lines file, skipping malformed lines."""
    report = report if report is not None else LoadReport()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                tweet = _tweet(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                report.skipped += 1
                msg = f"{path}:{lineno}: skipped malformed line ({exc})"
                report.diagnostics.append(msg)
                logger.warning(msg)
                continue
            report.loaded += 1
            yield tweet


def load_lexicon(path, category: str) -> Lexicon:
    """Load a TSV lexicon: surface<TAB>canonical (canonical optional). A bad
    record raises ValueError naming the file and line."""
    if category not in ENTITY_TYPES:
        raise ValueError(f"unknown category {category!r}")
    entries: dict[str, tuple[str, str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            surface = parts[0].strip().lower()
            canonical = parts[1].strip().lower() if len(parts) > 1 and parts[1].strip() else surface
            if len(parts) > 2:
                raise ValueError(f"{path}:{lineno}: expected term<TAB>canonical, got {line!r}")
            if not _WORD.match(surface):
                # the matcher finds terms by their first word only
                raise ValueError(f"{path}:{lineno}: a term must start with a letter or "
                                 f"digit, got {line!r}")
            if surface in entries and entries[surface][0] != canonical:
                raise ValueError(
                    f"{path}:{lineno}: conflicting canonical for term {surface!r}: "
                    f"{entries[surface][0]!r} vs {canonical!r}"
                )
            entries[surface] = (canonical, category)
    return Lexicon(entries)


def merge_lexicons(*lexicons: Lexicon) -> Lexicon:
    entries: dict[str, tuple[str, str]] = {}
    for lex in lexicons:
        for surface, val in lex.entries.items():
            if surface in entries and entries[surface] != val:
                raise ValueError(f"conflicting entries for term {surface!r}")
            entries[surface] = val
    return Lexicon(entries)


def _is_boundary(text: str, pos: int) -> bool:
    """True at transitions between alphanumeric and non-alphanumeric."""
    if pos == 0 or pos == len(text):
        return True
    return text[pos - 1].isalnum() != text[pos].isalnum()


def match_terms(text: str, lexicon: Lexicon) -> list[LexiconHit]:
    """Leftmost-longest, word-boundary-aware, non-overlapping matches."""
    low = text.lower()
    hits: list[LexiconHit] = []
    last_end = 0
    for word in _WORD.finditer(low):
        i = word.start()
        if i < last_end:
            continue
        for term in lexicon.candidates(word.group()):  # sorted longest-first
            end = i + len(term)
            if low.startswith(term, i) and _is_boundary(low, end):
                hits.append(LexiconHit(
                    term=term,
                    canonical=lexicon.canonical(term),
                    category=lexicon.category(term),
                    char_start=i,
                    char_end=end,
                ))
                last_end = end
                break
    return hits


def filter_candidate(tweet: Tweet, ds_lexicon: Lexicon,
                     event_lexicon: Lexicon) -> tuple[bool, list[LexiconHit], list[LexiconHit]]:
    """Keep English tweets mentioning both a supplement and an event term."""
    if tweet.lang != "en":
        return False, [], []
    ds_hits = match_terms(tweet.text, ds_lexicon)
    if not ds_hits:
        return False, ds_hits, []
    event_hits = match_terms(tweet.text, event_lexicon)
    return bool(event_hits), ds_hits, event_hits
