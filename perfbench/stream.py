"""The tweet stream of the ``mine`` workload and the files an analyst
would mine it with (lexicons, unigram counts, knowledge base).

Each English tweet is rendered from one synthetic document. Rendering adds
only noise that normalization must remove and that leaves the document's
token sequence unchanged: handles, URLs, emoji (alone and attached to a
word), letter case, single-word and CamelCase hashtags, and doubled spaces.
The stream also holds non-English tweets that name lexicon terms, and a
few malformed lines. Rendering uses the benchmark's own ``random.Random``,
so the same seed writes the same bytes.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass

EMOJI = ["\U0001F629", "\U0001F64F", "\U0001F48A", "\U0001F634", "\U0001F922",
         "\U0001F44D", "✨", "☕"]
HANDLES = ["user", "jen_k", "mike", "sam_r", "healthnut", "daily_dose"]
FOREIGN = {
    "es": ["tomé", "ayer", "y", "me", "dio", "mucho", "por", "la", "noche"],
    "fr": ["j'ai", "pris", "hier", "et", "puis", "beaucoup", "le", "soir"],
    "de": ["ich", "habe", "gestern", "und", "dann", "sehr", "am", "abend"],
}
# Malformed lines, each of a kind load_tweets must skip.
MALFORMED = [
    '{{"id": "{id}", "text": "vitamin d gave me nausea", "lang": "en"',
    '{{"id": "{id}", "lang": "en"}}',
    '{{"id": "{id}", "text": "", "lang": "en"}}',
    '["{id}", "melatonin caused headache", "en"]',
    '{{"id": "{id}", "text": "zinc gave me rash"}}',
]

NON_ENGLISH_SHARE = 0.10
MALFORMED_SHARE = 0.01


@dataclass
class Planted:
    """One gold relation of a rendered tweet, by surface words."""

    supplement: str
    event: str
    label: str


@dataclass
class SourceTweet:
    id: str
    text: str
    words: list[str]
    relations: list[Planted]


@dataclass
class Stream:
    english: list[SourceTweet]
    n_non_english: int
    n_malformed: int

    @property
    def n_lines(self) -> int:
        return len(self.english) + self.n_non_english + self.n_malformed


def _hashtag_ok(word: str) -> bool:
    # digits are hard split points of hashtag segmentation ("b12" -> b, 12)
    return word.isalpha()


def render_text(words: list[str], entities: list[tuple[int, int]], rng: random.Random) -> str:
    """Noisy surface text whose normalization is exactly ``words``."""
    pieces: list[str] = []
    multi = {start: end for start, end in entities if end - start > 1}
    i = 0
    while i < len(words):
        end = multi.get(i)
        if end is not None and all(_hashtag_ok(w) for w in words[i:end]) and rng.random() < 0.25:
            pieces.append("#" + "".join(w.capitalize() for w in words[i:end]))
            i = end
            continue
        word = words[i]
        roll = rng.random()
        if roll < 0.12:
            word = word.capitalize()
        elif roll < 0.16:
            word = word.upper()
        roll = rng.random()
        if roll < 0.06 and _hashtag_ok(word):
            word = "#" + word
        elif roll < 0.10:
            word = word + rng.choice(EMOJI)
        elif roll < 0.12:
            word = rng.choice(EMOJI) + word
        pieces.append(word)
        if rng.random() < 0.05:
            pieces.append(rng.choice(EMOJI))
        i += 1
    if rng.random() < 0.3:
        pieces.insert(0, f"@{rng.choice(HANDLES)}{rng.randrange(100)}")
    if rng.random() < 0.1:
        pieces.insert(rng.randrange(len(pieces) + 1), f"@{rng.choice(HANDLES)}")
    if rng.random() < 0.3:
        slug = "".join(rng.choice("abcdefghijkLMNOP0123456789") for _ in range(10))
        pieces.append(f"https://t.co/{slug}")
    text = pieces[0]
    for piece in pieces[1:]:
        text += ("  " if rng.random() < 0.1 else " ") + piece
    return text


def build_stream(docs, seed: int) -> Stream:
    """Render annotated documents into English tweets, and count the
    non-English and malformed lines to mix in."""
    rng = random.Random(seed)
    english = []
    for k, annotated in enumerate(docs):
        words = annotated.doc.surfaces()
        spans = [(e.token_start, e.token_end) for e in annotated.entities]
        relations = [Planted(" ".join(words[r.head.token_start:r.head.token_end]),
                             " ".join(words[r.tail.token_start:r.tail.token_end]),
                             r.label)
                     for r in annotated.relations]
        english.append(SourceTweet(f"tw{seed}-{k:05d}", render_text(words, spans, rng),
                                   words, relations))
    n_non = int(NON_ENGLISH_SHARE * len(docs))
    n_bad = max(len(MALFORMED), int(MALFORMED_SHARE * len(docs)))
    return Stream(english, n_non, n_bad)


def write_stream(stream: Stream, seed: int, supplements: list[str], events: list[str],
                 path) -> None:
    """JSON Lines with the English, non-English and malformed lines in a
    seeded order."""
    rng = random.Random(seed + 1)
    lines = [json.dumps({"id": t.id, "text": t.text, "lang": "en"}, ensure_ascii=False)
             for t in stream.english]
    for k in range(stream.n_non_english):
        lang = rng.choice(sorted(FOREIGN))
        filler = FOREIGN[lang]
        words = [rng.choice(filler) for _ in range(rng.randrange(2, 5))]
        words.insert(rng.randrange(len(words) + 1), rng.choice(supplements))
        words.append(rng.choice(events))
        lines.append(json.dumps({"id": f"fx{seed}-{k:05d}", "text": " ".join(words),
                                 "lang": lang}, ensure_ascii=False))
    for k in range(stream.n_malformed):
        lines.append(MALFORMED[k % len(MALFORMED)].format(id=f"bad{seed}-{k}"))
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_lexicon(terms, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for term in sorted(terms):
            fh.write(f"{term}\t{term}\n")


def write_unigrams(stream: Stream, path) -> None:
    """Word counts over the stream's source words, for hashtag segmentation."""
    counts: dict[str, int] = {}
    for tweet in stream.english:
        for word in tweet.words:
            counts[word] = counts.get(word, 0) + 1
    with open(path, "w", encoding="utf-8") as fh:
        for word in sorted(counts):
            fh.write(f"{word}\t{counts[word]}\n")


def write_kb(pairs: set[tuple[str, str, str]], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["supplement", "event", "relation"])
        for row in sorted(pairs):
            writer.writerow(row)


def choose_kb(planted: set[tuple[str, str, str]], supplements: list[str],
              events: list[str], seed: int) -> set[tuple[str, str, str]]:
    """About half of the planted (supplement, event, relation) triples plus
    up to 20 decoy pairs that no tweet plants."""
    rng = random.Random(seed + 2)
    chosen = {p for p in sorted(planted) if rng.random() < 0.5}
    planted_pairs = {(s, e) for s, e, _ in planted}
    decoys = {(s, e, "AdverseEvent") for s in supplements for e in events
              if (s, e) not in planted_pairs}
    return chosen | set(rng.sample(sorted(decoys), min(20, len(decoys))))
