"""Text normalization for short social-media posts.

One pass per text. URLs, handles, emoji and the joiners, keycaps and
variation selectors of emoji sequences are deleted; the surviving
characters keep a map back to their offsets in the original text and are
split on whitespace into chunks. A chunk that is ``#`` plus letters and
digits (trailing punctuation aside) becomes its unigram-likelihood
segmentation. Any other chunk first sheds its edge punctuation except
apostrophes; a contraction that remains is expanded, otherwise the
remaining edge punctuation is shed too. Each shed mark is its own token.
Surfaces are lowercased, stop words are kept, and tokens made by
expansion or segmentation carry sentinel offsets.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from itertools import compress

SYNTHETIC = -1

_URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)", re.IGNORECASE)
_HANDLE_RE = re.compile(r"@\w+")
# Emoji_Presentation code points outside the main emoji blocks, the
# U+1F300..U+1FAFF blocks themselves, and variation selectors.
_EMOJI_RE = re.compile(
    "[\u231a\u231b\u23e9-\u23ec\u23f0\u23f3\u25fd\u25fe\u2614\u2615"
    "\u2648-\u2653\u267f\u2693\u26a1\u26aa\u26ab\u26bd\u26be\u26c4\u26c5"
    "\u26ce\u26d4\u26ea\u26f2\u26f3\u26f5\u26fa\u26fd\u2705\u270a\u270b"
    "\u2728\u274c\u274e\u2753-\u2755\u2757\u2795-\u2797\u27b0\u27bf"
    "\u2b1b\u2b1c\u2b50\u2b55\ufe00-\ufe0f\U0001f004\U0001f0cf\U0001f18e"
    "\U0001f191-\U0001f19a\U0001f1e6-\U0001f1ff\U0001f201\U0001f202"
    "\U0001f21a\U0001f22f\U0001f232-\U0001f23a\U0001f250\U0001f251"
    "\U0001f300-\U0001faff]+")
# the parts emoji sequences are built from: keycaps (digit, # or *, an
# optional U+FE0F, U+20E3), a text-default symbol that U+FE0F turns into an
# emoji (whitespace before a stray U+FE0F stays, so words stay apart), and
# the zero-width joiner between the members of a sequence
_EMOJI_SEQUENCE_RE = re.compile("[0-9#*]\ufe0f?\u20e3|[^\\s]\ufe0f|\u200d")
_CHUNK_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class Token:
    surface: str
    start: int
    end: int
    orig_start: int = SYNTHETIC
    orig_end: int = SYNTHETIC
    pos: str | None = None


@dataclass(frozen=True)
class NormalizedDoc:
    doc_id: str
    original_text: str
    normalized_text: str
    tokens: tuple[Token, ...]

    def surfaces(self) -> list[str]:
        return [t.surface for t in self.tokens]


class UnigramTable:
    """Word frequencies over a background corpus, with a length-penalized
    floor probability for unknown words: 1 / (total * 10^len)."""

    def __init__(self, counts: dict[str, int]):
        if any(c <= 0 for c in counts.values()):
            raise ValueError("unigram counts must be positive")
        self.counts = dict(counts)
        self.total = sum(counts.values())

    @classmethod
    def load(cls, path) -> "UnigramTable":
        """Read word<TAB>count lines; words are case-folded, and the counts
        of lines that fold to one word are summed. A bad record, or one
        without a word, raises ValueError naming the file and line."""
        counts: dict[str, int] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                word, tab, count = line.partition("\t")
                word = word.strip().lower()
                if not (word and tab and count.strip().isdecimal() and int(count) > 0):
                    raise ValueError(f"{path}:{lineno}: expected word<TAB>positive "
                                     f"integer count, got {line!r}")
                counts[word] = counts.get(word, 0) + int(count)
        return cls(counts)

    def log_prob(self, word: str) -> float:
        c = self.counts.get(word)
        if c is not None:
            return math.log(c / self.total)
        return -math.log(self.total) - len(word) * math.log(10.0)


# Contraction handling: a fixed shipped table; ambiguous "'s" is left alone.
_CONTRACTIONS = {
    "ain't": "am not", "aren't": "are not", "can't": "can not",
    "couldn't": "could not", "didn't": "did not", "doesn't": "does not",
    "don't": "do not", "hadn't": "had not", "hasn't": "has not",
    "haven't": "have not", "he'd": "he would", "he'll": "he will",
    "i'd": "i would", "i'll": "i will", "i'm": "i am", "i've": "i have",
    "isn't": "is not", "it'd": "it would", "it'll": "it will",
    "let's": "let us", "mightn't": "might not", "mustn't": "must not",
    "shan't": "shall not", "she'd": "she would", "she'll": "she will",
    "shouldn't": "should not", "that'll": "that will", "there'd": "there would",
    "they'd": "they would", "they'll": "they will", "they're": "they are",
    "they've": "they have", "wasn't": "was not", "we'd": "we would",
    "we'll": "we will", "we're": "we are", "we've": "we have",
    "weren't": "were not", "what'll": "what will", "what're": "what are",
    "what've": "what have", "where'd": "where did", "who'd": "who would",
    "who'll": "who will", "who're": "who are", "who've": "who have",
    "won't": "will not", "wouldn't": "would not", "you'd": "you would",
    "you'll": "you will", "you're": "you are", "you've": "you have",
    "gonna": "going to", "wanna": "want to", "gotta": "got to",
    "kinda": "kind of", "gimme": "give me", "lemme": "let me",
    "cannot": "can not", "y'all": "you all", "ma'am": "madam",
    "o'clock": "of the clock",
}


def _is_punct(ch: str) -> bool:
    return not ch.isalnum() and not ch.isspace()


def _peel(s: str, lo: int, hi: int, keep: str = "") -> tuple[int, int]:
    """Narrow ``s[lo:hi]`` past the punctuation at both edges, stopping at
    any character in ``keep``."""
    while lo < hi and _is_punct(s[lo]) and s[lo] not in keep:
        lo += 1
    while hi > lo and _is_punct(s[hi - 1]) and s[hi - 1] not in keep:
        hi -= 1
    return lo, hi


def segment_hashtag(body: str, unigrams: UnigramTable) -> list[str]:
    """Split a hashtag body into words.

    Camel-case boundaries are hard split points; each piece is then split
    by maximum likelihood under the unigram model (exact DP over all cut
    positions). All-unknown input stays whole because the floor probability
    penalizes every extra piece.
    """
    if not body:
        return []
    pieces: list[str] = []
    cur = body[0]
    for prev, ch in zip(body, body[1:]):
        if (ch.isupper() and not prev.isupper()) or (ch.isdigit() != prev.isdigit()):
            pieces.append(cur)
            cur = ch
        else:
            cur += ch
    pieces.append(cur)

    words: list[str] = []
    for piece in pieces:
        words.extend(_segment_piece(piece.lower(), unigrams))
    return words


def _segment_piece(piece: str, unigrams: UnigramTable) -> list[str]:
    n = len(piece)
    best = [0.0] + [-math.inf] * n
    back = [0] * (n + 1)
    for j in range(1, n + 1):
        for i in range(max(0, j - 24), j):
            score = best[i] + unigrams.log_prob(piece[i:j])
            if score > best[j]:
                best[j] = score
                back[j] = i
    out = []
    j = n
    while j > 0:
        i = back[j]
        out.append(piece[i:j])
        j = i
    return list(reversed(out))


def _marks(chunk: str, lo: int, hi: int) -> list[tuple[str, int, int]]:
    return [(chunk[k].lower(), k, k + 1) for k in range(lo, hi)]


def _split_chunk(chunk: str, unigrams: UnigramTable) -> list[tuple[str, int, int]]:
    """Tokens of one whitespace-free chunk as (surface, start, end), with
    offsets into the chunk, SYNTHETIC for expanded or segmented words."""
    n = len(chunk)
    if chunk[0] == "#":
        lo, hi = _peel(chunk, 1, n)
        if lo == 1 and chunk[1:hi].isalnum():
            words = segment_hashtag(chunk[1:hi], unigrams)
            return [(w, SYNTHETIC, SYNTHETIC) for w in words] + _marks(chunk, hi, n)
    lo, hi = _peel(chunk, 0, n, "'")
    expansion = _CONTRACTIONS.get(chunk[lo:hi].lower())
    if expansion is not None:
        core = [(w, SYNTHETIC, SYNTHETIC) for w in expansion.split()]
    else:
        lo, hi = _peel(chunk, lo, hi)
        core = [(chunk[lo:hi].lower(), lo, hi)] if lo < hi else []
    return _marks(chunk, 0, lo) + core + _marks(chunk, hi, n)


def normalize(doc_id: str, text: str, unigrams: UnigramTable) -> NormalizedDoc:
    alive = bytearray(b"\x01" * len(text))
    for rx in (_URL_RE, _HANDLE_RE, _EMOJI_RE, _EMOJI_SEQUENCE_RE):
        for m in rx.finditer(text):
            alive[m.start():m.end()] = bytes(m.end() - m.start())
    index = list(compress(range(len(text)), alive))  # survivor -> original offset
    survivors = "".join(compress(text, alive))

    tokens: list[Token] = []
    cursor = 0
    for m in _CHUNK_RE.finditer(survivors):
        base = m.start()
        for surface, lo, hi in _split_chunk(m.group(), unigrams):
            span = ((SYNTHETIC, SYNTHETIC) if lo == SYNTHETIC
                    else (index[base + lo], index[base + hi - 1] + 1))
            tokens.append(Token(surface, cursor, cursor + len(surface), *span))
            cursor += len(surface) + 1
    return NormalizedDoc(doc_id, text, " ".join(t.surface for t in tokens), tuple(tokens))


# ------------------------------------------------------------------ POS tags

POS_TAGS = ("NOUN", "VERB", "ADJ", "ADV", "PRON", "DET", "ADP", "NUM", "PUNCT", "X")

_CLOSED_CLASS = {
    "DET": {"the", "a", "an", "this", "that", "these", "those", "some", "any",
            "no", "every", "each", "all", "both", "either", "neither"},
    "PRON": {"i", "you", "he", "she", "it", "we", "they", "me", "him", "her",
             "us", "them", "my", "your", "his", "its", "our", "their", "mine",
             "yours", "hers", "ours", "theirs", "who", "whom", "what", "which",
             "myself", "yourself", "himself", "herself", "itself", "ourselves",
             "themselves", "someone", "anyone", "everyone", "nothing",
             "something", "anything", "everything"},
    "ADP": {"in", "on", "at", "by", "for", "with", "about", "against",
            "between", "into", "through", "during", "before", "after",
            "above", "below", "to", "from", "up", "down", "of", "off",
            "over", "under", "near", "without", "within"},
    "VERB": {"is", "am", "are", "was", "were", "be", "been", "being", "have",
             "has", "had", "do", "does", "did", "will", "would", "shall",
             "should", "may", "might", "must", "can", "could", "not",
             "get", "got", "make", "made", "take", "took", "feel", "felt",
             "go", "went", "gave", "give", "cause", "caused", "causes",
             "help", "helps", "helped"},
    "ADV": {"very", "too", "so", "just", "now", "then", "here", "there",
            "always", "never", "often", "really", "quite", "almost",
            "again", "still", "also", "only", "even", "well"},
}

_SUFFIX_RULES = (
    ("ing", "VERB"), ("ed", "VERB"), ("ly", "ADV"), ("ous", "ADJ"),
    ("ful", "ADJ"), ("ive", "ADJ"), ("able", "ADJ"), ("ible", "ADJ"),
    ("al", "ADJ"), ("ic", "ADJ"), ("less", "ADJ"), ("ish", "ADJ"),
    ("ness", "NOUN"), ("ment", "NOUN"), ("tion", "NOUN"), ("sion", "NOUN"),
    ("ity", "NOUN"), ("er", "NOUN"), ("ist", "NOUN"),
)


def _fallback_tag(surface: str) -> str:
    if all(_is_punct(ch) for ch in surface):
        return "PUNCT"
    if surface.replace(".", "").replace(",", "").isdigit():
        return "NUM"
    for tag, words in _CLOSED_CLASS.items():
        if surface in words:
            return tag
    for suffix, tag in _SUFFIX_RULES:
        if len(surface) > len(suffix) + 1 and surface.endswith(suffix):
            return tag
    if surface.isalpha():
        return "NOUN"
    return "X"


class ExternalPos:
    """Per-token POS tags from a TSV: doc_id<TAB>token_index<TAB>tag."""

    def __init__(self, table: dict[tuple[str, int], str]):
        self.table = dict(table)

    @classmethod
    def load(cls, path) -> "ExternalPos":
        table: dict[tuple[str, int], str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                fields = line.split("\t")
                if len(fields) != 3 or not fields[1].strip().isdecimal():
                    raise ValueError(f"{path}:{lineno}: expected doc_id<TAB>token "
                                     f"index<TAB>tag, got {line!r}")
                doc_id, index, tag = fields
                table[(doc_id, int(index))] = tag
        return cls(table)


def pos_tag(doc: NormalizedDoc, pos_source: ExternalPos | None = None) -> NormalizedDoc:
    """Attach a coarse POS tag to every token.

    With an external source, tags are copied verbatim; missing entries are
    an error. Otherwise the built-in closed-class + suffix tagger is used.
    """
    tagged = []
    for i, tok in enumerate(doc.tokens):
        if pos_source is not None:
            key = (doc.doc_id, i)
            if key not in pos_source.table:
                raise KeyError(f"no POS tag for doc {doc.doc_id!r} token {i}")
            tag = pos_source.table[key]
        else:
            tag = _fallback_tag(tok.surface)
        tagged.append(replace(tok, pos=tag))
    return replace(doc, tokens=tuple(tagged))
