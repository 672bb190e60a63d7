"""Tokenizers — re-implementation of tantivy's tokenizer semantics.

Reference behavior (studied, not copied):
- ``SimpleTokenizer``: maximal runs of alphanumeric chars, byte offsets,
  position = token ordinal starting at 0
  (/root/reference/src/tokenizer/simple_tokenizer.rs:30-64).
- ``WhitespaceTokenizer``: splits on Unicode whitespace
  (/root/reference/src/tokenizer/whitespace_tokenizer.rs).
- ``RawTokenizer``: the whole input is one token, position 0
  (/root/reference/src/tokenizer/raw_tokenizer.rs).
- ``NgramTokenizer``: char n-grams with byte offsets, all with position 0
  (/root/reference/src/tokenizer/ngram_tokenizer.rs:84).
- ``RegexTokenizer``: tokens are the matches of a user regex
  (/root/reference/src/tokenizer/regex_tokenizer.rs:50).
- ``FacetTokenizer``: emits each ancestor of a facet path
  (/root/reference/src/tokenizer/facet_tokenizer.rs:13).

Positions are assigned by the *tokenizer* (ordinal over produced tokens);
downstream filters that drop tokens leave position gaps, exactly like the
reference's stream composition.

Note on alphanumeric: Rust's ``char::is_alphanumeric`` is Alphabetic ∪
{Nd, Nl, No}; Python's ``str.isalnum`` is the same set (it additionally
treats ``Other_Alphabetic`` marks the same way).  Python's ``re`` ``\\w``
equals the ``isalnum`` set plus underscore, so the token pattern is
``[^\\W_]+``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List


@dataclass
class Token:
    """Mirror of tantivy's Token (reference tokenizer-api/src/lib.rs:15-29).

    ``offset_from``/``offset_to`` are **byte** offsets into the UTF-8
    encoding of the input (Rust string offsets are byte offsets).
    """

    text: str
    position: int
    offset_from: int
    offset_to: int
    position_length: int = 1


_SIMPLE_RE = re.compile(r"[^\W_]+", re.UNICODE)
_WS_RE = re.compile(r"\S+", re.UNICODE)


def _char_to_byte_offsets(text: str) -> List[int]:
    """Prefix byte lengths: byte offset of each char index (len = len(text)+1)."""
    offs = [0] * (len(text) + 1)
    pos = 0
    for i, ch in enumerate(text):
        offs[i] = pos
        pos += len(ch.encode("utf-8"))
    offs[len(text)] = pos
    return offs


def _regex_tokens(pattern: re.Pattern, text: str) -> List[Token]:
    toks: List[Token] = []
    if text.isascii():
        for i, m in enumerate(pattern.finditer(text)):
            toks.append(Token(m.group(0), i, m.start(), m.end()))
    else:
        offs = _char_to_byte_offsets(text)
        for i, m in enumerate(pattern.finditer(text)):
            toks.append(Token(m.group(0), i, offs[m.start()], offs[m.end()]))
    return toks


class SimpleTokenizer:
    """Maximal runs of alphanumeric characters."""

    name = "simple"

    def tokenize(self, text: str) -> List[Token]:
        return _regex_tokens(_SIMPLE_RE, text)


class WhitespaceTokenizer:
    name = "whitespace_tok"

    def tokenize(self, text: str) -> List[Token]:
        return _regex_tokens(_WS_RE, text)


class RawTokenizer:
    """Whole input = one token (position 0)."""

    name = "raw_tok"

    def tokenize(self, text: str) -> List[Token]:
        if not text:
            return []
        return [Token(text, 0, 0, len(text.encode("utf-8")))]


class RegexTokenizer:
    def __init__(self, pattern: str):
        self.pattern = re.compile(pattern)

    def tokenize(self, text: str) -> List[Token]:
        return _regex_tokens(self.pattern, text)


class NgramTokenizer:
    """Char n-grams.

    For each char start position, emits grams of every length in
    ``[min_gram, max_gram]`` that fit; ``prefix_only`` restricts starts to 0.
    All tokens carry position 0 (the reference emits them at the same
    position; ngram_tokenizer.rs tests show position always 0).
    """

    def __init__(self, min_gram: int, max_gram: int, prefix_only: bool = False):
        if not (0 < min_gram <= max_gram):
            raise ValueError("need 0 < min_gram <= max_gram")
        self.min_gram = min_gram
        self.max_gram = max_gram
        self.prefix_only = prefix_only

    def tokenize(self, text: str) -> List[Token]:
        n = len(text)
        offs = None if text.isascii() else _char_to_byte_offsets(text)
        toks: List[Token] = []
        starts = [0] if self.prefix_only else range(n)
        for i in starts:
            for g in range(self.min_gram, self.max_gram + 1):
                j = i + g
                if j > n:
                    break
                if offs is None:
                    toks.append(Token(text[i:j], 0, i, j))
                else:
                    toks.append(Token(text[i:j], 0, offs[i], offs[j]))
        return toks


class FacetTokenizer:
    """Facet path "/a/b/c" → tokens "/a", "/a/b", "/a/b/c" (one per ancestor),
    all at position 0 — mirrors the reference's facet prefix emission."""

    def tokenize(self, text: str) -> List[Token]:
        if not text or text == "/":
            return []
        parts = [p for p in text.split("/") if p != ""]
        toks: List[Token] = []
        path = ""
        for p in parts:
            path += "/" + p
            toks.append(Token(path, 0, 0, len(path.encode("utf-8"))))
        return toks


class PreTokenizedStream:
    """Pass-through for user-supplied tokens
    (reference src/tokenizer/tokenized_string.rs:11)."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens

    def tokenize(self, _text: str) -> List[Token]:
        return list(self._tokens)
