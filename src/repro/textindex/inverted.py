"""The inverted index: term → postings.

Documents are integers (doc ids) assigned at add time; each posting stores
the in-document term frequency and term positions (positions enable phrase
scoring), and each document keeps its own term → frequency map so scoring
one document never walks a postings list.  The vocabulary, kept as a sorted
list, supports the "partial matches" the paper requires: one binary search
finds every term a prefix can stand for, so the query ``mount`` can reach
``mountain``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import takewhile
from typing import Iterable, Iterator


@dataclass
class Posting:
    """One (document, term) occurrence record."""

    doc_id: int
    freq: int
    positions: tuple[int, ...]


class InvertedIndex:
    """Term → postings map with document length bookkeeping."""

    def __init__(self):
        self._postings: dict[str, list[Posting]] = defaultdict(list)
        self._doc_lengths: dict[int, int] = {}
        self._doc_term_freqs: dict[int, dict[str, int]] = {}
        # the vocabulary in sorted order; None after new terms arrive
        self._sorted_terms: list[str] | None = []
        self._next_doc_id = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_document(self, terms: list[str]) -> int:
        """Index one analyzed document; returns its doc id."""
        doc_id = self._next_doc_id
        self._next_doc_id += 1
        positions: dict[str, list[int]] = defaultdict(list)
        for pos, term in enumerate(terms):
            positions[term].append(pos)
        for term, pos_list in positions.items():
            if term not in self._postings:
                self._sorted_terms = None
            self._postings[term].append(
                Posting(doc_id, len(pos_list), tuple(pos_list))
            )
        self._doc_lengths[doc_id] = len(terms)
        self._doc_term_freqs[doc_id] = {
            term: len(pos_list) for term, pos_list in positions.items()}
        return doc_id

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def num_docs(self) -> int:
        """Number of indexed documents."""
        return self._next_doc_id

    def doc_length(self, doc_id: int) -> int:
        """Number of terms indexed for ``doc_id``."""
        return self._doc_lengths.get(doc_id, 0)

    def doc_freq(self, term: str) -> int:
        """Number of documents containing ``term``."""
        return len(self._postings.get(term, ()))

    def vocabulary(self) -> Iterator[str]:
        """All indexed terms."""
        return iter(self._postings)

    # ------------------------------------------------------------------
    # retrieval
    # ------------------------------------------------------------------
    def postings(self, term: str) -> list[Posting]:
        """Postings list for an exact term (empty when absent)."""
        return self._postings.get(term, [])

    def expand_prefix(self, prefix: str, limit: int = 50) -> list[str]:
        """Indexed terms starting with ``prefix`` (for partial matching).

        Sorted for determinism; capped at ``limit`` expansions like Lucene's
        ``maxClauseCount`` guard.  The terms sharing a prefix are one
        contiguous run of the sorted vocabulary, starting where a binary
        search puts the prefix.
        """
        if self._sorted_terms is None:
            self._sorted_terms = sorted(self._postings)
        terms = self._sorted_terms
        start = bisect_left(terms, prefix)
        return list(takewhile(lambda t: t.startswith(prefix),
                              terms[start:start + limit]))

    def expand_fuzzy(self, term: str, max_edits: int = 1,
                     limit: int = 50) -> list[str]:
        """Indexed terms within ``max_edits`` Levenshtein edits of ``term``.

        Implements the "approximate search" half of the paper's §3 text
        index requirements (typo tolerance: ``Colombus`` still reaches
        ``columbus``).  Candidates are pruned by length before the edit
        distance is computed; very short terms (<= 2 chars) only match
        exactly, mirroring Lucene's fuzzy-prefix safeguard.
        """
        if len(term) <= 2:
            return [term] if term in self._postings else []
        matches = sorted(
            candidate for candidate in self._postings
            if abs(len(candidate) - len(term)) <= max_edits
            and _levenshtein_within(term, candidate, max_edits)
        )
        return matches[:limit]

    def candidate_docs(self, terms: Iterable[str]) -> set[int]:
        """Doc ids containing at least one of ``terms`` (OR semantics)."""
        docs: set[int] = set()
        for term in terms:
            docs.update(p.doc_id for p in self._postings.get(term, ()))
        return docs

    def term_freqs(self, doc_id: int, terms: Iterable[str]) -> dict[str, int]:
        """Frequencies of the given terms inside one document."""
        freqs = self._doc_term_freqs.get(doc_id, {})
        return {term: freqs[term] for term in terms if term in freqs}

    def phrase_match(self, doc_id: int, terms: list[str]) -> bool:
        """True when ``terms`` occur as a contiguous phrase in ``doc_id``."""
        if not terms:
            return False
        position_sets: list[set[int]] = []
        for term in terms:
            positions: set[int] | None = None
            for posting in self._postings.get(term, ()):
                if posting.doc_id == doc_id:
                    positions = set(posting.positions)
                    break
            if positions is None:
                return False
            position_sets.append(positions)
        first = position_sets[0]
        return any(
            all((start + offset) in position_sets[offset]
                for offset in range(1, len(position_sets)))
            for start in first
        )


def _levenshtein_within(a: str, b: str, max_edits: int) -> bool:
    """True when the Levenshtein distance of ``a`` and ``b`` is at most
    ``max_edits``; banded DP that bails out early."""
    if a == b:
        return True
    if abs(len(a) - len(b)) > max_edits:
        return False
    previous = list(range(len(b) + 1))
    for i, ch_a in enumerate(a, start=1):
        current = [i]
        row_min = i
        for j, ch_b in enumerate(b, start=1):
            cost = 0 if ch_a == ch_b else 1
            value = min(previous[j] + 1,        # deletion
                        current[j - 1] + 1,     # insertion
                        previous[j - 1] + cost)  # substitution
            current.append(value)
            row_min = min(row_min, value)
        if row_min > max_edits:
            return False
        previous = current
    return previous[-1] <= max_edits
