"""Document–query similarity scoring.

Implements Lucene's *classic* (TF-IDF vector-space) similarity, which is
what the KDAP prototype consumed via ``Sim(h.val, q)``:

    score(q, d) = coord(q, d) * sum_t[ tf(t, d) * idf(t)^2 * norm(d) ]

with

    tf(t, d)  = sqrt(freq(t, d))
    idf(t)    = 1 + ln(N / (df(t) + 1))
    norm(d)   = 1 / sqrt(|d|)
    coord(q,d)= (# query term occurrences matched) / (# query term occurrences)

Like Lucene's boolean clauses, a repeated query term is one clause per
occurrence: it counts once per occurrence on both sides of ``coord``, so
``coord <= 1`` and the query ``bikes bikes`` scores a ``bikes`` document
exactly twice what ``bikes`` does.

The exact constants matter less than the monotonic structure the paper's
ranking formula exploits: exact multi-term matches in short attribute values
score higher than partial matches in long ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Similarity:
    """Lucene-classic TF-IDF similarity with tunable components.

    Setting the flags to False degrades the scorer gracefully — useful for
    ablation tests of the ranking formula.
    """

    use_coord: bool = True
    use_length_norm: bool = True

    def tf(self, freq: int) -> float:
        """Term-frequency factor."""
        return math.sqrt(freq)

    def idf(self, doc_freq: int, num_docs: int) -> float:
        """Inverse-document-frequency factor."""
        return 1.0 + math.log(num_docs / (doc_freq + 1.0))

    def length_norm(self, doc_length: int) -> float:
        """Document length normalisation."""
        if not self.use_length_norm or doc_length <= 0:
            return 1.0
        return 1.0 / math.sqrt(doc_length)

    def coord(self, matched_terms: int, query_terms: int) -> float:
        """Coordination factor rewarding documents matching more of the query."""
        if not self.use_coord or query_terms <= 0:
            return 1.0
        return matched_terms / query_terms

    def score(
        self,
        term_freqs: dict[str, int],
        doc_length: int,
        query_terms: list[str],
        doc_freq_of: dict[str, int],
        num_docs: int,
    ) -> float:
        """Score one document against a bag of query terms.

        Parameters
        ----------
        term_freqs:
            Term → in-document frequency for the document.
        doc_length:
            Total number of indexed terms in the document.
        query_terms:
            Analyzed query terms (duplicates allowed).
        doc_freq_of:
            Term → number of documents containing the term.
        num_docs:
            Corpus size.
        """
        total = 0.0
        matched = 0
        for term in query_terms:
            freq = term_freqs.get(term, 0)
            if freq == 0:
                continue
            matched += 1
            idf = self.idf(doc_freq_of.get(term, 0), num_docs)
            total += self.tf(freq) * idf * idf
        if matched == 0:
            return 0.0
        total *= self.length_norm(doc_length)
        total *= self.coord(matched, len(query_terms))
        return total


DEFAULT_SIMILARITY = Similarity()
"""Shared similarity instance with all components enabled."""
