"""Attribute-level full-text index over a warehouse.

The paper (§3) requires an index conceptually shaped like the relation
``(TabName, AttrID, Document)`` where every *distinct attribute value* is a
virtual document — NOT a tuple-level index.  This is what makes hit groups
and query disambiguation possible: the same string matched in
``Loc.City`` and ``Holiday.Event`` yields two distinguishable hits.

:class:`AttributeTextIndex` builds that structure over a
:class:`~repro.relational.catalog.Database`, restricted to the text
attributes declared searchable.  A :class:`TupleTextIndex` (tuple-level
virtual documents, the approach of DBXplorer/DISCOVER) is also provided for
the ablation the paper argues against in §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..relational.catalog import Database
from .analysis import Analyzer, DEFAULT_ANALYZER
from .inverted import InvertedIndex
from .similarity import DEFAULT_SIMILARITY, Similarity


@dataclass(frozen=True)
class SearchHit:
    """One attribute-instance hit: the paper's triplet (R, Attr, Val) plus
    the full-text relevance score ``Sim(h.val, q)``.

    ``retrieval_score`` preserves the raw per-keyword engine score from
    index probing; ``score`` may later be re-computed against the full
    query (§4.4) or a merged phrase (§4.3).  The baseline ranking method of
    Figure 4 averages retrieval scores directly.
    """

    table: str
    attribute: str
    value: str
    score: float
    retrieval_score: float | None = None

    @property
    def raw_score(self) -> float:
        """The engine score as retrieved (falls back to ``score``)."""
        return self.retrieval_score if self.retrieval_score is not None \
            else self.score

    @property
    def domain(self) -> tuple[str, str]:
        """The attribute domain (table, attribute) this hit belongs to."""
        return (self.table, self.attribute)

    def __str__(self) -> str:
        return f"{self.table}/{self.attribute}/{self.value!r} ({self.score:.4f})"


class AttributeTextIndex:
    """Full-text index with one virtual document per distinct
    (table, attribute, value)."""

    def __init__(
        self,
        analyzer: Analyzer = DEFAULT_ANALYZER,
        similarity: Similarity = DEFAULT_SIMILARITY,
    ):
        self.analyzer = analyzer
        self.similarity = similarity
        self._index = InvertedIndex()
        # doc id -> (table, attribute, value), plus the reverse map
        self._docs: list[tuple[str, str, str]] = []
        self._doc_ids: dict[tuple[str, str, str], int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_value(self, table: str, attribute: str, value: str) -> int:
        """Index one attribute instance; returns the virtual doc id."""
        terms = self.analyzer.analyze(value)
        doc_id = self._index.add_document(terms)
        self._docs.append((table, attribute, value))
        self._doc_ids[(table, attribute, value)] = doc_id
        return doc_id

    def index_database(
        self,
        database: Database,
        searchable: dict[str, Sequence[str]],
    ) -> None:
        """Index every distinct value of the declared searchable attributes.

        ``searchable`` maps table name → list of text column names.
        """
        for table_name, columns in searchable.items():
            table = database.table(table_name)
            for column in columns:
                for value in sorted(
                    table.distinct(column), key=str
                ):
                    if isinstance(value, str) and value:
                        self.add_value(table_name, column, value)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def num_documents(self) -> int:
        """Number of indexed attribute instances."""
        return len(self._docs)

    def domains(self) -> set[tuple[str, str]]:
        """All (table, attribute) domains with at least one indexed value."""
        return {(t, a) for t, a, _ in self._docs}

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        limit: int | None = None,
        prefix_expansion: bool = True,
        fuzzy: bool = False,
        min_score: float = 0.0,
    ) -> list[SearchHit]:
        """Rank attribute instances against a keyword (or phrase) query.

        Prefix expansion implements the "partial match" requirement: query
        terms additionally match indexed terms they prefix (scored through
        the same TF-IDF machinery, so exact matches naturally win on idf).
        ``fuzzy`` additionally matches terms within one Levenshtein edit —
        typo tolerance for queries like "Colombus LCD".
        """
        query_terms = self.analyzer.analyze(query)
        if not query_terms:
            return []
        # Expand each query term to the set of index terms it can stand for.
        expansions: dict[str, list[str]] = {}
        for term in query_terms:
            forms = [term] if self._index.doc_freq(term) else []
            if prefix_expansion:
                for candidate in self._index.expand_prefix(term):
                    if candidate != term:
                        forms.append(candidate)
            if fuzzy:
                for candidate in self._index.expand_fuzzy(term):
                    if candidate != term and candidate not in forms:
                        forms.append(candidate)
            expansions[term] = forms or [term]
        all_terms = {form for forms in expansions.values() for form in forms}
        doc_ids = self._index.candidate_docs(all_terms)
        doc_freq_of = {t: self._index.doc_freq(t) for t in all_terms}
        # a query term's document frequency is its most common form's
        query_doc_freq = {
            t: max((doc_freq_of.get(f, 0) for f in expansions[t]),
                   default=0)
            for t in expansions}
        num_docs = max(self._index.num_docs, 1)
        hits: list[SearchHit] = []
        for doc_id in doc_ids:
            freqs = self._index.term_freqs(doc_id, all_terms)
            # Collapse expansions back onto their source query term so coord
            # counts *query terms matched*, not expanded forms matched.
            collapsed: dict[str, int] = {}
            for term, forms in expansions.items():
                freq = sum(freqs.get(f, 0) for f in forms)
                if freq:
                    collapsed[term] = freq
            score = self.similarity.score(
                collapsed,
                self._index.doc_length(doc_id),
                query_terms,
                query_doc_freq,
                num_docs,
            )
            if score > min_score:
                table, attribute, value = self._docs[doc_id]
                hits.append(SearchHit(table, attribute, value, score))
        hits.sort(key=lambda h: (-h.score, h.table, h.attribute, h.value))
        if limit is not None:
            hits = hits[:limit]
        return hits

    def search_phrase(self, phrase: str, limit: int | None = None) -> list[SearchHit]:
        """Rank attribute instances that contain ``phrase`` contiguously.

        Used to re-score merged hit groups after phrase detection (§4.3):
        "the system also needs to update the score by consulting the
        full-text engine again with the newly-merged phrase query."
        """
        terms = self.analyzer.analyze(phrase)
        if not terms:
            return []
        candidates = self.search(phrase, prefix_expansion=False)
        hits = []
        for hit in candidates:
            doc_id = self._doc_id_of(hit)
            if doc_id is not None and self._index.phrase_match(doc_id, terms):
                # Phrase matches keep the full multi-term score; the coord
                # factor already rewarded matching every term.
                hits.append(hit)
        if limit is not None:
            hits = hits[:limit]
        return hits

    def score_value(self, table: str, attribute: str, value: str,
                    query: str) -> float:
        """Sim(value, q) for one known attribute instance against the *full*
        keyword query.

        The paper's star-net ranking (§4.4) scores every hit against the
        whole query — not just the keyword that retrieved it — so that
        instances matching several keywords ("San Jose") outscore
        single-keyword matches ("San Antonio").  The one-value form of
        :meth:`score_values`.
        """
        return self.score_values(table, attribute, (value,), query)[0]

    def score_values(self, table: str, attribute: str,
                     values: Sequence[str], query: str) -> list[float]:
        """Sim(value, q) for each of ``values`` of one attribute domain.

        Analyses the query and looks up its document frequencies once for
        the whole batch — a hit group is scored in one call.  Unknown
        values score 0.0.
        """
        query_terms = self.analyzer.analyze(query)
        if not query_terms:
            return [0.0] * len(values)
        term_set = set(query_terms)
        doc_freq_of = {t: self._index.doc_freq(t) for t in term_set}
        num_docs = max(self._index.num_docs, 1)
        scores = []
        for value in values:
            doc_id = self._doc_ids.get((table, attribute, value))
            if doc_id is None:
                scores.append(0.0)
                continue
            scores.append(self.similarity.score(
                self._index.term_freqs(doc_id, term_set),
                self._index.doc_length(doc_id),
                query_terms,
                doc_freq_of,
                num_docs,
            ))
        return scores

    def _doc_id_of(self, hit: SearchHit) -> int | None:
        return self._doc_ids.get((hit.table, hit.attribute, hit.value))


class TupleTextIndex:
    """Tuple-level index (one virtual document per row) — the
    DBXplorer/DISCOVER approach the paper contrasts with in §3.

    Provided for the ablation benchmark showing why attribute-level
    indexing is necessary for disambiguation: a tuple-level hit cannot say
    *which attribute* matched.
    """

    def __init__(self, analyzer: Analyzer = DEFAULT_ANALYZER,
                 similarity: Similarity = DEFAULT_SIMILARITY):
        self.analyzer = analyzer
        self.similarity = similarity
        self._index = InvertedIndex()
        self._docs: list[tuple[str, int]] = []  # (table, row_id)

    def index_database(self, database: Database,
                       searchable: dict[str, Sequence[str]]) -> None:
        """Index each row of each table as the concatenation of its
        searchable text columns."""
        for table_name, columns in searchable.items():
            table = database.table(table_name)
            stores = [table.column_values(c) for c in columns]
            for rid in range(len(table)):
                content = " ".join(
                    str(store[rid]) for store in stores if store[rid]
                )
                terms = self.analyzer.analyze(content)
                self._index.add_document(terms)
                self._docs.append((table_name, rid))

    def search(self, query: str, limit: int | None = None) -> list[tuple[str, int, float]]:
        """Rank rows; returns (table, row_id, score) triples."""
        query_terms = self.analyzer.analyze(query)
        if not query_terms:
            return []
        doc_ids = self._index.candidate_docs(query_terms)
        doc_freq_of = {t: self._index.doc_freq(t) for t in set(query_terms)}
        num_docs = max(self._index.num_docs, 1)
        scored: list[tuple[str, int, float]] = []
        for doc_id in doc_ids:
            freqs = self._index.term_freqs(doc_id, set(query_terms))
            score = self.similarity.score(
                freqs, self._index.doc_length(doc_id),
                query_terms, doc_freq_of, num_docs,
            )
            if score > 0:
                table, rid = self._docs[doc_id]
                scored.append((table, rid, score))
        scored.sort(key=lambda item: (-item[2], item[0], item[1]))
        if limit is not None:
            scored = scored[:limit]
        return scored
