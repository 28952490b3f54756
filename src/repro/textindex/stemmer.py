"""Porter stemming algorithm.

A faithful implementation of M.F. Porter's 1980 algorithm ("An algorithm
for suffix stripping", *Program* 14(3)), the same stemmer Lucene's classic
``PorterStemFilter`` uses.  The KDAP paper relies on the full-text engine
for "partial matches and stemming over OLAP data" (§3), so keyword
``bikes`` must hit the attribute instance ``Mountain Bikes``.

The implementation follows the published step structure (1a/1b/1c, 2-5)
directly so it can be audited against the paper's reference vocabulary.
"""

from __future__ import annotations

from functools import lru_cache

_VOWELS = "aeiou"

STEM_CACHE_SIZE = 4096
"""Words :func:`stem` remembers: more than the AdventureWorks online
vocabulary (about 2.3k distinct tokens), so the index build and every
query keyword after it stem each word once."""


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """The Porter measure m: number of VC sequences in the stem."""
    m = 0
    i = 0
    n = len(stem)
    # skip initial consonants
    while i < n and _is_consonant(stem, i):
        i += 1
    while i < n:
        # inside a vowel run
        while i < n and not _is_consonant(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_consonant(stem, i):
            i += 1
    return m


def _contains_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(word: str) -> bool:
    return (
        len(word) >= 2
        and word[-1] == word[-2]
        and _is_consonant(word, len(word) - 1)
    )


def _ends_cvc(word: str) -> bool:
    """*o condition: stem ends consonant-vowel-consonant, last not w/x/y."""
    if len(word) < 3:
        return False
    return (
        _is_consonant(word, len(word) - 3)
        and not _is_consonant(word, len(word) - 2)
        and _is_consonant(word, len(word) - 1)
        and word[-1] not in "wxy"
    )


def _replace(word: str, suffix: str, replacement: str, min_measure: int) -> str | None:
    """If ``word`` ends with ``suffix`` and the stem measure is at least
    ``min_measure`` + 1, swap the suffix; None when the rule does not fire."""
    if not word.endswith(suffix):
        return None
    stem = word[: len(word) - len(suffix)]
    if _measure(stem) > min_measure:
        return stem + replacement
    return word  # suffix matched but condition failed: rule consumed, no change


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        if _measure(stem) > 0:
            return word[:-1]
        return word
    flag = False
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        word = word[:-2]
        flag = True
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        word = word[:-3]
        flag = True
    if flag:
        if word.endswith(("at", "bl", "iz")):
            return word + "e"
        if _ends_double_consonant(word) and word[-1] not in "lsz":
            return word[:-1]
        if _measure(word) == 1 and _ends_cvc(word):
            return word + "e"
    return word


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
    ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
    ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
    ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
    ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3_RULES = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4_SUFFIXES = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _step2(word: str) -> str:
    for suffix, replacement in _STEP2_RULES:
        if word.endswith(suffix):
            result = _replace(word, suffix, replacement, 0)
            if result is not None:
                return result
    return word


def _step3(word: str) -> str:
    for suffix, replacement in _STEP3_RULES:
        if word.endswith(suffix):
            result = _replace(word, suffix, replacement, 0)
            if result is not None:
                return result
    return word


def _step4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and (not stem or stem[-1] not in "st"):
                return word
            if _measure(stem) > 1:
                return stem
            return word
    return word


def _step5(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            word = stem
    if word.endswith("ll") and _measure(word) > 1:
        word = word[:-1]
    return word


@lru_cache(maxsize=STEM_CACHE_SIZE)
def stem(word: str) -> str:
    """Stem one lowercase word.

    Words of length <= 2 are returned unchanged, as in Porter's reference
    implementation.  Stemming is a pure function of the word, so results
    are memoised (least recently used first out, bounded by
    :data:`STEM_CACHE_SIZE`; ``functools.lru_cache`` is thread-safe).
    """
    if len(word) <= 2:
        return word
    word = _step1a(word)
    word = _step1b(word)
    word = _step1c(word)
    word = _step2(word)
    word = _step3(word)
    word = _step4(word)
    word = _step5(word)
    return word
