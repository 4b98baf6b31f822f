"""Independent brute-force oracles used to check the library.

Everything here is a direct, unoptimized transcription of the definitions:
substring counting by dictionary walk, votes by literal enumeration of the
n-gram pairs, probabilities by explicit counters, synthetic corpora by
random.choices, count files one line at a time.  None of it shares code
with the package under test.
"""

import math
import random
import re


def naive_counts(sequences, n):
    """O(m*n) substring counting, unpruned."""
    counts = {}
    for seq in sequences:
        for i in range(len(seq) - n + 1):
            g = seq[i : i + n]
            counts[g] = counts.get(g, 0) + 1
    return counts


def pruned_lookup(sequences, orders):
    """Count function with singletons pruned and unseen grams counted as 1."""
    tables = {n: naive_counts(sequences, n) for n in orders}

    def look(gram):
        c = tables[len(gram)].get(gram, 0)
        return c if c >= 2 else 1

    return look


def naive_order_vote(seq, k, n, look):
    """Fraction of affirmative count comparisons; None when no pair exists."""
    length = len(seq)
    s_grams = []
    if k - n >= 0:
        s_grams.append(seq[k - n : k])
    if k + n <= length:
        s_grams.append(seq[k : k + n])
    t_grams = []
    for j in range(1, n):
        if k - (n - j) >= 0 and k + j <= length:
            t_grams.append(seq[k - (n - j) : k + j])
    pairs = [(s, t) for s in s_grams for t in t_grams]
    if not pairs:
        return None
    return sum(1 for s, t in pairs if look(s) > look(t)) / len(pairs)


def naive_total_votes(seq, orders, look):
    """Averaged votes at every gap, orders without evidence excluded."""
    out = []
    for k in range(1, len(seq)):
        votes = [naive_order_vote(seq, k, n, look) for n in sorted(orders)]
        votes = [v for v in votes if v is not None]
        out.append(sum(votes) / len(votes) if votes else 0.0)
    return out


def naive_boundaries(votes, t, use_local_max=True, use_threshold=True):
    """Local-maximum / threshold rule on a vote list; returns a location set."""
    m = len(votes)
    bounds = set()
    for i, v in enumerate(votes):
        if use_local_max and m > 1:
            if (i == 0 or v > votes[i - 1]) and (i == m - 1 or v > votes[i + 1]):
                bounds.add(i + 1)
        if use_threshold and v >= t:
            bounds.add(i + 1)
    return bounds


def naive_brackets(length, boundaries):
    """The (start, end) segments that a set of boundary locations cuts the
    characters 0 .. length into, end exclusive."""
    edges = [0] + sorted(boundaries) + [length]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]


def naive_percentages(matched, proposed, gold):
    """Precision and recall in percent, 100 when nothing is proposed (or in
    the gold), and F, their harmonic mean, 0 when both are 0."""
    precision = 100.0 * matched / proposed if proposed else 100.0
    recall = 100.0 * matched / gold if gold else 100.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


def naive_sequence_score(length, proposed, words, morphemes):
    """The compatible-bracket counts of one proposed segmentation against a
    two-level annotation, each given as its boundary set, one proposed
    bracket at a time.

    A proposed bracket is morpheme-dividing when some morpheme bracket
    contains it and is not equal to it; otherwise crossing when it partially
    overlaps some word or morpheme bracket (the two share a character and
    neither contains the other); otherwise compatible.  A bracket matches
    a level when it equals one of that level's brackets.
    """
    proposed = naive_brackets(length, proposed)
    words = naive_brackets(length, words)
    morphemes = naive_brackets(length, morphemes)

    def contains(outer, inner):
        return outer[0] <= inner[0] and inner[1] <= outer[1]

    def partially_overlap(a, b):
        share = max(a[0], b[0]) < min(a[1], b[1])
        return share and not contains(a, b) and not contains(b, a)

    crossing = dividing = compatible = 0
    for b in proposed:
        if any(contains(m, b) and m != b for m in morphemes):
            dividing += 1
        elif any(partially_overlap(b, a) for a in words + morphemes):
            crossing += 1
        else:
            compatible += 1
    word_matched = sum(1 for b in proposed if b in words)
    morpheme_matched = sum(1 for b in proposed if b in morphemes)
    return {
        "word_matched": word_matched,
        "word_proposed": len(proposed),
        "word_gold": len(words),
        "morpheme_matched": morpheme_matched,
        "morpheme_proposed": len(proposed),
        "morpheme_gold": len(morphemes),
        "crossing": crossing,
        "morpheme_dividing": dividing,
        "compatible": compatible,
        "word_prf": naive_percentages(word_matched, len(proposed), len(words)),
        "morpheme_prf": naive_percentages(morpheme_matched, len(proposed), len(morphemes)),
    }


def naive_extremum_features(values):
    """Per profile position, (strict peak, weak peak, rise, fall): the peak
    kinds compare the position with each neighbour it has, and rise (fall)
    walks left (right) to the nearest local minimum; profile ends count as
    minima, and a position with no neighbours is no peak."""
    m = len(values)

    def is_minimum(j):
        if j == 0 or j == m - 1:
            return True
        return values[j] <= values[j - 1] and values[j] <= values[j + 1]

    out = []
    for i, v in enumerate(values):
        neighbours = [values[j] for j in (i - 1, i + 1) if 0 <= j < m]
        primary = bool(neighbours) and all(v > x for x in neighbours)
        secondary = bool(neighbours) and all(v >= x for x in neighbours)
        rise = fall = 0.0
        if i > 0:
            j = i - 1
            while not is_minimum(j):
                j -= 1
            rise = v - values[j]
        if i < m - 1:
            j = i + 1
            while not is_minimum(j):
                j += 1
            fall = v - values[j]
        out.append((primary, secondary, rise, fall))
    return out


def naive_corpus(lexicon, seed, sequences=None, target_chars=None,
                 words_min=3, words_max=8, suffix_prob=0.35):
    """Sequences as nested morpheme strings, one list per word, with every
    stem and suffix drawn by rng.choices(words, weights) from the entries
    of that role."""
    stems = [e for e in lexicon if e.role == "stem"]
    suffixes = [e for e in lexicon if e.role == "suffix"]
    rng = random.Random(seed)
    out = []
    chars = 0
    while len(out) < sequences if sequences is not None else chars < target_chars:
        words = []
        for _ in range(rng.randint(words_min, words_max)):
            morphs = [rng.choices([e.word for e in stems], [e.weight for e in stems])[0]]
            if suffixes and rng.random() < suffix_prob:
                morphs.append(
                    rng.choices([e.word for e in suffixes], [e.weight for e in suffixes])[0]
                )
            chars += sum(len(m) for m in morphs)
            words.append(morphs)
        out.append(words)
    return out


class NaiveBigramModel:
    """Explicit unigram/bigram probability model for checking statistics."""

    def __init__(self, sequences, estimator="mle"):
        self.uni = {}
        self.bi = {}
        for seq in sequences:
            for ch in seq:
                self.uni[ch] = self.uni.get(ch, 0) + 1
            for i in range(len(seq) - 1):
                g = seq[i : i + 2]
                self.bi[g] = self.bi.get(g, 0) + 1
        self.total = sum(self.uni.values())
        self.total_bi = sum(self.bi.values())
        self.v1 = len(self.uni)
        self.v2 = len(self.bi)
        self.estimator = estimator

    def p(self, x):
        if self.estimator == "mle":
            return self.uni[x] / self.total
        return (self.uni.get(x, 0) + 0.5) / (self.total + 0.5 * self.v1)

    def p_pair(self, x, y):
        if self.estimator == "mle":
            return self.bi.get(x + y, 0) / self.total_bi
        return (self.bi.get(x + y, 0) + 0.5) / (self.total_bi + 0.5 * self.v2)

    def p_cond(self, y, x):
        if self.estimator == "mle":
            return self.bi.get(x + y, 0) / self.uni[x]
        return (self.bi.get(x + y, 0) + 0.5) / (self.uni.get(x, 0) + 0.5 * self.v1)

    def var_cond(self, y, x):
        q = self.p_cond(y, x)
        return q * (1.0 - q) / self.uni[x]

    def mi(self, d, w):
        joint = self.p_pair(d, w)
        if joint == 0.0:
            return -math.inf
        return math.log2(joint / (self.p(d) * self.p(w)))

    def dts(self, c, d, w, x):
        left_num = self.p_cond(w, d) - self.p_cond(d, c)
        left_var = self.var_cond(w, d) + self.var_cond(d, c)
        right_num = self.p_cond(x, w) - self.p_cond(w, d)
        right_var = self.var_cond(x, w) + self.var_cond(w, d)
        left = 0.0 if left_var == 0.0 else left_num / math.sqrt(left_var)
        right = 0.0 if right_var == 0.0 else right_num / math.sqrt(right_var)
        return left - right


def naive_read_counts(text, header, size_key, orders=None, min_count=1):
    """Reference count-file reader, one line at a time.

    Returns (size, orders, counts), or (line, message) for the first line
    that breaks a rule, with the message of the first rule it breaks: three
    tab-separated fields, an order and a count of 1 to 18 ASCII digits, a
    declared order, a gram of that length, a count >= min_count, then
    orders ascending and grams strictly increasing within one.
    """
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    if not lines or lines[0] != header:
        found = lines[0] if lines else "<empty file>"
        return 1, f"expected header {header!r}, found {found!r}"
    if len(lines) < 2 or not lines[1].startswith(size_key + " "):
        return 2, f"expected '{size_key} <int>'"
    try:
        size = int(lines[1].split(" ", 1)[1])
    except ValueError:
        return 2, f"bad {size_key} value"
    if size < 0:
        return 2, f"{size_key} must be >= 0"
    first = 2
    if orders is None:
        first = 3
        if len(lines) < 3 or not lines[2].startswith("orders "):
            return 3, "expected 'orders <comma-list>'"
        try:
            orders = [int(p) for p in lines[2].split(" ", 1)[1].split(",")]
        except ValueError:
            return 3, "bad orders list"
        if any(n < 2 for n in orders):
            return 3, "orders must all be >= 2"
        if any(n > 64 for n in orders):
            return 3, "orders must all be <= 64"
    orders = frozenset(orders)
    counts = {}
    last_order, last_gram = 0, ""
    for lineno, line in enumerate(lines[first:], start=first + 1):
        parts = line.split("\t")
        if len(parts) != 3:
            return lineno, "entry needs 3 tab-separated fields"
        if not all(re.fullmatch("[0-9]{1,18}", p) for p in parts[:2]):
            return lineno, "non-integer order or count"
        order, cnt, gram = int(parts[0]), int(parts[1]), parts[2]
        if order not in orders:
            return lineno, f"entry order {order} not declared"
        if len(gram) != order:
            return lineno, f"gram length {len(gram)} does not match order {order}"
        if cnt < min_count:
            return lineno, f"stored counts must be >= {min_count}"
        if order < last_order or (order == last_order and gram <= last_gram):
            if gram in counts:
                return lineno, f"duplicate gram {gram!r}"
            return lineno, f"entry out of order after {last_gram!r}"
        last_order, last_gram = order, gram
        counts[gram] = cnt
    return size, orders, counts


def naive_runs(text, ranges):
    """The maximal runs of characters whose code point lies in one of the
    inclusive (lo, hi) ranges, one character at a time."""
    runs, run = [], ""
    for ch in text:
        if any(lo <= ord(ch) <= hi for lo, hi in ranges):
            run += ch
        elif run:
            runs.append(run)
            run = ""
    if run:
        runs.append(run)
    return runs
