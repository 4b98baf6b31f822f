"""Mostly-unsupervised word segmentation from character n-gram statistics.

The package builds pruned character n-gram count tables from a raw
unsegmented corpus, segments delimiter-free character sequences by n-gram
boundary voting with local-maximum and threshold placement rules, and ships
a bigram mutual-information / t-score-difference segmenter as a baseline.
Gold data uses a two-level (word / morpheme) bracket annotation, scored
with exact-match precision, recall, and F plus crossing, morpheme-dividing,
and compatible-brackets diagnostics.  Grid-search training with fixed
tie-breaking selects parameters from a small annotated set.
"""

__version__ = "0.1.0"

from .annotations import (
    Bracket,
    FlatSegmentation,
    TwoLevelAnnotation,
    parse_annotation,
    parse_flat,
    serialize_annotation,
    serialize_flat,
)
from .errors import (
    AlignmentError,
    Error,
    FormatError,
    ParameterError,
    UndefinedStatisticError,
    UnsupportedOrderError,
)
from .metrics import (
    BracketClass,
    ScoreReport,
    SequenceScore,
    classify_bracket,
    f_measure,
    format_report,
    machine_lines,
    score_sequence,
    score_set,
)
from .ngrams import (
    Corpus,
    NGramTable,
    build_table,
    codepoint_range_filter,
    extract_sequences,
)
from .segmenter import (
    TangoParams,
    VoteProfile,
    place_boundaries,
    segment,
    vote_profile,
)
from .sst import (
    BigramStats,
    DtsTerms,
    SstParams,
    dts_profile,
    dts_terms,
    extremum_features,
    load_stats,
    mutual_information,
    read_sst_params,
    save_stats,
    sst_segment,
    write_sst_params,
)
from .synth import (
    LexiconEntry,
    generate_corpus,
    make_zipf_lexicon,
    read_lexicon,
    write_lexicon,
)
from .training import (
    CRITERIA,
    TrainResult,
    grid_to_tsv,
    read_tango_params,
    split_heldout,
    sst_grid,
    tango_grid,
    train_sst,
    train_tango,
    write_tango_params,
)

__all__ = [
    "AlignmentError",
    "Bracket",
    "BracketClass",
    "BigramStats",
    "CRITERIA",
    "Corpus",
    "DtsTerms",
    "Error",
    "FlatSegmentation",
    "FormatError",
    "LexiconEntry",
    "NGramTable",
    "ParameterError",
    "ScoreReport",
    "SequenceScore",
    "SstParams",
    "TangoParams",
    "TrainResult",
    "TwoLevelAnnotation",
    "UndefinedStatisticError",
    "UnsupportedOrderError",
    "VoteProfile",
    "build_table",
    "classify_bracket",
    "codepoint_range_filter",
    "dts_profile",
    "dts_terms",
    "extract_sequences",
    "extremum_features",
    "f_measure",
    "format_report",
    "generate_corpus",
    "grid_to_tsv",
    "load_stats",
    "machine_lines",
    "make_zipf_lexicon",
    "mutual_information",
    "parse_annotation",
    "parse_flat",
    "place_boundaries",
    "read_lexicon",
    "read_sst_params",
    "read_tango_params",
    "save_stats",
    "score_sequence",
    "score_set",
    "segment",
    "serialize_annotation",
    "serialize_flat",
    "split_heldout",
    "sst_grid",
    "sst_segment",
    "tango_grid",
    "train_sst",
    "train_tango",
    "vote_profile",
    "write_lexicon",
    "write_sst_params",
    "write_tango_params",
]
