"""Concept-level microtext normalization toolkit.

Converts out-of-vocabulary social-media shorthand ("b4", "gud",
"2moro") to in-vocabulary concepts by nearest-neighbor search in a
phonetic subspace over a polarity lexicon, gated by an OOV/IV text
classifier, and scores sentence polarity from the matched concepts.
"""

from .errors import (
    ConfigError,
    EncodingError,
    GateError,
    LexiconError,
    MicronormError,
    SimilarityError,
)
from .g2p import G2PEngine, default_engine, squeeze_repeats
from .lexicon import (
    DuplicateReport,
    LexiconEntry,
    PhonLexicon,
    compile_lexicon,
    duplicate_report,
    load_compiled,
    load_raw_lexicon,
    save_compiled,
)
from .match_index import MatchIndex, build_index, top_k
from .pipeline import (
    NormalizationOutcome,
    PipelineConfig,
    SentencePolarity,
    eval_polarity,
    normalize_sentence,
    sentence_polarity,
)
from .similarity import DistanceVariant, MatchResult, closest_match_scan, dice_distance
from .soundex import soundex_concept, soundex_token

__version__ = "0.1.0"
