"""Latent logic rule engine for document-level relation extraction.

Learns conjunctive rules over relation types from labeled query triples and
applies them through fuzzy max-product grounding over per-document confidence
graphs supplied by any upstream relation model.
"""

from .core import (
    Corpus,
    Document,
    LabeledInstance,
    RelationVocab,
    Rule,
    RuleSet,
    atom_conf,
    build_vocab,
    close_inverses,
    format_rule,
    load_corpus,
    parse_rule,
    write_corpus,
)
from .datagen import SynthConfig, gen_corpus
from .em import EMConfig, explain, infer, predict_document, run_em
from .extractor import ExtractorWeights, FitConfig, GroundingResult, ground_rule, prob
from .generator import RuleGenerator

__all__ = [
    "Corpus",
    "Document",
    "EMConfig",
    "ExtractorWeights",
    "FitConfig",
    "GroundingResult",
    "LabeledInstance",
    "RelationVocab",
    "Rule",
    "RuleGenerator",
    "RuleSet",
    "SynthConfig",
    "atom_conf",
    "build_vocab",
    "close_inverses",
    "explain",
    "format_rule",
    "gen_corpus",
    "ground_rule",
    "infer",
    "load_corpus",
    "parse_rule",
    "predict_document",
    "prob",
    "run_em",
    "write_corpus",
]

__version__ = "0.1.0"
