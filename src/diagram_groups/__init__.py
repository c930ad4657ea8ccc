"""Diagram groups of semigroup presentations.

Derivations between words over a semigroup presentation form diagrams; the
reduced diagrams with a fixed base word form a group.  This package computes
with those diagrams (normal forms, the class 2-complex and its hyperplanes,
specialness certificates, cube-complex geometry, graph-of-groups
decompositions) and exposes everything through one CLI.
"""

from .rewriting import (
    ClassSearch,
    Diagram,
    Move,
    Presentation,
    Relation,
    SearchCaps,
    TriBool,
    Word,
    enumerate_class,
    equal_mod_p,
    format_word,
    one_step_rewrites,
    parse_presentation,
    word_of,
)

__version__ = "0.1.0"
