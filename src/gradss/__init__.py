"""gradss: exact F_p computations with graded algebras and spectral sequences.

Modules: linfp (dense F_p linear algebra), algebra (graded-commutative
presentations), dga (derivations and homology), homalg (Tor and Hochschild
homology), specseq (the multiplicative page engine), filtered (the filtered
complex oracle), thhku (the three-step K-theory pipeline), dsl and cli (the
presentation-file format and command surface).
"""

from .algebra import Element, GeneratorSpec, Presentation, ext, poly, trunc
from .dga import extend_derivation, homology, verify_presentation_iso
from .filtered import FilteredComplex, compare_with_total_homology, exact_couple_run
from .homalg import BaseRing, hochschild_homology, koszul_tor
from .specseq import (
    DifferentialSpec,
    assemble_abutment,
    certify_collapse,
    forced_run,
    infer_forced_differentials,
    init_page,
    turn_page,
)
from .thhku import reproduce_thh_ku, step1_tor, step2_v0, step3_v1, weight_table

__version__ = "0.1.0"

__all__ = [
    "BaseRing",
    "DifferentialSpec",
    "Element",
    "FilteredComplex",
    "GeneratorSpec",
    "Presentation",
    "assemble_abutment",
    "certify_collapse",
    "compare_with_total_homology",
    "exact_couple_run",
    "ext",
    "extend_derivation",
    "forced_run",
    "hochschild_homology",
    "homology",
    "infer_forced_differentials",
    "init_page",
    "koszul_tor",
    "poly",
    "reproduce_thh_ku",
    "step1_tor",
    "step2_v0",
    "step3_v1",
    "trunc",
    "turn_page",
    "verify_presentation_iso",
    "weight_table",
]
