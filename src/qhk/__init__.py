"""qhk: exact mod-2 homology operations for infinite loop spaces.

The homology of QX is the polynomial algebra on admissible operation
words over the homology of X.  This package computes in that algebra
exactly: the operation action (Adem straightening plus excess collapse),
the dual Steenrod action (Nishida relations), the coproduct, homology
suspension and the halving root, and on top of those the degreewise
sieves for A-annihilated, primitive and candidate-spherical classes,
with desk-scale verifiers for the structure statements about their form.
"""

from .adem import adem_pair, admissible_expansion
from .algebra import (
    EL_ONE,
    EL_ZERO,
    Element,
    Monomial,
    apply_q,
    coproduct,
    decomposable_part,
    el_add,
    el_gen,
    el_mul,
    el_square,
    indecomposable_part,
    is_primitive,
    mono_word,
    normalize,
    reduced_coproduct,
    root,
    suspend,
)
from .exprs import ExprError, element_from_json, element_to_json, format_element, parse_element
from .mod2 import binom_mod2, lowest_zero_bit
from .sieve import (
    VerifyReport,
    annihilated_subspace,
    check_curtis_bound,
    monomial_basis,
    primitive_subspace,
    run_verifier,
    sample_members,
    spherical_candidates,
    verify_annihilation,
    verify_root_compatibility,
    verify_spherical_form,
    verify_suspension_factorization,
)
from .spaces import Generator, RealProj, SigmaCPplus, Space, Sphere, parse_space, space_name
from .steenrod import (
    element_is_A_annihilated,
    madsen_action,
    mono_height,
    nishida_expansion,
    sq_down,
    word_is_A_annihilated,
)
from .words import AdmissibleGen, admissible_words, excess, word_sort_key

__version__ = "0.1.0"

__all__ = [
    "AdmissibleGen",
    "EL_ONE",
    "EL_ZERO",
    "Element",
    "ExprError",
    "Generator",
    "Monomial",
    "RealProj",
    "SigmaCPplus",
    "Space",
    "Sphere",
    "VerifyReport",
    "adem_pair",
    "admissible_expansion",
    "admissible_words",
    "annihilated_subspace",
    "apply_q",
    "binom_mod2",
    "check_curtis_bound",
    "coproduct",
    "decomposable_part",
    "el_add",
    "el_gen",
    "el_mul",
    "el_square",
    "element_from_json",
    "element_is_A_annihilated",
    "element_to_json",
    "excess",
    "format_element",
    "indecomposable_part",
    "is_primitive",
    "lowest_zero_bit",
    "madsen_action",
    "mono_height",
    "mono_word",
    "monomial_basis",
    "nishida_expansion",
    "normalize",
    "parse_element",
    "parse_space",
    "primitive_subspace",
    "reduced_coproduct",
    "root",
    "run_verifier",
    "sample_members",
    "space_name",
    "spherical_candidates",
    "sq_down",
    "suspend",
    "verify_annihilation",
    "verify_root_compatibility",
    "verify_spherical_form",
    "verify_suspension_factorization",
    "word_is_A_annihilated",
    "word_sort_key",
]
