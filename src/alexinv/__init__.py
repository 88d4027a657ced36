"""Exact Alexander invariants of finitely presented groups.

The pipeline: parse a presentation, abelianize it through an exact Smith
normal form, push Fox derivatives of the relators through the free
abelianization, and take greatest common divisors of minors in the Laurent
ring.  Finite abelian covers (Reidemeister-Schreier) and exact cyclotomic
character ranks verify the cover theorems; see :mod:`alexinv.verify`.
"""

from .alexander import (AlexanderMatrix, AlexanderPolynomial, InvariantReport,
                        MinorBudgetError, alexander_polynomial,
                        characterize_b1_one, check_blanchfield,
                        check_levine_hypotheses, elementary_minors,
                        full_report, levine_extend, order_zero_direct,
                        torsion_order_b1_one)
from .covers import (Character, CoverBase, CoverIndexError, CoverMap,
                     CoverPresentation, DeckGroup, b1_ge_4_consistency,
                     char_rank, cover_homology, free_abelian_cover,
                     hironaka_predicted_betti, mod_p_betti, mod_p_cover,
                     reidemeister_schreier, shalen_wagreich_check,
                     verify_torsion_cover_formula)
from .laurent import (LaurentPoly, MonomialUnit, ParseError, Symmetry,
                      SymmetryClass, classify_symmetry, divide_exact,
                      format_poly, gcd, involution, normalize, parse_poly,
                      root_of_unity_norm, trace)
from .presentation import (AbelianizationData, Presentation, abelianize,
                           fox_matrix, parse_presentation, reduce_word,
                           smith_invariants)

__version__ = "0.1.0"
