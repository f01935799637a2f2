"""Exact analysis of positive polynomial/rational ODE models.

The package parses mass-action-style models whose right-hand sides split into
nonnegative reaction rates, enumerates minimal siphons and the lattice of
invariant faces they generate, solves for equilibria on each face in exact
arithmetic (rationals, or a single square-root extension), decides linearised
stability through block-triangular Jacobian structure, and runs the invasion
relay test that links unstable boundary equilibria to their successors one
lattice cover at a time.
"""

from .errors import (AlgebraError, BadCover, CrnRelayError, DegenerateFace,
                     DenominatorZero, MixedExtensions, ModelError,
                     ModelParseError, NotInvariantFace, NotOnFace)
from .scalars import ExactScalar, exact, sqrt_fraction
from .poly import MultiPoly, RatFunc
from .linalg import UniPoly, char_poly, hurwitz_test, metzler_sign, quad_solve
from .network import (Model, extract_network, hosting_node, is_siphon,
                      minimal_siphons, siphon_lattice, verify_face_invariance)
from .modelfile import parse_model_file, parse_model_text, print_model
from .models import builtin_model, closed_form_oracle, list_builtins
from .equilibria import (FaceEquilibrium, all_equilibria, eliminate_univariate,
                         face_equilibria, positivity_check)
from .stability import (block_structure_screen, invasion_number, jacobian,
                        jacobian_at, las_test, mixed_block_zero, ngm_split,
                        rank_one_bound, rank_one_coupling_bound,
                        rank_one_model_bound, transversal_block)
from .relay import (relay_graph, relay_test_cover, relay_test_cover_strict)

__version__ = "0.1.0"

__all__ = (
    "AlgebraError", "BadCover", "CrnRelayError", "DegenerateFace",
    "DenominatorZero", "ExactScalar", "FaceEquilibrium", "MixedExtensions",
    "Model", "ModelError", "ModelParseError", "MultiPoly", "NotInvariantFace",
    "NotOnFace", "RatFunc", "UniPoly", "all_equilibria",
    "block_structure_screen", "builtin_model", "char_poly",
    "closed_form_oracle", "eliminate_univariate", "extract_network",
    "face_equilibria", "hosting_node", "hurwitz_test", "invasion_number",
    "is_siphon", "jacobian", "jacobian_at", "las_test", "list_builtins",
    "metzler_sign", "minimal_siphons", "mixed_block_zero", "ngm_split",
    "parse_model_file", "parse_model_text", "positivity_check", "print_model",
    "quad_solve", "rank_one_bound", "rank_one_coupling_bound", "rank_one_model_bound",
    "relay_graph", "relay_test_cover", "relay_test_cover_strict", "siphon_lattice",
    "sqrt_fraction", "exact", "transversal_block", "verify_face_invariance",
)
