"""Noncommutative jet-space symmetry engine."""

from .core import (CMat, Comm, Coord, Dependent, Expr, Fn, Inv, Jet,
                   JetsymError, KindError, MATRIX, Mul, Pot, PotentialDef,
                   Problem, Rat, SCALAR, Sym, add, as_expr, commutator, func,
                   inverse, mul)
from .normalize import is_zero, normal_form, substitute
from .calculus import (Characteristic, bracket_characteristic,
                       char_derivative, total_derivative)
from .symmetry import (AnsatzConfig, LinearOperatorAnsatz, Pde,
                       SymmetryReport, Verdict, certify_operator,
                       check_symmetry, find_operator, make_pde,
                       reduce_mod_pde, structure_constants)
from .backlund import (BtPair, bt_apply, bt_rhs, bt_seed_check,
                       chiral_phi_condition, declare_potential, left_current)
from .parsing import ParseError, parse_expr, parse_operator
from .printing import pretty, render
from .catalog import CatalogEntry, get_pde, load_catalog

__version__ = "0.1.0"
