"""Exact filtration-length and closure-evidence toolkit.

Quotients of polynomial rings over F_p, Q, and F_p(t), with Groebner-based
ideal arithmetic, finite-length modules as explicit action matrices, minimum
filtration lengths with validated certificates, limit closures with content
bound tables, and forcing-algebra membership evidence in characteristic p.
"""

from .closure import (ForcingAlgebra, MembershipTable, QseqReport,
                      ShortSearchResult, VanishingTable,
                      generic_forcing_algebra, lc_class_vanishing,
                      qseq_verdict_charp, short_filtration_search,
                      test_element_search, tight_membership_table)
from .config import DEFAULT, BudgetExhausted, JobConfig, budget
from .content import (ContentRow, ContentTable, LimitClosureResult,
                      content_scan, limit_closure)
from .dsl import (DslError, format_poly, format_ring, parse_poly, parse_polys,
                  parse_ring)
from .fields import (GF2, GF3, QQ, PrimeField, RationalField,
                     RationalFunctionField, field_name)
from .groebner import (IdealHandle, InternalError, bracket_power, colon,
                       ideal, ideal_compare, ideal_power, ideal_product,
                       ideal_sum, intersect, normal_form)
from .poly import Polynomial, PolyRing, frobenius_power, grevlex, lex
from .quasilength import (FiltrationCertificate, ModuleContext, NoFiltration,
                          QuasilengthBounds, RingContext, SearchLimit,
                          Verdict, certificate_from_json, certificate_to_json,
                          frobenius_transport, lower_length_ratio,
                          quasilength, quasilength_exact,
                          staircase_filtration, validate_filtration)
from .quotient import (NotZeroDimensional, QuotientPresentation, VectorModule,
                       direct_sum, is_zero_dimensional, length, min_generators,
                       quotient_module, standard_monomials, vector_module)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
