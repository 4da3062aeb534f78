"""Milnor fiber complexes of finite Coxeter and Shephard groups.

Build the coset chamber complex of an admissible diagram, compute its
walls and their homology, recognize Milnor fiber complexes, and verify
the wall classification theorems mechanically.
"""

from .diagram import (Diagram, DiagramError, GroupId, NotAdmissible,
                      basic_degrees, classify, classify_component,
                      diagram_name, diagram_symbol, enumerate_admissible,
                      group_order, has_forbidden_subdiagram, parse_symbol)
from .group import (CapExceeded, CosetPartition, GroupTable, conjugacy_classes,
                    enumerate_group, parabolic_cosets, reflection_classes)
from .complexes import (ChamberSystem, TypedComplex, export_complex, join,
                        milnor_fiber_complex, monomial_flag_complex)
from .homology import BettiResult, reduced_betti
from .isomorphism import find_isomorphism, verify_isomorphism
from .walls import (MilnorWallCertificate, ParabolicData, RecognitionVerdict,
                    chamber_count_check, fixed_subcomplex,
                    milnor_wall_search, recognize_milnor_fiber)
from .verify import (GroupContext, TheoremReport, default_suite, run_suite,
                     verify_counts, verify_join, verify_monomial,
                     verify_orlik, verify_theorem_A, verify_theorem_B)

__version__ = "0.1.0"
