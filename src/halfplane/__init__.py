"""Numerics for analytic self-maps of the upper half-plane.

Kreĭn products of fractional-linear factors, Nevanlinna representations and
their boundary recovery, the Boole/pushforward measure identities, the
factorization f = k_Γ(f)·g, and interpolation of prescribed real zeros and
poles (with a Cayley transport to the unit disk).
"""

from .extreal import (Arc, ArcSet, CantorComplement, EMPTY, FULL, INF,
                      SigmaDescriptor, angle_subtended, is_regular, measure,
                      normalize, regularize)
from .factor import (BlackBoxFunction, CompositeFunction, ExpRep, RepFunction,
                     analyze_pick, compose_in_class, constant_factor_check,
                     divide_single, factorize, psi_recover)
from .interp import (InterpProblem, build_function, check_interlacing,
                     construct_O, disk_interpolate, realizable_pair)
from .krein import (KreinProduct, cantor_complement_product,
                    equivariance_transport, k_structure, log_p, p_eval)
from .moebius import HalfPlaneAuto, cayley, disk_target_map, pullback_arcset
from .nevanlinna import (AnalysisResult, Measure, NevanlinnaRep, analyze,
                         boole_superlevel_measure, cauchy_transform,
                         letac_pushforward_check, recover_alpha, recover_atom,
                         recover_beta, stieltjes_density,
                         stieltjes_density_limit)

__version__ = "0.1.0"
