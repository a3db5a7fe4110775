"""Local homology recovery from point samples of stratified sets.

Estimates the local homology at every point of a (possibly noisy) sample by
computing ranks of inclusion-induced maps between relative homology of
nested Vietoris-Rips or Cech complex pairs, with scale selection, ground
truth validation, an independent oracle, and a CLI.
"""

from .geometry import (Sample, StratifiedShape, circle, circle_chord,
                       distance, dist_to_shape, generate_sample, ground_truth,
                       hausdorff, make_shape, segment)
from .complexes import (SimplicialComplex, QuotientPairComplex, ConedPair,
                        cech, cone_pair, delete_ball, quotient_pair, rips)
from .fieldla import persistent_reduce, rank
from .relhom import (HomologySignature, ImageRankEngine, QuerySpec,
                     exactness_check, image_rank, image_rank_oracle,
                     relative_betti)
from .scales import (InfeasibleScales, ReachBound, ScaleConstants,
                     SeemlinessBound, SelectedScales, f, g, manual_scales,
                     select_bounded, select_manifold, select_strong,
                     strong_coefficients, validate_manual)
from .pipeline import (PointResult, RunReport, classify, group_strata,
                       infer_all, label_of)
from .explorer import AlphaSectionScan, scan_alpha_section, section_properties

__version__ = "1.0.0"
