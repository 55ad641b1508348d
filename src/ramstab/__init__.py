"""Exact ramification data for branch extensions of local fields.

Given the coefficient valuations of a monic polynomial congruent to x^q
modulo the maximal ideal and the valuations along a branch of backward
iterates, this package computes the limiting vertex data of the level
polygons, certifies tame ramification stability with machine-checkable
inequalities, and builds the exact piecewise-linear transition functions,
ramification breaks and elementary-subfield table of the tower.  All
arithmetic is exact rational.
"""

from .valuations import format_rational, parse_rational
from .polygons import NewtonPolygon, copolygon, lower_hull, slopes
from .branches import (
    BranchDataError,
    BranchValuationRecord,
    PolynomialValuationProfile,
    branch_step_candidates,
    build_record,
    estimate_d,
    find_stable_index,
    halving_level,
    stability_screen,
)
from .limitdata import (
    LimitingRamificationData,
    complete_record,
    compute_C,
    level_polygon,
    limiting_data,
    limiting_data_for_branch,
    main_and_error,
    reindexed_record,
)
from .certificates import (
    CertificateCheck,
    StabilityCertificate,
    certify,
    composition_criterion,
    pcb_normal_form,
    pcb_sufficient,
    revalidate,
)
from .hasseherbrand import (
    Tower,
    TowerInvariantError,
    breaks_and_subfields,
    build_tower,
    depth_past_limit,
    level_model,
    printable_depth,
    tower_json,
)
from .inputdoc import InputDocument, InputError, load_document, parse_document

__version__ = "0.1.0"
