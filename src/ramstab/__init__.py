"""Exact ramification data for branch extensions of local fields.

Given the coefficient valuations of a monic polynomial congruent to x^q
modulo the maximal ideal and the valuations along a branch of backward
iterates, this package computes the limiting vertex data of the level
polygons, certifies tame ramification stability with machine-checkable
inequalities, and builds the exact piecewise-linear transition functions,
ramification breaks and elementary-subfield table of the tower.  All
arithmetic is exact rational.

Names are re-exported lazily: each module is imported on first use of one
of its names, so a command loads only the stages it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "valuations": "InputError TowerInvariantError format_rational parse_rational",
    "polygons": "lower_hull",
    "branches": "BranchDataError BranchValuationRecord PolynomialValuationProfile "
    "branch_step_candidates build_record estimate_d find_stable_index halving_level "
    "stability_screen",
    "limitdata": "LimitingRamificationData complete_record "
    "limiting_data limiting_data_for_branch main_and_error",
    "certificates": "CertificateCheck StabilityCertificate certify composition_criterion "
    "pcb_normal_form pcb_sufficient revalidate",
    "hasseherbrand": "Tower build_tower first_failure level_model printable_depth",
    "inputdoc": "InputDocument load_document parse_document",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines ``name`` (PEP 562) and keep the name."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
