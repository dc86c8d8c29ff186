"""Exact Kolmogorov diameter computations for a two-regime Köthe family."""

from .diameters import (
    DiameterEntry,
    DiameterTable,
    PlanRow,
    closedform_diameters,
    oracle_diameters,
    oracle_diameters_certified,
)
from .exact import LogTerm, Rational, logterm_cmp
from .grid import column_of, pair_index, unpair
from .kothe import (
    KotheFamily,
    a_pq,
    c_pq,
    check_d2_failure,
    check_dn,
    check_nuclearity,
    check_omega,
    check_regularity,
    dn_lambda_bound,
    omega_j_bound,
    regularity_criterion,
)
from .sequences import ExponentSequence, classify_prefix, finitely_nuclear_probe
from .verify import (
    aa_statistic,
    delta_membership_probe,
    eadd_ratio,
    edd_tail_check,
    verify_sandwich,
)

__all__ = [
    "DiameterEntry",
    "DiameterTable",
    "ExponentSequence",
    "KotheFamily",
    "LogTerm",
    "PlanRow",
    "Rational",
    "a_pq",
    "aa_statistic",
    "c_pq",
    "check_d2_failure",
    "check_dn",
    "check_nuclearity",
    "check_omega",
    "check_regularity",
    "classify_prefix",
    "closedform_diameters",
    "column_of",
    "delta_membership_probe",
    "dn_lambda_bound",
    "eadd_ratio",
    "edd_tail_check",
    "finitely_nuclear_probe",
    "logterm_cmp",
    "omega_j_bound",
    "oracle_diameters",
    "oracle_diameters_certified",
    "pair_index",
    "regularity_criterion",
    "unpair",
    "verify_sandwich",
]

__version__ = "0.1.0"
