"""Littlewood-Richardson commutor toolkit.

Skew semistandard tableaux, Knuth equivalence, internal row insertion with
the empty-matrix-word skew RSK correspondence, the switching involution and
its internal-insertion realisation as a row program, LR coefficients by the
row-by-row rule with an exact tableau-count oracle, and exhaustive desk-scale
verification sweeps.

The modules every entry point runs are imported here.  ``knuth``, ``schur``,
``verify`` and ``golden``, and the names taken from them, are imported on
first access (PEP 562), so that ``lrcommute commute`` compiles none of them.
"""

from .tableaux import (EMPTY, SkewShape, SkewTableau, as_partition,
                       companion_word, enumerate_ballot, enumerate_ssyt,
                       from_json_dict, from_text, glue, is_ballot_tableau,
                       partitions_of, reading_word, restrict_rows, skew_shape,
                       standardize, subpartitions, tableau_content,
                       to_json_dict, to_text, yamanouchi_tableau)
from .insertion import (GluedPair, InsertionTrace, NotBallotPair,
                        apply_order_word, glued_pair, internal_insert,
                        lr_violation, order_word_steps, skew_rsk_forward,
                        skew_rsk_inverse)
from .commutor import (RowStep, StagedDecomposition, SwitchSite,
                       gt_order_word, nu_hat, rho1_internal, rho1_scratch,
                       rho1_switching, row_program, run_row_program,
                       staged_decomposition, switching)

# name -> the submodule that defines it, for the names loaded on first access
_LAZY = {
    "knuth": "knuth", "RskPair": "knuth", "elementary_moves": "knuth",
    "knuth_equivalent": "knuth", "rsk": "knuth",
    "schur": "schur", "lr_coefficient": "schur", "schur_product": "schur",
    "verify": "verify", "CHECKS": "verify", "VerifyReport": "verify",
    "run_checks": "verify",
    "golden": "golden", "run_golden": "golden",
}

__all__ = sorted(name for name in {*dir(), *_LAZY} if not name.startswith("_"))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value
