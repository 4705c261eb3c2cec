"""Littlewood-Richardson commutor toolkit.

Skew semistandard tableaux, Knuth equivalence, internal row insertion with
the empty-matrix-word skew RSK correspondence, the switching involution and
its internal-insertion realisation as a row program, LR coefficients by the
row-by-row rule with an exact tableau-count oracle, and exhaustive desk-scale
verification sweeps.
"""

from .tableaux import (EMPTY, SkewShape, SkewTableau, as_partition,
                       companion_word, content, empty_of_shape,
                       enumerate_ballot, enumerate_ssyt, from_json,
                       from_json_dict, from_text, glue, is_ballot,
                       is_ballot_tableau, partitions_of, reading_word,
                       restrict_rows, skew_shape, standardize, subpartitions,
                       tableau_content, to_json, to_json_dict, to_text,
                       yamanouchi_tableau)
from .knuth import (RskPair, elementary_moves, knuth_class, knuth_equivalent,
                    rsk, schensted_insert)
from .insertion import (GluedPair, InsertionTrace, NotBallotPair,
                        apply_order_word, extended_insert, glued_pair,
                        inner_corners, internal_insert, is_lr_pair,
                        lr_violation, order_word_steps, skew_rsk_forward,
                        skew_rsk_inverse)
from .commutor import (RowStep, StagedDecomposition, SwitchSite,
                       TwoColorTableau, apply_switch, chi_append,
                       gt_order_word, nu_hat, rho1_internal, rho1_scratch,
                       rho1_switching, row_program, run_row_program,
                       staged_decomposition, switch_sites, switching)
from .schur import lr_coefficient, schur_polynomial, schur_product
from .verify import CHECKS, VerifyReport, run_checks
from .golden import run_golden

__all__ = [name for name in dir() if not name.startswith("_")]
