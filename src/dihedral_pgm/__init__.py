"""Toolkit for the optimal measurement on dihedral hidden-subgroup states.

Constructs the hidden-subgroup states and the square-root measurement in
closed block form, certifies the minimum-error optimality conditions,
reproduces the sharp success-probability threshold in the copy density,
and realizes the subset-sum sampling connection (exact counting, uniform
solution sampling, and the unitary completion whose reverse quantum
samples from solutions).
"""

from .dihedral import (TRIVIAL, BlockLabel, BlockState, DihedralElement,
                       ScaleLimitError, assemble_block_density,
                       bit_dot_table, block_basis_transform, block_state,
                       coset_state_group_basis, dense_state,
                       element_from_index, hidden_subgroup_state, identity,
                       inverse, multiply, phase_table, subgroup_elements,
                       tilde_basis_change)
from .pgm import (GramOperator, LsbPovm, OptimalityReport, PovmBlock,
                  certify_dihedral_pgm, completion_effect,
                  dense_block_effects, gram_operator, lsb_povm, pgm_dense,
                  povm_block, verify_holevo)
from .reptheory import (IrrepDecomposition, IrrepLabel, equivalence_check,
                        hidden_state_in_irrep_basis, irrep, irrep_labels,
                        left_regular, qft_dihedral, right_regular)
from .simulate import outcome_distribution, run_trials, shift_covariance_check
from .subsetsum import (SubsetProfile, SubsetSumInstance, count_eta,
                        count_eta_batch, enumerate_subsets, format_solution,
                        neumark_complete, parse_instance, qsample,
                        sample_solutions, superposition_vector, vtilde)
from .success import (InfoBoundResult, ThresholdPoint, chi_single_copy,
                      exact_sweep, info_lower_bound, lsb_counting_sums,
                      lsb_success_exact, lsb_threshold_check,
                      lsb_upper_bound, success_exact, success_mc,
                      success_single_copy, threshold_sweep, trivial_success)

__all__ = [name for name in dir() if not name.startswith("_")]
