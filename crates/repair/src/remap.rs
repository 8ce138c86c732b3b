//! Fault-aware row remapping (the cheap repair).
//!
//! ReRAM accelerators can reorder which logical weight-matrix row is
//! programmed onto which physical word line at negligible cost (it is a
//! routing-table change). Since stuck cells sit at fixed *physical*
//! positions, a good assignment parks high-magnitude logical weights away
//! from defects. This module implements the greedy assignment used by
//! fault-aware remapping proposals (cf. Chen et al., DATE'17, cited by
//! the paper as a repair mechanism).

use crate::defects::{identity, DefectMap};
use healthmon_tensor::Tensor;

/// Result of a row-remapping repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RowRemap {
    /// `assignment[logical_row] = physical_row`.
    pub assignment: Vec<usize>,
    /// L1 weight damage under the identity assignment (no repair).
    pub unrepaired_error: f32,
    /// L1 weight damage under the chosen assignment.
    pub repaired_error: f32,
    /// The weight matrix as the damaged-but-remapped array realizes it.
    pub repaired_weights: Tensor,
}

impl RowRemap {
    /// Fraction of the defect-induced weight error removed by the remap
    /// (1.0 = all damage parked on zero weights; 0.0 = no improvement).
    pub fn recovery(&self) -> f32 {
        if self.unrepaired_error <= f32::EPSILON {
            return 0.0;
        }
        1.0 - self.repaired_error / self.unrepaired_error
    }
}

/// Cost of placing logical row `logical` on physical row `physical`:
/// the L1 weight error its defects would inflict.
fn placement_cost(weights: &Tensor, defects: &DefectMap, logical: usize, physical: usize) -> f32 {
    defects
        .cells_in_row(physical)
        .map(|cell| (weights.at(&[logical, cell.col]) - cell.value).abs())
        .sum()
}

/// Computes a fault-aware logical→physical row assignment for `weights`
/// given the array's `defects`, by greedy assignment: process logical
/// rows in decreasing order of their worst-case exposure, giving each the
/// cheapest remaining physical row.
///
/// The greedy result is guaranteed to be no worse than the identity
/// assignment (it falls back to identity if greedy loses, which can
/// happen on adversarial inputs).
///
/// # Panics
///
/// Panics if `weights` is not 2-D or a defect lies outside the matrix.
pub fn remap_rows(weights: &Tensor, defects: &DefectMap) -> RowRemap {
    assert_eq!(weights.ndim(), 2, "remap operates on 2-D matrices");
    let rows = weights.shape()[0];
    let id = identity(rows);
    let unrepaired_error = defects.damage(weights, &id);

    // Rows with defects, by total stuck-cell count; defect-free physical
    // rows are free parking.
    let mut defective_rows: Vec<usize> =
        (0..rows).filter(|&r| defects.cells_in_row(r).next().is_some()).collect();
    defective_rows.sort_by_key(|&r| std::cmp::Reverse(defects.cells_in_row(r).count()));

    // Order logical rows by how expensive they are on the most defective
    // physical rows (their exposure), assign greedily.
    let mut logical_order: Vec<usize> = (0..rows).collect();
    let exposure = |l: usize| -> f32 {
        defective_rows.iter().map(|&p| placement_cost(weights, defects, l, p)).sum()
    };
    let exposures: Vec<f32> = (0..rows).map(exposure).collect();
    logical_order.sort_by(|&a, &b| {
        exposures[b].partial_cmp(&exposures[a]).unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut assignment = vec![usize::MAX; rows];
    let mut taken = vec![false; rows];
    for &logical in &logical_order {
        let mut best_physical = usize::MAX;
        let mut best_cost = f32::INFINITY;
        for (physical, &is_taken) in taken.iter().enumerate() {
            if is_taken {
                continue;
            }
            let cost = placement_cost(weights, defects, logical, physical);
            if cost < best_cost {
                best_cost = cost;
                best_physical = physical;
                // Costs are sums of absolute errors: no later row can
                // beat a zero cost, and ties keep the first row anyway.
                if cost == 0.0 {
                    break;
                }
            }
        }
        assignment[logical] = best_physical;
        taken[best_physical] = true;
    }

    let mut repaired_error = defects.damage(weights, &assignment);
    // Greedy can in principle lose to identity; never return a
    // worse-than-nothing repair.
    let assignment = if repaired_error <= unrepaired_error {
        assignment
    } else {
        repaired_error = unrepaired_error;
        id
    };
    let repaired_weights = defects.apply_with_assignment(weights, &assignment);
    RowRemap { assignment, unrepaired_error, repaired_error, repaired_weights }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::defects::StuckCell;
    use healthmon_tensor::SeededRng;

    #[test]
    fn no_defects_keeps_identity_and_zero_error() {
        let mut rng = SeededRng::new(1);
        let w = Tensor::randn(&[6, 4], &mut rng);
        let repair = remap_rows(&w, &DefectMap::default());
        assert_eq!(repair.unrepaired_error, 0.0);
        assert_eq!(repair.repaired_error, 0.0);
        assert_eq!(repair.repaired_weights, w);
    }

    #[test]
    fn parks_defect_under_small_weight() {
        // Physical row 0 col 0 stuck at 0; logical row 0 has weight 10
        // there, logical row 1 has weight 0.
        let w = Tensor::from_vec(vec![10.0, 1.0, 0.0, 1.0], &[2, 2]).unwrap();
        let defects = DefectMap::new(vec![StuckCell { row: 0, col: 0, value: 0.0 }]);
        let repair = remap_rows(&w, &defects);
        assert_eq!(repair.unrepaired_error, 10.0);
        assert_eq!(repair.repaired_error, 0.0);
        assert_eq!(repair.assignment, vec![1, 0]);
        assert!((repair.recovery() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn never_worse_than_identity_random() {
        let mut rng = SeededRng::new(2);
        for seed in 0..10u64 {
            let mut local = SeededRng::new(seed);
            let w = Tensor::randn(&[12, 8], &mut rng);
            let defects = DefectMap::sample_for_matrix(&w, 0.08, &mut local);
            let repair = remap_rows(&w, &defects);
            assert!(
                repair.repaired_error <= repair.unrepaired_error + 1e-5,
                "seed {seed}: {} > {}",
                repair.repaired_error,
                repair.unrepaired_error
            );
        }
    }

    #[test]
    fn recovery_substantial_on_sparse_defects() {
        // With few defects and many rows, greedy should recover most of
        // the damage in expectation.
        let mut rng = SeededRng::new(3);
        let w = Tensor::randn(&[32, 16], &mut rng);
        let defects = DefectMap::sample_for_matrix(&w, 0.01, &mut rng);
        if defects.is_empty() {
            return;
        }
        let repair = remap_rows(&w, &defects);
        assert!(
            repair.recovery() > 0.3,
            "expected meaningful recovery, got {}",
            repair.recovery()
        );
    }

    #[test]
    fn assignment_is_a_permutation() {
        let mut rng = SeededRng::new(4);
        let w = Tensor::randn(&[10, 10], &mut rng);
        let defects = DefectMap::sample_for_matrix(&w, 0.1, &mut rng);
        let repair = remap_rows(&w, &defects);
        let mut sorted = repair.assignment.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn repaired_weights_match_assignment() {
        let mut rng = SeededRng::new(5);
        let w = Tensor::randn(&[8, 4], &mut rng);
        let defects = DefectMap::sample_for_matrix(&w, 0.1, &mut rng);
        let repair = remap_rows(&w, &defects);
        assert_eq!(
            repair.repaired_weights,
            defects.apply_with_assignment(&w, &repair.assignment)
        );
    }
}
