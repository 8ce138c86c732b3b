//! ISAAC-style bit-sliced weight storage.
//!
//! Real crossbar cells store only a few bits each, so ISAAC-class
//! accelerators split a W-bit weight across several cells in adjacent
//! columns and recombine the per-slice analog products with a shift-add
//! ([Shafiee et al., ISCA'16], the architecture the paper cites). This
//! module models that scheme: magnitudes are quantized to `total_bits`,
//! sliced into `cell_bits` groups, each slice stored in its own
//! [`Crossbar`], and [`BitSlicedMatrix::matvec`] recombines slices with
//! their radix weights. Signs use the differential-pair convention of the
//! parent crate (the sign lives in which path of the pair carries the
//! magnitude, here modelled by signed per-slice storage).
//!
//! Each slice rides a [`TiledMatrix`], so on integer-path-capable configs
//! (see [`CrossbarConfig::integer_path_capable`]) every slice executes on
//! the quantize-once `i32` fast path automatically; the shift-add
//! recombination stays in `f32`.

use crate::quant::{narrow_code, round_fast};
use crate::{CrossbarConfig, Quantizer, TiledMatrix};
use healthmon_tensor::{SeededRng, Tensor};

/// A weight matrix stored bit-sliced across multiple crossbar arrays.
///
/// # Example
///
/// ```
/// use healthmon_reram::{BitSlicedMatrix, CrossbarConfig};
/// use healthmon_tensor::{SeededRng, Tensor};
///
/// let mut rng = SeededRng::new(0);
/// let w = Tensor::randn(&[16, 8], &mut rng);
/// // 8-bit weights over 2-bit cells -> 4 slices.
/// let sliced = BitSlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
/// assert_eq!(sliced.num_slices(), 4);
/// let x = Tensor::randn(&[16], &mut rng);
/// assert_eq!(sliced.matvec(&x).shape(), &[8]);
/// ```
#[derive(Debug, Clone)]
pub struct BitSlicedMatrix {
    /// One tiled array per slice, least-significant slice first. Each
    /// stores the *signed* slice digits scaled into its own range.
    slices: Vec<TiledMatrix>,
    /// Radix weight of each slice (1, 2^b, 2^2b, ...), scaled back to the
    /// weight domain.
    slice_scale: Vec<f32>,
    rows: usize,
    cols: usize,
    total_bits: u32,
    cell_bits: u32,
}

impl BitSlicedMatrix {
    /// Programs `weights` with `total_bits` of magnitude resolution,
    /// sliced into `cell_bits`-wide digits.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is not 2-D, `total_bits` is not a positive
    /// multiple of `cell_bits`, or either exceeds 16 bits.
    pub fn program(
        weights: &Tensor,
        total_bits: u32,
        cell_bits: u32,
        config: &CrossbarConfig,
        rng: &mut SeededRng,
    ) -> Self {
        assert_eq!(weights.ndim(), 2, "bit slicing requires a 2-D matrix");
        assert!(
            cell_bits >= 1 && total_bits >= cell_bits && total_bits.is_multiple_of(cell_bits),
            "total bits {total_bits} must be a positive multiple of cell bits {cell_bits}"
        );
        assert!(total_bits <= 16, "more than 16 weight bits is not supported");
        let (rows, cols) = (weights.shape()[0], weights.shape()[1]);
        let num_slices = (total_bits / cell_bits) as usize;
        let w_max = weights
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(f32::MIN_POSITIVE);
        let levels = (1u32 << total_bits) - 1;
        let q = Quantizer::new(0.0, w_max, total_bits);
        let digit_radix = 1u32 << cell_bits;

        // Decompose each |w| into digits, keep sign on every digit.
        //
        // Lowered per the DESIGN.md §8 checklist: quantize once into a
        // code vector with the branch-free round/narrow helpers (instead
        // of `f32::round` + a saturating `as u32` per element), then peel
        // each digit with shift/mask zip loops — `(code >> k·cell_bits) &
        // (radix−1)` equals the former `%`/`÷` cascade for every u32
        // code, and the zip stores carry no bounds checks. Bit-identical
        // to the scalar form on the whole ≤16-bit code domain (codes top
        // out at 2¹⁶, inside `narrow_code`'s window).
        let src = weights.as_slice();
        let qstep = q.step();
        let codes: Vec<u32> = src
            .iter()
            .map(|&w| narrow_code(round_fast(w.abs().min(w_max) / qstep)))
            .collect();
        let signs: Vec<f32> =
            src.iter().map(|&w| if w < 0.0 { -1.0f32 } else { 1.0 }).collect();
        let mut digit_planes: Vec<Tensor> =
            (0..num_slices).map(|_| Tensor::zeros(&[rows, cols])).collect();
        let mask = digit_radix - 1;
        for (k, plane) in digit_planes.iter_mut().enumerate() {
            let shift = k as u32 * cell_bits;
            for ((d, &code), &sign) in
                plane.as_mut_slice().iter_mut().zip(&codes).zip(&signs)
            {
                *d = sign * ((code >> shift) & mask) as f32;
            }
        }

        // Each plane holds digits in [-digit_max, digit_max]; the tiled
        // programmer normalizes to its own max, so record the plane's
        // weight-domain scale explicitly: value = digit * radix^k * step.
        let step = w_max / levels as f32;
        let mut slices = Vec::with_capacity(num_slices);
        let mut slice_scale = Vec::with_capacity(num_slices);
        for (k, plane) in digit_planes.iter().enumerate() {
            slices.push(TiledMatrix::program(plane, config, rng));
            let radix_weight = (digit_radix as f32).powi(k as i32);
            slice_scale.push(step * radix_weight);
        }
        BitSlicedMatrix { slices, slice_scale, rows, cols, total_bits, cell_bits }
    }

    /// Number of slices (`total_bits / cell_bits`).
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Logical matrix dimensions.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Magnitude resolution in bits.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Bits stored per cell.
    pub fn cell_bits(&self) -> u32 {
        self.cell_bits
    }

    /// Mutable access to the per-slice arrays (LSB slice first), e.g. for
    /// injecting faults into a single significance level.
    pub fn slices_mut(&mut self) -> &mut [TiledMatrix] {
        &mut self.slices
    }

    /// Shared access to the per-slice arrays (LSB slice first).
    pub fn slices(&self) -> &[TiledMatrix] {
        &self.slices
    }

    /// Weight-domain radix scale of each slice (LSB slice first).
    pub fn slice_scales(&self) -> &[f32] {
        &self.slice_scale
    }

    /// Freezes the weight at logical position `(row, col)` to read as
    /// (approximately) `weight`: the magnitude is re-quantized to the
    /// slice code space and each slice's digit is stuck in its array.
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are outside the logical matrix or `weight` is
    /// non-finite.
    pub fn stick_cell(&mut self, row: usize, col: usize, weight: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "cell ({row}, {col}) outside {}x{} matrix",
            self.rows,
            self.cols
        );
        assert!(weight.is_finite(), "stuck weight must be finite, got {weight}");
        let levels = (1u32 << self.total_bits) - 1;
        let step = self.slice_scale[0];
        let w_max = step * levels as f32;
        let q = Quantizer::new(0.0, w_max, self.total_bits);
        let sign = if weight < 0.0 { -1.0f32 } else { 1.0 };
        let mut code = q.index_of(weight.abs().min(w_max));
        let radix = 1u32 << self.cell_bits;
        for slice in &mut self.slices {
            let digit = code % radix;
            slice.stick_cell(row, col, sign * digit as f32);
            code /= radix;
        }
    }

    /// The weight matrix the sliced arrays actually realize.
    pub fn effective_weights(&self) -> Tensor {
        let mut out = Tensor::zeros(&[self.rows, self.cols]);
        for (slice, &scale) in self.slices.iter().zip(&self.slice_scale) {
            out.axpy(scale, &slice.effective_weights());
        }
        out
    }

    /// Crossbar matvec with shift-add recombination: the `batch == 1` case
    /// of [`BitSlicedMatrix::matmul`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len()` differs from the row count.
    pub fn matvec(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.len(), self.rows, "input length mismatch");
        let batch = input
            .reshape(&[1, self.rows])
            .expect("1-D input reshapes to a single-row batch");
        self.matmul(&batch)
            .reshape(&[self.cols])
            .expect("single-row output reshapes to 1-D")
    }

    /// Batched crossbar product with shift-add recombination: every slice
    /// runs one tile-level GEMM over the whole `[batch, rows]` pattern set
    /// (see [`TiledMatrix::matmul`]), then the digital periphery scales by
    /// the slice radix and accumulates.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not 2-D with `rows` columns.
    pub fn matmul(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.ndim(), 2, "batched matmul expects 2-D input");
        assert_eq!(input.shape()[1], self.rows, "inner dimension mismatch");
        let mut out = Tensor::zeros(&[input.shape()[0], self.cols]);
        for (slice, &scale) in self.slices.iter().zip(&self.slice_scale) {
            out.axpy(scale, &slice.matmul(input));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellFault, IrDropModel};

    #[test]
    fn slice_count() {
        let mut rng = SeededRng::new(1);
        let w = Tensor::randn(&[4, 4], &mut rng);
        let s = BitSlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
        assert_eq!(s.num_slices(), 4);
        let s = BitSlicedMatrix::program(&w, 6, 3, &CrossbarConfig::ideal(), &mut rng);
        assert_eq!(s.num_slices(), 2);
    }

    #[test]
    fn effective_weights_approximate_original() {
        let mut rng = SeededRng::new(2);
        let w = Tensor::randn(&[8, 6], &mut rng);
        let s = BitSlicedMatrix::program(&w, 12, 2, &CrossbarConfig::ideal(), &mut rng);
        let back = s.effective_weights();
        let w_max = w.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let tol = w_max / ((1u32 << 12) - 1) as f32 + 1e-4;
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
        }
    }

    #[test]
    fn matvec_matches_digital_reference() {
        let mut rng = SeededRng::new(3);
        let w = Tensor::randn(&[10, 5], &mut rng);
        let s = BitSlicedMatrix::program(&w, 12, 4, &CrossbarConfig::ideal(), &mut rng);
        let x = Tensor::randn(&[10], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let got = s.matvec(&x);
        let want = s.effective_weights().transpose().matvec(&x);
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn lowered_digit_decomposition_matches_scalar_reference() {
        // The §8-lowered program() path (round_fast + narrow_code +
        // shift/mask) must be bit-identical to the straightforward
        // index_of + %/÷ cascade it replaced.
        let mut rng = SeededRng::new(77);
        let w = Tensor::randn(&[9, 7], &mut rng).map(|v| v * 3.0);
        let (total_bits, cell_bits) = (16u32, 4u32);
        let w_max = w
            .as_slice()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(f32::MIN_POSITIVE);
        let q = Quantizer::new(0.0, w_max, total_bits);
        let digit_radix = 1u32 << cell_bits;
        let num_slices = (total_bits / cell_bits) as usize;
        for &weight in w.as_slice() {
            // Scalar reference.
            let mut reference = Vec::new();
            let mut code = q.index_of(weight.abs());
            for _ in 0..num_slices {
                reference.push(code % digit_radix);
                code /= digit_radix;
            }
            // Lowered form, exactly as program() computes it.
            let lowered_code =
                narrow_code(round_fast(weight.abs().min(w_max) / q.step()));
            for (k, &want) in reference.iter().enumerate() {
                let got = (lowered_code >> (k as u32 * cell_bits)) & (digit_radix - 1);
                assert_eq!(got, want, "weight {weight} digit {k}");
            }
        }
    }

    #[test]
    fn more_bits_give_finer_weights() {
        let mut rng = SeededRng::new(4);
        let w = Tensor::randn(&[12, 12], &mut rng);
        let coarse = BitSlicedMatrix::program(&w, 4, 2, &CrossbarConfig::ideal(), &mut rng)
            .effective_weights();
        let fine = BitSlicedMatrix::program(&w, 12, 2, &CrossbarConfig::ideal(), &mut rng)
            .effective_weights();
        assert!(w.l1_distance(&coarse) > w.l1_distance(&fine) * 4.0);
    }

    #[test]
    fn msb_slice_faults_hurt_more_than_lsb() {
        let mut rng = SeededRng::new(5);
        let w = Tensor::randn(&[16, 16], &mut rng);
        let run = |slice_idx: usize, rng: &mut SeededRng| {
            let mut s = BitSlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), rng);
            let mut fault_rng = SeededRng::new(99);
            for tile in s.slices_mut()[slice_idx].tiles_mut() {
                tile.inject_stuck_cells(CellFault::StuckLow, 0.5, &mut fault_rng);
            }
            w.l1_distance(&s.effective_weights())
        };
        let lsb_damage = run(0, &mut rng);
        let msb_damage = run(3, &mut rng);
        assert!(
            msb_damage > lsb_damage * 4.0,
            "MSB slice faults must dominate: lsb {lsb_damage} msb {msb_damage}"
        );
    }

    #[test]
    fn sign_preserved() {
        let mut rng = SeededRng::new(6);
        let w = Tensor::from_vec(vec![0.9, -0.9, 0.3, -0.3], &[2, 2]).unwrap();
        let s = BitSlicedMatrix::program(&w, 8, 4, &CrossbarConfig::ideal(), &mut rng);
        let back = s.effective_weights();
        for (a, b) in w.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.signum(), b.signum());
        }
    }

    #[test]
    fn batched_matmul_bit_identical_to_matvec_rows() {
        let mut rng = SeededRng::new(8);
        let w = Tensor::randn(&[9, 5], &mut rng);
        let s = BitSlicedMatrix::program(&w, 8, 2, &CrossbarConfig::default(), &mut rng);
        let x = Tensor::randn(&[4, 9], &mut rng).map(|v| v.clamp(-1.0, 1.0));
        let batch = s.matmul(&x);
        assert_eq!(batch.shape(), &[4, 5]);
        for b in 0..4 {
            let single = s.matvec(&x.row(b));
            for (j, (p, q)) in batch.row(b).as_slice().iter().zip(single.as_slice()).enumerate() {
                assert_eq!(p.to_bits(), q.to_bits(), "row {b} col {j}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn stick_cell_pins_weight_across_slices() {
        let mut rng = SeededRng::new(9);
        let w = Tensor::randn(&[6, 6], &mut rng);
        let mut s = BitSlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
        let w_max = w.as_slice().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let step = w_max / 255.0;
        for &(r, c, target) in &[(1usize, 2usize, 0.0f32), (4, 5, -0.4), (0, 0, 0.7)] {
            s.stick_cell(r, c, target);
            let got = s.effective_weights().at(&[r, c]);
            assert!(
                (got - target).abs() <= step + 1e-3,
                "stuck ({r},{c}) reads {got}, wanted ~{target}"
            );
        }
    }

    #[test]
    fn drift_and_ir_drop_propagate_to_slices() {
        let mut rng = SeededRng::new(10);
        let w = Tensor::randn(&[8, 8], &mut rng);
        let mut s = BitSlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
        let before = s.effective_weights().norm_l1();
        for tile in s.slices_mut().iter_mut().flat_map(TiledMatrix::tiles_mut) {
            tile.drift(0.5, 3.0, &mut rng);
        }
        let after = s.effective_weights().norm_l1();
        assert!(after < before, "drift should shrink: {before} -> {after}");

        let mut s = BitSlicedMatrix::program(&w, 8, 2, &CrossbarConfig::ideal(), &mut rng);
        let before = s.effective_weights();
        for tile in s.slices_mut().iter_mut().flat_map(TiledMatrix::tiles_mut) {
            tile.apply_ir_drop(&IrDropModel::new(0.05));
        }
        assert!(before.l1_distance(&s.effective_weights()) > 1e-3);
    }

    #[test]
    #[should_panic(expected = "multiple of cell bits")]
    fn rejects_non_multiple_bits() {
        let mut rng = SeededRng::new(7);
        BitSlicedMatrix::program(&Tensor::zeros(&[2, 2]), 7, 2, &CrossbarConfig::ideal(), &mut rng);
    }
}
