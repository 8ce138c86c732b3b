//! Integer-domain accumulation kernels for quantized crossbar emulation.
//!
//! A ReRAM tile that quantizes its inputs through a DAC and stores
//! cell-resolution conductance codes computes, per bit line, an integer
//! dot product: `acc_j = Σ_i x_i · w_ij` with `x_i` a DAC level index and
//! `w_ij` a signed differential conductance code. This module provides
//! that accumulate as a row-block kernel over an `i32` accumulator, with
//! a runtime-dispatched AVX2 variant and a portable scalar fallback.
//!
//! # Bit-exactness
//!
//! Integer addition is associative, so — unlike the `f32` GEMM in
//! [`crate::Tensor::matmul`], which must pin its accumulation order — the
//! AVX2 and scalar kernels are bit-identical by construction, and callers
//! may split work across threads or row blocks freely as long as every
//! `(i, j)` product is added exactly once. Callers are responsible for
//! guaranteeing the accumulator cannot overflow (the crossbar layer gates
//! the integer path on `max_code · max_level · rows` staying far below
//! `i32::MAX`).

use healthmon_telemetry as tel;

// Dispatch tallies mirror `gemm.row_blocks.*`: which kernel ran is a
// property of the host CPU, not of the computation, so the counts are
// Volatile (they differ between AVX2 and non-AVX2 hosts).
static I32_BLOCKS_AVX2: tel::Counter =
    tel::Counter::new("gemm.i32_blocks.avx2", tel::Stability::Volatile);
static I32_BLOCKS_SCALAR: tel::Counter =
    tel::Counter::new("gemm.i32_blocks.scalar", tel::Stability::Volatile);

/// Width granularity of the integer kernels: weight-code rows must be
/// padded to a multiple of this many columns so the vector kernel never
/// needs a masked tail.
pub const LANES: usize = 8;

/// Accumulates one row block of the integer crossbar product:
/// `acc[j] += Σ_i x[i] · w[i·width + j]` for every `j < width`.
///
/// `x` holds one DAC code per word line of the block, `w` the signed
/// conductance codes of those rows laid out row-major at `width` columns
/// (zero-padded past the logical column count), and `acc` the running
/// bit-line accumulator.
///
/// # Panics
///
/// Panics if `width` is not a multiple of [`LANES`], `acc.len() != width`,
/// or `w.len() != x.len() * width`.
pub fn accumulate_rows(x: &[i32], w: &[i16], width: usize, acc: &mut [i32]) {
    assert!(width.is_multiple_of(LANES), "width {width} must be a multiple of {LANES}");
    assert_eq!(acc.len(), width, "accumulator width mismatch");
    assert_eq!(w.len(), x.len() * width, "weight-code block shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::avx2() {
        I32_BLOCKS_AVX2.inc();
        // SAFETY: `cpu::avx2()` verified CPU support; the asserts
        // above establish the exact bounds the vector loop walks.
        unsafe { accumulate_rows_avx2(x, w, width, acc) };
        return;
    }
    I32_BLOCKS_SCALAR.inc();
    for (&xi, w_row) in x.iter().zip(w.chunks_exact(width)) {
        for (a, &wv) in acc.iter_mut().zip(w_row) {
            *a += xi * wv as i32;
        }
    }
}

/// Four-batch-row variant of [`accumulate_rows`]: the same row block of
/// weight codes accumulated against four independent DAC-code vectors in
/// one sweep, so each `i16 → i32` weight load is amortized over four
/// products. `acc` holds the four accumulators back to back
/// (`acc[b·width + j]` for batch row `b`).
///
/// Integer addition is exact, so the result is bit-identical to four
/// separate [`accumulate_rows`] calls — callers may mix the two freely
/// (e.g. a blocked main loop with a scalar remainder).
///
/// # Panics
///
/// Panics if `width` is not a multiple of [`LANES`], the four DAC-code
/// slices differ in length, `acc.len() != 4 * width`, or
/// `w.len() != x[0].len() * width`.
pub fn accumulate_rows_x4(x: [&[i32]; 4], w: &[i16], width: usize, acc: &mut [i32]) {
    assert!(width.is_multiple_of(LANES), "width {width} must be a multiple of {LANES}");
    assert_eq!(acc.len(), 4 * width, "accumulator width mismatch");
    let rows = x[0].len();
    assert!(x.iter().all(|xi| xi.len() == rows), "DAC-code rows differ in length");
    assert_eq!(w.len(), rows * width, "weight-code block shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::avx2() {
        I32_BLOCKS_AVX2.add(4);
        // SAFETY: `cpu::avx2()` verified CPU support; the asserts
        // above establish the exact bounds the vector loop walks.
        unsafe { accumulate_rows_x4_avx2(x, w, width, acc) };
        return;
    }
    I32_BLOCKS_SCALAR.add(4);
    for (i, w_row) in w.chunks_exact(width).enumerate() {
        for (b, xb) in x.iter().enumerate() {
            let xi = xb[i];
            for (a, &wv) in acc[b * width..(b + 1) * width].iter_mut().zip(w_row) {
                *a += xi * wv as i32;
            }
        }
    }
}

/// [`accumulate_rows_x4`] on AVX2: one widened weight load feeds four
/// broadcast-multiply-adds, quadrupling the arithmetic per memory access.
/// Same integer ops as the scalar loop, so results match bit-for-bit.
#[cfg(target_arch = "x86_64")]
// The row index addresses all four batch slices at once; an iterator
// chain over one of them would obscure the symmetry.
#[allow(clippy::needless_range_loop)]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_rows_x4_avx2(x: [&[i32]; 4], w: &[i16], width: usize, acc: &mut [i32]) {
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi16_epi32, _mm256_loadu_si256,
        _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_storeu_si256, _mm_loadu_si128,
    };
    let rows = x[0].len();
    for j in (0..width).step_by(LANES) {
        unsafe {
            let p = acc.as_mut_ptr();
            let mut a0 = _mm256_loadu_si256(p.add(j) as *const __m256i);
            let mut a1 = _mm256_loadu_si256(p.add(width + j) as *const __m256i);
            let mut a2 = _mm256_loadu_si256(p.add(2 * width + j) as *const __m256i);
            let mut a3 = _mm256_loadu_si256(p.add(3 * width + j) as *const __m256i);
            for i in 0..rows {
                let wv = _mm_loadu_si128(w.as_ptr().add(i * width + j) as *const __m128i);
                let wi = _mm256_cvtepi16_epi32(wv);
                a0 = _mm256_add_epi32(a0, _mm256_mullo_epi32(wi, _mm256_set1_epi32(x[0][i])));
                a1 = _mm256_add_epi32(a1, _mm256_mullo_epi32(wi, _mm256_set1_epi32(x[1][i])));
                a2 = _mm256_add_epi32(a2, _mm256_mullo_epi32(wi, _mm256_set1_epi32(x[2][i])));
                a3 = _mm256_add_epi32(a3, _mm256_mullo_epi32(wi, _mm256_set1_epi32(x[3][i])));
            }
            _mm256_storeu_si256(p.add(j) as *mut __m256i, a0);
            _mm256_storeu_si256(p.add(width + j) as *mut __m256i, a1);
            _mm256_storeu_si256(p.add(2 * width + j) as *mut __m256i, a2);
            _mm256_storeu_si256(p.add(3 * width + j) as *mut __m256i, a3);
        }
    }
}

/// [`accumulate_rows`] with each group of [`LANES`] bit lines held in one
/// 256-bit lane group: weight codes widen `i16 → i32` on load, multiply
/// against the broadcast DAC code, and add into the accumulator — the
/// identical integer operations as the scalar loop, so results match
/// bit-for-bit.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_rows_avx2(x: &[i32], w: &[i16], width: usize, acc: &mut [i32]) {
    use core::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi32, _mm256_cvtepi16_epi32, _mm256_loadu_si256,
        _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_storeu_si256, _mm_loadu_si128,
    };
    for j in (0..width).step_by(LANES) {
        unsafe {
            let mut accv = _mm256_loadu_si256(acc.as_ptr().add(j) as *const __m256i);
            for (i, &xi) in x.iter().enumerate() {
                let wv = _mm_loadu_si128(w.as_ptr().add(i * width + j) as *const __m128i);
                let wi = _mm256_cvtepi16_epi32(wv);
                accv = _mm256_add_epi32(accv, _mm256_mullo_epi32(wi, _mm256_set1_epi32(xi)));
            }
            _mm256_storeu_si256(acc.as_mut_ptr().add(j) as *mut __m256i, accv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    fn reference(x: &[i32], w: &[i16], width: usize, acc: &mut [i32]) {
        for (i, &xi) in x.iter().enumerate() {
            for j in 0..width {
                acc[j] += xi * w[i * width + j] as i32;
            }
        }
    }

    fn random_case(rows: usize, width: usize, seed: u64) -> (Vec<i32>, Vec<i16>) {
        let mut rng = SeededRng::new(seed);
        let x: Vec<i32> = (0..rows).map(|_| rng.uniform(0.0, 255.0) as i32).collect();
        let w: Vec<i16> =
            (0..rows * width).map(|_| rng.uniform(-255.0, 255.0) as i16).collect();
        (x, w)
    }

    #[test]
    fn matches_reference_on_odd_shapes() {
        for &(rows, width) in &[(1usize, 8usize), (3, 16), (32, 128), (17, 40), (128, 8)] {
            let (x, w) = random_case(rows, width, 7 + rows as u64);
            let mut got = vec![0i32; width];
            let mut want = vec![0i32; width];
            accumulate_rows(&x, &w, width, &mut got);
            reference(&x, &w, width, &mut want);
            assert_eq!(got, want, "rows={rows} width={width}");
        }
    }

    #[test]
    fn accumulates_on_top_of_existing_values() {
        let (x, w) = random_case(16, 24, 11);
        let mut got: Vec<i32> = (0..24).map(|j| j * 1000).collect();
        let mut want = got.clone();
        accumulate_rows(&x, &w, 24, &mut got);
        reference(&x, &w, 24, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn split_row_blocks_sum_to_whole() {
        // Accumulating [0, 13) then [13, 32) must equal one [0, 32) pass:
        // the contract that lets callers chunk by row block freely.
        let (x, w) = random_case(32, 48, 13);
        let mut whole = vec![0i32; 48];
        accumulate_rows(&x, &w, 48, &mut whole);
        let mut split = vec![0i32; 48];
        accumulate_rows(&x[..13], &w[..13 * 48], 48, &mut split);
        accumulate_rows(&x[13..], &w[13 * 48..], 48, &mut split);
        assert_eq!(whole, split);
    }

    #[test]
    fn negative_codes_and_extremes() {
        let x = vec![255, 0, 1, 255];
        let w: Vec<i16> = vec![
            255, -255, 0, 1, -1, 127, -128, 255, //
            -255, 255, 0, -1, 1, -127, 128, -255, //
            0, 0, 0, 0, 0, 0, 0, 0, //
            255, 255, -255, -255, 1, -1, 0, 127,
        ];
        let mut got = vec![0i32; 8];
        let mut want = vec![0i32; 8];
        accumulate_rows(&x, &w, 8, &mut got);
        reference(&x, &w, 8, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn rejects_unpadded_width() {
        accumulate_rows(&[1], &[0i16; 7], 7, &mut [0i32; 7]);
    }

    #[test]
    fn x4_matches_four_single_calls() {
        // The blocked kernel must be bit-identical to four independent
        // single-row accumulations — the contract that lets the crossbar
        // layer mix a blocked main loop with a scalar batch remainder.
        for &(rows, width) in &[(1usize, 8usize), (17, 40), (32, 128), (128, 8)] {
            let (_, w) = random_case(rows, width, 31 + rows as u64);
            let xs: Vec<Vec<i32>> = (0..4)
                .map(|b| random_case(rows, width, 100 + b as u64).0)
                .collect();
            let mut got: Vec<i32> = (0..4 * width).map(|j| j as i32 * 3).collect();
            let mut want = got.clone();
            accumulate_rows_x4([&xs[0], &xs[1], &xs[2], &xs[3]], &w, width, &mut got);
            for b in 0..4 {
                accumulate_rows(&xs[b], &w, width, &mut want[b * width..(b + 1) * width]);
            }
            assert_eq!(got, want, "rows={rows} width={width}");
        }
    }

    #[test]
    #[should_panic(expected = "accumulator width")]
    fn x4_rejects_short_accumulator() {
        let x = [1i32];
        accumulate_rows_x4([&x, &x, &x, &x], &[0i16; 8], 8, &mut [0i32; 8]);
    }
}
