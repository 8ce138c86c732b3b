//! Matrix multiplication kernels.
//!
//! Three variants cover everything backprop needs: `A·B`, `Aᵀ·B`, and
//! `A·Bᵀ`. All three funnel into one cache-blocked, register-tiled GEMM:
//! an `MR`×`NR` register tile amortizes every load of the right-hand
//! operand across [`MR`] output rows. The micro-kernels read B one
//! `NR`-column panel at a time with a row stride: `NR` for a panel packed
//! contiguously, `n` for row-major B read in place. A row-major B is
//! packed only when each panel is reused by more than two row tiles
//! (`m > 2·MR`); a small batch — the 8-pattern checkup — reads it in
//! place and packs only the final partial panel. Large problems fan out
//! across the persistent [`crate::pool`] by row block.
//!
//! # Bit-exactness
//!
//! Each output element is produced by a single `f32` accumulator walking
//! the shared dimension in ascending order — exactly the naive triple
//! loop's order. Packing and tiling only change memory layout, never the
//! float operation order, so the blocked kernels are bit-identical to the
//! naive reference, and row-parallel execution is bit-identical at any
//! thread count (chunks own disjoint output rows). The kernels also make
//! no zero-skip shortcuts: `0.0 · NaN` and `0.0 · ∞` contribute `NaN` to
//! the accumulator exactly as IEEE 754 (and the naive loop) demand.

use crate::pool;
use crate::Tensor;
use healthmon_telemetry as tel;
use std::borrow::Cow;

// GEMM call and flop counts are per-work-item and thread-count-invariant
// (Stable); the chosen fan-out and per-block kernel dispatch counts vary
// with `HEALTHMON_THREADS` (Volatile).
static GEMM_CALLS: tel::Counter = tel::Counter::new("gemm.calls", tel::Stability::Stable);
static GEMM_FLOPS: tel::Counter = tel::Counter::new("gemm.flops", tel::Stability::Stable);
static GEMM_THREADS: tel::Histogram =
    tel::Histogram::new("gemm.threads", tel::Stability::Volatile);
static GEMM_BLOCKS_AVX: tel::Counter =
    tel::Counter::new("gemm.row_blocks.avx", tel::Stability::Volatile);
static GEMM_BLOCKS_SCALAR: tel::Counter =
    tel::Counter::new("gemm.row_blocks.scalar", tel::Stability::Volatile);
static MATVEC_CALLS: tel::Counter = tel::Counter::new("gemm.matvec_calls", tel::Stability::Stable);

/// Register-tile height: output rows carried per micro-kernel call.
const MR: usize = 4;
/// Register-tile width: output columns per packed panel.
const NR: usize = 8;

/// Below this many multiply-accumulates, threading costs more than it saves.
const PAR_THRESHOLD: usize = 1 << 18;

fn thread_count(rows: usize, work: usize) -> usize {
    if work < PAR_THRESHOLD {
        return 1;
    }
    pool::max_threads().min(rows).max(1)
}

/// Packs row-major `b` (`k×n`) from panel `first` on into column panels,
/// each laid out `[k][NR]` contiguously and zero-padded on the right in
/// the final panel.
fn pack_b(b: &[f32], k: usize, n: usize, first: usize) -> Vec<f32> {
    let n_panels = n.div_ceil(NR);
    let mut packed = vec![0.0f32; (n_panels - first) * k * NR];
    for pi in first..n_panels {
        let j0 = pi * NR;
        let w = NR.min(n - j0);
        let panel = &mut packed[(pi - first) * k * NR..(pi - first + 1) * k * NR];
        for p in 0..k {
            let src = &b[p * n + j0..p * n + j0 + w];
            panel[p * NR..p * NR + w].copy_from_slice(src);
        }
    }
    packed
}

/// Packs row-major `bt` (`n×k`, the transpose of the logical `k×n` B) into
/// the same panel layout as [`pack_b`]: panel `pi`, entry `[p][jj]` holds
/// `Bᵀ[j0+jj][p]`.
fn pack_bt(bt: &[f32], k: usize, n: usize) -> Vec<f32> {
    let n_panels = n.div_ceil(NR);
    let mut packed = vec![0.0f32; n_panels * k * NR];
    for pi in 0..n_panels {
        let j0 = pi * NR;
        let w = NR.min(n - j0);
        let panel = &mut packed[pi * k * NR..(pi + 1) * k * NR];
        for jj in 0..w {
            let row = &bt[(j0 + jj) * k..(j0 + jj + 1) * k];
            for (p, &v) in row.iter().enumerate() {
                panel[p * NR + jj] = v;
            }
        }
    }
    packed
}

/// The right-hand operand as the micro-kernels read it: one `NR`-column
/// panel at a time, as a slice plus the stride between its rows.
enum Panels<'a> {
    /// Every panel packed `[k][NR]`, back to back (see [`pack_b`]).
    Packed(Cow<'a, [f32]>),
    /// Row-major `k×n` B whose full panels are read in place at row
    /// stride `n`; `tail` is the final partial panel, packed.
    InPlace { b: &'a [f32], tail: Vec<f32> },
}

impl<'a> Panels<'a> {
    /// Panels of row-major `b` (`k×n`) for an `m`-row product. Packing
    /// copies all of B once so each panel streams contiguously; that pays
    /// only when a panel is reused by more than two `MR`-row tiles. The
    /// final partial panel is always packed, since reading `NR` columns
    /// of it in place would run past B's last column. An empty B (`k = 0`)
    /// has no rows to read in place.
    fn row_major(b: &'a [f32], m: usize, k: usize, n: usize) -> Self {
        if m > 2 * MR || k == 0 {
            Panels::Packed(Cow::Owned(pack_b(b, k, n, 0)))
        } else {
            Panels::InPlace { b, tail: pack_b(b, k, n, n / NR) }
        }
    }

    /// Panel `pi` (output columns from `pi·NR`) and its row stride.
    fn panel(&self, pi: usize, k: usize, n: usize) -> (&[f32], usize) {
        let (panel, ldb) = match self {
            Panels::Packed(p) => (&p[pi * k * NR..(pi + 1) * k * NR], NR),
            Panels::InPlace { b, .. } if (pi + 1) * NR <= n => (&b[pi * NR..], n),
            Panels::InPlace { tail, .. } => (tail.as_slice(), NR),
        };
        // The micro-kernels load `NR` floats at every `p·ldb`, p < k.
        assert!(k == 0 || (k - 1) * ldb + NR <= panel.len(), "GEMM panel out of bounds");
        (panel, ldb)
    }
}

/// Computes `ROWS` consecutive output rows against one panel of row
/// stride `ldb`.
///
/// Accumulates the full shared dimension in ascending order into a
/// `ROWS×NR` register tile, then stores the (possibly `w`-truncated)
/// result — one pass, one accumulator per output element.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_kernel<const ROWS: usize>(
    a: &[f32],
    k: usize,
    i: usize,
    (panel, ldb): (&[f32], usize),
    c: &mut [f32],
    n: usize,
    c_r0: usize,
    j0: usize,
    w: usize,
) {
    let mut acc = [[0.0f32; NR]; ROWS];
    for (ii, acc_row) in acc.iter_mut().enumerate() {
        let a_row = &a[(i + ii) * k..(i + ii + 1) * k];
        for (&a_ip, b_row) in a_row.iter().zip(panel.chunks(ldb)) {
            for (acc_v, &b_v) in acc_row.iter_mut().zip(&b_row[..NR]) {
                *acc_v += a_ip * b_v;
            }
        }
    }
    for (ii, acc_row) in acc.iter().enumerate() {
        let dst = &mut c[(i + ii - c_r0) * n + j0..(i + ii - c_r0) * n + j0 + w];
        dst.copy_from_slice(&acc_row[..w]);
    }
}

/// AVX micro-kernels: the same `MR`×`NR` tile walked in the same
/// ascending-k order, with each output element in its own vector lane —
/// explicit 256-bit `mul` + `add` (never fused), so every lane performs
/// the identical IEEE 754 operation sequence as the portable kernel and
/// results stay bit-identical across the dispatch boundary. Callers
/// guarantee `(k-1)·ldb + NR <= panel.len()` ([`Panels::panel`]).
#[cfg(target_arch = "x86_64")]
mod avx {
    use super::{MR, NR};
    use core::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_broadcast_ss, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_setzero_ps, _mm256_storeu_ps,
    };

    /// Stores one accumulator row into `w` output columns.
    #[target_feature(enable = "avx")]
    unsafe fn store_row(acc: __m256, dst: &mut [f32], w: usize) {
        if w == NR {
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), acc) };
        } else {
            let mut buf = [0.0f32; NR];
            unsafe { _mm256_storeu_ps(buf.as_mut_ptr(), acc) };
            dst[..w].copy_from_slice(&buf[..w]);
        }
    }

    /// `MR`-row AVX tile: callers guarantee rows `i..i+MR` exist.
    #[target_feature(enable = "avx")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn tile_mr(
        a: &[f32],
        k: usize,
        i: usize,
        (panel, ldb): (&[f32], usize),
        c: &mut [f32],
        n: usize,
        c_r0: usize,
        j0: usize,
        w: usize,
    ) {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        for p in 0..k {
            unsafe {
                let b_v = _mm256_loadu_ps(panel.as_ptr().add(p * ldb));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(&a0[p]), b_v));
                acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(&a1[p]), b_v));
                acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(&a2[p]), b_v));
                acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(&a3[p]), b_v));
            }
        }
        for (ii, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
            let row0 = (i + ii - c_r0) * n + j0;
            unsafe { store_row(acc, &mut c[row0..row0 + w], w) };
        }
    }

    /// Single-row AVX tile for the `m % MR` remainder rows.
    #[target_feature(enable = "avx")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn tile_1(
        a: &[f32],
        k: usize,
        i: usize,
        (panel, ldb): (&[f32], usize),
        c: &mut [f32],
        n: usize,
        c_r0: usize,
        j0: usize,
        w: usize,
    ) {
        let a0 = &a[i * k..(i + 1) * k];
        let mut acc0 = _mm256_setzero_ps();
        #[allow(clippy::needless_range_loop)] // `p` also strides the raw panel pointer
        for p in 0..k {
            unsafe {
                let b_v = _mm256_loadu_ps(panel.as_ptr().add(p * ldb));
                acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(&a0[p]), b_v));
            }
        }
        let row0 = (i - c_r0) * n + j0;
        unsafe { store_row(acc0, &mut c[row0..row0 + w], w) };
    }

    const _: () = assert!(MR == 4 && NR == 8, "AVX tiles are written for a 4x8 register block");
}

/// Sequential GEMM for output rows `[r0, r1)`: `c` holds those rows only
/// (`(r1-r0)×n`), `a` is the full `m×k` left operand, `panels` the full
/// right operand.
fn gemm_rows(a: &[f32], panels: &Panels, c: &mut [f32], r0: usize, r1: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::avx() {
        GEMM_BLOCKS_AVX.inc();
        // SAFETY: `cpu::avx()` verified CPU support; `Panels::panel`
        // checks the bound the tiles' unchecked loads rely on.
        unsafe { gemm_rows_avx(a, panels, c, r0, r1, k, n) };
        return;
    }
    GEMM_BLOCKS_SCALAR.inc();
    for pi in 0..n.div_ceil(NR) {
        let j0 = pi * NR;
        let w = NR.min(n - j0);
        let panel = panels.panel(pi, k, n);
        let mut i = r0;
        while i + MR <= r1 {
            micro_kernel::<MR>(a, k, i, panel, c, n, r0, j0, w);
            i += MR;
        }
        while i < r1 {
            micro_kernel::<1>(a, k, i, panel, c, n, r0, j0, w);
            i += 1;
        }
    }
}

/// [`gemm_rows`] walking the same tiles through the AVX micro-kernels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn gemm_rows_avx(
    a: &[f32],
    panels: &Panels,
    c: &mut [f32],
    r0: usize,
    r1: usize,
    k: usize,
    n: usize,
) {
    for pi in 0..n.div_ceil(NR) {
        let j0 = pi * NR;
        let w = NR.min(n - j0);
        let panel = panels.panel(pi, k, n);
        let mut i = r0;
        while i + MR <= r1 {
            unsafe { avx::tile_mr(a, k, i, panel, c, n, r0, j0, w) };
            i += MR;
        }
        while i < r1 {
            unsafe { avx::tile_1(a, k, i, panel, c, n, r0, j0, w) };
            i += 1;
        }
    }
}

/// Shared driver: packs nothing itself — callers pass the right operand's
/// panels — and splits output rows across the pool in `MR`-aligned chunks
/// when `threads > 1`.
fn gemm_driver(
    a: &[f32],
    panels: &Panels,
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    if m * n == 0 {
        return out;
    }
    GEMM_CALLS.inc();
    GEMM_FLOPS.add(2 * (m * k * n) as u64);
    let threads = threads.clamp(1, m);
    GEMM_THREADS.record(threads as u64);
    if threads <= 1 {
        gemm_rows(a, panels, &mut out, 0, m, k, n);
    } else {
        let rows_per = m.div_ceil(threads).next_multiple_of(MR);
        pool::run_chunks(&mut out, rows_per * n, |ci, chunk| {
            let r0 = ci * rows_per;
            let r1 = (r0 + rows_per).min(m);
            gemm_rows(a, panels, chunk, r0, r1, k, n);
        });
    }
    out
}

/// A right-hand GEMM operand packed once into `NR`-column panels for
/// reuse across many products.
///
/// [`Tensor::matmul`] re-packs its right operand on every call with more
/// than `2·MR` rows — an `O(k·n)` allocate-and-copy that is pure overhead
/// when the same matrix multiplies a stream of inputs (the crossbar
/// layer's differential conductances, reused for every inference batch),
/// and reads it unpacked at a strided row pitch otherwise. Packing once with
/// [`PackedB::pack`] and multiplying with [`Tensor::matmul_prepacked`]
/// skips that cost while producing bit-identical results: packing only
/// changes memory layout, never the float operation order.
#[derive(Debug, Clone)]
pub struct PackedB {
    packed: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs a 2-D `k×n` tensor into panel layout.
    ///
    /// # Panics
    ///
    /// Panics if `b` is not 2-D.
    pub fn pack(b: &Tensor) -> PackedB {
        assert_eq!(b.ndim(), 2, "PackedB operand must be 2-D, got {:?}", b.shape());
        let (k, n) = (b.shape()[0], b.shape()[1]);
        PackedB { packed: pack_b(b.as_slice(), k, n, 0), k, n }
    }

    /// Shared dimension (rows of the packed matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns (columns of the packed matrix).
    pub fn n(&self) -> usize {
        self.n
    }
}

impl Tensor {
    /// Matrix product `self · rhs` for 2-D tensors (`m×k` times `k×n`).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let threads = if self.ndim() == 2 && rhs.ndim() == 2 {
            let (m, k) = (self.shape()[0], self.shape()[1]);
            thread_count(m, m * k * rhs.shape()[1])
        } else {
            1 // shape asserts below produce the real error
        };
        self.matmul_with_threads(rhs, threads)
    }

    /// [`Tensor::matmul`] with an explicit thread count (clamped to
    /// `[1, m]`) — for determinism tests and callers that must bound their
    /// parallelism. Results are bit-identical at any thread count.
    pub fn matmul_with_threads(&self, rhs: &Tensor, threads: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul lhs must be 2-D, got {:?}", self.shape());
        assert_eq!(rhs.ndim(), 2, "matmul rhs must be 2-D, got {:?}", rhs.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let panels = Panels::row_major(rhs.as_slice(), m, k, n);
        let out = gemm_driver(self.as_slice(), &panels, m, k, n, threads);
        Tensor::from_vec(out, &[m, n]).expect("matmul output shape is consistent by construction")
    }

    /// Matrix product `self · rhs` against a pre-packed right operand —
    /// bit-identical to `self.matmul(rhs)` with the packing cost paid
    /// once at [`PackedB::pack`] time instead of per call.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or its column count differs from
    /// `rhs.k()`.
    pub fn matmul_prepacked(&self, rhs: &PackedB) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_prepacked lhs must be 2-D, got {:?}", self.shape());
        let (m, k) = (self.shape()[0], self.shape()[1]);
        assert_eq!(k, rhs.k, "matmul_prepacked inner dimension mismatch: {k} vs {}", rhs.k);
        let threads = thread_count(m, m * k * rhs.n);
        let panels = Panels::Packed(Cow::Borrowed(&rhs.packed));
        let out = gemm_driver(self.as_slice(), &panels, m, k, rhs.n, threads);
        Tensor::from_vec(out, &[m, rhs.n])
            .expect("matmul_prepacked output shape is consistent by construction")
    }

    /// Matrix product `selfᵀ · rhs` (`k×m`ᵀ times `k×n` → `m×n`).
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_at(&self, rhs: &Tensor) -> Tensor {
        let threads = if self.ndim() == 2 && rhs.ndim() == 2 {
            let (k, m) = (self.shape()[0], self.shape()[1]);
            thread_count(m, m * k * rhs.shape()[1])
        } else {
            1
        };
        self.matmul_at_with_threads(rhs, threads)
    }

    /// [`Tensor::matmul_at`] with an explicit thread count; bit-identical
    /// at any thread count.
    pub fn matmul_at_with_threads(&self, rhs: &Tensor, threads: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_at lhs must be 2-D");
        assert_eq!(rhs.ndim(), 2, "matmul_at rhs must be 2-D");
        let (k, m) = (self.shape()[0], self.shape()[1]);
        let (k2, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(k, k2, "matmul_at shared dimension mismatch: {k} vs {k2}");
        // Materializing the m×k transpose costs O(mk) — negligible next to
        // the O(mkn) product — and buys the contiguous-row fast path.
        let at = self.transpose();
        let panels = Panels::row_major(rhs.as_slice(), m, k, n);
        let out = gemm_driver(at.as_slice(), &panels, m, k, n, threads);
        Tensor::from_vec(out, &[m, n]).expect("matmul_at output shape is consistent")
    }

    /// Matrix product `self · rhsᵀ` (`m×k` times `n×k`ᵀ → `m×n`) without
    /// materializing the transpose: packing transposes on the fly.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the shared dimension differs.
    pub fn matmul_bt(&self, rhs: &Tensor) -> Tensor {
        let threads = if self.ndim() == 2 && rhs.ndim() == 2 {
            let (m, k) = (self.shape()[0], self.shape()[1]);
            thread_count(m, m * k * rhs.shape()[0])
        } else {
            1
        };
        self.matmul_bt_with_threads(rhs, threads)
    }

    /// [`Tensor::matmul_bt`] with an explicit thread count; bit-identical
    /// at any thread count.
    pub fn matmul_bt_with_threads(&self, rhs: &Tensor, threads: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "matmul_bt lhs must be 2-D");
        assert_eq!(rhs.ndim(), 2, "matmul_bt rhs must be 2-D");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        let (n, k2) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(k, k2, "matmul_bt shared dimension mismatch: {k} vs {k2}");
        let panels = Panels::Packed(Cow::Owned(pack_bt(rhs.as_slice(), k, n)));
        let out = gemm_driver(self.as_slice(), &panels, m, k, n, threads);
        Tensor::from_vec(out, &[m, n]).expect("matmul_bt output shape is consistent")
    }

    /// Matrix–vector product `self · v` for a 2-D tensor and 1-D vector.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D, `v` is not 1-D, or dimensions mismatch.
    pub fn matvec(&self, v: &Tensor) -> Tensor {
        assert_eq!(self.ndim(), 2, "matvec matrix must be 2-D");
        assert_eq!(v.ndim(), 1, "matvec vector must be 1-D");
        let (m, k) = (self.shape()[0], self.shape()[1]);
        assert_eq!(k, v.len(), "matvec dimension mismatch: {k} vs {}", v.len());
        MATVEC_CALLS.inc();
        let a = self.as_slice();
        let x = v.as_slice();
        let mut out = vec![0.0f32; m];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &a[i * k..(i + 1) * k];
            *o = row.iter().zip(x).map(|(&a, &b)| a * b).sum();
        }
        Tensor::from_vec(out, &[m]).expect("matvec output shape is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeededRng;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a.at(&[i, p]) * b.at(&[p, j]);
                }
                *out.at_mut(&[i, j]) = acc;
            }
        }
        out
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() <= tol, "mismatch: {x} vs {y}");
        }
    }

    fn assert_bit_identical(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}: shapes differ");
        for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
        }
    }

    /// Odd shapes that exercise every tiling edge: unit, tall/skinny,
    /// wide, and non-multiples of both MR and NR.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 5, 2),
        (7, 4, 9),
        (16, 16, 16),
        (1, 37, 65),
        (65, 1, 7),
        (13, 29, 1),
        (33, 17, 41),
    ];

    #[test]
    fn matmul_hand_example() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let mut rng = SeededRng::new(3);
        let a = Tensor::randn(&[4, 4], &mut rng);
        let mut eye = Tensor::zeros(&[4, 4]);
        for i in 0..4 {
            *eye.at_mut(&[i, i]) = 1.0;
        }
        assert_close(&a.matmul(&eye), &a, 1e-6);
        assert_close(&eye.matmul(&a), &a, 1e-6);
    }

    #[test]
    fn matmul_bit_identical_to_naive() {
        let mut rng = SeededRng::new(11);
        for &(m, k, n) in SHAPES {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            assert_bit_identical(&a.matmul(&b), &naive_matmul(&a, &b), "matmul");
        }
    }

    #[test]
    fn matmul_at_bit_identical_to_naive() {
        let mut rng = SeededRng::new(17);
        for &(m, k, n) in SHAPES {
            let a = Tensor::randn(&[k, m], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            assert_bit_identical(
                &a.matmul_at(&b),
                &naive_matmul(&a.transpose(), &b),
                "matmul_at",
            );
        }
    }

    #[test]
    fn matmul_bt_bit_identical_to_naive() {
        let mut rng = SeededRng::new(19);
        for &(m, k, n) in SHAPES {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[n, k], &mut rng);
            assert_bit_identical(
                &a.matmul_bt(&b),
                &naive_matmul(&a, &b.transpose()),
                "matmul_bt",
            );
        }
    }

    #[test]
    fn matmul_thread_count_does_not_change_bits() {
        let mut rng = SeededRng::new(13);
        for &(m, k, n) in &[(33, 17, 41), (96, 96, 96), (5, 64, 3)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let one = a.matmul_with_threads(&b, 1);
            for threads in [2, 7] {
                assert_bit_identical(
                    &one,
                    &a.matmul_with_threads(&b, threads),
                    "matmul across thread counts",
                );
            }
            let bt = Tensor::randn(&[n, k], &mut rng);
            let one_bt = a.matmul_bt_with_threads(&bt, 1);
            let at = Tensor::randn(&[k, m], &mut rng);
            let one_at = at.matmul_at_with_threads(&b, 1);
            for threads in [2, 7] {
                assert_bit_identical(
                    &one_bt,
                    &a.matmul_bt_with_threads(&bt, threads),
                    "matmul_bt across thread counts",
                );
                assert_bit_identical(
                    &one_at,
                    &at.matmul_at_with_threads(&b, threads),
                    "matmul_at across thread counts",
                );
            }
        }
    }

    #[test]
    fn matmul_prepacked_bit_identical_to_matmul() {
        let mut rng = SeededRng::new(23);
        for &(m, k, n) in SHAPES {
            let a = Tensor::randn(&[m, k], &mut rng);
            let b = Tensor::randn(&[k, n], &mut rng);
            let packed = PackedB::pack(&b);
            assert_eq!((packed.k(), packed.n()), (k, n));
            assert_bit_identical(&a.matmul_prepacked(&packed), &a.matmul(&b), "prepacked");
        }
        // Cross PAR_THRESHOLD so the pooled path is exercised too.
        let a = Tensor::randn(&[96, 96], &mut rng);
        let b = Tensor::randn(&[96, 96], &mut rng);
        assert_bit_identical(
            &a.matmul_prepacked(&PackedB::pack(&b)),
            &a.matmul(&b),
            "prepacked parallel",
        );
    }

    /// Small batches read B in place (`m <= 2·MR`) and pack only its
    /// final partial panel; one row past that, B is packed. Both sides of
    /// the switch, every panel-width edge and the checkup's 784-deep
    /// first layer, at several thread counts.
    #[test]
    fn pack_free_small_batch_matches_naive() {
        let mut rng = SeededRng::new(29);
        for k in [1, 3, 784] {
            for n in [1, 7, 8, 9, 10, 64, 65] {
                let b = Tensor::randn(&[k, n], &mut rng);
                for m in 1..=9 {
                    let a = Tensor::randn(&[m, k], &mut rng);
                    let want = naive_matmul(&a, &b);
                    let at = a.transpose();
                    for threads in [1, 2, 7] {
                        let what = format!("m {m} k {k} n {n} threads {threads}");
                        assert_bit_identical(&a.matmul_with_threads(&b, threads), &want, &what);
                        assert_bit_identical(
                            &at.matmul_at_with_threads(&b, threads),
                            &want,
                            &format!("matmul_at {what}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_parallel_path_matches_naive() {
        // Large enough to cross PAR_THRESHOLD (work = 96*96*96 ≈ 885k).
        let mut rng = SeededRng::new(13);
        let a = Tensor::randn(&[96, 96], &mut rng);
        let b = Tensor::randn(&[96, 96], &mut rng);
        assert_bit_identical(&a.matmul(&b), &naive_matmul(&a, &b), "parallel matmul");
    }

    #[test]
    fn matmul_propagates_nan_through_zero() {
        // The seed kernel skipped a_ip == 0.0 rows, silently dropping the
        // IEEE-mandated NaN from 0·NaN and 0·∞. The blocked kernel must
        // propagate it, exactly like the naive reference.
        let a = Tensor::from_vec(vec![0.0, 1.0], &[1, 2]).unwrap();
        let b = Tensor::from_vec(vec![f32::NAN, 2.0], &[2, 1]).unwrap();
        assert!(a.matmul(&b).as_slice()[0].is_nan(), "0·NaN must yield NaN");
        let binf = Tensor::from_vec(vec![f32::INFINITY, 2.0], &[2, 1]).unwrap();
        assert!(a.matmul(&binf).as_slice()[0].is_nan(), "0·∞ must yield NaN");
        // matmul_at reads the same values through the transposed layout.
        let at = Tensor::from_vec(vec![0.0, 1.0], &[2, 1]).unwrap();
        assert!(at.matmul_at(&b).as_slice()[0].is_nan(), "matmul_at must propagate NaN");
        let bt = Tensor::from_vec(vec![f32::NAN, 2.0], &[1, 2]).unwrap();
        assert!(a.matmul_bt(&bt).as_slice()[0].is_nan(), "matmul_bt must propagate NaN");
    }

    #[test]
    fn matmul_at_equals_explicit_transpose() {
        let mut rng = SeededRng::new(5);
        let a = Tensor::randn(&[6, 3], &mut rng);
        let b = Tensor::randn(&[6, 4], &mut rng);
        assert_close(&a.matmul_at(&b), &a.transpose().matmul(&b), 1e-4);
    }

    #[test]
    fn matmul_bt_equals_explicit_transpose() {
        let mut rng = SeededRng::new(6);
        let a = Tensor::randn(&[5, 3], &mut rng);
        let b = Tensor::randn(&[7, 3], &mut rng);
        assert_close(&a.matmul_bt(&b), &a.matmul(&b.transpose()), 1e-4);
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = SeededRng::new(8);
        let a = Tensor::randn(&[4, 6], &mut rng);
        let v = Tensor::randn(&[6], &mut rng);
        let via_matmul = a.matmul(&v.reshape(&[6, 1]).unwrap());
        let direct = a.matvec(&v);
        for i in 0..4 {
            assert!((direct.as_slice()[i] - via_matmul.as_slice()[i]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_rejects_mismatch() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[4, 2]));
    }
}
