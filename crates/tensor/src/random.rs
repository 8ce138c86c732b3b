//! Deterministic random source for the whole workspace.
//!
//! Every stochastic component — weight init, dataset synthesis, fault
//! injection, O-TP seeding — draws from a [`SeededRng`], so any experiment
//! is exactly reproducible from the seeds recorded in its report.
//!
//! The generator is an in-tree xoshiro256++ seeded through SplitMix64:
//! no registry dependency, identical streams on every platform, and fast
//! enough that fault-campaign cloning dominates, not sampling.

use std::sync::OnceLock;

/// A seeded pseudo-random number generator with the samplers the ReRAM
/// error models need.
///
/// Core stream: xoshiro256++ (Blackman & Vigna), state expanded from a
/// 64-bit seed with SplitMix64. On top of the raw stream it provides
/// Box–Muller normal / lognormal sampling for the paper's error models.
///
/// # Example
///
/// ```
/// use healthmon_tensor::SeededRng;
///
/// let mut rng = SeededRng::new(1234);
/// let theta = rng.normal(0.0, 0.1);
/// assert!(theta.is_finite());
/// // lognormal multiplicative weight error, as in w' = w * e^theta
/// let factor = rng.lognormal(0.0, 0.1);
/// assert!(factor > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f32>,
}

/// Pairs of Box–Muller variates computed per block by
/// [`SeededRng::apply_normal`]; sized so a block lives comfortably in L1.
const BM_BLOCK: usize = 64;

/// One Box–Muller pair from two raw 64-bit draws, on the fast polynomial
/// transcendentals. `u1 ∈ (0, 1]` (so `ln` never sees zero) and
/// `u2 ∈ [0, 1)`.
#[inline(always)]
fn box_muller(u_a: u64, u_b: u64) -> (f32, f32) {
    let u1 = ((u_a >> 40) as f32 + 1.0) * U24_SCALE;
    let u2 = (u_b >> 40) as f32 * U24_SCALE;
    let r = (-2.0 * crate::fastmath::ln(u1)).sqrt();
    let (s, c) = crate::fastmath::sincos_2pi(u2);
    (r * c, r * s)
}

/// Maps the top 24 bits of a raw draw onto `[0, 1)`.
const U24_SCALE: f32 = 1.0 / (1u64 << 24) as f32;

/// The Box–Muller transform of one full block of uniforms, `u1 ∈ (0, 1]`
/// and `u2 ∈ [0, 1)`: cosine halves into `out[..BM_BLOCK]`, sine halves
/// into `out[BM_BLOCK..]`. Pure float math, which LLVM vectorizes.
#[inline(always)]
fn box_muller_math(
    u1: &[f32; BM_BLOCK],
    u2: &[f32; BM_BLOCK],
    out: &mut [f32; 2 * BM_BLOCK],
    mean: f32,
    std_dev: f32,
) {
    let (lo, hi) = out.split_at_mut(BM_BLOCK);
    for i in 0..BM_BLOCK {
        let r = (-2.0 * crate::fastmath::ln(u1[i])).sqrt();
        let (s, c) = crate::fastmath::sincos_2pi(u2[i]);
        lo[i] = mean + std_dev * (r * c);
        hi[i] = mean + std_dev * (r * s);
    }
}

/// Full blocks below which [`SeededRng::apply_normal`] stays serial on
/// AVX2. Placing the lanes costs about 1.5 µs of jumping; measured on a
/// lognormal update, the lanes break even near 8 blocks and are 1.2×
/// faster at 16.
const LANE_MIN_BLOCKS: usize = 16;

/// A position in the concatenated planes of [`SeededRng::apply_normal`].
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    plane: usize,
    offset: usize,
}

impl Cursor {
    /// The cursor `pos` elements into the concatenated `planes`.
    fn at(planes: &[&mut [f32]], mut pos: usize) -> Cursor {
        let mut plane = 0;
        while plane < planes.len() && pos >= planes[plane].len() {
            pos -= planes[plane].len();
            plane += 1;
        }
        Cursor { plane, offset: pos }
    }

    /// Elements from the cursor to the end of `planes`.
    fn remaining(&self, planes: &[&mut [f32]]) -> usize {
        let rest = planes.get(self.plane..).unwrap_or_default();
        rest.iter().map(|p| p.len()).sum::<usize>() - self.offset
    }

    /// Applies `update` to the next `z.len()` elements, pairing them with
    /// `z` in order, and moves past them.
    #[inline(always)]
    fn feed<F: FnMut(&mut f32, f32)>(
        &mut self,
        planes: &mut [&mut [f32]],
        mut z: &[f32],
        update: &mut F,
    ) {
        while !z.is_empty() {
            let dst = &mut planes[self.plane][self.offset..];
            let k = dst.len().min(z.len());
            for (x, &v) in dst[..k].iter_mut().zip(&z[..k]) {
                update(x, v);
            }
            z = &z[k..];
            self.offset += k;
            if self.offset == planes[self.plane].len() {
                self.plane += 1;
                self.offset = 0;
            }
        }
    }
}

/// A polynomial over GF(2) of degree below 256: bit `i % 64` of word
/// `i / 64` is the coefficient of `x^i`.
type Poly = [u64; 4];

/// The characteristic polynomial `P(x) = x^256 + …` of xoshiro256's
/// linear state transition, without its leading term. Reduced mod `P`,
/// `x^(2^128)` and `x^(2^192)` are the reference implementation's `JUMP`
/// and `LONG_JUMP` constants; a test pins both.
const CHAR_POLY: Poly = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// `a · b mod P`.
fn poly_mulmod(a: &Poly, b: &Poly) -> Poly {
    let mut acc = [0u64; 4];
    for i in (0..256).rev() {
        // acc ← acc · x mod P, then + a where b has x^i.
        let reduce = 0u64.wrapping_sub(acc[3] >> 63);
        let add = 0u64.wrapping_sub((b[i / 64] >> (i % 64)) & 1);
        acc = [
            acc[0] << 1,
            (acc[1] << 1) | (acc[0] >> 63),
            (acc[2] << 1) | (acc[1] >> 63),
            (acc[3] << 1) | (acc[2] >> 63),
        ];
        for w in 0..4 {
            acc[w] ^= (CHAR_POLY[w] & reduce) ^ (a[w] & add);
        }
    }
    acc
}

/// `x^(128·blocks) mod P`, the jump over `blocks` full sample blocks: a
/// product of the powers `x^(128·2^j)`, tabulated once per process.
fn block_jump(blocks: usize) -> Poly {
    static TABLE: OnceLock<[Poly; usize::BITS as usize]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [[0; 4]; usize::BITS as usize];
        table[0] = [0, 0, 1, 0]; // x^128
        for j in 1..table.len() {
            table[j] = poly_mulmod(&table[j - 1], &table[j - 1]);
        }
        table
    });
    let mut poly: Option<Poly> = None;
    for (j, power) in table.iter().enumerate() {
        if (blocks >> j) & 1 == 1 {
            poly = Some(poly.map_or(*power, |p| poly_mulmod(&p, power)));
        }
    }
    poly.unwrap_or([1, 0, 0, 0])
}

/// Four xoshiro256++ generators stepped side by side, one in each 64-bit
/// lane of an AVX2 register. Add, xor and shifts act lane-wise, so each
/// lane computes exactly the serial generator's outputs.
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::{BM_BLOCK, U24_SCALE};
    use core::arch::x86_64::*;

    /// Generators per register.
    pub const LANES: usize = 4;

    /// Word-major state: `self.0[w]` holds word `w` of every lane.
    pub struct Lanes([__m256i; 4]);

    #[inline]
    #[target_feature(enable = "avx2")]
    fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi64::<L>(x), _mm256_srli_epi64::<R>(x))
    }

    impl Lanes {
        #[target_feature(enable = "avx2")]
        pub fn new(states: &[[u64; 4]; LANES]) -> Lanes {
            Lanes(core::array::from_fn(|w| {
                let [a, b, c, d] = states.map(|s| s[w] as i64);
                _mm256_setr_epi64x(a, b, c, d)
            }))
        }

        /// The last lane's state.
        #[target_feature(enable = "avx2")]
        pub fn last_state(&self) -> [u64; 4] {
            self.0.map(|w| _mm256_extract_epi64::<3>(w) as u64)
        }

        /// One xoshiro256++ step in every lane; returns the four outputs.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn next(&mut self) -> __m256i {
            let [s0, s1, s2, s3] = self.0;
            let result = _mm256_add_epi64(rotl::<23, 41>(_mm256_add_epi64(s0, s3)), s0);
            let t = _mm256_slli_epi64::<17>(s1);
            let s2 = _mm256_xor_si256(s2, s0);
            let s3 = _mm256_xor_si256(s3, s1);
            let s1 = _mm256_xor_si256(s1, s2);
            let s0 = _mm256_xor_si256(s0, s3);
            self.0 = [s0, s1, _mm256_xor_si256(s2, t), rotl::<45, 19>(s3)];
            result
        }

        /// One full block of uniforms per lane, converted exactly as the
        /// serial loop converts them: `u[0][q][i]` (`u1`) and `u[1][q][i]`
        /// (`u2`) come from lane `q`'s draws `2i` and `2i + 1`.
        #[target_feature(enable = "avx2")]
        pub fn draw_blocks(&mut self, u: &mut [[[f32; BM_BLOCK]; LANES]; 2]) {
            let (one, scale) = (_mm256_set1_ps(1.0), _mm256_set1_ps(U24_SCALE));
            let high = _mm256_set1_epi64x(0x00ff_ffff_0000_0000);
            for i in (0..BM_BLOCK).step_by(4) {
                let d: [__m256i; 8] = core::array::from_fn(|_| self.next());
                for (h, dst) in u.iter_mut().enumerate() {
                    // Top 24 bits of four draws per lane, two per 64-bit
                    // lane; unpacking makes each lane's four contiguous:
                    // lanes 0 and 2 in `lo`'s halves, 1 and 3 in `hi`'s.
                    let pack = |x, y| {
                        let y = _mm256_and_si256(_mm256_srli_epi64::<8>(y), high);
                        _mm256_or_si256(_mm256_srli_epi64::<40>(x), y)
                    };
                    let (ab, cd) = (pack(d[h], d[h + 2]), pack(d[h + 4], d[h + 6]));
                    let (lo, hi) = (_mm256_unpacklo_epi64(ab, cd), _mm256_unpackhi_epi64(ab, cd));
                    for (v, lanes) in [(lo, [0, 2]), (hi, [1, 3])] {
                        // Exact int→float (below 2^24), then (+ 1.0 for
                        // u1) · scale, as in the serial loop.
                        let v = _mm256_cvtepi32_ps(v);
                        let v = if h == 0 { _mm256_add_ps(v, one) } else { v };
                        let v = _mm256_mul_ps(v, scale);
                        let halves = [_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v)];
                        for (lane, half) in lanes.into_iter().zip(halves) {
                            let out = &mut dst[lane][i..i + 4];
                            // SAFETY: `out` holds exactly four floats.
                            unsafe { _mm_storeu_ps(out.as_mut_ptr(), half) };
                        }
                    }
                }
            }
        }
    }
}

/// One SplitMix64 step; used to expand seeds and mix fork streams.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SeededRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 expansion guarantees a non-zero xoshiro state for
        // every seed (the all-zero state is a fixed point of xoshiro).
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SeededRng { state, spare_normal: None }
    }

    /// Next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Derives an independent child generator; used to give each fault
    /// model or worker its own stream while keeping the parent stream
    /// untouched by how much the child consumes.
    pub fn fork(&mut self, stream: u64) -> SeededRng {
        let base = self.next_u64();
        // SplitMix-style mixing of the stream id into the forked seed.
        let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SeededRng::new(z ^ (z >> 31))
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform bounds inverted: [{lo}, {hi})");
        lo + (hi - lo) * self.unit()
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f32 {
        // 24 high bits -> all f32 values in [0, 1) are equally likely and
        // exactly representable.
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform `f64` sample in `[0, 1)`.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift range reduction; bias is < n / 2^64,
        // negligible for every n this workspace uses.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        self.unit_f64() < p
    }

    /// Normal sample with the given mean and standard deviation
    /// (Box–Muller; the spare variate is cached).
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    pub fn normal(&mut self, mean: f32, std_dev: f32) -> f32 {
        assert!(std_dev >= 0.0, "negative standard deviation {std_dev}");
        let z = if let Some(z) = self.spare_normal.take() {
            z
        } else {
            // Box–Muller: two uniforms -> two independent standard normals.
            let u1: f32 = loop {
                let u = self.unit();
                if u > f32::MIN_POSITIVE {
                    break u;
                }
            };
            let u2: f32 = self.unit();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            self.spare_normal = Some(r * theta.sin());
            r * theta.cos()
        };
        mean + std_dev * z
    }

    /// Lognormal sample `e^N(mu, sigma^2)`, the multiplicative factor of the
    /// paper's programming-variation error model `w' = w * e^theta`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn lognormal(&mut self, mu: f32, sigma: f32) -> f32 {
        self.normal(mu, sigma).exp()
    }

    /// Draws one independent `N(mean, std_dev²)` sample `z` per element
    /// `x` of `planes`, taken in order as one concatenated stream, and
    /// applies `update(x, z)` to every element once, in an unspecified
    /// order. This is the bulk sampler of the per-weight and per-cell
    /// error models. Samples are made 128 at a time and consumed while
    /// still in L1, so callers keep no scratch buffer.
    ///
    /// A full block is 64 Box–Muller pairs, two raw draws each, cosine
    /// halves first; a shorter last block is filled pair by pair, and an
    /// odd length drops the last sine half. The transform uses
    /// [`crate::fastmath`], so values differ from [`SeededRng::normal`]
    /// in the last ulps and in draw order; the stream depends only on the
    /// seed and the total length, and leaves the scalar sampler's spare
    /// variate alone. CPUs with AVX2 run a copy compiled for 256-bit
    /// vectors that performs the same unfused IEEE operations per
    /// element, and on long streams splits the full blocks into
    /// contiguous segments whose generators, placed by jump polynomials,
    /// step side by side in vector lanes; results are bit-identical on
    /// every CPU, and the generator ends at the same state.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev < 0`.
    ///
    /// # Example
    ///
    /// ```
    /// use healthmon_tensor::{fastmath, SeededRng};
    ///
    /// // Lognormal multiplicative noise w' = w · e^θ, θ ~ N(0, 0.1²).
    /// let mut weights = vec![0.5f32; 300];
    /// SeededRng::new(7).apply_normal(&mut [&mut weights], 0.0, 0.1, |w, z| {
    ///     *w *= fastmath::exp(z);
    /// });
    /// assert!(weights.iter().all(|&w| w > 0.0 && w != 0.5));
    /// ```
    pub fn apply_normal<F: FnMut(&mut f32, f32)>(
        &mut self,
        planes: &mut [&mut [f32]],
        mean: f32,
        std_dev: f32,
        update: F,
    ) {
        assert!(std_dev >= 0.0, "negative standard deviation {std_dev}");
        #[cfg(target_arch = "x86_64")]
        if crate::cpu::avx2() {
            // SAFETY: `cpu::avx2()` verified CPU support.
            unsafe { self.apply_normal_avx2(planes, mean, std_dev, update) };
            return;
        }
        self.apply_normal_body(planes, mean, std_dev, update);
    }

    /// [`SeededRng::apply_normal`] compiled for AVX2 (no FMA). A stream of
    /// at least `LANE_MIN_BLOCKS` full blocks runs its first
    /// `LANES·⌊blocks/LANES⌋` blocks through [`SeededRng::lane_blocks`],
    /// the rest serially.
    ///
    /// # Safety
    ///
    /// The running CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn apply_normal_avx2<F: FnMut(&mut f32, f32)>(
        &mut self,
        planes: &mut [&mut [f32]],
        mean: f32,
        std_dev: f32,
        mut update: F,
    ) {
        let blocks = planes.iter().map(|p| p.len()).sum::<usize>() / (2 * BM_BLOCK);
        let cursor = if blocks >= LANE_MIN_BLOCKS {
            self.lane_blocks(planes, blocks / lanes::LANES, mean, std_dev, &mut update)
        } else {
            Cursor::default()
        };
        self.serial_normal(planes, cursor, mean, std_dev, &mut update);
    }

    /// The portable sampler: the whole stream serially.
    #[inline(always)]
    fn apply_normal_body<F: FnMut(&mut f32, f32)>(
        &mut self,
        planes: &mut [&mut [f32]],
        mean: f32,
        std_dev: f32,
        mut update: F,
    ) {
        self.serial_normal(planes, Cursor::default(), mean, std_dev, &mut update);
    }

    /// Applies the first `LANES·per_lane` full blocks of the stream as
    /// `LANES` contiguous segments of `per_lane` blocks, one per vector
    /// lane. Lane `q` starts `q·per_lane` blocks into the stream, a jump
    /// of `x^(128·per_lane)` from lane `q - 1`; each lane's block goes
    /// through the same Box–Muller math and update loop as a serial
    /// block. Leaves the generator where the last lane ended — exactly
    /// past the segments — and returns the cursor there.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn lane_blocks<F: FnMut(&mut f32, f32)>(
        &mut self,
        planes: &mut [&mut [f32]],
        per_lane: usize,
        mean: f32,
        std_dev: f32,
        update: &mut F,
    ) -> Cursor {
        let jump = block_jump(per_lane);
        let mut starts = [[0u64; 4]; lanes::LANES];
        let mut cursors = [Cursor::default(); lanes::LANES];
        for (q, (start, cursor)) in starts.iter_mut().zip(&mut cursors).enumerate() {
            if q > 0 {
                self.jump(&jump);
            }
            *start = self.state;
            *cursor = Cursor::at(&*planes, q * per_lane * 2 * BM_BLOCK);
        }
        let mut gen = lanes::Lanes::new(&starts);
        let mut u = [[[0f32; BM_BLOCK]; lanes::LANES]; 2];
        let mut block = [0f32; 2 * BM_BLOCK];
        for _ in 0..per_lane {
            gen.draw_blocks(&mut u);
            for ((u1, u2), cursor) in u[0].iter().zip(&u[1]).zip(&mut cursors) {
                box_muller_math(u1, u2, &mut block, mean, std_dev);
                cursor.feed(planes, &block, update);
            }
        }
        self.state = gen.last_state();
        cursors[lanes::LANES - 1]
    }

    /// The serial block loop of [`SeededRng::apply_normal`]: applies the
    /// rest of the stream from `cursor` on.
    #[inline(always)]
    fn serial_normal<F: FnMut(&mut f32, f32)>(
        &mut self,
        planes: &mut [&mut [f32]],
        mut cursor: Cursor,
        mean: f32,
        std_dev: f32,
        update: &mut F,
    ) {
        let mut remaining = cursor.remaining(planes);
        let mut block = [0f32; 2 * BM_BLOCK];
        let (mut u1, mut u2) = ([0f32; BM_BLOCK], [0f32; BM_BLOCK]);
        while remaining > 0 {
            let n = remaining.min(2 * BM_BLOCK);
            if n == 2 * BM_BLOCK {
                // Raw draws first (a serial dependency chain), then the
                // pure math, which LLVM vectorizes.
                for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
                    *a = ((self.next_u64() >> 40) as f32 + 1.0) * U24_SCALE;
                    *b = (self.next_u64() >> 40) as f32 * U24_SCALE;
                }
                box_muller_math(&u1, &u2, &mut block, mean, std_dev);
            } else {
                for pair in block[..n].chunks_mut(2) {
                    let (z0, z1) = box_muller(self.next_u64(), self.next_u64());
                    pair[0] = mean + std_dev * z0;
                    if let Some(v) = pair.get_mut(1) {
                        *v = mean + std_dev * z1;
                    }
                }
            }
            cursor.feed(planes, &block[..n], update);
            remaining -= n;
        }
    }

    /// Advances the generator by `N` draws, where `poly = x^N mod P`:
    /// the state after `N` steps is `Σ poly_i · (state after i steps)`,
    /// because `P` annihilates the linear state transition.
    fn jump(&mut self, poly: &Poly) {
        let mut acc = [0u64; 4];
        for i in 0..256 {
            if poly[i / 64] >> (i % 64) & 1 == 1 {
                acc.iter_mut().zip(self.state).for_each(|(a, s)| *a ^= s);
            }
            self.next_u64();
        }
        self.state = acc;
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }

    /// Samples `k` distinct indices from `0..n` (reservoir-free; shuffles a
    /// prefix).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
        let mut idx = self.permutation(n);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SeededRng::new(99);
        let mut b = SeededRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.unit(), b.unit());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SeededRng::new(1);
        let mut b = SeededRng::new(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn zero_seed_stream_is_healthy() {
        // SplitMix64 expansion must prevent the degenerate all-zero state.
        let mut rng = SeededRng::new(0);
        let draws: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert!(draws.iter().any(|&v| v != 0));
        let mut dedup = draws.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), draws.len(), "xoshiro output repeated immediately");
    }

    #[test]
    fn unit_covers_interval() {
        let mut rng = SeededRng::new(13);
        let mut lo = 1.0f32;
        let mut hi = 0.0f32;
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = SeededRng::new(17);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[rng.below(5)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((1800..2200).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = SeededRng::new(7);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(2.0, 3.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn lognormal_positive_and_median() {
        let mut rng = SeededRng::new(21);
        let n = 20_000;
        let mut samples: Vec<f32> = (0..n).map(|_| rng.lognormal(0.0, 0.3)).collect();
        assert!(samples.iter().all(|&v| v > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Median of lognormal(mu=0) is e^0 = 1.
        let median = samples[n / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    /// The two-pass `fill_normal` that `apply_normal` replaced, frozen as
    /// the oracle its stream must reproduce bit for bit: full blocks of
    /// `2·BM_BLOCK` samples into a buffer, then a pairwise scalar
    /// remainder.
    fn fill_normal_oracle(rng: &mut SeededRng, out: &mut [f32], mean: f32, std_dev: f32) {
        const SCALE: f32 = 1.0 / (1u64 << 24) as f32;
        let mut u1 = [0f32; BM_BLOCK];
        let mut u2 = [0f32; BM_BLOCK];
        let mut chunks = out.chunks_exact_mut(2 * BM_BLOCK);
        for chunk in &mut chunks {
            for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
                *a = ((rng.next_u64() >> 40) as f32 + 1.0) * SCALE;
                *b = (rng.next_u64() >> 40) as f32 * SCALE;
            }
            let (lo, hi) = chunk.split_at_mut(BM_BLOCK);
            for i in 0..BM_BLOCK {
                let r = (-2.0 * crate::fastmath::ln(u1[i])).sqrt();
                let (s, c) = crate::fastmath::sincos_2pi(u2[i]);
                lo[i] = mean + std_dev * (r * c);
                hi[i] = mean + std_dev * (r * s);
            }
        }
        let rem = chunks.into_remainder();
        let mut i = 0;
        while i < rem.len() {
            let (z0, z1) = box_muller(rng.next_u64(), rng.next_u64());
            rem[i] = mean + std_dev * z0;
            if i + 1 < rem.len() {
                rem[i + 1] = mean + std_dev * z1;
            }
            i += 2;
        }
    }

    /// Collects an `apply_normal` stream of `len` samples.
    fn streamed(rng: &mut SeededRng, len: usize, mean: f32, std_dev: f32) -> Vec<f32> {
        let mut out = vec![f32::NAN; len];
        rng.apply_normal(&mut [&mut out], mean, std_dev, |x, z| *x = z);
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    const ORACLE_LENGTHS: [usize; 11] = [0, 1, 2, 3, 127, 128, 129, 255, 256, 257, 50_176];

    #[test]
    fn apply_normal_is_bit_identical_to_the_two_pass_oracle() {
        for seed in [0u64, 1, 7, 2020, u64::MAX] {
            for len in ORACLE_LENGTHS {
                for (mean, std_dev) in [(0.0, 1.0), (0.0, 0.3), (-1.5, 2.25)] {
                    let mut want = vec![0.0f32; len];
                    let mut oracle_rng = SeededRng::new(seed);
                    fill_normal_oracle(&mut oracle_rng, &mut want, mean, std_dev);
                    let mut rng = SeededRng::new(seed);
                    let got = streamed(&mut rng, len, mean, std_dev);
                    assert_eq!(bits(&got), bits(&want), "seed {seed}, len {len}");
                    // Both leave the generator at the same point.
                    assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "seed {seed}, len {len}");
                }
            }
        }
    }

    #[test]
    fn plane_boundaries_do_not_change_the_stream() {
        let whole = streamed(&mut SeededRng::new(8), 700, 0.0, 1.0);
        for cuts in [[0, 0], [0, 700], [1, 699], [128, 256], [200, 201], [300, 555], [700, 700]] {
            let mut out = vec![f32::NAN; 700];
            let (a, rest) = out.split_at_mut(cuts[0]);
            let (b, c) = rest.split_at_mut(cuts[1] - cuts[0]);
            SeededRng::new(8).apply_normal(&mut [a, b, &mut [], c], 0.0, 1.0, |x, z| *x = z);
            assert_eq!(bits(&out), bits(&whole), "cuts {cuts:?}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_blocks_match_portable_blocks() {
        if !crate::cpu::avx2() {
            return;
        }
        for seed in [3u64, 99, 4242] {
            for len in ORACLE_LENGTHS {
                let mut portable = vec![1.0f32; len];
                let mut avx2 = vec![1.0f32; len];
                // A consumer with its own arithmetic, as the fault models have.
                let update = |x: &mut f32, z: f32| *x *= crate::fastmath::exp(-z.abs() * 0.7);
                SeededRng::new(seed).apply_normal_body(&mut [&mut portable], 0.25, 1.5, update);
                // SAFETY: AVX2 support was checked above.
                unsafe {
                    SeededRng::new(seed).apply_normal_avx2(&mut [&mut avx2], 0.25, 1.5, update)
                };
                assert_eq!(bits(&avx2), bits(&portable), "seed {seed}, len {len}");
            }
        }
    }

    /// `s` cut into consecutive planes at the ascending positions `cuts`.
    fn split_at_cuts<'a>(mut rest: &'a mut [f32], cuts: &[usize]) -> Vec<&'a mut [f32]> {
        let (mut planes, mut at) = (Vec::new(), 0);
        for &cut in cuts {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(cut - at);
            planes.push(head);
            (rest, at) = (tail, cut);
        }
        planes.push(rest);
        planes
    }

    /// Runs `len` samples, cut into planes at `cuts`, through the lane
    /// path (taken whenever there are `LANES` full blocks) and through the
    /// serial path: samples and the generators' end states must agree.
    #[cfg(target_arch = "x86_64")]
    fn assert_lanes_match_serial(seed: u64, len: usize, cuts: &[usize]) {
        let run = |lanes: bool| {
            let mut out = vec![1.0f32; len];
            let mut planes = split_at_cuts(&mut out, cuts);
            let mut rng = SeededRng::new(seed);
            let update = |x: &mut f32, z: f32| *x *= crate::fastmath::exp(-z.abs() * 0.7);
            if lanes {
                let (mut update, per_lane) = (update, len / (2 * BM_BLOCK) / lanes::LANES);
                // SAFETY: callers check AVX2 support.
                let cursor =
                    unsafe { rng.lane_blocks(&mut planes, per_lane, 0.25, 1.5, &mut update) };
                rng.serial_normal(&mut planes, cursor, 0.25, 1.5, &mut update);
            } else {
                rng.apply_normal_body(&mut planes, 0.25, 1.5, update);
            }
            (bits(&out), rng.state)
        };
        assert_eq!(run(true), run(false), "seed {seed}, len {len}, cuts {cuts:?}");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_path_matches_serial_path() {
        if !crate::cpu::avx2() {
            return;
        }
        let block = 2 * BM_BLOCK;
        // Full-block counts of every residue mod LANES (the serial
        // leftover), below LANES (no lanes at all) and with a pairwise
        // remainder of every parity.
        for blocks in [0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 67] {
            for rem in [0, 1, 2, 127] {
                for seed in [0, 5, u64::MAX] {
                    assert_lanes_match_serial(seed, blocks * block + rem, &[]);
                }
            }
        }
        // Nine blocks: lane segments of two blocks start at samples 0,
        // 256, 512 and 768, and the serial tail at 1024. Cut planes on and
        // next to those starts, with empty planes among them.
        let len = 9 * block + 50;
        for cuts in [
            &[256, 512, 768, 1024][..],
            &[0, 256, 256, 512, 768, 768, 1024, len],
            &[255, 257, 767, 769, 1023, 1025],
            &[512],
            &[1, len - 1],
        ] {
            assert_lanes_match_serial(11, len, cuts);
        }
        // The crossbar's layout: two equal planes, g⁺ then g⁻. At 2×16384
        // cells the third lane starts exactly on g⁻.
        for cells in [1000, 8192, 16384] {
            assert_lanes_match_serial(13, 2 * cells, &[cells]);
        }
    }

    #[test]
    fn apply_normal_matches_the_oracle_across_the_lane_dispatch_minimum() {
        let min = LANE_MIN_BLOCKS * 2 * BM_BLOCK;
        for len in [min - 1, min, min + 1, min + 4 * 2 * BM_BLOCK + 3] {
            let mut want = vec![0.0f32; len];
            let mut oracle_rng = SeededRng::new(77);
            fill_normal_oracle(&mut oracle_rng, &mut want, 0.5, 0.75);
            let mut rng = SeededRng::new(77);
            assert_eq!(bits(&streamed(&mut rng, len, 0.5, 0.75)), bits(&want), "len {len}");
            assert_eq!(rng.state, oracle_rng.state, "len {len}");
        }
    }

    #[test]
    fn jump_polynomials_match_brute_force_stepping() {
        for blocks in [1usize, 2, 3, 5, 64, 97] {
            let mut jumped = SeededRng::new(blocks as u64);
            let mut stepped = jumped.clone();
            jumped.jump(&block_jump(blocks));
            for _ in 0..2 * BM_BLOCK * blocks {
                stepped.next_u64();
            }
            assert_eq!(jumped.state, stepped.state, "{blocks} blocks");
        }
        // x^(2^128) and x^(2^192) mod P are the JUMP and LONG_JUMP
        // constants of Blackman & Vigna's reference xoshiro256++, which
        // pins CHAR_POLY itself.
        let mut power = [2, 0, 0, 0]; // x
        for (squarings, want) in [
            (128, [0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c]),
            (64, [0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635]),
        ] {
            for _ in 0..squarings {
                power = poly_mulmod(&power, &power);
            }
            assert_eq!(power, want);
        }
    }

    #[test]
    fn fill_normal_moments() {
        let samples = streamed(&mut SeededRng::new(7), 20_000, 2.0, 3.0);
        let n = samples.len() as f32;
        let mean = samples.iter().sum::<f32>() / n;
        let var = samples.iter().map(|&x| (x - mean).powi(2)).sum::<f32>() / n;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn fill_normal_deterministic_and_handles_odd_lengths() {
        for len in [0usize, 1, 2, 3, 127, 128, 129, 300] {
            let a = streamed(&mut SeededRng::new(31), len, 0.0, 1.0);
            let b = streamed(&mut SeededRng::new(31), len, 0.0, 1.0);
            assert_eq!(a, b, "length {len} not deterministic");
            assert!(a.iter().all(|v| v.is_finite()), "non-finite sample at length {len}");
        }
    }

    #[test]
    fn fill_normal_zero_std_dev_is_constant() {
        let samples = streamed(&mut SeededRng::new(3), 300, 0.25, 0.0);
        assert!(samples.iter().all(|&v| v == 0.25));
    }

    #[test]
    fn fill_lognormal_positive_and_median() {
        let mut samples = streamed(&mut SeededRng::new(21), 20_000, 0.0, 0.3);
        samples.iter_mut().for_each(|v| *v = crate::fastmath::exp(*v));
        assert!(samples.iter().all(|&v| v > 0.0));
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn fill_lognormal_zero_sigma_is_exact_identity_factor() {
        // The fault models rely on sigma = 0 producing factor 1.0 exactly.
        let samples = streamed(&mut SeededRng::new(9), 130, 0.0, 0.0);
        assert!(samples.iter().all(|&v| crate::fastmath::exp(v) == 1.0));
    }

    #[test]
    fn chance_frequency() {
        let mut rng = SeededRng::new(5);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn permutation_is_permutation() {
        let mut rng = SeededRng::new(3);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = SeededRng::new(4);
        let s = rng.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn fork_streams_are_independent_of_consumption() {
        let mut parent1 = SeededRng::new(42);
        let mut parent2 = SeededRng::new(42);
        let mut c1 = parent1.fork(0);
        let c2 = parent2.fork(0);
        // Consuming from one child must not change the other's stream.
        for _ in 0..10 {
            c1.unit();
        }
        let mut c1b = SeededRng::new(42).fork(0);
        for _ in 0..10 {
            c1b.unit();
        }
        assert_eq!(c1.unit(), c1b.unit());
        let _ = c2;
    }

    #[test]
    fn fork_distinct_streams_differ() {
        let mut parent = SeededRng::new(42);
        // fork() consumes parent state, so fork ids must come from one parent.
        let mut a = parent.fork(1);
        let mut parent = SeededRng::new(42);
        let mut b = parent.fork(2);
        let same = (0..32).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn chance_rejects_out_of_range() {
        SeededRng::new(0).chance(1.5);
    }
}
