//! Runtime CPU-feature probes behind every dispatched kernel: the GEMM
//! micro-kernels, the integer crossbar accumulate and the bulk Gaussian
//! sampler. The standard library caches the CPUID result, so a probe
//! costs a load and a bit test.

/// Whether the running CPU supports AVX.
pub(crate) fn avx() -> bool {
    std::arch::is_x86_feature_detected!("avx")
}

/// Whether the running CPU supports AVX2.
pub(crate) fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}
