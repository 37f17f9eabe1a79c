//! Runtime-dispatched fused AND + popcount kernels.
//!
//! The fused pass `out[k] = AND over attribute unions of their k-th word`,
//! accumulating the popcount of the result, is the hot loop of every `f_M`
//! evaluation (see [`crate::population`]). This module provides explicit
//! `std::arch` implementations of that pass — AVX2 (Mula's `vpshufb`
//! nibble-LUT popcount), AVX-512 (`vpopcntq`), NEON (`vcntq_u8`) — behind a
//! [`OnceLock`] function-pointer dispatch chosen once per process via runtime
//! feature detection, with a 4-wide unrolled scalar fallback that is always
//! available.
//!
//! Every kernel produces **bit-identical** output — the result bitmap words
//! *and* the returned count — including ragged tails whose word count is not
//! a multiple of the vector width. The word-wise AND is exact on any
//! hardware, and popcounts are integer, so the only way implementations could
//! diverge is a bounds bug; the property tests in `tests/prop_kernels.rs`
//! compare every supported kernel against the scalar reference on random word
//! streams (empty, single-word, and non-multiple-of-4 tails included).
//!
//! Selection order for `auto` (the default): AVX-512 > AVX2 > NEON > scalar,
//! using `is_x86_feature_detected!` at first use. The `PCOR_KERNEL`
//! environment variable (`scalar|avx2|avx512|neon|auto`) overrides the choice
//! for testing; forcing a kernel the CPU does not support (or an unrecognized
//! name) falls back to `scalar`, the fail-safe choice for reproducibility.
//!
//! This is the one module in `pcor-data` allowed to use `unsafe` (the crate
//! is otherwise `deny(unsafe_code)`): `std::arch` intrinsics require it. All
//! unsafe is confined to the `#[target_feature]` implementations, which are
//! only ever reachable through [`KernelKind::func`] after the corresponding
//! feature check has passed.
#![allow(unsafe_code)]

use crate::bitmap::RecordBitmap;
use std::sync::OnceLock;

/// Signature shared by all fused AND+popcount kernels.
///
/// Computes `out[k] = first[k] & AND over rest of rest[attr].words()[lo + k]`
/// and returns the total popcount of `out`. `first` is pre-sliced to the
/// chunk's word range; `rest` bitmaps are indexed at `lo + k` so one call can
/// operate on any contiguous chunk of the record-word space (a pass with a
/// halt probe runs chunk by chunk).
pub type KernelFn = fn(first: &[u64], rest: &[RecordBitmap], out: &mut [u64], lo: usize) -> usize;

/// The available fused-pass implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum KernelKind {
    /// Portable 4-wide unrolled scalar loop (`u64::count_ones`). Always
    /// supported; the reference all SIMD kernels are verified against.
    Scalar,
    /// AVX2: 256-bit AND over 4-word blocks, Mula `vpshufb` nibble-LUT
    /// popcount accumulated with `vpsadbw`.
    Avx2,
    /// AVX-512: 512-bit AND over 8-word blocks with the dedicated
    /// `vpopcntq` instruction (requires `avx512f` + `avx512vpopcntdq`).
    Avx512,
    /// NEON (aarch64): 128-bit AND over 2-word blocks, `vcntq_u8` byte
    /// popcount summed with `vaddvq_u8`.
    Neon,
}

impl KernelKind {
    /// All kernel kinds, in dispatch-preference order (best first, scalar
    /// last).
    pub const ALL: [KernelKind; 4] =
        [KernelKind::Avx512, KernelKind::Avx2, KernelKind::Neon, KernelKind::Scalar];

    /// Stable lower-case name, matching the `PCOR_KERNEL` values.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Avx2 => "avx2",
            KernelKind::Avx512 => "avx512",
            KernelKind::Neon => "neon",
        }
    }

    /// Parses a `PCOR_KERNEL` value (case-insensitive). `None` for
    /// unrecognized names — including `auto`, which is not a concrete kind.
    pub fn parse(name: &str) -> Option<KernelKind> {
        match name.to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelKind::Scalar),
            "avx2" => Some(KernelKind::Avx2),
            "avx512" => Some(KernelKind::Avx512),
            "neon" => Some(KernelKind::Neon),
            _ => None,
        }
    }

    /// Whether this kernel can run on the current CPU (runtime feature
    /// detection; `Scalar` is always supported).
    pub fn is_supported(self) -> bool {
        match self {
            KernelKind::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq")
            }
            #[cfg(target_arch = "aarch64")]
            KernelKind::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The kernel kinds the current CPU supports, preference order.
    pub fn supported() -> Vec<KernelKind> {
        Self::ALL.into_iter().filter(|k| k.is_supported()).collect()
    }

    /// The fastest supported kernel (what `PCOR_KERNEL=auto` resolves to).
    pub fn best_supported() -> KernelKind {
        Self::ALL.into_iter().find(|k| k.is_supported()).unwrap_or(KernelKind::Scalar)
    }

    /// The fused-pass implementation for this kind.
    ///
    /// Requesting an unsupported kind returns the scalar implementation —
    /// the function pointer handed out is always safe to call on this CPU.
    pub fn func(self) -> KernelFn {
        if !self.is_supported() {
            return scalar_pass;
        }
        match self {
            KernelKind::Scalar => scalar_pass,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx2 => avx2_pass,
            #[cfg(target_arch = "x86_64")]
            KernelKind::Avx512 => avx512_pass,
            #[cfg(target_arch = "aarch64")]
            KernelKind::Neon => neon_pass,
            #[allow(unreachable_patterns)]
            _ => scalar_pass,
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-wide dispatched kernel: `PCOR_KERNEL` if set (unknown or
/// unsupported values fall back to `scalar`; `auto` or unset picks
/// [`KernelKind::best_supported`]). Resolved once and cached — the env
/// override cannot change mid-process; use
/// [`PopulationCursor::with_kernel`](crate::PopulationCursor::with_kernel)
/// to compare kernels within one process.
pub fn selected() -> KernelKind {
    static SELECTED: OnceLock<KernelKind> = OnceLock::new();
    *SELECTED.get_or_init(|| resolve(std::env::var("PCOR_KERNEL").ok().as_deref()))
}

/// Resolution rule behind [`selected`], factored out for tests.
pub(crate) fn resolve(request: Option<&str>) -> KernelKind {
    match request.map(str::trim) {
        None | Some("") => KernelKind::best_supported(),
        Some(name) if name.eq_ignore_ascii_case("auto") => KernelKind::best_supported(),
        Some(name) => match KernelKind::parse(name) {
            Some(kind) if kind.is_supported() => kind,
            // Unknown or unsupported forced kernel: fail safe and
            // reproducible rather than silently picking SIMD.
            _ => KernelKind::Scalar,
        },
    }
}

/// Portable reference kernel: 4-wide unrolled AND across the attribute
/// unions, `count_ones` popcount. The unroll keeps four independent
/// dependency chains in flight, which matters on targets where `count_ones`
/// lowers to a SWAR sequence rather than a `popcnt` instruction.
pub fn scalar_pass(first: &[u64], rest: &[RecordBitmap], out: &mut [u64], lo: usize) -> usize {
    debug_assert_eq!(first.len(), out.len());
    let n = out.len();
    let mut count = 0usize;
    let mut k = 0usize;
    while k + 4 <= n {
        let mut w0 = first[k];
        let mut w1 = first[k + 1];
        let mut w2 = first[k + 2];
        let mut w3 = first[k + 3];
        for union in rest {
            let words = &union.words()[lo + k..lo + k + 4];
            w0 &= words[0];
            w1 &= words[1];
            w2 &= words[2];
            w3 &= words[3];
        }
        out[k] = w0;
        out[k + 1] = w1;
        out[k + 2] = w2;
        out[k + 3] = w3;
        count += (w0.count_ones() + w1.count_ones() + w2.count_ones() + w3.count_ones()) as usize;
        k += 4;
    }
    while k < n {
        let mut w = first[k];
        for union in rest {
            w &= union.words()[lo + k];
        }
        out[k] = w;
        count += w.count_ones() as usize;
        k += 1;
    }
    count
}

/// Scalar cleanup for the ragged tail a vector kernel leaves behind.
fn scalar_tail(
    first: &[u64],
    rest: &[RecordBitmap],
    out: &mut [u64],
    lo: usize,
    from: usize,
) -> usize {
    let mut count = 0usize;
    for k in from..out.len() {
        let mut w = first[k];
        for union in rest {
            w &= union.words()[lo + k];
        }
        out[k] = w;
        count += w.count_ones() as usize;
    }
    count
}

/// Safe AVX2 entry point; only handed out by [`KernelKind::func`] after the
/// `avx2` feature check passed.
#[cfg(target_arch = "x86_64")]
fn avx2_pass(first: &[u64], rest: &[RecordBitmap], out: &mut [u64], lo: usize) -> usize {
    // SAFETY: `func` verified `is_x86_feature_detected!("avx2")` before
    // returning this function pointer.
    unsafe { avx2_pass_impl(first, rest, out, lo) }
}

/// Fused pass over 4-word (256-bit) blocks: vector AND across the unions,
/// then Mula's nibble-LUT popcount (`vpshufb` per nibble, `vpsadbw` to fold
/// byte counts into four u64 lanes). Lane sums stay far below u64 range, so
/// accumulation is exact.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_pass_impl(
    first: &[u64],
    rest: &[RecordBitmap],
    out: &mut [u64],
    lo: usize,
) -> usize {
    use std::arch::x86_64::*;
    debug_assert_eq!(first.len(), out.len());
    let n = out.len();
    #[rustfmt::skip]
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
    );
    let low_nibble = _mm256_set1_epi8(0x0f);
    let zero = _mm256_setzero_si256();
    let mut acc = zero;
    let mut k = 0usize;
    while k + 4 <= n {
        // SAFETY: k + 4 <= n and every bitmap holds >= lo + n words, so all
        // 4-word loads/stores below are in bounds; loadu/storeu are
        // alignment-free.
        let mut v = _mm256_loadu_si256(first.as_ptr().add(k).cast());
        for union in rest {
            let p = union.words().as_ptr().add(lo + k).cast();
            v = _mm256_and_si256(v, _mm256_loadu_si256(p));
        }
        _mm256_storeu_si256(out.as_mut_ptr().add(k).cast(), v);
        let lo_counts = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, low_nibble));
        let hi_counts =
            _mm256_shuffle_epi8(lut, _mm256_and_si256(_mm256_srli_epi16(v, 4), low_nibble));
        let byte_counts = _mm256_add_epi8(lo_counts, hi_counts);
        acc = _mm256_add_epi64(acc, _mm256_sad_epu8(byte_counts, zero));
        k += 4;
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc);
    let count = lanes.iter().sum::<u64>() as usize;
    count + scalar_tail(first, rest, out, lo, k)
}

/// Safe AVX-512 entry point; only handed out by [`KernelKind::func`] after
/// the `avx512f`/`avx512vpopcntdq` feature checks passed.
#[cfg(target_arch = "x86_64")]
fn avx512_pass(first: &[u64], rest: &[RecordBitmap], out: &mut [u64], lo: usize) -> usize {
    // SAFETY: `func` verified avx512f + avx512vpopcntdq before returning
    // this function pointer.
    unsafe { avx512_pass_impl(first, rest, out, lo) }
}

/// Fused pass over 8-word (512-bit) blocks: vector AND across the unions,
/// per-lane `vpopcntq`, horizontal reduce at the end.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn avx512_pass_impl(
    first: &[u64],
    rest: &[RecordBitmap],
    out: &mut [u64],
    lo: usize,
) -> usize {
    use std::arch::x86_64::*;
    debug_assert_eq!(first.len(), out.len());
    let n = out.len();
    let mut acc = _mm512_setzero_si512();
    let mut k = 0usize;
    while k + 8 <= n {
        // SAFETY: k + 8 <= n and every bitmap holds >= lo + n words, so all
        // 8-word loads/stores below are in bounds; loadu/storeu are
        // alignment-free.
        let mut v = _mm512_loadu_si512(first.as_ptr().add(k).cast());
        for union in rest {
            let p = union.words().as_ptr().add(lo + k).cast();
            v = _mm512_and_si512(v, _mm512_loadu_si512(p));
        }
        _mm512_storeu_si512(out.as_mut_ptr().add(k).cast(), v);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        k += 8;
    }
    let count = _mm512_reduce_add_epi64(acc) as usize;
    count + scalar_tail(first, rest, out, lo, k)
}

/// Safe NEON entry point; only handed out by [`KernelKind::func`] after the
/// `neon` feature check passed.
#[cfg(target_arch = "aarch64")]
fn neon_pass(first: &[u64], rest: &[RecordBitmap], out: &mut [u64], lo: usize) -> usize {
    // SAFETY: `func` verified `is_aarch64_feature_detected!("neon")` before
    // returning this function pointer.
    unsafe { neon_pass_impl(first, rest, out, lo) }
}

/// Fused pass over 2-word (128-bit) blocks: vector AND across the unions,
/// `vcntq_u8` byte popcount folded with `vaddvq_u8` (16 bytes × ≤8 bits
/// = ≤128, which fits the u8 horizontal sum exactly).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "neon")]
unsafe fn neon_pass_impl(
    first: &[u64],
    rest: &[RecordBitmap],
    out: &mut [u64],
    lo: usize,
) -> usize {
    use std::arch::aarch64::*;
    debug_assert_eq!(first.len(), out.len());
    let n = out.len();
    let mut count = 0usize;
    let mut k = 0usize;
    while k + 2 <= n {
        // SAFETY: k + 2 <= n and every bitmap holds >= lo + n words, so all
        // 2-word loads/stores below are in bounds.
        let mut v = vld1q_u64(first.as_ptr().add(k));
        for union in rest {
            v = vandq_u64(v, vld1q_u64(union.words().as_ptr().add(lo + k)));
        }
        vst1q_u64(out.as_mut_ptr().add(k), v);
        count += vaddvq_u8(vcntq_u8(vreinterpretq_u8_u64(v))) as usize;
        k += 2;
    }
    count + scalar_tail(first, rest, out, lo, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(KernelKind::parse("AVX2"), Some(KernelKind::Avx2));
        assert_eq!(KernelKind::parse("auto"), None);
        assert_eq!(KernelKind::parse("nope"), None);
    }

    #[test]
    fn resolution_rule() {
        let best = KernelKind::best_supported();
        assert_eq!(resolve(None), best);
        assert_eq!(resolve(Some("")), best);
        assert_eq!(resolve(Some("auto")), best);
        assert_eq!(resolve(Some("AUTO")), best);
        assert_eq!(resolve(Some("scalar")), KernelKind::Scalar);
        // Unknown names fail safe to scalar, never silently to SIMD.
        assert_eq!(resolve(Some("sclar")), KernelKind::Scalar);
        // A supported explicit request is honored.
        for kind in KernelKind::supported() {
            assert_eq!(resolve(Some(kind.name())), kind);
        }
        // Neon is never supported on x86_64 and vice versa for AVX — an
        // unsupported forced kernel resolves to scalar.
        for kind in KernelKind::ALL {
            if !kind.is_supported() {
                assert_eq!(resolve(Some(kind.name())), KernelKind::Scalar);
            }
        }
    }

    #[test]
    fn best_supported_is_first_supported_in_preference_order() {
        let best = KernelKind::best_supported();
        assert!(best.is_supported());
        let supported = KernelKind::supported();
        assert_eq!(supported.first().copied(), Some(best));
        assert_eq!(supported.last().copied(), Some(KernelKind::Scalar));
        assert_eq!(selected(), selected());
    }

    #[test]
    fn unsupported_kind_funcs_fall_back_to_scalar() {
        for kind in KernelKind::ALL {
            if !kind.is_supported() {
                assert!(std::ptr::fn_addr_eq(kind.func(), scalar_pass as KernelFn));
            }
        }
        assert!(std::ptr::fn_addr_eq(KernelKind::Scalar.func(), scalar_pass as KernelFn));
    }

    #[test]
    fn kernels_agree_on_a_small_fixed_case() {
        // Cross-kernel identity on a deliberately ragged 7-word stream; the
        // heavyweight randomized coverage lives in tests/prop_kernels.rs.
        let words = 7usize;
        let n = words * 64;
        let mut first = RecordBitmap::new(n);
        let mut a = RecordBitmap::new(n);
        let mut b = RecordBitmap::new(n);
        let mut state = 0x243F6A8885A308D3u64;
        for target in [&mut first, &mut a, &mut b] {
            for w in target.words_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *w = state;
            }
        }
        let rest = vec![a, b];
        let mut expected_out = vec![0u64; words];
        let expected = scalar_pass(first.words(), &rest, &mut expected_out, 0);
        for kind in KernelKind::supported() {
            let mut out = vec![0u64; words];
            let got = kind.func()(first.words(), &rest, &mut out, 0);
            assert_eq!(got, expected, "{kind} count mismatch");
            assert_eq!(out, expected_out, "{kind} bitmap mismatch");
        }
    }
}
