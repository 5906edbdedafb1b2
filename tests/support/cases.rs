//! The case stream every seeded property loop and golden sweep draws
//! from, and the FNV-1a fold the frozen transcripts hash with. A test
//! file includes it as `#[path = "…/tests/support/cases.rs"] mod cases;`.
// Each test binary compiles this module separately and uses a subset.
#![allow(dead_code)]

use rand::rngs::StdRng;
use rand::{Rng, SampleRange, SeedableRng};

/// FNV-1a offset basis: where every fold below starts.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The seed fold's multiplier. Not the FNV prime `0x100_0000_01b3`: the
/// frozen sweeps were first drawn under this constant, and under the real
/// prime `batched_trees`' folded goldens no longer match.
const SEED_MULTIPLIER: u64 = 0x1000_0000_01b3;

/// The case stream of the test `name` (`module::test`): every run of a
/// test draws the same cases, and no two tests share a stream.
pub fn case_rng(name: &str) -> StdRng {
    let fold = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(SEED_MULTIPLIER);
    StdRng::seed_from_u64(name.bytes().fold(FNV_OFFSET, fold))
}

/// A vector of length drawn from `len`, then each element by `element`.
/// A fixed length `k` is `k..=k`: its length still costs one draw.
pub fn vec_of<T>(
    rng: &mut StdRng,
    len: impl SampleRange<usize>,
    mut element: impl FnMut(&mut StdRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(len);
    (0..len).map(|_| element(rng)).collect()
}

/// FNV-1a, folding one `u64` into the hash `h`.
pub fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}
