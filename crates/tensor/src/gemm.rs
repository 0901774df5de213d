//! Packed, register-blocked `f32` matrix kernels — the shared GEMM core
//! behind every batched forward *and* backward pass.
//!
//! Three multiply shapes cover the whole training hot path:
//!
//! * [`gemm_nn`] — `C += A·B`. Conv/linear forward (`out = W·cols`,
//!   `y = G·W`) and the linear input gradient. The per-element
//!   accumulation starts from the existing `C` value and walks `k` in
//!   ascending order, one fused multiply-add (`acc = a.mul_add(b, acc)`,
//!   a single rounding) per product, so with `C` pre-filled with the
//!   bias the result is **bit-identical** to a sequential `mul_add` tap
//!   loop — the forward contract shared with [`crate::infer`] and
//!   [`crate::reference::conv3x3_forward`]. IEEE-754 specifies the
//!   fused operation exactly, so the bits do not depend on target,
//!   profile, tile shape or vector width.
//! * [`gemm_nt`] — `C += A·Bᵀ`. The weight gradients (`dW = G·colsᵀ`,
//!   `dW = Gᵀ·X` transposed): tiny output, huge reduction dimension.
//!   Uses lane-blocked partial sums (deterministic, but *not* the
//!   sequential order — gradient consumers tolerate ≤1e-5).
//! * [`gemm_tn`] — `C += Aᵀ·B`. The lowered input gradient
//!   (`dcols = Wᵀ·G`): rank-1 updates tiled over the wide axis.
//!
//! All kernels are allocation-free given a caller-held [`GemmScratch`]
//! (the packing buffers), which the conv/linear modules reuse across
//! steps — one piece of the PR's "no per-call allocations" budget.

/// Micro-kernel row count (A-panel height).
pub(crate) const MR: usize = 4;
/// Micro-kernel column count (B-panel width) — 32 `f32`s = two 512-bit
/// vectors per row, so the `MR×NR` accumulator block is 8 of the 32
/// AVX-512 registers: eight independent FMA chains to cover the unit's
/// latency. (At 256 bits it is all 16 registers, and still measured
/// faster than 4×16.) Speed only — no result depends on it. It moves
/// together with the fused inner loop: LLVM does not vectorise an
/// unfused `acc += a * b` tile this wide.
pub(crate) const NR: usize = 32;
/// Lane count for the dot-product kernel ([`gemm_nt`]) — 16 `f32`s =
/// two AVX vectors per accumulator, giving eight independent add chains
/// across the four accumulators to hide floating-point latency.
const LANES: usize = 16;
/// Column tile width for the rank-1 kernel ([`gemm_tn`]): 512 floats =
/// 2 KiB per row, so a whole `k × TW` B-tile stays cache-resident while
/// every C row crosses it.
const TW: usize = 512;
/// Cache budget (bytes) for one [`gemm_nt`] reduction chunk: the `m` A
/// rows plus `n` B rows restricted to the chunk must fit comfortably in
/// L2 alongside the (tiny) C block, so conservatively half of a small
/// 512 KiB L2.
const NT_CHUNK_BYTES: usize = 256 * 1024;

/// Reusable packing buffers for [`gemm_nn`]. Hold one per module and the
/// kernels never allocate after the first call at a given size.
#[derive(Debug, Default, Clone)]
pub struct GemmScratch {
    apack: Vec<f32>,
    bpack: Vec<f32>,
}

/// `C[m×n] += A[m×k] · B[k×n]`, row-major.
///
/// Numerical contract: every output element accumulates its `k` products
/// in ascending order on top of the *existing* `C` value, exactly like a
/// naive `for kk { c = a.mul_add(b, c) }` loop — register blocking
/// changes which elements are computed together, never the per-element
/// operation sequence. Callers pre-fill `C` with the bias (or zeros) and
/// get bitwise-reproducible results regardless of `m`/`n` blocking.
///
/// # Panics
///
/// Panics if any slice is shorter than its `m`/`k`/`n` extent implies.
pub fn gemm_nn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    scratch: &mut GemmScratch,
) {
    assert!(a.len() >= m * k, "A too short");
    assert!(b.len() >= k * n, "B too short");
    assert!(c.len() >= m * n, "C too short");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        return; // C += 0 contribution.
    }
    let mblocks = m.div_ceil(MR);
    pack_a(m, k, a, &mut scratch.apack);
    // March over NR-wide column tiles; pack the B tile contiguously
    // (k-major, zero-padded to NR) and reuse it for every A block.
    scratch.bpack.clear();
    scratch.bpack.resize(k * NR, 0.0);
    let mut j0 = 0usize;
    while j0 < n {
        let nr = NR.min(n - j0);
        for kk in 0..k {
            let brow = &b[kk * n + j0..kk * n + j0 + nr];
            let dst = &mut scratch.bpack[kk * NR..kk * NR + NR];
            dst[..nr].copy_from_slice(brow);
            for d in dst[nr..].iter_mut() {
                *d = 0.0;
            }
        }
        for ib in 0..mblocks {
            let mr = MR.min(m - ib * MR);
            let apanel = &scratch.apack[ib * k * MR..(ib + 1) * k * MR];
            microkernel(
                mr,
                nr,
                apanel,
                &scratch.bpack,
                &mut c[(ib * MR) * n + j0..],
                n,
            );
        }
        j0 += nr;
    }
}

/// Packs row-major `A[m×k]` per `MR`-row block, k-major with the `MR`
/// rows interleaved (`apack[(block*k + kk)*MR + r]`), zero-padded so a
/// micro-kernel always reads full `MR`-wide slabs. [`gemm_nn`] packs per
/// call; [`crate::infer`] packs a layer's weights once.
pub(crate) fn pack_a(m: usize, k: usize, a: &[f32], apack: &mut Vec<f32>) {
    let mblocks = m.div_ceil(MR);
    apack.clear();
    apack.resize(mblocks * k * MR, 0.0);
    for ib in 0..mblocks {
        let base = ib * k * MR;
        for r in 0..MR {
            let row = ib * MR + r;
            if row >= m {
                break;
            }
            let arow = &a[row * k..row * k + k];
            for (kk, &av) in arow.iter().enumerate() {
                apack[base + kk * MR + r] = av;
            }
        }
    }
}

/// The `MR×NR` register-tile inner loop: loads the live `mr×nr` corner of
/// `C`, accumulates all `k` slabs in order, stores it back.
fn microkernel(mr: usize, nr: usize, ap: &[f32], bp: &[f32], c: &mut [f32], ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (r, acc_row) in acc.iter_mut().enumerate().take(mr) {
        acc_row[..nr].copy_from_slice(&c[r * ldc..r * ldc + nr]);
    }
    for (ak, bk) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        // Full MR×NR update: rows beyond `mr` accumulate padded zeros
        // into dead accumulators, which keeps this loop branch-free.
        for (acc_row, &av) in acc.iter_mut().zip(ak) {
            for (av_acc, &bv) in acc_row.iter_mut().zip(bk) {
                *av_acc = av.mul_add(bv, *av_acc);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate().take(mr) {
        c[r * ldc..r * ldc + nr].copy_from_slice(&acc_row[..nr]);
    }
}

/// `C[m×n] += A[m×k] · Bᵀ` with `B` stored row-major as `[n×k]` — the
/// dot-product shape (`dW = G·colsᵀ`), where `m`/`n` are small and `k` is
/// the huge batched-spatial axis.
///
/// The reduction axis is walked in **cache-resident chunks**: a chunk
/// width is chosen so the `m + n` active row slices fit in
/// [`NT_CHUNK_BYTES`], and all `m/2 × n/2` output tiles consume one
/// chunk before the next is touched. Without the chunking every i-pair
/// streamed the entire `n×k` B matrix from DRAM (`m/2` full passes over
/// an axis that can run to millions of floats); with it, each A/B
/// element is read from DRAM exactly once and re-read from cache
/// thereafter.
///
/// Each dot product uses [`LANES`] parallel partial sums reduced
/// pairwise per chunk, with chunk subtotals accumulated into `C` in
/// ascending-k order: deterministic for a given `k`, and identical for
/// every row, but not the strict sequential order (the gradient
/// consumers tolerate far looser than the ~1e-7 relative difference
/// blocking introduces — blocked sums are, if anything, more accurate).
///
/// # Panics
///
/// Panics if any slice is shorter than its extents imply.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k, "A too short");
    assert!(b.len() >= n * k, "B too short");
    assert!(c.len() >= m * n, "C too short");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Chunk width: whole LANES multiples, at least one vector block, at
    // most the full axis (small k degenerates to the unchunked loop).
    let budget = NT_CHUNK_BYTES / (core::mem::size_of::<f32>() * (m + n));
    let kc = (budget / LANES * LANES)
        .max(LANES)
        .min(k.next_multiple_of(LANES));
    let mut k0 = 0usize;
    while k0 < k {
        let kw = kc.min(k - k0);
        // 2×2 output tile: four dot products share the two resident A
        // row slices and two resident B row slices.
        let mut i = 0usize;
        while i < m {
            let two_i = i + 1 < m;
            let (a0, a1) = (
                &a[i * k + k0..i * k + k0 + kw],
                &a[if two_i { i + 1 } else { i } * k + k0..][..kw],
            );
            let mut j = 0usize;
            while j < n {
                let two_j = j + 1 < n;
                let b0 = &b[j * k + k0..j * k + k0 + kw];
                let b1 = &b[if two_j { j + 1 } else { j } * k + k0..][..kw];
                let (d00, d01, d10, d11) = dot2x2(a0, a1, b0, b1);
                c[i * n + j] += d00;
                if two_j {
                    c[i * n + j + 1] += d01;
                }
                if two_i {
                    c[(i + 1) * n + j] += d10;
                    if two_j {
                        c[(i + 1) * n + j + 1] += d11;
                    }
                }
                j += 2;
            }
            i += 2;
        }
        k0 += kw;
    }
}

/// Four simultaneous lane-blocked dot products over equal-length rows.
fn dot2x2(a0: &[f32], a1: &[f32], b0: &[f32], b1: &[f32]) -> (f32, f32, f32, f32) {
    let k = a0.len();
    let mut l00 = [0.0f32; LANES];
    let mut l01 = [0.0f32; LANES];
    let mut l10 = [0.0f32; LANES];
    let mut l11 = [0.0f32; LANES];
    let chunks = k / LANES * LANES;
    let mut idx = 0usize;
    while idx < chunks {
        // Fixed-size array views: exact lengths are visible to the
        // vectorizer and every bounds check vanishes.
        let xa0: &[f32; LANES] = a0[idx..idx + LANES].try_into().expect("exact");
        let xa1: &[f32; LANES] = a1[idx..idx + LANES].try_into().expect("exact");
        let xb0: &[f32; LANES] = b0[idx..idx + LANES].try_into().expect("exact");
        let xb1: &[f32; LANES] = b1[idx..idx + LANES].try_into().expect("exact");
        for l in 0..LANES {
            l00[l] += xa0[l] * xb0[l];
            l01[l] += xa0[l] * xb1[l];
            l10[l] += xa1[l] * xb0[l];
            l11[l] += xa1[l] * xb1[l];
        }
        idx += LANES;
    }
    let mut d = (reduce(&l00), reduce(&l01), reduce(&l10), reduce(&l11));
    for (((&xa0, &xa1), &xb0), &xb1) in a0[chunks..]
        .iter()
        .zip(&a1[chunks..])
        .zip(&b0[chunks..])
        .zip(&b1[chunks..])
    {
        d.0 += xa0 * xb0;
        d.1 += xa0 * xb1;
        d.2 += xa1 * xb0;
        d.3 += xa1 * xb1;
    }
    d
}

/// Pairwise lane reduction (fixed tree, deterministic).
fn reduce(l: &[f32; LANES]) -> f32 {
    let mut width = LANES / 2;
    let mut acc = *l;
    while width > 0 {
        for i in 0..width {
            acc[i] += acc[i + width];
        }
        width /= 2;
    }
    acc[0]
}

/// `C[m×n] += Aᵀ · B` with `A` stored row-major as `[k×m]` — the rank-1
/// shape (`dcols = Wᵀ·G`), where `k` is small (output channels) and `n`
/// is the huge batched-spatial axis.
///
/// `ldb` is B's row stride (≥ `n`), so a caller can multiply against a
/// column window of a wider matrix — the conv backward uses this to
/// produce one *sample's* lowered gradient at a time into an L2-sized
/// tile that col2im consumes while hot, instead of round-tripping the
/// full `[C·k·k, N·OH·OW]` matrix through memory.
///
/// Tiled over `n` so the `k` streamed B rows stay cache-resident while
/// all `m` C rows cross the tile; the inner update is a contiguous
/// `axpy`, which vectorizes fully. Zero `A` coefficients are skipped
/// (they contribute nothing).
///
/// # Panics
///
/// Panics if `ldb < n` or any slice is shorter than its extents imply.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], ldb: usize, c: &mut [f32]) {
    assert!(ldb >= n, "B row stride below row width");
    assert!(a.len() >= k * m, "A too short");
    assert!(k == 0 || b.len() >= (k - 1) * ldb + n, "B too short");
    assert!(c.len() >= m * n, "C too short");
    let mut j0 = 0usize;
    while j0 < n {
        let w = TW.min(n - j0);
        for i in 0..m {
            let crow = &mut c[i * n + j0..i * n + j0 + w];
            // Four rank-1 updates per pass: quarters the C-row
            // read/write traffic and gives the vectorizer independent
            // products to overlap.
            let mut p = 0usize;
            while p + 4 <= k {
                let (a0, a1, a2, a3) = (
                    a[p * m + i],
                    a[(p + 1) * m + i],
                    a[(p + 2) * m + i],
                    a[(p + 3) * m + i],
                );
                let b0 = &b[p * ldb + j0..p * ldb + j0 + w];
                let b1 = &b[(p + 1) * ldb + j0..(p + 1) * ldb + j0 + w];
                let b2 = &b[(p + 2) * ldb + j0..(p + 2) * ldb + j0 + w];
                let b3 = &b[(p + 3) * ldb + j0..(p + 3) * ldb + j0 + w];
                // Zipped, not indexed: `b0[j]` leaves a bounds check in
                // the loop's scalar remainder, and with 512-bit vectors
                // that remainder is up to 31 elements — most of the 90-
                // and 18-wide rows the conv backward multiplies.
                for ((((cv, &x0), &x1), &x2), &x3) in
                    crow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *cv += (a0 * x0 + a1 * x1) + (a2 * x2 + a3 * x3);
                }
                p += 4;
            }
            while p < k {
                let av = a[p * m + i];
                if av != 0.0 {
                    let brow = &b[p * ldb + j0..p * ldb + j0 + w];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
                p += 1;
            }
        }
        j0 += w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn randv(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    /// The contract, spelled out: ascending `k`, one fused multiply-add
    /// per product on top of the existing `C`. `fused = false` is the
    /// separate-multiply-and-add contract this crate had before, kept
    /// only to show the test tells the two apart.
    fn naive_nn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], fused: bool) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    let (av, bv) = (a[i * k + p], b[p * n + j]);
                    acc = if fused {
                        av.mul_add(bv, acc)
                    } else {
                        acc + av * bv
                    };
                }
                c[i * n + j] = acc;
            }
        }
    }

    #[test]
    fn nn_matches_naive_bitwise_across_odd_shapes() {
        let mut scratch = GemmScratch::default();
        let mut contracts_differ = false;
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 27, 33),
            (24, 216, 130),
            // Around the `NR`-wide tile, with `m` off the `MR` grid.
            (2, 9, 31),
            (3, 9, 32),
            (5, 27, 32),
            (6, 18, 33),
            (7, 72, 65),
        ] {
            let a = randv(m * k, 1);
            let b = randv(k * n, 2);
            let init = randv(m * n, 3); // non-zero init: the bias contract
            let mut c = init.clone();
            let mut reference = init.clone();
            let mut unfused = init.clone();
            gemm_nn(m, k, n, &a, &b, &mut c, &mut scratch);
            naive_nn(m, k, n, &a, &b, &mut reference, true);
            naive_nn(m, k, n, &a, &b, &mut unfused, false);
            assert_eq!(c, reference, "shape ({m},{k},{n}) must be bit-identical");
            contracts_differ |= reference != unfused;
        }
        // Inputs on which `a * b + c` and `mul_add` happened to coincide
        // would let a kernel that slid back to the unfused form pass.
        assert!(
            contracts_differ,
            "no shape tells the fused contract from the unfused one"
        );
    }

    #[test]
    fn nt_matches_naive_to_tolerance() {
        for &(m, k, n) in &[(1, 3, 1), (2, 100, 3), (5, 1031, 9), (16, 2048, 72)] {
            let a = randv(m * k, 4);
            let b = randv(n * k, 5);
            let mut c = randv(m * n, 6);
            let reference: Vec<f32> = (0..m * n)
                .map(|ij| {
                    let (i, j) = (ij / n, ij % n);
                    let dot: f64 = (0..k)
                        .map(|p| f64::from(a[i * k + p]) * f64::from(b[j * k + p]))
                        .sum();
                    c[ij] + dot as f32
                })
                .collect();
            gemm_nt(m, k, n, &a, &b, &mut c);
            for (x, y) in c.iter().zip(&reference) {
                assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()), "{x} vs {y}");
            }
        }
    }

    #[test]
    fn tn_matches_naive_to_tolerance() {
        for &(m, k, n) in &[(1, 1, 3), (9, 4, 600), (72, 16, 1300)] {
            let a = randv(k * m, 7);
            let b = randv(k * n, 8);
            let mut c = randv(m * n, 9);
            let reference: Vec<f32> = (0..m * n)
                .map(|ij| {
                    let (i, j) = (ij / n, ij % n);
                    let dot: f64 = (0..k)
                        .map(|p| f64::from(a[p * m + i]) * f64::from(b[p * n + j]))
                        .sum();
                    c[ij] + dot as f32
                })
                .collect();
            gemm_tn(m, k, n, &a, &b, n, &mut c);
            for (x, y) in c.iter().zip(&reference) {
                assert!((x - y).abs() < 1e-3 * (1.0 + y.abs()), "{x} vs {y}");
            }
        }
    }

    /// A reduction axis long enough to straddle several cache-resident
    /// chunks still matches the f64 reference: chunk subtotals accumulate
    /// in ascending-k order, so splitting the axis must stay within the
    /// blocked-summation tolerance.
    #[test]
    fn nt_chunked_reduction_matches_naive() {
        // m + n = 4 → chunk width ≈ NT_CHUNK_BYTES/16 = 16384 floats;
        // k = 50_000 spans four chunks including a ragged tail.
        let (m, k, n) = (2usize, 50_000usize, 2usize);
        let a = randv(m * k, 12);
        let b = randv(n * k, 13);
        let mut c = vec![0.0f32; m * n];
        let reference: Vec<f32> = (0..m * n)
            .map(|ij| {
                let (i, j) = (ij / n, ij % n);
                (0..k)
                    .map(|p| f64::from(a[i * k + p]) * f64::from(b[j * k + p]))
                    .sum::<f64>() as f32
            })
            .collect();
        gemm_nt(m, k, n, &a, &b, &mut c);
        for (x, y) in c.iter().zip(&reference) {
            assert!((x - y).abs() < 1e-2 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    /// A strided B window (ldb > n) multiplies the same as slicing the
    /// columns out densely.
    #[test]
    fn tn_strided_window_matches_dense() {
        let (m, k, n, ldb, off) = (5usize, 3usize, 7usize, 20usize, 6usize);
        let a = randv(k * m, 10);
        let wide = randv(k * ldb, 11);
        // Dense copy of the window's columns.
        let mut dense = Vec::with_capacity(k * n);
        for p in 0..k {
            dense.extend_from_slice(&wide[p * ldb + off..p * ldb + off + n]);
        }
        let mut c_strided = vec![0.0f32; m * n];
        let mut c_dense = vec![0.0f32; m * n];
        gemm_tn(m, k, n, &a, &wide[off..], ldb, &mut c_strided);
        gemm_tn(m, k, n, &a, &dense, n, &mut c_dense);
        assert_eq!(c_strided, c_dense);
    }

    #[test]
    fn empty_extents_are_noops() {
        let mut scratch = GemmScratch::default();
        let mut c = vec![1.0f32; 4];
        gemm_nn(0, 3, 2, &[], &[0.0; 6], &mut c, &mut scratch);
        gemm_nn(2, 0, 2, &[], &[], &mut c, &mut scratch);
        gemm_nt(2, 0, 2, &[], &[], &mut c);
        gemm_tn(2, 0, 2, &[], &[], 2, &mut c);
        assert_eq!(c, vec![1.0; 4]);
    }
}
