//! 2-D convolution primitives (forward and backward) via batched im2col.
//!
//! Layout conventions: inputs are NCHW `[n, c, h, w]`, weights are OIHW
//! `[out_ch, in_ch, kh, kw]`. All functions take `stride` and symmetric
//! zero `padding`.
//!
//! Each direction lowers the whole batch onto **one** column matrix of
//! shape `[c·kh·kw, n·oh·ow]` (columns grouped sample-major) and runs a
//! single packed GEMM against it, instead of the pre-kernel per-sample
//! im2col → small-matmul loop (retained in [`crate::reference`]). The
//! column matrix is *virtual*: a [`BPacker`] synthesizes each requested
//! block straight from the padded input (or the NCHW gradient) into the
//! GEMM's packed-strip layout, so the `[k, n·oh·ow]` matrix is never
//! materialized or re-read. The forward and backward-input passes keep
//! the reference accumulation order bit-exactly; backward-weight reduces
//! over the flat `n·oh·ow` axis — see the determinism notes in
//! [`crate::kernels`].

use crate::kernels::{gemm_with_b, BPacker, NR};
use crate::pack::Trans;
use crate::workspace::{with_scratch, with_zeroed_scratch};
use crate::{Tensor, TensorError};

pub(crate) fn out_dim(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<usize, TensorError> {
    if stride == 0 {
        return Err(TensorError::InvalidParameter {
            reason: "stride must be positive".to_string(),
        });
    }
    let padded = input + 2 * pad;
    if padded < kernel {
        return Err(TensorError::InvalidShape {
            reason: format!("kernel {kernel} larger than padded input {padded}"),
        });
    }
    Ok((padded - kernel) / stride + 1)
}

fn check_rank4(t: &Tensor, what: &str) -> Result<(), TensorError> {
    if t.rank() != 4 {
        return Err(TensorError::InvalidShape {
            reason: format!("{what} must be rank 4 (got {:?})", t.shape()),
        });
    }
    Ok(())
}

/// Zero-pads the spatial dimensions of an NCHW tensor by `pad` on each side.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `input` is not rank 4.
pub fn pad2d(input: &Tensor, pad: usize) -> Result<Tensor, TensorError> {
    check_rank4(input, "pad2d input")?;
    if pad == 0 {
        return Ok(input.clone());
    }
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros(&[n, c, hp, wp]);
    let src = input.data();
    let dst = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                let s0 = ((ni * c + ci) * h + hi) * w;
                let d0 = ((ni * c + ci) * hp + hi + pad) * wp + pad;
                dst[d0..d0 + w].copy_from_slice(&src[s0..s0 + w]);
            }
        }
    }
    Ok(out)
}

/// Inverse of [`pad2d`]: crops `pad` pixels from each spatial side.
///
/// # Errors
///
/// Returns [`TensorError::InvalidShape`] if `input` is not rank 4 or is too
/// small to crop.
pub fn unpad2d(input: &Tensor, pad: usize) -> Result<Tensor, TensorError> {
    check_rank4(input, "unpad2d input")?;
    if pad == 0 {
        return Ok(input.clone());
    }
    let (n, c, hp, wp) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    if hp <= 2 * pad || wp <= 2 * pad {
        return Err(TensorError::InvalidShape {
            reason: format!("cannot crop {pad} from spatial dims {hp}x{wp}"),
        });
    }
    let (h, w) = (hp - 2 * pad, wp - 2 * pad);
    let mut out = Tensor::zeros(&[n, c, h, w]);
    let src = input.data();
    let dst = out.data_mut();
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                let s0 = ((ni * c + ci) * hp + hi + pad) * wp + pad;
                let d0 = ((ni * c + ci) * h + hi) * w;
                dst[d0..d0 + w].copy_from_slice(&src[s0..s0 + w]);
            }
        }
    }
    Ok(out)
}

/// col2im: scatter-add one sample's column block (at row stride
/// `row_stride`, column offset `col0`) straight into an **unpadded**
/// `[c, h, w]` sample buffer, dropping contributions that land in the
/// padding ring. Each destination element still receives its adds in
/// increasing `(ci, ki, kj, oi, oj)` order — the same order the
/// pad-then-unpad formulation produced — so results stay bit-identical
/// while skipping the padded buffer's zero-fill and copy-out.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn col2im_sample(
    col: &[f32],
    out: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    row_stride: usize,
    col0: usize,
) {
    if stride == 1 {
        // Gather formulation: build each output row once in a hot row
        // buffer from its ≤ kh·kw contributing column-row slivers, then
        // store it — instead of read-modify-writing the output kh·kw
        // times. The buffer is extended to `ow + kw - 1` cells (indexed
        // by `x + pad = oj + kj`) so every sliver is a full, unclipped
        // `ow`-wide add: contributions that would land in the padding
        // ring fall into border cells that are simply not copied out.
        // Per kept element the adds still arrive in increasing
        // `(ki, kj)` order, matching the scatter path below, so the
        // result is bit-identical.
        let mut ext = vec![0.0f32; ow + kw - 1];
        for ci in 0..c {
            for y in 0..h {
                ext.fill(0.0);
                for ki in 0..kh {
                    // y = oi + ki - pad  ⇒  oi = y + pad - ki ∈ [0, oh).
                    if y + pad < ki || y + pad - ki >= oh {
                        continue;
                    }
                    let oi = y + pad - ki;
                    let base = (ci * kh + ki) * kw * row_stride + col0 + oi * ow;
                    for kj in 0..kw {
                        let src = &col[base + kj * row_stride..][..ow];
                        let dst = &mut ext[kj..kj + ow];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    }
                }
                out[(ci * h + y) * w..(ci * h + y) * w + w].copy_from_slice(&ext[pad..pad + w]);
            }
        }
        return;
    }
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                let base = row * row_stride + col0;
                for oi in 0..oh {
                    let y = (oi * stride + ki) as isize - pad as isize;
                    if y < 0 || y >= h as isize {
                        continue;
                    }
                    let dst0 = (ci * h + y as usize) * w;
                    let src0 = base + oi * ow;
                    for oj in 0..ow {
                        let x = (oj * stride + kj) as isize - pad as isize;
                        if x < 0 || x >= w as isize {
                            continue;
                        }
                        out[dst0 + x as usize] += col[src0 + oj];
                    }
                }
            }
        }
    }
}

/// Shared shape bookkeeping for the three conv directions.
struct ConvDims {
    n: usize,
    c: usize,
    o: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    /// Padded spatial dims.
    hp: usize,
    wp: usize,
    /// GEMM reduction depth `c·kh·kw`.
    k: usize,
    /// Spatial size of one output sample, `oh·ow`.
    spat: usize,
}

impl ConvDims {
    fn resolve(
        input_shape: &[usize],
        o: usize,
        kernel: (usize, usize),
        stride: usize,
        padding: usize,
    ) -> Result<Self, TensorError> {
        let (n, c, h, w) = (
            input_shape[0],
            input_shape[1],
            input_shape[2],
            input_shape[3],
        );
        let (kh, kw) = kernel;
        let oh = out_dim(h, kh, stride, padding)?;
        let ow = out_dim(w, kw, stride, padding)?;
        Ok(ConvDims {
            n,
            c,
            o,
            kh,
            kw,
            oh,
            ow,
            hp: h + 2 * padding,
            wp: w + 2 * padding,
            k: c * kh * kw,
            spat: oh * ow,
        })
    }
}

/// Offset of virtual column `j` (output position, sample-major) inside
/// the padded batch: the element for k-row `p` is
/// `padded[col_base(j) + k_off(p)]`.
fn col_base(d: &ConvDims, stride: usize, j: usize) -> usize {
    let sample = j / d.spat;
    let r = j % d.spat;
    let (oy, ox) = (r / d.ow, r % d.ow);
    (sample * d.c * d.hp + oy * stride) * d.wp + ox * stride
}

/// Offset of k-row `p = (c, ki, kj)` relative to a column's base.
fn k_off(d: &ConvDims, p: usize) -> usize {
    let ci = p / (d.kh * d.kw);
    let r = p % (d.kh * d.kw);
    (ci * d.hp + r / d.kw) * d.wp + r % d.kw
}

/// Virtual im2col B operand for the forward pass:
/// `B_op[p][j] = col[p][j]`, synthesized from the padded input.
struct ColPacker<'s> {
    padded: &'s [f32],
    d: &'s ConvDims,
    stride: usize,
}

impl BPacker for ColPacker<'_> {
    fn pack(&self, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>) {
        let strips = nc.div_ceil(NR);
        buf.clear();
        buf.resize(strips * kc * NR, 0.0);
        let offs: Vec<usize> = (p0..p0 + kc).map(|p| k_off(self.d, p)).collect();
        let bases: Vec<usize> = (j0..j0 + nc)
            .map(|j| col_base(self.d, self.stride, j))
            .collect();
        for (t, strip) in buf.chunks_exact_mut(kc * NR).enumerate() {
            let cols = NR.min(nc - t * NR);
            let b = &bases[t * NR..t * NR + cols];
            // Column bases increase monotonically, so spanning exactly
            // `cols` positions means they are consecutive (one stride-1
            // output row) and the sliver is a straight copy.
            if cols == NR && b[NR - 1] == b[0] + NR - 1 {
                let b0 = b[0];
                for (row, &off) in strip.chunks_exact_mut(NR).zip(&offs) {
                    row.copy_from_slice(&self.padded[b0 + off..b0 + off + NR]);
                }
            } else {
                for (row, &off) in strip.chunks_exact_mut(NR).zip(&offs) {
                    for (dv, &base) in row.iter_mut().zip(b) {
                        *dv = self.padded[base + off];
                    }
                }
            }
        }
    }
}

/// Virtual transposed im2col for backward-weight:
/// `B_op[p][j] = col[j][p]` (reduction runs over output positions).
struct ColTPacker<'s> {
    padded: &'s [f32],
    d: &'s ConvDims,
    stride: usize,
}

impl BPacker for ColTPacker<'_> {
    fn pack(&self, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>) {
        let strips = nc.div_ceil(NR);
        buf.clear();
        buf.resize(strips * kc * NR, 0.0);
        let bases: Vec<usize> = (p0..p0 + kc)
            .map(|p| col_base(self.d, self.stride, p))
            .collect();
        let offs: Vec<usize> = (j0..j0 + nc).map(|j| k_off(self.d, j)).collect();
        for (t, strip) in buf.chunks_exact_mut(kc * NR).enumerate() {
            let cols = NR.min(nc - t * NR);
            let o = &offs[t * NR..t * NR + cols];
            for (row, &base) in strip.chunks_exact_mut(NR).zip(&bases) {
                for (dv, &off) in row.iter_mut().zip(o) {
                    *dv = self.padded[base + off];
                }
            }
        }
    }
}

/// Virtual B operand for the deep-`o` backward-input GEMM:
/// `B_op[p][ni·spat + j] = grad[ni][p][j]` — the `[n, o, oh·ow]`
/// gradient presented as `[o, n·oh·ow]` without materializing the
/// regrouped matrix.
struct GradRowsPacker<'s> {
    grad: &'s [f32],
    d: &'s ConvDims,
}

impl BPacker for GradRowsPacker<'_> {
    fn pack(&self, p0: usize, kc: usize, j0: usize, nc: usize, buf: &mut Vec<f32>) {
        let strips = nc.div_ceil(NR);
        buf.clear();
        buf.resize(strips * kc * NR, 0.0);
        let (spat, o) = (self.d.spat, self.d.o);
        for (t, strip) in buf.chunks_exact_mut(kc * NR).enumerate() {
            let c0 = j0 + t * NR;
            let cols = NR.min(nc - t * NR);
            let (ni, j) = (c0 / spat, c0 % spat);
            if cols == NR && j + NR <= spat {
                // Strip stays inside one sample: straight copies.
                for (r, row) in strip.chunks_exact_mut(NR).enumerate() {
                    let s0 = (ni * o + p0 + r) * spat + j;
                    row.copy_from_slice(&self.grad[s0..s0 + NR]);
                }
            } else {
                for (r, row) in strip.chunks_exact_mut(NR).enumerate() {
                    for (u, dv) in row.iter_mut().enumerate().take(cols) {
                        let col = c0 + u;
                        let (ni, j) = (col / spat, col % spat);
                        *dv = self.grad[(ni * o + p0 + r) * spat + j];
                    }
                }
            }
        }
    }
}

/// Regroups NCHW `grad_output` `[n, o, oh, ow]` into the GEMM-facing
/// `[o, n·oh·ow]` layout (columns sample-major, matching the virtual
/// column matrix of [`ColPacker`]). Writes every element of `rows`.
fn grad_to_rows_into(grad_output: &Tensor, d: &ConvDims, rows: &mut [f32]) {
    let cols = d.n * d.spat;
    let src = grad_output.data();
    for ni in 0..d.n {
        for oi in 0..d.o {
            let s0 = (ni * d.o + oi) * d.spat;
            let r0 = oi * cols + ni * d.spat;
            rows[r0..r0 + d.spat].copy_from_slice(&src[s0..s0 + d.spat]);
        }
    }
}

/// Writes `input` `[n, c, h, w]` into a pre-zeroed padded
/// `[n, c, h+2p, w+2p]` scratch buffer (the slice-borne twin of
/// [`pad2d`], so the conv drivers can stage padding in reused scratch
/// instead of a fresh tensor).
fn pad_into(input: &Tensor, pad: usize, dst: &mut [f32]) {
    let (n, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let src = input.data();
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                let d0 = ((ni * c + ci) * hp + hi + pad) * wp + pad;
                let s0 = ((ni * c + ci) * h + hi) * w;
                dst[d0..d0 + w].copy_from_slice(&src[s0..s0 + w]);
            }
        }
    }
}

/// 2-D convolution forward pass.
///
/// `input` is `[n, c, h, w]`, `weight` is `[o, c, kh, kw]`, output is
/// `[n, o, oh, ow]` with `oh = (h + 2p - kh) / s + 1`.
///
/// The batch is lowered through the virtual-im2col `ColPacker` into a
/// single `[o, k] × [k, n·oh·ow]` GEMM; results are bit-identical to the
/// per-sample reference ([`crate::reference::conv2d_reference`]).
///
/// # Errors
///
/// Returns an error if the operands are not rank 4, the channel counts
/// disagree, the stride is zero, or the kernel exceeds the padded input.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    check_rank4(input, "conv2d input")?;
    check_rank4(weight, "conv2d weight")?;
    let (o, wc, kh, kw) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    if wc != input.shape()[1] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![o, input.shape()[1], kh, kw],
            actual: weight.shape().to_vec(),
        });
    }
    let d = ConvDims::resolve(input.shape(), o, (kh, kw), stride, padding)?;
    let cols = d.n * d.spat;
    let mut out = Tensor::zeros(&[d.n, d.o, d.oh, d.ow]);
    let run = |padded: &[f32], out: &mut Tensor| {
        // [o, k] x [k, n*oh*ow] -> [o, n*oh*ow], columns packed on the
        // fly; the product is fully overwritten, so plain scratch is
        // fine.
        with_scratch(d.o * cols, |prod| {
            gemm_with_b(
                d.o,
                cols,
                d.k,
                weight.data(),
                Trans::N,
                &ColPacker {
                    padded,
                    d: &d,
                    stride,
                },
                prod,
            );
            // Regroup [o, n*oh*ow] -> NCHW [n, o, oh, ow].
            let dst = out.data_mut();
            for ni in 0..d.n {
                for oi in 0..d.o {
                    let s0 = oi * cols + ni * d.spat;
                    let d0 = (ni * d.o + oi) * d.spat;
                    dst[d0..d0 + d.spat].copy_from_slice(&prod[s0..s0 + d.spat]);
                }
            }
        });
    };
    if padding == 0 {
        run(input.data(), &mut out);
    } else {
        with_zeroed_scratch(d.n * d.c * d.hp * d.wp, |padded| {
            pad_into(input, padding, padded);
            run(padded, &mut out);
        });
    }
    Ok(out)
}

/// Gradient of a convolution with respect to its weights.
///
/// `grad_output` is `[n, o, oh, ow]`; returns `[o, c, kh, kw]`.
///
/// One `[o, n·oh·ow] × [k, n·oh·ow]ᵀ` GEMM over the whole-batch column
/// matrix. Each weight gradient is reduced over the flat `n·oh·ow` axis
/// in one fixed order (thread-count invariant), which differs from the
/// pre-kernel per-sample partial sums by rounding only — see
/// [`crate::reference::conv2d_backward_weight_reference`].
///
/// # Errors
///
/// Returns an error under the same conditions as [`conv2d`], or when
/// `grad_output`'s shape is inconsistent with the forward pass.
pub fn conv2d_backward_weight(
    input: &Tensor,
    grad_output: &Tensor,
    kernel: (usize, usize),
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    check_rank4(input, "conv2d input")?;
    check_rank4(grad_output, "conv2d grad_output")?;
    let o = grad_output.shape()[1];
    let d = ConvDims::resolve(input.shape(), o, kernel, stride, padding)?;
    if grad_output.shape() != [d.n, d.o, d.oh, d.ow] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![d.n, d.o, d.oh, d.ow],
            actual: grad_output.shape().to_vec(),
        });
    }
    let cols = d.n * d.spat;
    let mut grad_w = vec![0.0f32; d.o * d.k];
    let run = |padded: &[f32], grad_w: &mut [f32]| {
        // [o, n*oh*ow] x [k, n*oh*ow]^T = [o, k], columns packed on the
        // fly from the padded input.
        with_scratch(d.o * cols, |go| {
            grad_to_rows_into(grad_output, &d, go);
            gemm_with_b(
                d.o,
                d.k,
                cols,
                go,
                Trans::N,
                &ColTPacker {
                    padded,
                    d: &d,
                    stride,
                },
                grad_w,
            );
        });
    };
    if padding == 0 {
        run(input.data(), &mut grad_w);
    } else {
        with_zeroed_scratch(d.n * d.c * d.hp * d.wp, |padded| {
            pad_into(input, padding, padded);
            run(padded, &mut grad_w);
        });
    }
    Tensor::from_vec(grad_w, &[d.o, d.c, d.kh, d.kw])
}

/// Fused per-sample backward-input kernel for a chunk of samples.
///
/// For each sample and each input channel `ci`, combines just that
/// channel's `kh·kw` column-gradient rows (`acc[t] = Σ_p w[p, ci·kh·kw+t]
/// · grad[p]`, a few KB — L1-resident) and immediately scatters them with
/// [`col2im_sample`] as a single-channel block, so not even a per-sample
/// `[k, oh·ow]` column block is materialized, let alone the whole-batch
/// `[k, n·oh·ow]` gradient.
///
/// Each column element accumulates over `p = 0..o` in increasing order
/// starting from `0.0`, one separate multiply and add per step, and the
/// scatter still visits `(ci, ki, kj)` in increasing order — bit-identical
/// to the per-sample reference at any thread count (threads split
/// samples, never a reduction).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn bwd_input_samples_body(
    w: &[f32],
    grad: &[f32],
    d: &ConvDims,
    h: usize,
    width: usize,
    stride: usize,
    pad: usize,
    ni0: usize,
    out_chunk: &mut [f32],
) {
    let spat = d.spat;
    let khw = d.kh * d.kw;
    let sample_in = d.c * h * width;
    let chan = h * width;
    let mut acc = vec![0.0f32; khw * spat];
    for (s, out_s) in out_chunk.chunks_exact_mut(sample_in).enumerate() {
        let ni = ni0 + s;
        let gs = &grad[ni * d.o * spat..][..d.o * spat];
        for ci in 0..d.c {
            for t in 0..khw {
                let i = ci * khw + t;
                let dst = &mut acc[t * spat..][..spat];
                // Block 4 output channels per sweep so the accumulator
                // row is loaded/stored once per block instead of once
                // per channel; the first sweep starts each element at
                // the literal `0.0`, so no fill pass is needed. Per
                // element the adds still happen in increasing `p`
                // order, one separate multiply and add each — the same
                // value sequence as a plain `p` loop over a zeroed row.
                let mut p = 0;
                while p + 4 <= d.o {
                    let a0 = w[p * d.k + i];
                    let a1 = w[(p + 1) * d.k + i];
                    let a2 = w[(p + 2) * d.k + i];
                    let a3 = w[(p + 3) * d.k + i];
                    let s0 = &gs[p * spat..][..spat];
                    let s1 = &gs[(p + 1) * spat..][..spat];
                    let s2 = &gs[(p + 2) * spat..][..spat];
                    let s3 = &gs[(p + 3) * spat..][..spat];
                    let first = p == 0;
                    for (j, dv) in dst.iter_mut().enumerate() {
                        let mut v = if first { 0.0 } else { *dv };
                        v += a0 * s0[j];
                        v += a1 * s1[j];
                        v += a2 * s2[j];
                        v += a3 * s3[j];
                        *dv = v;
                    }
                    p += 4;
                }
                if p == 0 {
                    dst.fill(0.0);
                }
                while p < d.o {
                    let a_ip = w[p * d.k + i];
                    let src = &gs[p * spat..][..spat];
                    for (dv, &sv) in dst.iter_mut().zip(src) {
                        *dv += a_ip * sv;
                    }
                    p += 1;
                }
            }
            col2im_sample(
                &acc,
                &mut out_s[ci * chan..][..chan],
                1,
                h,
                width,
                d.kh,
                d.kw,
                stride,
                pad,
                d.oh,
                d.ow,
                spat,
                0,
            );
        }
    }
}

/// Argument bundle + dispatch for [`bwd_input_samples_body`].
type BwdInputFn = fn(&[f32], &[f32], &ConvDims, usize, usize, usize, usize, usize, &mut [f32]);

#[allow(clippy::too_many_arguments)]
fn bwd_input_samples_generic(
    w: &[f32],
    grad: &[f32],
    d: &ConvDims,
    h: usize,
    width: usize,
    stride: usize,
    pad: usize,
    ni0: usize,
    out_chunk: &mut [f32],
) {
    bwd_input_samples_body(w, grad, d, h, width, stride, pad, ni0, out_chunk);
}

/// AVX2 instantiation — wider madd lanes, still one separate multiply
/// and add per step (Rust never contracts to FMA), so the values are
/// bit-identical to [`bwd_input_samples_generic`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
fn bwd_input_samples_avx2(
    w: &[f32],
    grad: &[f32],
    d: &ConvDims,
    h: usize,
    width: usize,
    stride: usize,
    pad: usize,
    ni0: usize,
    out_chunk: &mut [f32],
) {
    bwd_input_samples_body(w, grad, d, h, width, stride, pad, ni0, out_chunk);
}

/// AVX-512VL instantiation — same body again, with EVEX embedded
/// broadcasts and the larger register file available. Lanewise separate
/// multiply and add as ever, so bits are unchanged.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx512f,avx512vl")]
fn bwd_input_samples_avx512(
    w: &[f32],
    grad: &[f32],
    d: &ConvDims,
    h: usize,
    width: usize,
    stride: usize,
    pad: usize,
    ni0: usize,
    out_chunk: &mut [f32],
) {
    bwd_input_samples_body(w, grad, d, h, width, stride, pad, ni0, out_chunk);
}

fn select_bwd_input() -> BwdInputFn {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: reached only after runtime AVX-512F+VL detection.
            return |w, grad, d, h, width, stride, pad, ni0, out| unsafe {
                bwd_input_samples_avx512(w, grad, d, h, width, stride, pad, ni0, out)
            };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `bwd_input_samples_avx2` only requires AVX2,
            // which the detection above just confirmed.
            return |w, grad, d, h, width, stride, pad, ni0, out| unsafe {
                bwd_input_samples_avx2(w, grad, d, h, width, stride, pad, ni0, out)
            };
        }
    }
    bwd_input_samples_generic
}

/// Gradient of a convolution with respect to its input.
///
/// Each sample's `[o, k]ᵀ × [o, oh·ow]` column gradient is combined in
/// cache and scattered back with `col2im_sample` in one fused pass;
/// bit-identical to the per-sample reference.
///
/// # Errors
///
/// Returns an error under the same conditions as [`conv2d`], or when
/// `grad_output`'s shape is inconsistent with the forward pass.
pub fn conv2d_backward_input(
    weight: &Tensor,
    grad_output: &Tensor,
    input_shape: &[usize],
    stride: usize,
    padding: usize,
) -> Result<Tensor, TensorError> {
    check_rank4(weight, "conv2d weight")?;
    check_rank4(grad_output, "conv2d grad_output")?;
    if input_shape.len() != 4 {
        return Err(TensorError::InvalidShape {
            reason: format!("input_shape must be rank 4, got {input_shape:?}"),
        });
    }
    let (o, kh, kw) = (weight.shape()[0], weight.shape()[2], weight.shape()[3]);
    let d = ConvDims::resolve(input_shape, o, (kh, kw), stride, padding)?;
    if grad_output.shape() != [d.n, d.o, d.oh, d.ow] {
        return Err(TensorError::ShapeMismatch {
            expected: vec![d.n, d.o, d.oh, d.ow],
            actual: grad_output.shape().to_vec(),
        });
    }
    let (h, w) = (input_shape[2], input_shape[3]);
    let sample_in = d.c * h * w;
    let wd = weight.data();
    let go = grad_output.data();
    let mut grad = Tensor::zeros(input_shape);
    // Deep-`o` layers amortize the packed driver's overhead across a
    // long reduction and run ~3x faster through the whole-batch GEMM;
    // shallow-`o` layers are the opposite (packing overhead dominates an
    // 8-deep reduction), so they take the fused per-channel path below.
    // The split depends only on the shape, and both paths accumulate
    // over `p` in increasing order from 0.0 with separate multiply and
    // add — bit-identical either way, at any thread count.
    const GEMM_MIN_O: usize = 16;
    if d.o >= GEMM_MIN_O {
        let cols = d.n * d.spat;
        with_scratch(d.k * cols, |col_grad| {
            gemm_with_b(
                d.k,
                cols,
                d.o,
                wd,
                Trans::T,
                &GradRowsPacker { grad: go, d: &d },
                col_grad,
            );
            for (ni, out_s) in grad.data_mut().chunks_exact_mut(sample_in).enumerate() {
                col2im_sample(
                    col_grad,
                    out_s,
                    d.c,
                    h,
                    w,
                    d.kh,
                    d.kw,
                    stride,
                    padding,
                    d.oh,
                    d.ow,
                    cols,
                    ni * d.spat,
                );
            }
        });
        return Ok(grad);
    }
    let kernel = select_bwd_input();
    let run = |ni0: usize, out_chunk: &mut [f32]| {
        kernel(wd, go, &d, h, w, stride, padding, ni0, out_chunk)
    };
    let threads = bprom_par::thread_count();
    let flops = 2usize
        .saturating_mul(d.k)
        .saturating_mul(d.o)
        .saturating_mul(d.n * d.spat);
    if threads <= 1 || flops < crate::kernels::PAR_MIN_FLOPS || bprom_par::in_parallel_worker() {
        run(0, grad.data_mut());
    } else {
        // Split the batch: samples are independent, so partitioning
        // cannot change any value.
        let chunks = threads.min(d.n);
        let per = d.n.div_ceil(chunks);
        let tasks = d.n.div_ceil(per);
        let blocks = bprom_par::par_map_indexed(tasks, |t| {
            let ni0 = t * per;
            let nb = per.min(d.n - ni0);
            let mut buf = vec![0.0f32; nb * sample_in];
            run(ni0, &mut buf);
            buf
        });
        for (t, buf) in blocks.iter().enumerate() {
            let ni0 = t * per;
            grad.data_mut()[ni0 * sample_in..ni0 * sample_in + buf.len()].copy_from_slice(buf);
        }
    }
    Ok(grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv2d_naive;
    use crate::Rng;

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn forward_matches_naive() {
        let mut rng = Rng::new(1);
        for &(stride, pad) in &[(1usize, 0usize), (1, 1), (2, 1), (2, 0)] {
            let input = Tensor::randn(&[2, 3, 8, 8], &mut rng);
            let weight = Tensor::randn(&[4, 3, 3, 3], &mut rng);
            let fast = conv2d(&input, &weight, stride, pad).unwrap();
            let slow = conv2d_naive(&input, &weight, stride, pad);
            assert_close(&fast, &slow, 1e-4);
        }
    }

    #[test]
    fn pad_unpad_round_trip() {
        let mut rng = Rng::new(2);
        let t = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let p = pad2d(&t, 2).unwrap();
        assert_eq!(p.shape(), &[1, 2, 9, 9]);
        let u = unpad2d(&p, 2).unwrap();
        assert_close(&u, &t, 1e-7);
        // Padding with zero is the identity.
        assert_eq!(pad2d(&t, 0).unwrap(), t);
    }

    #[test]
    fn backward_weight_matches_finite_difference() {
        let mut rng = Rng::new(3);
        let input = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let mut weight = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let stride = 1;
        let pad = 1;
        // Loss = sum of outputs; dL/dy = ones.
        let out = conv2d(&input, &weight, stride, pad).unwrap();
        let grad_out = Tensor::ones(out.shape());
        let gw = conv2d_backward_weight(&input, &grad_out, (3, 3), stride, pad).unwrap();
        let eps = 1e-2;
        for &flat in &[0usize, 7, 17, 35] {
            let orig = weight.data()[flat];
            weight.data_mut()[flat] = orig + eps;
            let lp = conv2d(&input, &weight, stride, pad).unwrap().sum();
            weight.data_mut()[flat] = orig - eps;
            let lm = conv2d(&input, &weight, stride, pad).unwrap().sum();
            weight.data_mut()[flat] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = gw.data()[flat];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "flat={flat}: numeric={numeric}, analytic={analytic}"
            );
        }
    }

    #[test]
    fn backward_input_matches_finite_difference() {
        let mut rng = Rng::new(4);
        let mut input = Tensor::randn(&[1, 2, 5, 5], &mut rng);
        let weight = Tensor::randn(&[2, 2, 3, 3], &mut rng);
        let stride = 1;
        let pad = 1;
        let out = conv2d(&input, &weight, stride, pad).unwrap();
        let grad_out = Tensor::ones(out.shape());
        let gi = conv2d_backward_input(&weight, &grad_out, &[1, 2, 5, 5], stride, pad).unwrap();
        let eps = 1e-2;
        for &flat in &[0usize, 12, 24, 49] {
            let orig = input.data()[flat];
            input.data_mut()[flat] = orig + eps;
            let lp = conv2d(&input, &weight, stride, pad).unwrap().sum();
            input.data_mut()[flat] = orig - eps;
            let lm = conv2d(&input, &weight, stride, pad).unwrap().sum();
            input.data_mut()[flat] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = gi.data()[flat];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "flat={flat}: numeric={numeric}, analytic={analytic}"
            );
        }
    }

    #[test]
    fn stride2_backward_shapes() {
        let mut rng = Rng::new(5);
        let input = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let weight = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let out = conv2d(&input, &weight, 2, 1).unwrap();
        assert_eq!(out.shape(), &[2, 4, 4, 4]);
        let gw = conv2d_backward_weight(&input, &out, (3, 3), 2, 1).unwrap();
        assert_eq!(gw.shape(), weight.shape());
        let gi = conv2d_backward_input(&weight, &out, &[2, 3, 8, 8], 2, 1).unwrap();
        assert_eq!(gi.shape(), input.shape());
    }

    #[test]
    fn invalid_parameters_are_errors() {
        let input = Tensor::zeros(&[1, 1, 4, 4]);
        let weight = Tensor::zeros(&[1, 1, 3, 3]);
        assert!(conv2d(&input, &weight, 0, 0).is_err());
        let big_kernel = Tensor::zeros(&[1, 1, 9, 9]);
        assert!(conv2d(&input, &big_kernel, 1, 0).is_err());
        let wrong_ch = Tensor::zeros(&[1, 2, 3, 3]);
        assert!(conv2d(&input, &wrong_ch, 1, 1).is_err());
    }

    /// Development profiler, not a correctness test: reports per-layer,
    /// per-direction timings for the bench layer shapes via its panic
    /// message. Run with
    /// `cargo test --release -p bprom-tensor -- --ignored profile_conv_layers`.
    #[test]
    #[ignore]
    fn profile_conv_layers() {
        use std::time::Instant;
        // (c, o, k, stride, pad, side) — mirrors bench_kernels.
        const LAYERS: [(usize, usize, usize, usize, usize, usize); 6] = [
            (3, 8, 3, 1, 1, 16),
            (8, 8, 3, 1, 1, 16),
            (8, 8, 3, 1, 1, 16),
            (8, 32, 3, 2, 1, 16),
            (32, 32, 3, 1, 1, 8),
            (8, 32, 1, 2, 0, 16),
        ];
        let reps = 100;
        let time = |f: &mut dyn FnMut()| {
            f();
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64 * 1e6
        };
        let mut rng = crate::Rng::new(42);
        let mut report = String::new();
        for (li, &(c, o, k, stride, pad, side)) in LAYERS.iter().enumerate() {
            let input = Tensor::randn(&[32, c, side, side], &mut rng);
            let weight = Tensor::randn(&[o, c, k, k], &mut rng);
            let oh = (side + 2 * pad - k) / stride + 1;
            let grad = Tensor::randn(&[32, o, oh, oh], &mut rng);
            let fwd = time(&mut || {
                std::hint::black_box(conv2d(&input, &weight, stride, pad).unwrap());
            });
            let bwd_w = time(&mut || {
                std::hint::black_box(
                    conv2d_backward_weight(&input, &grad, (k, k), stride, pad).unwrap(),
                );
            });
            let bwd_in = time(&mut || {
                std::hint::black_box(
                    conv2d_backward_input(&weight, &grad, input.shape(), stride, pad).unwrap(),
                );
            });
            report.push_str(&format!(
                "\nL{li} c={c} o={o} k={k} s={stride} side={side}: \
                 fwd={fwd:.0}us bwd_w={bwd_w:.0}us bwd_in={bwd_in:.0}us"
            ));
        }
        panic!("{report}");
    }
}
