use crate::{Result, VpError};
use bprom_ckpt::{CkptError, Decoder, Encoder};
use bprom_tensor::{Rng, Tensor, TensorError};

/// A trainable visual prompt: additive border noise around a downscaled
/// target image (paper Figure 1a).
///
/// The prompt canvas has the source model's input shape `[c, s, s]`; the
/// inner `(s - 2·border)²` window holds the resized target image and the
/// border holds the trainable parameters `θ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
/// How the prompt combines with the target image.
pub enum PromptStyle {
    /// Pad style (Tsai et al. 2020, paper Figure 1a): the target image is
    /// resized into the inner window; the border pixels are `θ` alone.
    Pad,
    /// Overlay style (Bahng et al. 2022): the target image is resized to
    /// the full canvas and `θ` is *added* on the border frame.
    #[default]
    Overlay,
}

#[derive(Debug, Clone, PartialEq)]
pub struct VisualPrompt {
    /// Border parameters on a full canvas (inner region is ignored/zero).
    theta: Tensor,
    channels: usize,
    source_size: usize,
    border: usize,
    style: PromptStyle,
}

/// Bilinear resize of one row-major `[c, h, w]` image in `src` into the
/// `[c, to, to]` slice `dst`.
fn resize_into(src: &[f32], c: usize, h: usize, w: usize, to: usize, dst: &mut [f32]) {
    for ci in 0..c {
        for y in 0..to {
            for x in 0..to {
                let sy = (y as f32 + 0.5) * h as f32 / to as f32 - 0.5;
                let sx = (x as f32 + 0.5) * w as f32 / to as f32 - 0.5;
                let sy = sy.clamp(0.0, (h - 1) as f32);
                let sx = sx.clamp(0.0, (w - 1) as f32);
                let (y0, x0) = (sy as usize, sx as usize);
                let (y1, x1) = ((y0 + 1).min(h - 1), (x0 + 1).min(w - 1));
                let (fy, fx) = (sy - y0 as f32, sx - x0 as f32);
                let px = |yy: usize, xx: usize| src[(ci * h + yy) * w + xx];
                let top = px(y0, x0) * (1.0 - fx) + px(y0, x1) * fx;
                let bot = px(y1, x0) * (1.0 - fx) + px(y1, x1) * fx;
                dst[(ci * to + y) * to + x] = top * (1.0 - fy) + bot * fy;
            }
        }
    }
}

impl VisualPrompt {
    /// Creates a zero-initialized prompt.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::InvalidConfig`] if the border leaves no inner
    /// window (`2·border >= source_size`) or is zero.
    pub fn new(channels: usize, source_size: usize, border: usize) -> Result<Self> {
        if border == 0 || 2 * border >= source_size {
            return Err(VpError::InvalidConfig {
                reason: format!(
                    "border {border} invalid for source size {source_size} (need 0 < 2b < s)"
                ),
            });
        }
        Ok(VisualPrompt {
            theta: Tensor::zeros(&[channels, source_size, source_size]),
            channels,
            source_size,
            border,
            style: PromptStyle::default(),
        })
    }

    /// Sets the prompt style (pad vs overlay); returns `self` for chaining.
    pub fn with_style(mut self, style: PromptStyle) -> Self {
        self.style = style;
        self
    }

    /// The prompt's combination style.
    pub fn style(&self) -> PromptStyle {
        self.style
    }

    /// Creates a small-random-initialized prompt (helps CMA-ES start from a
    /// non-degenerate point).
    ///
    /// # Errors
    ///
    /// Same conditions as [`VisualPrompt::new`].
    pub fn random(
        channels: usize,
        source_size: usize,
        border: usize,
        rng: &mut Rng,
    ) -> Result<Self> {
        let mut p = Self::new(channels, source_size, border)?;
        let mask = p.border_mask();
        for (v, &m) in p.theta.data_mut().iter_mut().zip(mask.data()) {
            if m > 0.0 {
                *v = rng.uniform_in(-0.1, 0.1);
            }
        }
        Ok(p)
    }

    /// Side length of the inner window holding the resized target image.
    pub fn inner_size(&self) -> usize {
        self.source_size - 2 * self.border
    }

    /// Border width in pixels.
    pub fn border(&self) -> usize {
        self.border
    }

    /// Source-canvas side length.
    pub fn source_size(&self) -> usize {
        self.source_size
    }

    /// A `[c, s, s]` mask with 1.0 on the trainable border, 0.0 inside.
    pub fn border_mask(&self) -> Tensor {
        let s = self.source_size;
        let b = self.border;
        let mut mask = Tensor::ones(&[self.channels, s, s]);
        for c in 0..self.channels {
            for y in b..s - b {
                for x in b..s - b {
                    mask.data_mut()[(c * s + y) * s + x] = 0.0;
                }
            }
        }
        mask
    }

    /// Side length `k` of the canvas that [`VisualPrompt::canvas`] resizes
    /// target images to: the inner window for Pad, the full source canvas
    /// for Overlay.
    fn canvas_size(&self) -> usize {
        match self.style {
            PromptStyle::Pad => self.inner_size(),
            PromptStyle::Overlay => self.source_size,
        }
    }

    /// The θ-independent half of prompting: resizes a batch of target
    /// images `[n, c, t, t]` to the canvas `[n, c, k, k]`
    /// (`k = canvas_size()`). A prompt search builds this once and
    /// applies each candidate θ to it with [`VisualPrompt::apply_canvas`];
    /// the canvas depends only on the geometry and style, never on θ.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::InvalidConfig`] if `images` is not rank 4, has a
    /// channel count other than the prompt's, or has an empty image plane,
    /// and [`VpError::Tensor`] on an empty batch.
    pub(crate) fn canvas(&self, images: &Tensor) -> Result<Tensor> {
        if images.rank() != 4 {
            return Err(VpError::InvalidConfig {
                reason: format!("prompt expects [n, c, t, t], got {:?}", images.shape()),
            });
        }
        let (n, c, h, w) = (
            images.shape()[0],
            images.shape()[1],
            images.shape()[2],
            images.shape()[3],
        );
        if n == 0 {
            return Err(TensorError::InvalidShape {
                reason: "cannot prompt an empty batch".to_string(),
            }
            .into());
        }
        if c != self.channels || h == 0 || w == 0 {
            return Err(VpError::InvalidConfig {
                reason: format!(
                    "prompt expects [{}, t, t] images, got {:?}",
                    self.channels,
                    &images.shape()[1..]
                ),
            });
        }
        let k = self.canvas_size();
        let mut out = vec![0.0f32; n * c * k * k];
        for (src, dst) in images
            .data()
            .chunks_exact(c * h * w)
            .zip(out.chunks_exact_mut(c * k * k))
        {
            resize_into(src, c, h, w, k, dst);
        }
        Ok(Tensor::from_vec(out, &[n, c, k, k])?)
    }

    /// The θ half of prompting: `V(x | θ)` for every canvas in a
    /// `[n, c, k, k]` batch built by [`VisualPrompt::canvas`], giving
    /// `[n, c, s, s]`. Overlay adds `θ ⊙ mask` and clamps to `[0, 1]`; Pad
    /// writes the clamped θ and copies the canvas into the inner window.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::InvalidConfig`] if `canvas` is not a non-empty
    /// `[n, c, k, k]` batch for this prompt.
    pub(crate) fn apply_canvas(&self, canvas: &Tensor) -> Result<Tensor> {
        let (c, k, s) = (self.channels, self.canvas_size(), self.source_size);
        if canvas.rank() != 4 || canvas.shape()[0] == 0 || canvas.shape()[1..] != [c, k, k] {
            return Err(VpError::InvalidConfig {
                reason: format!(
                    "prompt canvas must be [n, {c}, {k}, {k}], got {:?}",
                    canvas.shape()
                ),
            });
        }
        let n = canvas.shape()[0];
        let mut out = Vec::with_capacity(n * c * s * s);
        match self.style {
            PromptStyle::Pad => {
                let mut frame = self.theta.clone();
                frame.clamp_in_place(0.0, 1.0);
                let b = self.border;
                for img in canvas.data().chunks_exact(c * k * k) {
                    let start = out.len();
                    out.extend_from_slice(frame.data());
                    let dst = &mut out[start..];
                    for (ci, plane) in img.chunks_exact(k * k).enumerate() {
                        for (y, row) in plane.chunks_exact(k).enumerate() {
                            let at = (ci * s + y + b) * s + b;
                            dst[at..at + k].copy_from_slice(row);
                        }
                    }
                }
            }
            PromptStyle::Overlay => {
                // θ ⊙ mask is the same for every image. The products are
                // formed over the whole canvas, interior included, so signed
                // zeros and any non-finite interior θ reach the output
                // exactly as the per-pixel `(x + θ·m).clamp(0, 1)` has them.
                let mask = self.border_mask();
                let frame: Vec<f32> = self
                    .theta
                    .data()
                    .iter()
                    .zip(mask.data())
                    .map(|(&t, &m)| t * m)
                    .collect();
                for img in canvas.data().chunks_exact(c * s * s) {
                    out.extend(
                        img.iter()
                            .zip(&frame)
                            .map(|(&x, &tm)| (x + tm).clamp(0.0, 1.0)),
                    );
                }
            }
        }
        Ok(Tensor::from_vec(out, &[n, c, s, s])?)
    }

    /// Prompts one target image: `V(x | θ)`.
    ///
    /// # Errors
    ///
    /// Returns an error if the image is not `[c, t, t]` with the prompt's
    /// channel count.
    pub fn apply(&self, target_image: &Tensor) -> Result<Tensor> {
        if target_image.rank() != 3 {
            return Err(VpError::InvalidConfig {
                reason: format!(
                    "prompt expects [{}, t, t] images, got {:?}",
                    self.channels,
                    target_image.shape()
                ),
            });
        }
        let mut dims = vec![1];
        dims.extend_from_slice(target_image.shape());
        let mut out = self.apply_batch(&target_image.reshape(&dims)?)?;
        let s = self.source_size;
        out.reshape_in_place(&[self.channels, s, s])?;
        Ok(out)
    }

    /// Prompts a batch `[n, c, t, t] → [n, c, s, s]`: resizes the images,
    /// then applies θ. The prompt searches in this crate resize their
    /// image set once and apply each θ to the resized copy instead.
    ///
    /// # Errors
    ///
    /// Returns [`VpError::InvalidConfig`] if `images` is not rank 4, has a
    /// channel count other than the prompt's, or has an empty image plane,
    /// and [`VpError::Tensor`] on an empty batch.
    pub fn apply_batch(&self, images: &Tensor) -> Result<Tensor> {
        self.apply_canvas(&self.canvas(images)?)
    }

    /// Accumulates a gradient step: `θ += scale · (grad ⊙ border_mask)`.
    /// `grad` must be a `[c, s, s]` gradient with respect to the prompted
    /// input.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    pub fn apply_gradient(&mut self, grad: &Tensor, scale: f32) -> Result<()> {
        if grad.shape() != self.theta.shape() {
            return Err(VpError::InvalidConfig {
                reason: format!(
                    "gradient shape {:?} != prompt shape {:?}",
                    grad.shape(),
                    self.theta.shape()
                ),
            });
        }
        let mask = self.border_mask();
        for ((t, &g), &m) in self
            .theta
            .data_mut()
            .iter_mut()
            .zip(grad.data())
            .zip(mask.data())
        {
            *t += scale * g * m;
        }
        Ok(())
    }

    /// Number of trainable border parameters (the CMA-ES dimension).
    pub fn num_border_params(&self) -> usize {
        let s = self.source_size;
        let i = self.inner_size();
        self.channels * (s * s - i * i)
    }

    /// Extracts the border parameters as a flat vector (CMA-ES interface).
    pub fn to_flat(&self) -> Vec<f32> {
        let mask = self.border_mask();
        self.theta
            .data()
            .iter()
            .zip(mask.data())
            .filter(|(_, &m)| m > 0.0)
            .map(|(&v, _)| v)
            .collect()
    }

    /// Serializes the prompt (geometry, style, and the full θ canvas)
    /// bit-exactly into `enc` for checkpointing.
    pub fn persist(&self, enc: &mut Encoder) {
        enc.put_usize(self.channels);
        enc.put_usize(self.source_size);
        enc.put_usize(self.border);
        enc.put_u8(match self.style {
            PromptStyle::Pad => 0,
            PromptStyle::Overlay => 1,
        });
        enc.put_f32s(self.theta.data());
    }

    /// Rebuilds a prompt from bytes written by [`VisualPrompt::persist`].
    ///
    /// # Errors
    ///
    /// Returns [`CkptError::Decode`] on truncation, an unknown style tag,
    /// or geometry that does not match the stored canvas.
    pub fn restore(dec: &mut Decoder) -> std::result::Result<Self, CkptError> {
        let channels = dec.get_usize()?;
        let source_size = dec.get_usize()?;
        let border = dec.get_usize()?;
        let style = match dec.get_u8()? {
            0 => PromptStyle::Pad,
            1 => PromptStyle::Overlay,
            other => {
                return Err(CkptError::decode(format!(
                    "unknown prompt style tag {other}"
                )))
            }
        };
        let data = dec.get_f32s()?;
        if border == 0 || 2 * border >= source_size {
            return Err(CkptError::decode(format!(
                "prompt snapshot geometry invalid: border {border}, size {source_size}"
            )));
        }
        if data.len() != channels * source_size * source_size {
            return Err(CkptError::decode(format!(
                "prompt canvas has {} values, geometry needs {}",
                data.len(),
                channels * source_size * source_size
            )));
        }
        let theta = Tensor::from_vec(data, &[channels, source_size, source_size])
            .map_err(|e| CkptError::decode(format!("prompt canvas: {e}")))?;
        Ok(VisualPrompt {
            theta,
            channels,
            source_size,
            border,
            style,
        })
    }

    /// Installs border parameters from a flat vector (CMA-ES interface).
    ///
    /// # Errors
    ///
    /// Returns [`VpError::InvalidConfig`] on length mismatch.
    pub fn set_flat(&mut self, flat: &[f32]) -> Result<()> {
        if flat.len() != self.num_border_params() {
            return Err(VpError::InvalidConfig {
                reason: format!(
                    "flat vector length {} != border param count {}",
                    flat.len(),
                    self.num_border_params()
                ),
            });
        }
        let mask = self.border_mask();
        let mut it = flat.iter();
        for (t, &m) in self.theta.data_mut().iter_mut().zip(mask.data()) {
            if m > 0.0 {
                *t = *it.next().expect("length checked above");
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_border() {
        assert!(VisualPrompt::new(3, 16, 0).is_err());
        assert!(VisualPrompt::new(3, 16, 8).is_err());
        assert!(VisualPrompt::new(3, 16, 4).is_ok());
    }

    #[test]
    fn apply_places_image_in_center() {
        let mut prompt = VisualPrompt::new(1, 8, 2)
            .unwrap()
            .with_style(PromptStyle::Pad);
        // Distinctive border value.
        prompt.theta = Tensor::full(&[1, 8, 8], 0.25);
        let img = Tensor::ones(&[1, 4, 4]);
        let out = prompt.apply(&img).unwrap();
        // Inner 4x4 window is the (resized) image = 1.0.
        assert_eq!(out.at(&[0, 4, 4]).unwrap(), 1.0);
        // Border is theta.
        assert_eq!(out.at(&[0, 0, 0]).unwrap(), 0.25);
        assert_eq!(out.at(&[0, 7, 7]).unwrap(), 0.25);
    }

    #[test]
    fn overlay_adds_theta_on_border_only() {
        let mut prompt = VisualPrompt::new(1, 8, 2)
            .unwrap()
            .with_style(PromptStyle::Overlay);
        prompt.theta = Tensor::full(&[1, 8, 8], 0.25);
        let img = Tensor::full(&[1, 8, 8], 0.5);
        let out = prompt.apply(&img).unwrap();
        // Center: image untouched. Border: image + theta.
        assert_eq!(out.at(&[0, 4, 4]).unwrap(), 0.5);
        assert_eq!(out.at(&[0, 0, 0]).unwrap(), 0.75);
    }

    #[test]
    fn border_mask_counts() {
        let prompt = VisualPrompt::new(3, 16, 4).unwrap();
        let mask = prompt.border_mask();
        let ones = mask.data().iter().filter(|&&m| m == 1.0).count();
        assert_eq!(ones, prompt.num_border_params());
        assert_eq!(ones, 3 * (256 - 64));
    }

    #[test]
    fn flat_round_trip() {
        let mut rng = Rng::new(0);
        let mut prompt = VisualPrompt::random(3, 16, 4, &mut rng).unwrap();
        let flat = prompt.to_flat();
        assert_eq!(flat.len(), prompt.num_border_params());
        let mut other = VisualPrompt::new(3, 16, 4).unwrap();
        other.set_flat(&flat).unwrap();
        assert_eq!(other.to_flat(), flat);
        assert!(prompt.set_flat(&flat[1..]).is_err());
    }

    #[test]
    fn persist_restore_round_trip() {
        let mut rng = Rng::new(6);
        let prompt = VisualPrompt::random(3, 16, 4, &mut rng)
            .unwrap()
            .with_style(PromptStyle::Pad);
        let mut enc = Encoder::new();
        prompt.persist(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = VisualPrompt::restore(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, prompt);
        // Truncated payloads are typed errors.
        assert!(VisualPrompt::restore(&mut Decoder::new(&bytes[..10])).is_err());
    }

    #[test]
    fn gradient_only_touches_border() {
        let mut prompt = VisualPrompt::new(1, 8, 2).unwrap();
        let grad = Tensor::ones(&[1, 8, 8]);
        prompt.apply_gradient(&grad, -0.5).unwrap();
        // Center stays zero; border moved by -0.5.
        assert_eq!(prompt.theta.at(&[0, 4, 4]).unwrap(), 0.0);
        assert_eq!(prompt.theta.at(&[0, 0, 0]).unwrap(), -0.5);
    }

    fn resize(image: &Tensor, to: usize) -> Tensor {
        let (c, h, w) = (image.shape()[0], image.shape()[1], image.shape()[2]);
        let mut out = Tensor::zeros(&[c, to, to]);
        resize_into(image.data(), c, h, w, to, out.data_mut());
        out
    }

    #[test]
    fn resize_preserves_constant_images() {
        let img = Tensor::full(&[3, 8, 8], 0.7);
        let out = resize(&img, 12);
        assert_eq!(out.shape(), &[3, 12, 12]);
        for v in out.data() {
            assert!((v - 0.7).abs() < 1e-6);
        }
        let down = resize(&img, 4);
        assert_eq!(down.shape(), &[3, 4, 4]);
    }

    #[test]
    fn resize_identity_when_same_size() {
        let mut rng = Rng::new(1);
        let img = Tensor::rand_uniform(&[1, 6, 6], 0.0, 1.0, &mut rng);
        let out = resize(&img, 6);
        for (a, b) in out.data().iter().zip(img.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn batch_matches_single() {
        let mut rng = Rng::new(2);
        let prompt = VisualPrompt::random(3, 16, 4, &mut rng).unwrap();
        let imgs = Tensor::rand_uniform(&[3, 3, 8, 8], 0.0, 1.0, &mut rng);
        let batch = prompt.apply_batch(&imgs).unwrap();
        for i in 0..3 {
            let single = prompt.apply(&imgs.sample(i).unwrap()).unwrap();
            assert_eq!(batch.sample(i).unwrap(), single);
        }
    }

    /// Per-image prompting as a single function: resize the target, then
    /// combine it with θ. The bitwise reference for the canvas path.
    fn reference_apply(prompt: &VisualPrompt, image: &Tensor) -> Tensor {
        let s = prompt.source_size;
        match prompt.style {
            PromptStyle::Pad => {
                let isz = prompt.inner_size();
                let inner = reference_resize(image, isz);
                let b = prompt.border;
                let mut out = prompt.theta.clone();
                out.clamp_in_place(0.0, 1.0);
                for c in 0..prompt.channels {
                    for y in 0..isz {
                        let src = (c * isz + y) * isz;
                        let dst = (c * s + y + b) * s + b;
                        out.data_mut()[dst..dst + isz]
                            .copy_from_slice(&inner.data()[src..src + isz]);
                    }
                }
                out
            }
            PromptStyle::Overlay => {
                let mut out = reference_resize(image, s);
                let mask = prompt.border_mask();
                for ((o, &t), &m) in out
                    .data_mut()
                    .iter_mut()
                    .zip(prompt.theta.data())
                    .zip(mask.data())
                {
                    *o = (*o + t * m).clamp(0.0, 1.0);
                }
                out
            }
        }
    }

    fn reference_resize(image: &Tensor, to: usize) -> Tensor {
        let (c, h, w) = (image.shape()[0], image.shape()[1], image.shape()[2]);
        let mut out = Tensor::zeros(&[c, to, to]);
        for ci in 0..c {
            for y in 0..to {
                for x in 0..to {
                    let sy = (y as f32 + 0.5) * h as f32 / to as f32 - 0.5;
                    let sx = (x as f32 + 0.5) * w as f32 / to as f32 - 0.5;
                    let sy = sy.clamp(0.0, (h - 1) as f32);
                    let sx = sx.clamp(0.0, (w - 1) as f32);
                    let (y0, x0) = (sy as usize, sx as usize);
                    let (y1, x1) = ((y0 + 1).min(h - 1), (x0 + 1).min(w - 1));
                    let (fy, fx) = (sy - y0 as f32, sx - x0 as f32);
                    let px = |yy: usize, xx: usize| image.data()[(ci * h + yy) * w + xx];
                    let top = px(y0, x0) * (1.0 - fx) + px(y0, x1) * fx;
                    let bot = px(y1, x0) * (1.0 - fx) + px(y1, x1) * fx;
                    out.data_mut()[(ci * to + y) * to + x] = top * (1.0 - fy) + bot * fy;
                }
            }
        }
        out
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn canvas_path_matches_per_image_reference_bitwise() {
        let mut rng = Rng::new(12);
        for style in [PromptStyle::Pad, PromptStyle::Overlay] {
            for t in [8, 10, 16, 20] {
                for n in [1, 48] {
                    let mut prompt = VisualPrompt::new(3, 16, 4).unwrap().with_style(style);
                    // θ on the whole canvas, interior included (a restored
                    // snapshot may carry any values there), far outside
                    // [0, 1] on both sides, with exact signed zeros.
                    for (i, v) in prompt.theta.data_mut().iter_mut().enumerate() {
                        *v = match i % 11 {
                            0 => -0.0,
                            1 => 0.0,
                            _ => rng.uniform_in(-2.0, 2.0),
                        };
                    }
                    // Pixels outside [0, 1] and exact -0.0 / 0 / 1, drawn
                    // independently so that runs of -0.0 and negatives
                    // survive the resize as -0.0 canvas pixels.
                    let mut imgs = Tensor::rand_uniform(&[n, 3, t, t], -0.25, 1.25, &mut rng);
                    for v in imgs.data_mut() {
                        match rng.below(4) {
                            0 => *v = -0.0,
                            1 => *v = 0.0,
                            2 => *v = 1.0,
                            _ => {}
                        }
                    }
                    let canvas = prompt.canvas(&imgs).unwrap();
                    let k = prompt.canvas_size();
                    assert_eq!(canvas.shape(), &[n, 3, k, k]);
                    let via_canvas = prompt.apply_canvas(&canvas).unwrap();
                    let batch = prompt.apply_batch(&imgs).unwrap();
                    assert_eq!(batch.shape(), &[n, 3, 16, 16]);
                    for i in 0..n {
                        let image = imgs.sample(i).unwrap();
                        let want = bits(&reference_apply(&prompt, &image));
                        let case = format!("{style:?} t={t} n={n} i={i}");
                        assert_eq!(bits(&via_canvas.sample(i).unwrap()), want, "{case}");
                        assert_eq!(bits(&batch.sample(i).unwrap()), want, "{case}");
                        assert_eq!(bits(&prompt.apply(&image).unwrap()), want, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn malformed_batches_are_typed_errors() {
        let config_err = |r: Result<Tensor>| matches!(r, Err(VpError::InvalidConfig { .. }));
        for style in [PromptStyle::Pad, PromptStyle::Overlay] {
            let prompt = VisualPrompt::new(3, 16, 4).unwrap().with_style(style);
            // Rank != 4, a channel mismatch, an empty image plane.
            for dims in [&[3, 8, 8][..], &[2, 1, 8, 8], &[2, 3, 0, 0]] {
                let r = prompt.apply_batch(&Tensor::zeros(dims));
                assert!(config_err(r), "{style:?} {dims:?}");
            }
            let r = prompt.apply_batch(&Tensor::zeros(&[0, 3, 8, 8]));
            assert!(matches!(r, Err(VpError::Tensor(_))), "{style:?}");
            for dims in [&[1, 8, 8][..], &[1, 3, 8, 8]] {
                assert!(config_err(prompt.apply(&Tensor::zeros(dims))), "{dims:?}");
            }
            // A canvas must have the prompt's own canvas geometry.
            let k = prompt.canvas_size();
            for dims in [&[1, 3, k + 1, k + 1][..], &[0, 3, k, k], &[3, k, k]] {
                let r = prompt.apply_canvas(&Tensor::zeros(dims));
                assert!(config_err(r), "{style:?} {dims:?}");
            }
        }
    }
}
