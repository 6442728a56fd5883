//! Procedural MNIST-like digit generation.
//!
//! Each digit class is defined by a *stroke skeleton*: a set of polyline
//! segments in a normalised `[0,1]²` box (circles and arcs are approximated
//! by polylines). A sample is rendered by applying a random affine jitter
//! (rotation, scale, translation) to the skeleton, rasterising it onto the
//! 28×28 grid with a distance-based soft brush, and adding pixel noise.
//!
//! This substitutes for the real MNIST files (see `DESIGN.md` §15): the
//! experiments only rely on class-conditional input statistics — strong
//! intra-class similarity with jitter-induced variability, and partial
//! inter-class overlap (4 and 9 share a loop-plus-stem structure here, just
//! as handwritten ones do) — all of which the generator preserves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use snn_core::rng::{derive_seed, splitmix64};

use crate::image::{Image, IMAGE_SIDE};

/// A 2-D point in normalised glyph coordinates.
type P = (f32, f32);

/// Polyline approximation of a circle/ellipse arc.
fn arc(cx: f32, cy: f32, rx: f32, ry: f32, a0: f32, a1: f32, n: usize) -> Vec<P> {
    (0..=n)
        .map(|i| {
            let t = a0 + (a1 - a0) * (i as f32 / n as f32);
            (cx + rx * t.cos(), cy + ry * t.sin())
        })
        .collect()
}

/// The stroke skeleton of one digit: a list of polylines.
fn glyph_strokes(digit: u8) -> Vec<Vec<P>> {
    use std::f32::consts::PI;
    match digit {
        0 => vec![arc(0.5, 0.5, 0.26, 0.36, 0.0, 2.0 * PI, 24)],
        1 => vec![
            vec![(0.38, 0.28), (0.54, 0.13)],
            vec![(0.54, 0.13), (0.54, 0.87)],
        ],
        2 => vec![
            arc(0.5, 0.32, 0.24, 0.2, -PI, -PI * 0.05, 12),
            vec![(0.73, 0.35), (0.27, 0.85)],
            vec![(0.27, 0.85), (0.76, 0.85)],
        ],
        3 => vec![
            arc(0.47, 0.3, 0.24, 0.18, -PI * 0.9, PI * 0.5, 12),
            arc(0.47, 0.68, 0.26, 0.2, -PI * 0.5, PI * 0.9, 12),
        ],
        4 => vec![
            vec![(0.62, 0.12), (0.22, 0.62)],
            vec![(0.22, 0.62), (0.8, 0.62)],
            vec![(0.62, 0.12), (0.62, 0.88)],
        ],
        5 => vec![
            vec![(0.72, 0.13), (0.3, 0.13)],
            vec![(0.3, 0.13), (0.28, 0.45)],
            arc(0.48, 0.65, 0.26, 0.22, -PI * 0.5, PI * 0.85, 14),
        ],
        6 => vec![
            vec![(0.66, 0.12), (0.36, 0.5)],
            arc(0.5, 0.66, 0.22, 0.21, 0.0, 2.0 * PI, 20),
        ],
        7 => vec![
            vec![(0.24, 0.14), (0.78, 0.14)],
            vec![(0.78, 0.14), (0.42, 0.88)],
        ],
        8 => vec![
            arc(0.5, 0.3, 0.19, 0.17, 0.0, 2.0 * PI, 18),
            arc(0.5, 0.68, 0.23, 0.2, 0.0, 2.0 * PI, 18),
        ],
        9 => vec![
            arc(0.5, 0.33, 0.21, 0.2, 0.0, 2.0 * PI, 20),
            vec![(0.7, 0.38), (0.6, 0.88)],
        ],
        other => panic!("digit out of range: {other}"),
    }
}

/// Jitter and rendering parameters for the generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Image side length in pixels.
    pub side: usize,
    /// Maximum absolute translation, as a fraction of the image side.
    pub max_shift: f32,
    /// Maximum absolute rotation in radians.
    pub max_rotation: f32,
    /// Scale is drawn from `[1 - scale_jitter, 1 + scale_jitter]`.
    pub scale_jitter: f32,
    /// Stroke half-width in pixels, before per-sample thickness jitter.
    pub stroke_px: f32,
    /// Thickness multiplier range `[1 - t, 1 + t]`.
    pub thickness_jitter: f32,
    /// Standard deviation of additive pixel noise.
    pub noise_sigma: f32,
    /// Global intensity multiplier range `[1 - i, 1]`.
    pub intensity_jitter: f32,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            side: IMAGE_SIDE,
            max_shift: 0.07,
            max_rotation: 0.16,
            scale_jitter: 0.12,
            stroke_px: 1.15,
            thickness_jitter: 0.25,
            noise_sigma: 0.02,
            intensity_jitter: 0.15,
        }
    }
}

/// Deterministic generator of MNIST-like digit images.
///
/// The image produced for a given `(class, index)` pair depends only on the
/// generator's seed, so train/test splits are defined by disjoint seed
/// streams and experiments are exactly reproducible.
#[derive(Debug, Clone)]
pub struct SyntheticDigits {
    cfg: SyntheticConfig,
    seed: u64,
}

impl SyntheticDigits {
    /// Creates a generator with the default configuration.
    pub fn new(seed: u64) -> Self {
        SyntheticDigits {
            cfg: SyntheticConfig::default(),
            seed,
        }
    }

    /// Creates a generator with an explicit configuration.
    pub fn with_config(cfg: SyntheticConfig, seed: u64) -> Self {
        SyntheticDigits { cfg, seed }
    }

    /// The generator configuration.
    pub fn config(&self) -> &SyntheticConfig {
        &self.cfg
    }

    /// Number of digit classes.
    pub fn n_classes(&self) -> usize {
        10
    }

    /// Renders sample `index` of `class` (deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `class > 9`.
    pub fn sample(&self, class: u8, index: u64) -> Image {
        self.render(class, index, rasterize)
    }

    /// [`SyntheticDigits::sample`] with the rasteriser as a parameter, so
    /// the tests can render the same draws with the full-grid reference.
    fn render(&self, class: u8, index: u64, raster: Rasterizer) -> Image {
        assert!(class <= 9, "digit classes are 0–9");
        let sample_seed = derive_seed(self.seed, splitmix64(u64::from(class)) ^ index);
        let mut rng = StdRng::seed_from_u64(sample_seed);
        let cfg = &self.cfg;
        let side = cfg.side;

        // Per-sample jitter.
        let angle = rng.gen_range(-cfg.max_rotation..=cfg.max_rotation);
        let scale = rng.gen_range(1.0 - cfg.scale_jitter..=1.0 + cfg.scale_jitter);
        let dx = rng.gen_range(-cfg.max_shift..=cfg.max_shift);
        let dy = rng.gen_range(-cfg.max_shift..=cfg.max_shift);
        let thickness =
            cfg.stroke_px * rng.gen_range(1.0 - cfg.thickness_jitter..=1.0 + cfg.thickness_jitter);
        let intensity = rng.gen_range(1.0 - cfg.intensity_jitter..=1.0f32);
        let (sin, cos) = angle.sin_cos();

        // Transform skeleton into pixel space.
        let transform = |(x, y): P| -> P {
            let (cx, cy) = (x - 0.5, y - 0.5);
            let (rx, ry) = (cx * cos - cy * sin, cx * sin + cy * cos);
            (
                (rx * scale + 0.5 + dx) * side as f32,
                (ry * scale + 0.5 + dy) * side as f32,
            )
        };
        let strokes: Vec<Vec<P>> = glyph_strokes(class)
            .into_iter()
            .map(|poly| poly.into_iter().map(transform).collect())
            .collect();

        let mut pixels = raster(&strokes, side, thickness, intensity);

        // Pixel noise.
        if cfg.noise_sigma > 0.0 {
            for px in &mut pixels {
                // Box–Muller-free noise: sum of uniforms is close enough to
                // Gaussian for speckle and avoids rand_distr dependency here.
                let u: f32 = (0..3).map(|_| rng.gen::<f32>()).sum::<f32>() / 1.5 - 1.0;
                *px = (*px + u * cfg.noise_sigma).clamp(0.0, 1.0);
            }
        }

        Image::new(side, side, pixels, class)
    }

    /// Generates `per_class` samples for every class, interleaved
    /// class-major (`c0 i0, c1 i0, …, c9 i0, c0 i1, …`).
    pub fn balanced_set(&self, per_class: u64, index_offset: u64) -> Vec<Image> {
        let mut out = Vec::with_capacity(per_class as usize * 10);
        for i in 0..per_class {
            for c in 0..10u8 {
                out.push(self.sample(c, index_offset + i));
            }
        }
        out
    }
}

/// Renders pixel-space strokes onto a `side`×`side` grid: `(strokes,
/// side, thickness, intensity) -> pixels`.
type Rasterizer = fn(&[Vec<P>], usize, f32, f32) -> Vec<f32>;

/// Anti-aliasing falloff of the brush, in pixels.
const AA: f32 = 0.9;

/// Rasterises with a soft distance brush: a pixel's value falls from
/// `intensity` to 0 as its centre's distance to the nearest segment goes
/// from `thickness` to `thickness + AA`.
///
/// Each segment is visited only over its bounding box grown by
/// `thickness + AA + 1` px, keeping a per-pixel running minimum distance;
/// the brush is applied once per pixel afterwards. The result is
/// bit-identical to measuring every pixel against every segment
/// (`DESIGN.md` §15): a segment is skipped only where it lies beyond the
/// brush's reach, so it could only have brushed the pixel to exactly 0.0,
/// and `min` is exact and order-free wherever the nearest one is visited.
fn rasterize(strokes: &[Vec<P>], side: usize, thickness: f32, intensity: f32) -> Vec<f32> {
    let mut pixels = vec![f32::INFINITY; side * side];
    let reach = thickness + AA + 1.0;
    for seg in strokes.iter().flat_map(|poly| poly.windows(2)) {
        let (a, b) = (seg[0], seg[1]);
        let Some(xs) = pixel_span(a.0.min(b.0) - reach, a.0.max(b.0) + reach, side) else {
            continue;
        };
        let Some(ys) = pixel_span(a.1.min(b.1) - reach, a.1.max(b.1) + reach, side) else {
            continue;
        };
        for y in ys {
            let row = &mut pixels[y * side..(y + 1) * side];
            for x in xs.clone() {
                let p = (x as f32 + 0.5, y as f32 + 0.5);
                row[x] = row[x].min(dist_point_segment(p, a, b));
            }
        }
    }
    for px in &mut pixels {
        let v = (1.0 - (*px - thickness) / AA).clamp(0.0, 1.0);
        *px = v * intensity;
    }
    pixels
}

/// The pixels of a `side`-pixel axis whose cells meet `[lo, hi]`, or
/// `None` when the interval misses the grid (always for an empty grid).
fn pixel_span(lo: f32, hi: f32, side: usize) -> Option<std::ops::Range<usize>> {
    if side == 0 || !(hi >= 0.0 && lo < side as f32) {
        return None;
    }
    // Clip to the grid; the cast saturates when `hi` is far off it.
    let first = lo.floor().max(0.0) as usize;
    let last = (hi.floor() as usize).min(side - 1);
    Some(first..last + 1)
}

fn dist_point_segment(p: P, a: P, b: P) -> f32 {
    let (px, py) = p;
    let (ax, ay) = a;
    let (bx, by) = b;
    let (abx, aby) = (bx - ax, by - ay);
    let len2 = abx * abx + aby * aby;
    let t = if len2 <= f32::EPSILON {
        0.0
    } else {
        (((px - ax) * abx + (py - ay) * aby) / len2).clamp(0.0, 1.0)
    };
    let (qx, qy) = (ax + t * abx, ay + t * aby);
    ((px - qx).powi(2) + (py - qy).powi(2)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_class_and_index() {
        let g = SyntheticDigits::new(42);
        assert_eq!(g.sample(3, 7), g.sample(3, 7));
        assert_ne!(g.sample(3, 7), g.sample(3, 8), "indices differ");
        assert_ne!(g.sample(3, 7), g.sample(4, 7), "classes differ");
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDigits::new(1).sample(5, 0);
        let b = SyntheticDigits::new(2).sample(5, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn images_have_ink_but_are_not_saturated() {
        let g = SyntheticDigits::new(7);
        for c in 0..10u8 {
            let img = g.sample(c, 0);
            let ink = img.ink_fraction(0.5);
            assert!(ink > 0.02, "digit {c} too faint: ink={ink}");
            assert!(ink < 0.5, "digit {c} too thick: ink={ink}");
        }
    }

    #[test]
    fn intra_class_similarity_exceeds_inter_class() {
        let g = SyntheticDigits::new(11);
        let mut intra = 0.0f32;
        let mut inter = 0.0f32;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for c in 0..10u8 {
            let a = g.sample(c, 0);
            for i in 1..4u64 {
                intra += a.cosine_similarity(&g.sample(c, i));
                n_intra += 1;
            }
            for c2 in 0..10u8 {
                if c2 != c {
                    inter += a.cosine_similarity(&g.sample(c2, 0));
                    n_inter += 1;
                }
            }
        }
        let intra = intra / n_intra as f32;
        let inter = inter / n_inter as f32;
        assert!(
            intra > inter + 0.1,
            "intra-class similarity ({intra}) must clearly exceed inter-class ({inter})"
        );
    }

    #[test]
    fn four_and_nine_overlap_more_than_one_and_zero() {
        // The paper's Fig. 10 observes 4↔9 confusion from overlapped
        // features; the generator must preserve that structure.
        let g = SyntheticDigits::new(13);
        let avg_sim = |a: u8, b: u8| -> f32 {
            let mut s = 0.0;
            for i in 0..5u64 {
                s += g.sample(a, i).cosine_similarity(&g.sample(b, i + 100));
            }
            s / 5.0
        };
        let sim49 = avg_sim(4, 9);
        let sim10 = avg_sim(1, 0);
        assert!(
            sim49 > sim10,
            "4/9 similarity ({sim49}) should exceed 1/0 similarity ({sim10})"
        );
    }

    #[test]
    fn balanced_set_layout() {
        let g = SyntheticDigits::new(3);
        let set = g.balanced_set(2, 0);
        assert_eq!(set.len(), 20);
        let labels: Vec<u8> = set.iter().map(|i| i.label).collect();
        assert_eq!(&labels[..10], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(&labels[10..], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn index_offset_gives_fresh_samples() {
        let g = SyntheticDigits::new(3);
        let a = g.balanced_set(1, 0);
        let b = g.balanced_set(1, 1000);
        assert_ne!(a[0], b[0]);
    }

    #[test]
    #[should_panic(expected = "digit classes")]
    fn class_out_of_range_panics() {
        let _ = SyntheticDigits::new(0).sample(10, 0);
    }

    /// The rasteriser [`rasterize`] replaced, kept as its exactness
    /// oracle: every pixel measured against every segment.
    fn rasterize_full_grid(
        strokes: &[Vec<P>],
        side: usize,
        thickness: f32,
        intensity: f32,
    ) -> Vec<f32> {
        let mut pixels = vec![0.0f32; side * side];
        let aa = 0.9f32; // anti-aliasing falloff in pixels
        for y in 0..side {
            for x in 0..side {
                let p = (x as f32 + 0.5, y as f32 + 0.5);
                let mut d = f32::INFINITY;
                for poly in strokes {
                    for seg in poly.windows(2) {
                        d = d.min(dist_point_segment(p, seg[0], seg[1]));
                    }
                }
                let v = (1.0 - (d - thickness) / aa).clamp(0.0, 1.0);
                pixels[y * side + x] = v * intensity;
            }
        }
        pixels
    }

    fn pixel_bits(img: &Image) -> Vec<u32> {
        img.pixels().iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn bounded_box_rasteriser_matches_the_full_grid_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(19);
        let mut blank = 0;
        for side in [0, 1, 7, 28] {
            // 0.6 and 1.5 push boxes partly and wholly off the grid.
            for max_shift in [0.0, 0.07, 0.6, 1.5] {
                for stroke_px in [0.2, 1.15, 4.0] {
                    for noise_sigma in [0.0, 0.02] {
                        let cfg = SyntheticConfig {
                            side,
                            max_shift,
                            stroke_px,
                            noise_sigma,
                            ..SyntheticConfig::default()
                        };
                        let gen = SyntheticDigits::with_config(cfg, rng.gen());
                        for class in 0..10u8 {
                            let index = rng.gen_range(0..1000);
                            let fast = gen.sample(class, index);
                            let full = gen.render(class, index, rasterize_full_grid);
                            assert_eq!(
                                pixel_bits(&fast),
                                pixel_bits(&full),
                                "{cfg:?}, class {class}, index {index}"
                            );
                            if side > 0 && fast.pixels().iter().all(|&p| p == 0.0) {
                                blank += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(blank > 0, "the sweep pushes whole digits off the grid");
    }

    #[test]
    fn default_pixels_match_the_golden_digest() {
        // FNV-1a-64 over the pixel bits of seeds 0–3, classes 0–9 and
        // indices 0–24 at the default config, as the full-grid
        // rasteriser rendered them.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..4 {
            let gen = SyntheticDigits::new(seed);
            for class in 0..10u8 {
                for index in 0..25 {
                    for px in gen.sample(class, index).pixels() {
                        for byte in px.to_bits().to_le_bytes() {
                            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(hash, 0x92eb_9bbb_03c9_201c, "default-config pixels changed");
    }

    #[test]
    fn dist_point_segment_basics() {
        // Point on the segment.
        assert!(dist_point_segment((0.5, 0.0), (0.0, 0.0), (1.0, 0.0)) < 1e-6);
        // Perpendicular distance.
        assert!((dist_point_segment((0.5, 2.0), (0.0, 0.0), (1.0, 0.0)) - 2.0).abs() < 1e-6);
        // Beyond the end: distance to endpoint.
        assert!((dist_point_segment((2.0, 0.0), (0.0, 0.0), (1.0, 0.0)) - 1.0).abs() < 1e-6);
        // Degenerate segment.
        assert!((dist_point_segment((3.0, 4.0), (0.0, 0.0), (0.0, 0.0)) - 5.0).abs() < 1e-6);
    }
}
