//! Image transformations: the server-side "routines like scaling, edge
//! detection, etc." of §IV-C.1, plus the cropping filter motivated by the
//! focus-of-interest example in §II.

use crate::ppm::PpmImage;

/// Converts to grayscale (ITU-R 601 luma weights), kept as RGB triples so
/// the format stays uniform.
pub fn grayscale(img: &PpmImage) -> PpmImage {
    let mut out = PpmImage::new(img.width, img.height);
    for y in 0..img.height {
        for x in 0..img.width {
            let [r, g, b] = img.pixel(x, y);
            let l = (0.299 * r as f32 + 0.587 * g as f32 + 0.114 * b as f32) as u8;
            out.set_pixel(x, y, [l, l, l]);
        }
    }
    out
}

/// Sobel edge detection — the transformation the Fig. 8 experiment
/// requests on every image.
pub fn edge_detect(img: &PpmImage) -> PpmImage {
    let gray = grayscale(img);
    let mut out = PpmImage::new(img.width, img.height);
    let luma = |x: i64, y: i64| -> i32 {
        let x = x.clamp(0, img.width as i64 - 1) as usize;
        let y = y.clamp(0, img.height as i64 - 1) as usize;
        gray.pixel(x, y)[0] as i32
    };
    for y in 0..img.height as i64 {
        for x in 0..img.width as i64 {
            let gx = -luma(x - 1, y - 1) - 2 * luma(x - 1, y) - luma(x - 1, y + 1)
                + luma(x + 1, y - 1)
                + 2 * luma(x + 1, y)
                + luma(x + 1, y + 1);
            let gy = -luma(x - 1, y - 1) - 2 * luma(x, y - 1) - luma(x + 1, y - 1)
                + luma(x - 1, y + 1)
                + 2 * luma(x, y + 1)
                + luma(x + 1, y + 1);
            let mag = (((gx * gx + gy * gy) as f32).sqrt() as i32).min(255) as u8;
            out.set_pixel(x as usize, y as usize, [mag, mag, mag]);
        }
    }
    out
}

/// Box-filter resize to arbitrary dimensions — the quality handler the
/// Fig. 8 experiment uses drops 640x480 to 320x240 under congestion.
pub fn resize(img: &PpmImage, new_w: usize, new_h: usize) -> PpmImage {
    resize_rgb(&img.data, img.width, img.height, new_w, new_h)
}

/// [`resize`] over borrowed row-major RGB pixels of a `width`x`height`
/// image, so a caller holding the pixels elsewhere need not copy them.
///
/// Each output pixel is the truncated mean of the source box it covers.
/// An exact 2:1 downscale averages 2x2 blocks in one byte loop; other
/// ratios sum precomputed column spans over direct row slices. An empty
/// source yields a black image.
pub fn resize_rgb(
    pixels: &[u8],
    width: usize,
    height: usize,
    new_w: usize,
    new_h: usize,
) -> PpmImage {
    assert!(new_w > 0 && new_h > 0, "target dimensions must be positive");
    assert_eq!(pixels.len(), 3 * width * height, "pixel buffer size");
    let mut out = PpmImage::new(new_w, new_h);
    if width == 0 || height == 0 {
        return out;
    }
    let row = 3 * width;
    if width == 2 * new_w && height == 2 * new_h {
        for (dst, src) in out
            .data
            .chunks_exact_mut(3 * new_w)
            .zip(pixels.chunks_exact(2 * row))
        {
            let (top, bottom) = src.split_at(row);
            for ((o, t), b) in dst
                .chunks_exact_mut(3)
                .zip(top.chunks_exact(6))
                .zip(bottom.chunks_exact(6))
            {
                for c in 0..3 {
                    let sum = t[c] as u16 + t[c + 3] as u16 + b[c] as u16 + b[c + 3] as u16;
                    o[c] = (sum >> 2) as u8;
                }
            }
        }
        return out;
    }
    // Source span [start, end) covered by output index `i` of `n`.
    let span = |i: usize, src: usize, n: usize| {
        let start = i * src / n;
        (start, ((i + 1) * src).div_ceil(n).max(start + 1))
    };
    let columns: Vec<(usize, usize)> = (0..new_w).map(|x| span(x, width, new_w)).collect();
    for (oy, dst) in out.data.chunks_exact_mut(3 * new_w).enumerate() {
        let (y0, y1) = span(oy, height, new_h);
        let rows = &pixels[y0 * row..y1 * row];
        for (o, &(x0, x1)) in dst.chunks_exact_mut(3).zip(&columns) {
            let mut acc = [0u32; 3];
            for r in rows.chunks_exact(row) {
                for p in r[3 * x0..3 * x1].chunks_exact(3) {
                    acc[0] += p[0] as u32;
                    acc[1] += p[1] as u32;
                    acc[2] += p[2] as u32;
                }
            }
            let n = ((x1 - x0) * (y1 - y0)) as u32;
            for c in 0..3 {
                o[c] = (acc[c] / n) as u8;
            }
        }
    }
    out
}

/// Halves both dimensions (the paper's 640x480 → 320x240 step).
pub fn half(img: &PpmImage) -> PpmImage {
    resize(img, (img.width / 2).max(1), (img.height / 2).max(1))
}

/// Crops a rectangle, clamped to the image bounds (the military
/// focus-of-interest filter of §II).
pub fn crop(img: &PpmImage, x: usize, y: usize, w: usize, h: usize) -> PpmImage {
    let x = x.min(img.width);
    let y = y.min(img.height);
    let w = w.min(img.width - x);
    let h = h.min(img.height - y);
    let mut out = PpmImage::new(w, h);
    for oy in 0..h {
        for ox in 0..w {
            out.set_pixel(ox, oy, img.pixel(x + ox, y + oy));
        }
    }
    out
}

/// Applies a named transformation (the request's `operation` string).
pub fn apply(img: &PpmImage, name: &str) -> Option<PpmImage> {
    match name {
        "edge_detect" => Some(edge_detect(img)),
        "grayscale" => Some(grayscale(img)),
        "half" => Some(half(img)),
        "identity" => Some(img.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checkerboard(w: usize, h: usize, cell: usize) -> PpmImage {
        let mut img = PpmImage::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let on = ((x / cell) + (y / cell)).is_multiple_of(2);
                img.set_pixel(x, y, if on { [255, 255, 255] } else { [0, 0, 0] });
            }
        }
        img
    }

    #[test]
    fn grayscale_flattens_channels() {
        let mut img = PpmImage::new(2, 1);
        img.set_pixel(0, 0, [255, 0, 0]);
        img.set_pixel(1, 0, [0, 255, 0]);
        let g = grayscale(&img);
        let p = g.pixel(0, 0);
        assert_eq!(p[0], p[1]);
        assert_eq!(p[1], p[2]);
        // Green is perceptually brighter than red.
        assert!(g.pixel(1, 0)[0] > g.pixel(0, 0)[0]);
    }

    #[test]
    fn edges_fire_on_boundaries_not_flats() {
        let img = checkerboard(32, 32, 8);
        let edges = edge_detect(&img);
        // Interior of a cell: no edge.
        assert_eq!(edges.pixel(4, 4)[0], 0);
        // Cell boundary: strong edge.
        assert!(edges.pixel(8, 4)[0] > 200);
    }

    #[test]
    fn resize_halves_dimensions_and_payload() {
        let img = checkerboard(640, 480, 16);
        let small = half(&img);
        assert_eq!((small.width, small.height), (320, 240));
        assert_eq!(small.byte_size() * 4, img.byte_size());
    }

    #[test]
    fn resize_preserves_uniform_color() {
        let mut img = PpmImage::new(100, 60);
        for y in 0..60 {
            for x in 0..100 {
                img.set_pixel(x, y, [10, 200, 30]);
            }
        }
        let r = resize(&img, 33, 17);
        for y in 0..17 {
            for x in 0..33 {
                assert_eq!(r.pixel(x, y), [10, 200, 30]);
            }
        }
    }

    #[test]
    fn resize_upscale_works() {
        let img = checkerboard(4, 4, 2);
        let big = resize(&img, 8, 8);
        assert_eq!((big.width, big.height), (8, 8));
        assert_eq!(big.pixel(0, 0), img.pixel(0, 0));
    }

    #[test]
    fn crop_clamps_to_bounds() {
        let img = checkerboard(16, 16, 4);
        let c = crop(&img, 12, 12, 100, 100);
        assert_eq!((c.width, c.height), (4, 4));
        assert_eq!(c.pixel(0, 0), img.pixel(12, 12));
    }

    #[test]
    fn apply_dispatches_by_name() {
        let img = checkerboard(8, 8, 2);
        assert_eq!(apply(&img, "identity").unwrap(), img);
        assert_eq!(apply(&img, "half").unwrap().width, 4);
        assert!(apply(&img, "sharpen").is_none());
    }
}

/// Pins [`resize`] to the per-pixel box filter it replaced: the Fig. 8
/// expected frames are derived from the same code, so only this module
/// proves the reduced images are unchanged.
#[cfg(test)]
mod parity_tests {
    use super::*;

    /// The pre-kernel `resize`, kept verbatim.
    fn resize_reference(img: &PpmImage, new_w: usize, new_h: usize) -> PpmImage {
        assert!(new_w > 0 && new_h > 0, "target dimensions must be positive");
        let mut out = PpmImage::new(new_w, new_h);
        for oy in 0..new_h {
            for ox in 0..new_w {
                // Source box covered by this output pixel.
                let x0 = ox * img.width / new_w;
                let x1 = (((ox + 1) * img.width).div_ceil(new_w)).max(x0 + 1);
                let y0 = oy * img.height / new_h;
                let y1 = (((oy + 1) * img.height).div_ceil(new_h)).max(y0 + 1);
                let mut acc = [0u32; 3];
                let mut n = 0u32;
                for y in y0..y1.min(img.height.max(1)) {
                    for x in x0..x1.min(img.width.max(1)) {
                        let p = img.pixel(x, y);
                        for c in 0..3 {
                            acc[c] += p[c] as u32;
                        }
                        n += 1;
                    }
                }
                let n = n.max(1);
                out.set_pixel(
                    ox,
                    oy,
                    [(acc[0] / n) as u8, (acc[1] / n) as u8, (acc[2] / n) as u8],
                );
            }
        }
        out
    }

    /// Noise exercises every rounding case of the truncated means.
    fn noise(w: usize, h: usize, seed: u64) -> PpmImage {
        let mut state = seed;
        let mut img = PpmImage::new(w, h);
        for b in &mut img.data {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *b = (state >> 56) as u8;
        }
        img
    }

    #[test]
    fn resize_matches_the_per_pixel_filter_byte_for_byte() {
        let shapes = [
            // 1x1 sources and targets.
            ((1, 1), (1, 1)),
            ((1, 1), (3, 2)),
            ((5, 3), (1, 1)),
            // Odd widths and heights, and `half` of odd sizes.
            ((7, 5), (3, 2)),
            ((641, 481), (320, 240)),
            ((640, 481), (320, 240)),
            ((3, 1), (1, 1)),
            ((13, 9), (5, 7)),
            ((6, 2), (3, 1)),
            ((2, 2), (1, 1)),
            // Upscales.
            ((4, 4), (8, 8)),
            ((3, 5), (7, 11)),
            ((2, 1), (5, 3)),
            // Non-integer ratios.
            ((100, 60), (33, 17)),
            ((640, 480), (427, 319)),
            ((10, 10), (3, 7)),
            // The Fig. 8 handlers: resize_half and resize_quarter.
            ((640, 480), (320, 240)),
            ((640, 480), (160, 120)),
        ];
        for (i, ((w, h), (nw, nh))) in shapes.into_iter().enumerate() {
            let img = noise(w, h, i as u64 + 1);
            assert_eq!(
                resize(&img, nw, nh),
                resize_reference(&img, nw, nh),
                "{w}x{h} -> {nw}x{nh}"
            );
        }
    }

    #[test]
    fn empty_source_yields_black() {
        let out = resize_rgb(&[], 0, 4, 2, 2);
        assert_eq!(out, PpmImage::new(2, 2));
    }
}
