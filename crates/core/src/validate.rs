//! Image validation (paper Fig. 2: "Only 0.3% of pixels rendered ...
//! differ from an NVIDIA GPU") and configuration validation.
//!
//! Framebuffers are stored as packed RGBA8 words; [`pixel_diff_fraction`]
//! reports the fraction of pixels whose channels differ by more than a
//! tolerance — the number quoted when validating the simulator's functional
//! model against the reference renderer.
//!
//! [`validate_config`] rejects degenerate knob combinations *before* a run
//! starts, so a bad configuration surfaces as a structured error instead
//! of a silent clamp or a mid-run panic.

use vksim_gpu::GpuConfig;
use vksim_isa::SimMemory;
use vksim_mem::{CacheConfig, DramSched};

/// A configuration knob was rejected by [`validate_config`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// Which knob was rejected and why.
    pub detail: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid configuration: {}", self.detail)
    }
}

impl std::error::Error for ConfigError {}

/// Checks a resolved GPU configuration for degenerate knob values: a
/// machine with no SMs, no warp slots per SM, or an RT unit that admits
/// no warp, queues no fetch or issues none per cycle; an FR-FCFS queue
/// depth of 0, zero partitions or channels that do not split
/// evenly over them, a cache that cannot hold one line (the L1, the RT
/// cache, one L2 slice), an L1 or RT cache with no MSHR entry, or a DRAM
/// channel with no banks or zero-byte rows.
///
/// Each of these would otherwise panic inside a constructor or on the
/// first DRAM access, or spin until `max_cycles`; the constructors keep
/// their asserts as a second line of defense.
///
/// # Errors
///
/// Returns a [`ConfigError`] naming the offending knob.
pub fn validate_config(config: &GpuConfig) -> Result<(), ConfigError> {
    let rt = &config.rt_unit;
    for (knob, value) in [
        ("num_sms", config.num_sms),
        ("max_warps_per_sm", config.max_warps_per_sm),
        ("rt_unit.max_warps", rt.max_warps),
        ("rt_unit.mem_queue", rt.mem_queue),
        ("rt_unit.issue_per_cycle", rt.issue_per_cycle),
    ] {
        if value == 0 {
            return reject(format!("{knob} must be >= 1"));
        }
    }
    let mem = &config.mem;
    if let DramSched::FrFcfs { queue_depth: 0, .. } = mem.dram.sched {
        return reject(
            "DramSched::FrFcfs queue_depth must be >= 1 (0 would mean no bank \
             queue at all; use FCFS for unscheduled DRAM)",
        );
    }
    if mem.num_partitions == 0 {
        return reject("mem.num_partitions must be >= 1 (1 is the monolithic backend)");
    }
    if mem.dram.channels == 0 || !mem.dram.channels.is_multiple_of(mem.num_partitions) {
        return reject("mem.dram.channels must be a nonzero multiple of mem.num_partitions");
    }
    check_cache("l1", &config.l1)?;
    if let Some(rtc) = &config.rt_cache {
        check_cache("rt_cache", rtc)?;
    }
    check_cache("mem.l2", &mem.l2.sliced(mem.num_partitions))?;
    if mem.dram.banks_per_channel == 0 {
        return reject("mem.dram.banks_per_channel must be >= 1");
    }
    if mem.dram.row_bytes == 0 {
        return reject("mem.dram.row_bytes must be >= 1");
    }
    Ok(())
}

fn reject(detail: impl Into<String>) -> Result<(), ConfigError> {
    Err(ConfigError {
        detail: detail.into(),
    })
}

/// A cache (for the L2, one partition's slice) must hold at least one
/// nonzero-sized line and track at least one miss (each L2 slice is
/// floored at one MSHR entry); without one it refuses every miss for ever.
fn check_cache(knob: &str, cache: &CacheConfig) -> Result<(), ConfigError> {
    if cache.mshr_entries == 0 {
        return reject(format!("{knob}.mshr_entries must be >= 1"));
    }
    if cache.line_bytes == 0 {
        return reject(format!("{knob}.line_bytes must be >= 1"));
    }
    if cache.size_bytes < u64::from(cache.line_bytes) {
        return reject(format!(
            "{knob}.size_bytes ({}) must hold at least one {}-byte line",
            cache.size_bytes, cache.line_bytes
        ));
    }
    Ok(())
}

/// Packs `[0,1]` RGB floats into an RGBA8 word (alpha = 255). This is the
/// quantization the shaders emit; the reference renderer uses it too so
/// comparisons are apples-to-apples.
pub fn pack_rgba8(r: f32, g: f32, b: f32) -> u32 {
    let q = |v: f32| (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u32;
    q(r) | (q(g) << 8) | (q(b) << 16) | 0xFF00_0000
}

/// Unpacks an RGBA8 word into `[r, g, b]` bytes.
pub fn unpack_rgb(px: u32) -> [u8; 3] {
    [
        (px & 0xFF) as u8,
        ((px >> 8) & 0xFF) as u8,
        ((px >> 16) & 0xFF) as u8,
    ]
}

/// Reads a framebuffer of `count` RGBA8 pixels from simulated memory.
pub fn read_framebuffer(mem: &SimMemory, base: u64, count: usize) -> Vec<u32> {
    (0..count)
        .map(|i| mem.read_u32(base + i as u64 * 4))
        .collect()
}

/// The two images passed to [`pixel_diff_fraction`] have different pixel
/// counts, so a per-pixel comparison is meaningless.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageSizeMismatch {
    /// Pixel count of the first image.
    pub a: usize,
    /// Pixel count of the second image.
    pub b: usize,
}

impl std::fmt::Display for ImageSizeMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "image size mismatch: {} vs {} pixels", self.a, self.b)
    }
}

impl std::error::Error for ImageSizeMismatch {}

/// Fraction of pixels differing by more than `tolerance` in any channel.
///
/// # Errors
///
/// Returns [`ImageSizeMismatch`] if the images have different sizes.
pub fn pixel_diff_fraction(a: &[u32], b: &[u32], tolerance: u8) -> Result<f64, ImageSizeMismatch> {
    if a.len() != b.len() {
        return Err(ImageSizeMismatch {
            a: a.len(),
            b: b.len(),
        });
    }
    if a.is_empty() {
        return Ok(0.0);
    }
    let differing = a
        .iter()
        .zip(b)
        .filter(|(&pa, &pb)| {
            let ca = unpack_rgb(pa);
            let cb = unpack_rgb(pb);
            ca.iter().zip(&cb).any(|(&x, &y)| x.abs_diff(y) > tolerance)
        })
        .count();
    Ok(differing as f64 / a.len() as f64)
}

/// Writes an image as a binary PPM (P6) byte vector — handy for dumping
/// rendered frames from examples.
pub fn to_ppm(pixels: &[u32], width: u32, height: u32) -> Vec<u8> {
    let mut out = format!("P6\n{width} {height}\n255\n").into_bytes();
    for &px in pixels {
        out.extend_from_slice(&unpack_rgb(px));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fr_fcfs_depth_is_rejected_with_a_structured_error() {
        let mut config = GpuConfig::baseline();
        config.mem.dram.sched = DramSched::FrFcfs {
            queue_depth: 0,
            age_cap: 100,
        };
        let err = validate_config(&config).expect_err("depth 0 must be rejected");
        assert!(err.detail.contains("queue_depth"), "{err}");
        assert!(err.to_string().starts_with("invalid configuration:"));
    }

    /// `channels` DRAM channels over `partitions` partitions of the baseline.
    fn channel_groups(channels: u32, partitions: u32) -> Result<(), ConfigError> {
        let mut config = GpuConfig::baseline();
        config.mem.dram.channels = channels;
        config.mem.num_partitions = partitions;
        validate_config(&config)
    }

    fn assert_channels_rejected(channels: u32, partitions: u32) {
        let err = channel_groups(channels, partitions).expect_err("uneven channel groups");
        assert!(err.detail.contains("mem.dram.channels"), "{err}");
    }

    #[test]
    fn zero_dram_channels_are_rejected() {
        assert_channels_rejected(0, 1);
    }

    #[test]
    fn six_channels_over_four_partitions_are_rejected() {
        assert_channels_rejected(6, 4);
    }

    #[test]
    fn six_channels_over_eight_partitions_are_rejected() {
        assert_channels_rejected(6, 8);
    }

    #[test]
    fn even_channel_groups_validate() {
        assert_eq!(channel_groups(8, 4), Ok(()));
        assert_eq!(channel_groups(8, 8), Ok(()));
    }

    #[test]
    fn healthy_configs_validate() {
        assert_eq!(validate_config(&GpuConfig::baseline()), Ok(()));
        assert_eq!(validate_config(&GpuConfig::paper()), Ok(()));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let px = pack_rgba8(1.0, 0.5, 0.0);
        let [r, g, b] = unpack_rgb(px);
        assert_eq!(r, 255);
        assert!((g as i32 - 128).abs() <= 1);
        assert_eq!(b, 0);
    }

    #[test]
    fn pack_clamps_out_of_range() {
        let [r, g, b] = unpack_rgb(pack_rgba8(2.0, -1.0, 0.25));
        assert_eq!(r, 255);
        assert_eq!(g, 0);
        assert!((b as i32 - 64).abs() <= 1);
    }

    #[test]
    fn identical_images_have_zero_diff() {
        let img = vec![pack_rgba8(0.1, 0.2, 0.3); 100];
        assert_eq!(pixel_diff_fraction(&img, &img, 0), Ok(0.0));
    }

    #[test]
    fn diff_fraction_counts_changed_pixels() {
        let a = vec![pack_rgba8(0.0, 0.0, 0.0); 100];
        let mut b = a.clone();
        for px in b.iter_mut().take(3) {
            *px = pack_rgba8(1.0, 1.0, 1.0);
        }
        assert!((pixel_diff_fraction(&a, &b, 0).unwrap() - 0.03).abs() < 1e-9);
    }

    #[test]
    fn tolerance_forgives_small_differences() {
        let a = vec![pack_rgba8(0.500, 0.5, 0.5); 10];
        let b = vec![pack_rgba8(0.503, 0.5, 0.5); 10];
        assert_eq!(pixel_diff_fraction(&a, &b, 2), Ok(0.0));
        let c = vec![pack_rgba8(0.6, 0.5, 0.5); 10];
        assert_eq!(pixel_diff_fraction(&a, &c, 2), Ok(1.0));
    }

    #[test]
    fn size_mismatch_is_an_error_not_a_panic() {
        let err = pixel_diff_fraction(&[0], &[0, 0], 0).unwrap_err();
        assert_eq!(err, ImageSizeMismatch { a: 1, b: 2 });
        assert!(err.to_string().contains("1 vs 2"));
    }

    #[test]
    fn framebuffer_read_and_ppm() {
        let mut mem = SimMemory::new();
        mem.write_u32(0x100, pack_rgba8(1.0, 0.0, 0.0));
        mem.write_u32(0x104, pack_rgba8(0.0, 1.0, 0.0));
        let fb = read_framebuffer(&mem, 0x100, 2);
        let ppm = to_ppm(&fb, 2, 1);
        assert!(ppm.starts_with(b"P6\n2 1\n255\n"));
        assert_eq!(&ppm[ppm.len() - 6..], &[255, 0, 0, 0, 255, 0]);
    }
}
