//! The host header every run prints: measure-time parallelism, last-level
//! cache size, SIMD level, and a STREAM triad probe (McCalpin) that gives the
//! bandwidth roof SpMV is judged against.

use spmv_bench::json::Json;
use std::time::Instant;

/// Cache size assumed when sysfs does not report one.
const FALLBACK_LLC_BYTES: usize = 32 << 20;

/// Triad repetitions per thread count; the best one is kept, as STREAM does.
const TRIAD_REPS: usize = 4;

/// What the host offered while the benchmark measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism` at measure time.
    pub parallelism: usize,
    /// Largest cache of the highest level sysfs reports for cpu0.
    pub llc_bytes: usize,
    /// Whether `llc_bytes` came from sysfs (otherwise the fallback).
    pub llc_from_sysfs: bool,
    /// Detected SIMD feature set of the kernels.
    pub simd: &'static str,
    /// Bytes of each of the three triad arrays.
    pub triad_array_bytes: usize,
    /// Best triad bandwidth on one thread, GB/s.
    pub triad_gbs_1t: f64,
    /// Best triad bandwidth on `parallelism` threads, GB/s.
    pub triad_gbs: f64,
}

impl Host {
    /// Probe the host; the triad arrays are each four times the LLC.
    pub fn probe() -> Host {
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (llc_bytes, llc_from_sysfs) = match sysfs_llc_bytes() {
            Some(b) => (b, true),
            None => (FALLBACK_LLC_BYTES, false),
        };
        let len = 4 * llc_bytes / 8;
        let (triad_gbs_1t, triad_gbs) = triad_probe(len, parallelism);
        Host {
            parallelism,
            llc_bytes,
            llc_from_sysfs,
            simd: spmv_core::kernels::simd::detect().suffix(),
            triad_array_bytes: len * 8,
            triad_gbs_1t,
            triad_gbs,
        }
    }

    /// Whether a multi-thread scaling figure means anything on this host.
    pub fn scaling_verified(&self) -> bool {
        self.parallelism >= 2
    }

    /// The header as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("available_parallelism", Json::int(self.parallelism)),
            ("llc_bytes", Json::int(self.llc_bytes)),
            (
                "llc_source",
                Json::str(if self.llc_from_sysfs {
                    "sysfs"
                } else {
                    "fallback"
                }),
            ),
            ("simd", Json::str(self.simd)),
            ("triad_array_bytes", Json::int(self.triad_array_bytes)),
            ("triad_gbs_1t", Json::Num(self.triad_gbs_1t)),
            ("triad_gbs", Json::Num(self.triad_gbs)),
            ("triad_threads", Json::int(self.parallelism)),
            (
                "engine_scaling_verified",
                Json::Bool(self.scaling_verified()),
            ),
        ])
    }
}

/// Parse a sysfs cache size such as `107520K`.
fn parse_size(text: &str) -> Option<usize> {
    let t = text.trim();
    let (digits, mult) = match t.chars().last()? {
        'K' => (&t[..t.len() - 1], 1 << 10),
        'M' => (&t[..t.len() - 1], 1 << 20),
        'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Size of the highest-level data or unified cache of cpu0.
fn sysfs_llc_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("index"))
        .filter_map(|e| {
            let p = e.path();
            let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
            if read("type")?.trim() == "Instruction" {
                return None;
            }
            let level: u32 = read("level")?.trim().parse().ok()?;
            Some((level, parse_size(&read("size")?)?))
        })
        .max()
        .map(|(_, size)| size)
}

/// Best triad GB/s (`a = b + s·c`, 24 bytes per element as STREAM counts it)
/// at one thread and at `threads`. Each thread first-touches and later sweeps
/// the same contiguous chunk.
fn triad_probe(len: usize, threads: usize) -> (f64, f64) {
    // Zeroed allocations of this size are mapped lazily, so the parallel fill
    // below is the first touch.
    let mut a = vec![0.0f64; len];
    let mut b = vec![0.0f64; len];
    let mut c = vec![0.0f64; len];
    let chunk = len.div_ceil(threads.max(1));
    std::thread::scope(|s| {
        for ((a, b), c) in a
            .chunks_mut(chunk)
            .zip(b.chunks_mut(chunk))
            .zip(c.chunks_mut(chunk))
        {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let mut best = |nthreads: usize| {
        let chunk = len.div_ceil(nthreads);
        (0..TRIAD_REPS)
            .map(|_| {
                let t = Instant::now();
                std::thread::scope(|s| {
                    for ((a, b), c) in a
                        .chunks_mut(chunk)
                        .zip(b.chunks(chunk))
                        .zip(c.chunks(chunk))
                    {
                        s.spawn(move || {
                            for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                                *a = b + 3.0 * c;
                            }
                        });
                    }
                });
                (24 * len) as f64 / t.elapsed().as_secs_f64() / 1e9
            })
            .fold(0.0, f64::max)
    };
    let one = best(1);
    let all = best(threads.max(1));
    std::hint::black_box(&a);
    (one, all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("107520K\n"), Some(107520 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
