//! Per-layer probes for the traced run. Each one times calls into a layer's
//! public functions from outside; nothing inside the program is changed.

use crate::host::Host;
use crate::report::Report;
use crate::stats::{self, geomean, median, Rng};
use crate::trace::Spans;
use spmv_core::formats::CsrMatrix;
use spmv_core::tuning::{PreparedMatrix, TunePlan, TuningConfig};
use spmv_core::{MatrixShape, SpMv};
use spmv_net::protocol::{self, Request, Response};
use spmv_net::{NetClient, ServerConfig};
use spmv_obs::HistogramSnapshot;
use spmv_parallel::SpmvEngine;
use spmv_serve::{Batcher, MatrixRegistry, ServeStats};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Median per-call seconds of one matrix on the three executors.
#[derive(Debug, Clone, Copy)]
pub struct CallTimes {
    /// Stored nonzeros (logical).
    pub nnz: usize,
    /// Serial `PreparedMatrix` of the one-thread plan.
    pub serial_s: f64,
    /// One-thread `SpmvEngine` built from the same plan.
    pub engine1_s: f64,
    /// The `nproc`-thread tuned engine.
    pub engine_n_s: f64,
    /// Tuned footprint of the `nproc` engine over nonzeros (computed).
    pub bytes_per_nnz: f64,
}

impl CallTimes {
    fn gflops(&self, secs: f64) -> f64 {
        2.0 * self.nnz as f64 / secs / 1e9
    }
}

/// Time serial, one-thread-engine and `nproc`-engine SpMV on each matrix,
/// interleaving the three so host drift hits them alike. `engines` are the
/// `nproc`-thread engines of `csrs`, in order.
pub fn call_times(
    csrs: &[&CsrMatrix],
    engines: &mut [SpmvEngine],
    per_matrix: Duration,
    seed: u64,
) -> Vec<CallTimes> {
    let config = TuningConfig::full();
    csrs.iter()
        .zip(engines.iter_mut())
        .enumerate()
        .map(|(i, (&csr, engine_n))| {
            let plan1 = TunePlan::new(csr, 1, &config);
            let serial = PreparedMatrix::materialize(csr, &plan1).expect("one-thread plan fits");
            let mut engine1 = SpmvEngine::from_plan(csr, &plan1).expect("one-thread plan fits");
            let x = Rng::new(seed, 0x1a7e + i as u64).vector(csr.ncols());
            let mut y = vec![0.0; csr.nrows()];
            let mut samples = [Vec::new(), Vec::new(), Vec::new()];
            let start = Instant::now();
            while start.elapsed() < per_matrix || samples[0].len() < 5 {
                for (k, s) in samples.iter_mut().enumerate() {
                    let t = Instant::now();
                    match k {
                        0 => serial.spmv(&x, &mut y),
                        1 => engine1.spmv(&x, &mut y),
                        _ => engine_n.spmv(&x, &mut y),
                    }
                    s.push(t.elapsed().as_secs_f64());
                }
            }
            std::hint::black_box(&y);
            let [s0, s1, s2] = samples;
            CallTimes {
                nnz: csr.nnz(),
                serial_s: median(s0),
                engine1_s: median(s1),
                engine_n_s: median(s2),
                bytes_per_nnz: engine_n.footprint_bytes() as f64 / csr.nnz() as f64,
            }
        })
        .collect()
}

/// Report the kernel-layer metrics over `times`: serial rate, engine scaling
/// and distance from the triad roof.
pub fn report_kernels(times: &[CallTimes], host: &Host, report: &mut Report) {
    let serial: Vec<f64> = times.iter().map(|t| t.gflops(t.serial_s)).collect();
    let scaling: Vec<f64> = times.iter().map(|t| t.engine1_s / t.engine_n_s).collect();
    let roof: Vec<f64> = times
        .iter()
        .map(|t| stats::pct_of_roof(t.gflops(t.engine_n_s), host.triad_gbs, t.bytes_per_nnz))
        .collect();
    report.layer("core.serial_gflops", geomean(&serial), "GFLOP/s");
    report.layer("engine.scaling", geomean(&scaling), "ratio");
    report.layer("core.pct_of_roof", geomean(&roof), "ratio");
    if !host.scaling_verified() {
        report.note(format!(
            "engine.scaling unverified: {} hardware thread(s) at measure time",
            host.parallelism
        ));
    }
}

/// Fixed cost of one engine epoch: one-thread engine minus serial execution
/// of the same plan, median over `times` (the Tiny suite).
pub fn epoch_us(times: &[CallTimes]) -> f64 {
    median(
        times
            .iter()
            .map(|t| (t.engine1_s - t.serial_s) * 1e6)
            .collect(),
    )
}

/// Per-request medians (µs) through each rung of the serving stack.
#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    /// Serial `PreparedMatrix` of the served plan.
    pub kernel: f64,
    /// `ServedMatrix::spmv_now`.
    pub engine: f64,
    /// `Batcher::submit` + `Ticket::wait`.
    pub batcher: f64,
    /// `NetClient::spmv` over loopback.
    pub net: f64,
}

/// Drive one seeded request stream, closed loop at depth 1, through the
/// kernel, engine, batcher and network rungs, request by request, checking
/// that every rung returns the kernel's bits.
pub fn ladder(
    registry: &MatrixRegistry,
    mats: &[(String, &CsrMatrix)],
    addr: SocketAddr,
    requests: usize,
    seed: u64,
    report: &mut Report,
    spans: &mut Spans,
) -> Ladder {
    let served: Vec<_> = mats
        .iter()
        .map(|(name, _)| registry.get(name).expect("ladder matrix is registered"))
        .collect();
    let prepared: Vec<_> = mats
        .iter()
        .zip(&served)
        .map(|((_, csr), s)| PreparedMatrix::materialize(csr, &s.plan()).expect("served plan fits"))
        .collect();
    let batchers: Vec<_> = served
        .iter()
        .map(|s| {
            let mut b = Batcher::isolated(s.clone(), ServerConfig::default().batch);
            b.start_service();
            b
        })
        .collect();
    let mut client = NetClient::connect(addr).expect("ladder connects to the server");
    client
        .set_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut rng = Rng::new(seed, 0x1add);
    let xs: Vec<Vec<f64>> = mats.iter().map(|(_, c)| rng.vector(c.ncols())).collect();
    let mut lat: [Vec<f64>; 4] = Default::default();
    // One warm-up pass per matrix, untimed, then the seeded stream.
    let warm = mats.len();
    for r in 0..warm + requests {
        let m = if r < warm { r } else { rng.below(mats.len()) };
        let (name, x) = (&mats[m].0, &xs[m]);
        let id = r as u64;
        let root = spans.open("ladder.request", Instant::now(), None, id);
        let mut t = [0.0; 4];
        let mut y0 = vec![0.0; prepared[m].nrows()];
        t[0] = timed(spans, "ladder.kernel", root, id, || {
            prepared[m].spmv(x, &mut y0)
        });
        let mut outs: [Option<Vec<f64>>; 3] = Default::default();
        t[1] = timed(spans, "ladder.engine", root, id, || {
            outs[0] = served[m].spmv_now(x).ok()
        });
        let owned = x.clone();
        t[2] = timed(spans, "ladder.batcher", root, id, || {
            outs[1] = batchers[m]
                .submit(owned)
                .and_then(|ticket| ticket.wait())
                .ok()
        });
        t[3] = timed(spans, "ladder.net", root, id, || {
            outs[2] = client.spmv(name, x).ok()
        });
        spans.close(root, Instant::now());
        for (rung, out) in outs.iter().enumerate() {
            report.op(out.is_some());
            if let Some(y) = out {
                report.check(stats::bitwise_eq(y, &y0), || {
                    format!("ladder rung {} on {name} differs from the kernel", rung + 1)
                });
            }
        }
        if r >= warm {
            for (l, v) in lat.iter_mut().zip(t) {
                l.push(v * 1e6);
            }
        }
    }
    let [k, e, b, n] = lat.map(median);
    Ladder {
        kernel: k,
        engine: e,
        batcher: b,
        net: n,
    }
}

fn timed(
    spans: &mut Spans,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    f: impl FnOnce(),
) -> f64 {
    let t = Instant::now();
    f();
    let end = Instant::now();
    spans.record(name, t, end, parent, id);
    (end - t).as_secs_f64()
}

/// Report the ladder as self times: each rung minus the one below it.
pub fn report_ladder(l: &Ladder, report: &mut Report) {
    report.layer("ladder.kernel_us", l.kernel, "us");
    report.layer("ladder.engine_us", l.engine - l.kernel, "us");
    report.layer("ladder.batcher_us", l.batcher - l.engine, "us");
    report.layer("ladder.net_us", l.net - l.batcher, "us");
}

/// Mean µs to encode and decode one request and its reply with the public
/// codec, over the workload's own frames.
pub fn codec_us(frames: &[(Request, Response)]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for (req, resp) in frames {
        let body = protocol::encode_request(req);
        let back = protocol::decode_request(&body).expect("own request decodes");
        let rbody = protocol::encode_response(resp);
        let rback = protocol::decode_response(&rbody).expect("own response decodes");
        std::hint::black_box((back, rback));
    }
    t.elapsed().as_secs_f64() * 1e6 / frames.len() as f64
}

/// Counters of every batcher of a registry: at one instant ([`BatcherWindow::read`]),
/// or their growth over one or more stretches of time.
#[derive(Debug, Clone)]
pub struct BatcherWindow {
    requests: u64,
    batches: u64,
    busy_s: f64,
    /// Queue-wait histogram summed over the batchers.
    wait: HistogramSnapshot,
}

impl BatcherWindow {
    /// Read `stats` (one per served matrix, held since set-up so reading them
    /// never touches the registry's LRU order).
    pub fn read(stats: &[std::sync::Arc<ServeStats>]) -> BatcherWindow {
        let mut wait = HistogramSnapshot::empty();
        for h in stats.iter().map(|s| s.queue_wait_histogram()) {
            wait.buckets
                .iter_mut()
                .zip(&h.buckets)
                .for_each(|(w, b)| *w += b);
            wait.max = wait.max.max(h.max);
        }
        BatcherWindow {
            requests: stats.iter().map(|s| s.requests()).sum(),
            batches: stats.iter().map(|s| s.batches()).sum(),
            busy_s: stats.iter().map(|s| s.snapshot().busy_seconds).sum(),
            wait,
        }
    }

    /// Growth from `before` to `self`.
    pub fn since(&self, before: &BatcherWindow) -> BatcherWindow {
        let mut wait = self.wait.clone();
        wait.buckets
            .iter_mut()
            .zip(&before.wait.buckets)
            .for_each(|(w, b)| *w -= b);
        BatcherWindow {
            requests: self.requests - before.requests,
            batches: self.batches - before.batches,
            busy_s: self.busy_s - before.busy_s,
            wait,
        }
    }

    /// Add the growth `other` to this one.
    pub fn add(&mut self, other: &BatcherWindow) {
        self.requests += other.requests;
        self.batches += other.batches;
        self.busy_s += other.busy_s;
        self.wait
            .buckets
            .iter_mut()
            .zip(&other.wait.buckets)
            .for_each(|(w, b)| *w += b);
        self.wait.max = self.wait.max.max(other.wait.max);
    }

    /// No growth yet.
    pub fn zero() -> BatcherWindow {
        BatcherWindow {
            requests: 0,
            batches: 0,
            busy_s: 0.0,
            wait: HistogramSnapshot::empty(),
        }
    }

    /// Report the batcher metrics of this growth.
    pub fn report(&self, report: &mut Report) {
        let mut wait = self.wait.clone();
        wait.count = wait.buckets.iter().sum();
        let per_batch = |v: f64| {
            if self.batches == 0 {
                0.0
            } else {
                v / self.batches as f64
            }
        };
        report.layer(
            "batcher.avg_batch",
            per_batch(self.requests as f64),
            "requests",
        );
        report.layer("batcher.queue_wait_us", wait.p50() as f64 / 1e3, "us");
        report.layer("batcher.exec_us", per_batch(self.busy_s * 1e6), "us");
    }
}
