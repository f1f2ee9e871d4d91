//! `suite-spmv`: the paper's method in process. All 14 Table-3 matrices at
//! quarter scale are tuned at `nproc` threads and multiplied repeatedly, one
//! operator at a time, as an iterative solver reuses one operator; in
//! interleaved cycles with that, CG solves run on resident sessions over the
//! 6 SPD symmetric matrices (at small scale, see [`CG_SCALE`]).
//! The kernels, the tuner and the engine do almost all the work here.

use crate::host::Host;
use crate::layers;
use crate::report::Report;
use crate::stats::{geomean, median, norm2, percentile_of, window_median, window_of, Rng};
use crate::trace::Spans;
use crate::Args;
use spmv_core::formats::CsrMatrix;
use spmv_core::tuning::TuningConfig;
use spmv_core::{MatrixShape, SpMv};
use spmv_matrices::{Scale, SuiteMatrix};
use spmv_net::{ServerConfig, ShardedNetServer};
use spmv_parallel::SpmvEngine;
use spmv_serve::MatrixRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of the measured seconds given to the SpMV phase (the rest is CG).
const SPMV_SHARE: f64 = 0.6;
/// A pass runs the two phases in this many interleaved cycles, so both
/// sample the whole run instead of one contiguous slice of it: on a shared
/// host the machine's speed drifts over seconds.
const CYCLES: usize = 5;
/// Each SpMV segment is split into this many windows by time; latency
/// percentiles and the call rate are medians over all windows of the pass.
const WINDOWS_PER_SEGMENT: usize = 3;
/// Consecutive calls on one operator before moving to the next.
const CALLS_PER_BLOCK: usize = 8;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// CG stops at `‖r‖ ≤ CG_TOL·‖b‖` (recurrence residual).
pub const CG_TOL: f64 = 1e-8;
/// A CG answer passes when its true residual `‖b − A·x‖` is within this
/// share of `‖b‖`; the recurrence residual drifts from the true one by
/// rounding, so the check is looser than the stopping tolerance.
pub const TRUE_RESIDUAL_TOL: f64 = 1e-6;
/// Iteration cap of one solve.
pub const CG_MAX_ITERS: u64 = 20_000;
/// Scale of the CG phase's SPD systems. Quarter-scale symmetric tuning alone
/// costs ~8 s per set-up on a 2-core host; small scale keeps three set-ups
/// per run affordable while every solve still spans many epochs.
const CG_SCALE: Scale = Scale::Small;
/// Engine output vs serial CSR: allowed error per row, relative to
/// `Σ|a_ij·x_j|` (summation order and FMA differ, values must not).
const SPMV_REL_TOL: f64 = 1e-10;

struct Setup {
    names: Vec<&'static str>,
    csrs: Vec<CsrMatrix>,
    engines: Vec<SpmvEngine>,
    registry: Arc<MatrixRegistry>,
    spd: Vec<(String, Arc<CsrMatrix>)>,
    gen_s: f64,
    tune_s: f64,
    total_s: f64,
}

fn setup(nproc: usize, spans: &mut Spans) -> Setup {
    let config = TuningConfig::full();
    let start = Instant::now();
    let (mut gen_s, mut tune_s) = (0.0, 0.0);
    let (mut csrs, mut engines) = (Vec::new(), Vec::new());
    for (i, m) in SuiteMatrix::all().iter().enumerate() {
        let t = Instant::now();
        let csr = CsrMatrix::from_coo(&m.generate(Scale::Quarter));
        let g = Instant::now();
        engines.push(SpmvEngine::tuned(&csr, nproc, &config).expect("suite matrix tunes"));
        let e = Instant::now();
        spans.record("matrices.generate", t, g, None, i as u64);
        spans.record("tuning.engine_tuned", g, e, None, i as u64);
        gen_s += (g - t).as_secs_f64();
        tune_s += (e - g).as_secs_f64();
        csrs.push(csr);
    }
    let t = Instant::now();
    let spd: Vec<(String, Arc<CsrMatrix>)> = spmv_bench::solver::build_solver_suite(CG_SCALE)
        .into_iter()
        .map(|(n, c)| (n, Arc::new(c)))
        .collect();
    let g = Instant::now();
    spans.record("matrices.generate_spd", t, g, None, 0);
    gen_s += (g - t).as_secs_f64();
    let registry = Arc::new(MatrixRegistry::new(nproc, config));
    for (i, (name, csr)) in spd.iter().enumerate() {
        let t = Instant::now();
        registry
            .insert_arc(name, Arc::clone(csr))
            .expect("SPD matrix registers");
        spans.record("registry.insert", t, Instant::now(), None, i as u64);
        tune_s += t.elapsed().as_secs_f64();
    }
    Setup {
        names: SuiteMatrix::all().iter().map(|m| m.id()).collect(),
        csrs,
        engines,
        registry,
        spd,
        gen_s,
        tune_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// Engine output matches the serial CSR product up to rounding.
fn spmv_matches(csr: &CsrMatrix, x: &[f64], y: &[f64]) -> bool {
    let mut reference = vec![0.0; csr.nrows()];
    csr.spmv(x, &mut reference);
    let (ptr, idx, val) = (csr.row_ptr(), csr.col_idx(), csr.values());
    (0..csr.nrows()).all(|i| {
        let scale: f64 = (ptr[i]..ptr[i + 1])
            .map(|k| (val[k] * x[idx[k] as usize]).abs())
            .sum();
        (y[i] - reference[i]).abs() <= SPMV_REL_TOL * scale
    })
}

/// `‖b − A·x‖ ≤ TRUE_RESIDUAL_TOL·‖b‖`, with a serial CSR multiply.
pub fn true_residual_ok(csr: &CsrMatrix, b: &[f64], x: &[f64]) -> bool {
    let mut ax = vec![0.0; csr.nrows()];
    csr.spmv(x, &mut ax);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(b, a)| b - a).collect();
    norm2(&r) <= TRUE_RESIDUAL_TOL * norm2(b)
}

struct Pass {
    spmv_gflops: f64,
    p50_us: f64,
    p90_us: f64,
    sat_rps: f64,
    p99_us: f64,
    cg_solve_ms: f64,
    cg_iters: u64,
    cg_secs: f64,
}

fn measure(s: &mut Setup, args: &Args, report: &mut Report, spans: &mut Spans) -> Pass {
    let spmv_budget = Duration::from_secs_f64(args.seconds * SPMV_SHARE / CYCLES as f64);
    let cg_budget = Duration::from_secs_f64(args.seconds * (1.0 - SPMV_SHARE) / CYCLES as f64);

    let xs: Vec<Vec<f64>> = s
        .csrs
        .iter()
        .enumerate()
        .map(|(i, csr)| Rng::new(args.seed, i as u64).vector(csr.ncols()))
        .collect();
    let check = |s: &mut Setup, report: &mut Report| {
        for (i, x) in xs.iter().enumerate() {
            let mut y = vec![0.0; s.csrs[i].nrows()];
            s.engines[i].spmv(x, &mut y);
            report.check(spmv_matches(&s.csrs[i], x, &y), || {
                format!("engine SpMV on {} differs from serial CSR", s.names[i])
            });
        }
    };
    check(s, report);
    // CG: one resident session per SPD matrix, a fresh seeded b per solve.
    let mut rng = Rng::new(args.seed, 0xc6);
    let mut sessions: Vec<_> = s
        .spd
        .iter()
        .map(|(name, csr)| {
            s.registry
                .solver_session(name, &vec![1.0; csr.nrows()])
                .expect("session opens")
        })
        .collect();
    let mut solve_ms: Vec<Vec<f64>> = vec![Vec::new(); s.spd.len()];
    let (mut iters, mut cg_secs) = (0u64, 0.0);
    // (matrix, window, seconds) of every SpMV call.
    let mut calls: Vec<(usize, usize, f64)> = Vec::new();
    let mut ys: Vec<Vec<f64>> = s.csrs.iter().map(|c| vec![0.0; c.nrows()]).collect();
    let mut call = 0u64;
    for cycle in 0..CYCLES {
        // SpMV segment: blocks of calls on one operator, round-robin over
        // the suite.
        let start = Instant::now();
        while start.elapsed() < spmv_budget {
            for (i, engine) in s.engines.iter_mut().enumerate() {
                let block = spans.open("suite.block", Instant::now(), None, i as u64);
                for _ in 0..CALLS_PER_BLOCK {
                    let t = Instant::now();
                    engine.spmv(&xs[i], &mut ys[i]);
                    let end = Instant::now();
                    spans.record("engine.spmv", t, end, block, call);
                    // The round that overruns the segment counts in its last window.
                    let w = window_of(t, cycle, start, spmv_budget, WINDOWS_PER_SEGMENT)
                        .unwrap_or((cycle + 1) * WINDOWS_PER_SEGMENT - 1);
                    calls.push((i, w, (end - t).as_secs_f64()));
                    report.op(true);
                    call += 1;
                }
                spans.close(block, Instant::now());
            }
        }

        // CG segment: at least one solve per system.
        let start = Instant::now();
        let mut rounds = 0;
        while start.elapsed() < cg_budget || rounds == 0 {
            rounds += 1;
            for (i, ((name, csr), session)) in s.spd.iter().zip(&mut sessions).enumerate() {
                let b = rng.vector(csr.nrows());
                let id = solve_ms[i].len() as u64;
                let t = Instant::now();
                let root = spans.open("cg.solve", t, None, id);
                let ran = spans
                    .time("solver.reset", root, id, || session.reset(&b))
                    .and_then(|()| {
                        spans.time("solver.solve", root, id, || {
                            session.solve(CG_TOL * norm2(&b), CG_MAX_ITERS)
                        })
                    });
                let end = Instant::now();
                spans.close(root, end);
                let ok = matches!(ran, Ok(n) if n < CG_MAX_ITERS);
                report.op(ok);
                if let Ok(n) = ran {
                    iters += n;
                    cg_secs += (end - t).as_secs_f64();
                    solve_ms[i].push((end - t).as_secs_f64() * 1e3);
                    let x = session.solution();
                    report.check(true_residual_ok(csr, &b, x), || {
                        format!("CG on {name} missed the true-residual bound")
                    });
                }
            }
        }
    }
    std::hint::black_box(&ys);
    check(s, report);
    // Each matrix's median call over the pass → GFLOP/s, geomean over the
    // suite; latency percentiles and call rate per window, median over the
    // windows.
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); s.csrs.len()];
    for &(i, _, secs) in &calls {
        per[i].push(secs);
    }
    let rates: Vec<f64> = s
        .csrs
        .iter()
        .zip(per)
        .map(|(csr, l)| 2.0 * csr.nnz() as f64 / median(l) / 1e9)
        .collect();
    let windows = CYCLES * WINDOWS_PER_SEGMENT;
    let us: Vec<(usize, f64)> = calls.iter().map(|c| (c.1, c.2 * 1e6)).collect();
    let pct = |p: f64| window_median(&us, windows, |v| percentile_of(v, p));
    // A single caller's rate is the inverse of its mean call time.
    let rate = |v: Vec<f64>| v.len() as f64 * 1e6 / v.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    Pass {
        spmv_gflops: geomean(&rates),
        p50_us: pct(50.0),
        p90_us: pct(90.0),
        sat_rps: window_median(&us, windows, rate),
        p99_us: percentile_of(us.iter().map(|u| u.1).collect(), 99.0),
        cg_solve_ms: solve_ms.into_iter().map(median).sum(),
        cg_iters: iters,
        cg_secs,
    }
}

/// Run `suite-spmv` and fill `report`.
pub fn run(args: &Args, host: &Host, report: &mut Report) -> Spans {
    let nproc = host.parallelism;
    let origin = Instant::now();
    let mut spans = Spans::new(origin, args.trace);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..reps {
        drop(s.take());
        let next = setup(nproc, &mut spans);
        setups.push((next.total_s, next.gen_s, next.tune_s));
        s = Some(next);
    }
    let mut s = s.expect("at least one set-up");
    let resident: usize = s.engines.iter().map(|e| e.footprint_bytes()).sum::<usize>()
        + s.registry.fleet_resident_bytes();

    if !args.trace {
        let mut off = Spans::new(origin, false);
        let p = measure(&mut s, args, report, &mut off);
        report.e2e("setup_s", median(setups.iter().map(|t| t.0).collect()), "s");
        report.e2e("resident_mb", resident as f64 / 1e6, "MB");
        report.e2e("spmv_gflops", p.spmv_gflops, "GFLOP/s");
        report.e2e("cg_solve_ms", p.cg_solve_ms, "ms");
        report.e2e("p50_us", p.p50_us, "us");
        report.e2e("p90_us", p.p90_us, "us");
        report.e2e("sat_rps", p.sat_rps, "req/s");
        return spans;
    }

    // Traced run: the same seed untraced, then traced, then the layer probes.
    let mut off = Spans::new(origin, false);
    let base = measure(&mut s, args, report, &mut off);
    let p = measure(&mut s, args, report, &mut spans);
    report.layer("matrices.gen_s", setups[0].1, "s");
    report.layer("tuning.tune_s", setups[0].2, "s");
    let bpn: Vec<f64> = s
        .engines
        .iter()
        .zip(&s.csrs)
        .map(|(e, c)| e.footprint_bytes() as f64 / c.nnz() as f64)
        .collect();
    report.layer("tuning.bytes_per_nnz", geomean(&bpn), "B/nnz");
    report.layer("host.triad_gbs", host.triad_gbs, "GB/s");
    report.layer("host.triad_gbs_1t", host.triad_gbs_1t, "GB/s");

    let csrs: Vec<&CsrMatrix> = s.csrs.iter().collect();
    let times = layers::call_times(&csrs, &mut s.engines, Duration::from_millis(150), args.seed);
    layers::report_kernels(&times, host, report);
    let tiny: Vec<CsrMatrix> = SuiteMatrix::all()
        .iter()
        .map(|m| CsrMatrix::from_coo(&m.generate(Scale::Tiny)))
        .collect();
    let tiny_refs: Vec<&CsrMatrix> = tiny.iter().collect();
    let mut tiny_engines: Vec<SpmvEngine> = tiny
        .iter()
        .map(|c| SpmvEngine::tuned(c, nproc, &TuningConfig::full()).expect("tiny matrix tunes"))
        .collect();
    let tiny_times = layers::call_times(
        &tiny_refs,
        &mut tiny_engines,
        Duration::from_millis(60),
        args.seed,
    );
    report.layer("engine.epoch_us", layers::epoch_us(&tiny_times), "us");

    report.layer("solver.iters", p.cg_iters as f64, "count");
    report.layer(
        "solver.iter_us",
        p.cg_secs * 1e6 / p.cg_iters.max(1) as f64,
        "us",
    );
    report.layer("solver.open_ms", open_ms(&s.registry, &s.spd), "ms");

    for (name, unit) in [
        ("batcher.avg_batch", "requests"),
        ("batcher.queue_wait_us", "us"),
        ("batcher.exec_us", "us"),
        ("registry.evictions", "count"),
        ("registry.cold_rebuilds", "count"),
        ("registry.rebuild_ms", "ms"),
        ("net.bytes_per_req", "B"),
        ("net.codec_us", "us"),
        ("net.shard_skew", "ratio"),
        ("client.lag_ms", "ms"),
        ("client.lag_max_ms", "ms"),
        ("client.backlog", "count"),
    ] {
        report.layer(name, 0.0, unit);
    }
    report.layer("client.p99_pooled_us", p.p99_us, "us");
    report.note(
        "batcher.*, registry.*, net.* and client.lag/backlog read 0 on suite-spmv: its \
         closed loop calls the engine and solver sessions directly, so no request crosses \
         those layers and nothing is scheduled",
    );

    // The ladder needs a server; suite-spmv starts one over its SPD registry.
    let mut server = ShardedNetServer::bind(
        Arc::clone(&s.registry),
        "127.0.0.1:0",
        ServerConfig::default(),
        crate::net::SHARDS,
    )
    .and_then(|srv| srv.spawn())
    .expect("ladder server starts");
    let mats: Vec<(String, &CsrMatrix)> =
        s.spd.iter().map(|(n, c)| (n.clone(), c.as_ref())).collect();
    let l = layers::ladder(
        &s.registry,
        &mats,
        server.addr(),
        120,
        args.seed,
        report,
        &mut spans,
    );
    server.shutdown();
    layers::report_ladder(&l, report);
    report.note("ladder on suite-spmv: the 6 SPD matrices of the CG phase");

    let overhead = 100.0 * (base.spmv_gflops / p.spmv_gflops - 1.0);
    report.layer("trace.overhead_pct", overhead, "%");
    report.note(format!(
        "tracing overhead: spmv_gflops {:.4} untraced vs {:.4} traced on seed {}",
        base.spmv_gflops, p.spmv_gflops, args.seed
    ));
    spans
}

/// Median time to open a solver session on each SPD matrix.
pub fn open_ms(registry: &MatrixRegistry, spd: &[(String, Arc<CsrMatrix>)]) -> f64 {
    median(
        spd.iter()
            .map(|(name, csr)| {
                let b = vec![1.0; csr.nrows()];
                let t = Instant::now();
                let session = registry.solver_session(name, &b).expect("session opens");
                let ms = t.elapsed().as_secs_f64() * 1e3;
                drop(session);
                ms
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_reject_wrong_answers() {
        let csr = CsrMatrix::from_coo(&SuiteMatrix::FemCantilever.generate(Scale::Tiny));
        let x = Rng::new(1, 0).vector(csr.ncols());
        let mut y = vec![0.0; csr.nrows()];
        csr.spmv(&x, &mut y);
        assert!(spmv_matches(&csr, &x, &y));
        y[3] += 1e-3;
        assert!(!spmv_matches(&csr, &x, &y));
        let zero = vec![0.0; csr.ncols()];
        assert!(!true_residual_ok(&csr, &x, &zero));
    }
}
