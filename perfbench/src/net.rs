//! `net-spmv` and `net-mixed`: loopback serving through `ShardedNetServer`.
//!
//! Each run opens `nproc` connections, one generator thread each, and drives
//! three phases in interleaved cycles: an open loop at the workload's frozen
//! offered rate (latency timed from each request's due time), a closed loop
//! at a fixed pipeline depth (saturation throughput), and CG solves over the
//! wire on a connection of their own.

use crate::host::Host;
use crate::layers::{self, BatcherWindow};
use crate::report::Report;
use crate::stats::{
    self, bitwise_eq, geomean, median, norm2, percentile_of, window_median, window_of, Rng, Zipf,
};
use crate::suite::{self, CG_MAX_ITERS, CG_TOL};
use crate::trace::Spans;
use crate::wire::{Schedule, Wire, IDLE_SLEEP};
use crate::Args;
use spmv_core::formats::CsrMatrix;
use spmv_core::tuning::TuningConfig;
use spmv_core::MatrixShape;
use spmv_matrices::{Scale, SuiteMatrix};
use spmv_net::protocol::{Op, Request, Response};
use spmv_net::{ServerConfig, ShardedNetServer, ShardedNetServerHandle};
use spmv_parallel::SpmvEngine;
use spmv_serve::{MatrixRegistry, ServeStats};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll shards of the server.
pub const SHARDS: usize = 2;
/// Offered rate of the `net-spmv` open loop, req/s: about 1/7 of its measured
/// saturation (~7000 req/s on a 2-vCPU host). At half of saturation the open
/// loop tipped into overload whenever host interference slowed the server,
/// and p99 swung 2.6–22 ms between runs.
const RATE_SPMV: f64 = 1000.0;
/// Offered rate of the `net-mixed` open loop, req/s: about 1/13 of its
/// measured saturation (~3900 req/s), for the same reason; LRU rebuilds
/// already stall a poll shard for tens of ms at this rate.
const RATE_MIXED: f64 = 300.0;
/// Requests in flight per connection in the closed-loop phase.
const DEPTH: usize = 8;
/// Seeded input vectors per matrix; replies are checked against references
/// precomputed for each.
const POOL: usize = 4;
/// Columns of an spmm request.
const SPMM_K: usize = 4;
/// CG steps per `solver_iterate` request.
const SOLVER_STEPS: u32 = 8;
/// A solver session is restarted on a fresh right-hand side after this many
/// continued calls.
const SOLVER_CONTINUES: u32 = 2;
/// Engine-resident matrices in `net-mixed`, below the 20 it registers.
const HOT_CAPACITY: usize = 19;
/// Skew of the `net-mixed` target ranks.
const ZIPF_S: f64 = 1.0;
/// Shares of the measured seconds: open loop, closed loop, and CG.
const OPEN_SHARE: f64 = 0.45;
const SAT_SHARE: f64 = 0.3;
/// A pass runs the three phases in this many interleaved cycles, so every
/// metric samples the whole run instead of one contiguous slice of it: on a
/// shared host the machine's speed drifts over seconds.
const CYCLES: usize = 5;
/// Each open- and closed-loop segment is split into this many windows by
/// time; latency percentiles and rates are medians over all windows of the
/// pass.
const WINDOWS_PER_SEGMENT: usize = 3;
/// Set-ups per untraced run; a net set-up takes about a second, so it can
/// afford more repetitions than the suite's.
const SETUP_REPS: usize = 5;
/// How long replies may trail the end of a phase before they count as lost.
const DRAIN: Duration = Duration::from_secs(5);

/// Which traffic a run sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Uniform spmv over the 14 Table-3 matrices; CG runs client-side.
    Spmv,
    /// Zipf-skewed spmv/spmm/solver traffic over 20 matrices with an LRU hot
    /// set; CG runs in server-side solver sessions.
    Mixed,
}

impl Mix {
    fn rate(self) -> f64 {
        match self {
            Mix::Spmv => RATE_SPMV,
            Mix::Mixed => RATE_MIXED,
        }
    }
}

struct Setup {
    names: Vec<String>,
    csrs: Vec<Arc<CsrMatrix>>,
    /// Indices (into `names`) of the SPD matrices, in solver-suite order.
    spd: Vec<usize>,
    registry: Arc<MatrixRegistry>,
    server: ShardedNetServerHandle,
    gen_s: f64,
    tune_s: f64,
    total_s: f64,
    resident_bytes: usize,
    bytes_per_nnz: f64,
}

const TABLE3: usize = 14;

fn setup(mix: Mix, nproc: usize, spans: &mut Spans) -> Setup {
    let start = Instant::now();
    let mut names: Vec<String> = SuiteMatrix::all()
        .iter()
        .map(|m| m.id().to_string())
        .collect();
    let mut csrs: Vec<Arc<CsrMatrix>> = SuiteMatrix::all()
        .iter()
        .map(|m| Arc::new(CsrMatrix::from_coo(&m.generate(Scale::Tiny))))
        .collect();
    for (name, csr) in spmv_bench::solver::build_solver_suite(Scale::Tiny) {
        names.push(name);
        csrs.push(Arc::new(csr));
    }
    let generated = Instant::now();
    spans.record("matrices.generate", start, generated, None, 0);
    let mut registry = MatrixRegistry::new(nproc, TuningConfig::full());
    if mix == Mix::Mixed {
        registry = registry.with_hot_capacity(HOT_CAPACITY);
    }
    let registry = Arc::new(registry);
    let mut bpn = Vec::new();
    for (i, (name, csr)) in names.iter().zip(&csrs).enumerate() {
        let t = Instant::now();
        let served = registry
            .insert_arc(name, Arc::clone(csr))
            .expect("matrix registers");
        spans.record("registry.insert", t, Instant::now(), None, i as u64);
        if i < TABLE3 {
            bpn.push(served.footprint().total_bytes as f64 / csr.nnz() as f64);
        }
    }
    let tuned = Instant::now();
    let server = ShardedNetServer::bind(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
        SHARDS,
    )
    .and_then(|s| s.spawn())
    .expect("server starts on loopback");
    spans.record("server.start", tuned, Instant::now(), None, 0);
    let resident_bytes = registry.fleet_resident_bytes();
    Setup {
        spd: (TABLE3..names.len()).collect(),
        names,
        csrs,
        registry,
        server,
        gen_s: (generated - start).as_secs_f64(),
        tune_s: (tuned - generated).as_secs_f64(),
        total_s: start.elapsed().as_secs_f64(),
        resident_bytes,
        bytes_per_nnz: geomean(&bpn),
    }
}

/// Seeded inputs and their in-process reference outputs.
struct Inputs {
    xs: Vec<Vec<Vec<f64>>>,
    ys: Vec<Vec<Vec<f64>>>,
    /// Right-hand sides per SPD matrix (indexed like `Setup::spd`).
    bs: Vec<Vec<Vec<f64>>>,
    /// Serve statistics of every matrix, held so reading them never touches
    /// the registry's LRU order.
    stats: Vec<Arc<ServeStats>>,
}

fn inputs(s: &Setup, seed: u64) -> Inputs {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut stats = Vec::new();
    for (i, (name, csr)) in s.names.iter().zip(&s.csrs).enumerate() {
        let mut rng = Rng::new(seed, 0x100 + i as u64);
        let served = s.registry.get(name).expect("registered");
        let pool: Vec<Vec<f64>> = (0..POOL).map(|_| rng.vector(csr.ncols())).collect();
        ys.push(
            pool.iter()
                .map(|x| served.spmv_now(x).expect("reference spmv"))
                .collect(),
        );
        xs.push(pool);
        stats.push(Arc::clone(served.serve_stats()));
    }
    let bs = s
        .spd
        .iter()
        .map(|&m| {
            let mut rng = Rng::new(seed, 0x200 + m as u64);
            (0..POOL).map(|_| rng.vector(s.csrs[m].nrows())).collect()
        })
        .collect();
    Inputs { xs, ys, bs, stats }
}

/// One operation of the seeded stream.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Spmv {
        m: usize,
        p: usize,
    },
    Spmm {
        m: usize,
        p: usize,
    },
    /// `j` indexes `Setup::spd`; `b` restarts the session on `bs[j][b]`.
    Solver {
        j: usize,
        b: Option<usize>,
    },
}

/// The per-connection op stream: targets, op mix and inputs from the seed.
struct OpGen {
    mix: Mix,
    rng: Rng,
    all: Zipf,
    spd: Zipf,
    continues: Vec<Option<u32>>,
}

impl OpGen {
    fn new(mix: Mix, seed: u64, conn: usize, n_spd: usize) -> OpGen {
        OpGen {
            mix,
            rng: Rng::new(seed, 0x300 + conn as u64),
            all: Zipf::new(TABLE3 + n_spd, ZIPF_S),
            spd: Zipf::new(n_spd, ZIPF_S),
            continues: vec![None; n_spd],
        }
    }

    fn next(&mut self) -> Kind {
        let p = self.rng.below(POOL);
        if self.mix == Mix::Spmv {
            return Kind::Spmv {
                m: self.rng.below(TABLE3),
                p,
            };
        }
        let u = self.rng.unit();
        if u < 0.7 {
            Kind::Spmv {
                m: self.all.sample(&mut self.rng),
                p,
            }
        } else if u < 0.9 {
            Kind::Spmm {
                m: self.all.sample(&mut self.rng),
                p,
            }
        } else {
            let j = self.spd.sample(&mut self.rng);
            let b = match self.continues[j] {
                Some(c) if c < SOLVER_CONTINUES => {
                    self.continues[j] = Some(c + 1);
                    None
                }
                _ => {
                    self.continues[j] = Some(0);
                    Some(p)
                }
            };
            Kind::Solver { j, b }
        }
    }
}

/// What the generator needs to build and check requests.
struct Ctx<'a> {
    s: &'a Setup,
    inp: &'a Inputs,
}

impl Ctx<'_> {
    fn target(&self, k: Kind) -> &str {
        match k {
            Kind::Spmv { m, .. } | Kind::Spmm { m, .. } => &self.s.names[m],
            Kind::Solver { j, .. } => &self.s.names[self.s.spd[j]],
        }
    }

    fn op(&self, k: Kind) -> Op {
        match k {
            Kind::Spmv { m, p } => Op::Spmv {
                x: self.inp.xs[m][p].clone(),
            },
            Kind::Spmm { m, p } => Op::Spmm {
                cols: (0..SPMM_K)
                    .map(|c| self.inp.xs[m][(p + c) % POOL].clone())
                    .collect(),
            },
            Kind::Solver { j, b } => Op::SolverIterate {
                steps: SOLVER_STEPS,
                b: b.map(|b| self.inp.bs[j][b].clone()),
            },
        }
    }

    /// The reply the reference predicts (solver replies are stand-ins of the
    /// right size; they are verified by replay instead).
    fn reference(&self, id: u64, k: Kind) -> Response {
        match k {
            Kind::Spmv { m, p } => Response::Spmv {
                id,
                y: self.inp.ys[m][p].clone(),
            },
            Kind::Spmm { m, p } => Response::Spmm {
                id,
                cols: (0..SPMM_K)
                    .map(|c| self.inp.ys[m][(p + c) % POOL].clone())
                    .collect(),
            },
            Kind::Solver { j, .. } => Response::Solver {
                id,
                x: self.inp.bs[j][0].clone(),
                residual: 0.0,
            },
        }
    }

    fn flops(&self, k: Kind) -> f64 {
        match k {
            Kind::Spmv { m, .. } => 2.0 * self.s.csrs[m].nnz() as f64,
            Kind::Spmm { m, .. } => (2 * SPMM_K * self.s.csrs[m].nnz()) as f64,
            Kind::Solver { .. } => 0.0,
        }
    }
}

/// A solver call as sent, and the fingerprint of its reply.
#[derive(Debug, Clone)]
struct SolverCall {
    j: usize,
    b: Option<usize>,
    reply: Option<(u64, u64)>,
}

/// One connection's outcome.
#[derive(Default)]
struct Tally {
    /// Due time and latency (µs; infinite when failed) of each request.
    lat: Vec<(Instant, f64)>,
    lag_ms: Vec<f64>,
    backlog: u64,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    /// Completion time and useful flops of each successful request.
    done: Vec<(Instant, f64)>,
    solver_log: Vec<SolverCall>,
}

impl Tally {
    /// Check one reply against its reference; returns whether it succeeded.
    fn settle(&mut self, ctx: &Ctx, k: Kind, log: Option<usize>, resp: Response) -> bool {
        let ok = match (k, resp) {
            (Kind::Spmv { m, p }, Response::Spmv { y, .. }) => {
                self.note_match(bitwise_eq(&y, &ctx.inp.ys[m][p]), ctx, k);
                true
            }
            (Kind::Spmm { m, p }, Response::Spmm { cols, .. }) => {
                let same = cols.len() == SPMM_K
                    && cols
                        .iter()
                        .enumerate()
                        .all(|(c, y)| bitwise_eq(y, &ctx.inp.ys[m][(p + c) % POOL]));
                self.note_match(same, ctx, k);
                true
            }
            (Kind::Solver { .. }, Response::Solver { x, residual, .. }) => {
                if let Some(i) = log {
                    self.solver_log[i].reply = Some((stats::bits_hash(&x), residual.to_bits()));
                }
                true
            }
            (_, Response::Error { code, message, .. }) => {
                eprintln!(
                    "request to {} failed: code {code}: {message}",
                    ctx.target(k)
                );
                false
            }
            (_, other) => {
                self.note_match(false, ctx, k);
                eprintln!("unexpected reply kind {other:?}");
                false
            }
        };
        if ok {
            self.done.push((Instant::now(), ctx.flops(k)));
        } else {
            self.failed += 1;
        }
        ok
    }

    fn note_match(&mut self, same: bool, ctx: &Ctx, k: Kind) {
        if !same {
            self.mismatches += 1;
            eprintln!("reply for {k:?} on {} differs from spmv_now", ctx.target(k));
        }
    }

    fn log_solver(&mut self, k: Kind) -> Option<usize> {
        if let Kind::Solver { j, b } = k {
            self.solver_log.push(SolverCall { j, b, reply: None });
            Some(self.solver_log.len() - 1)
        } else {
            None
        }
    }
}

/// Open loop on one connection: send on schedule, read whatever has arrived,
/// sleep briefly when there is nothing to do.
fn open_loop(
    wire: &mut Wire,
    gen: &mut OpGen,
    ctx: &Ctx,
    mut sched: Schedule,
    tally: &mut Tally,
    spans: &mut Spans,
) {
    let mut pending: HashMap<u64, (Instant, Kind, Option<usize>, Option<usize>)> = HashMap::new();
    let mut backlog = None;
    let mut spent_at = None;
    let mut broken = false;
    wire.set_nonblocking(true).expect("nonblocking socket");
    loop {
        let mut progressed = false;
        while let Some((_, due)) = sched.take_due(Instant::now()) {
            let k = gen.next();
            let sent = Instant::now();
            tally.lag_ms.push((sent - due).as_secs_f64() * 1e3);
            tally.attempted += 1;
            let root = spans.open("client.request", due, None, wire.next_id());
            let log = tally.log_solver(k);
            match wire.send(ctx.target(k), ctx.op(k), spans, root) {
                Ok(id) => {
                    pending.insert(id, (due, k, log, root));
                }
                Err(e) => {
                    eprintln!("send failed: {e}");
                    tally.failed += 1;
                    broken = true;
                }
            }
            progressed = true;
        }
        while !broken {
            match wire.try_recv(spans) {
                Ok(Some(resp)) => {
                    let done = Instant::now();
                    let Some((due, k, log, root)) = pending.remove(&resp.id()) else {
                        tally.mismatches += 1;
                        eprintln!("reply to unknown request {}", resp.id());
                        continue;
                    };
                    spans.close(root, done);
                    let ok = tally.settle(ctx, k, log, resp);
                    let us = (done - due).as_secs_f64() * 1e6;
                    tally.lat.push((due, if ok { us } else { f64::INFINITY }));
                    progressed = true;
                }
                Ok(None) => break,
                Err(e) => {
                    eprintln!("connection failed: {e}");
                    broken = true;
                }
            }
        }
        let now = Instant::now();
        let next = sched.next_due();
        if next.is_none() {
            let backlog = *backlog.get_or_insert(pending.len() as u64);
            let late = now - *spent_at.get_or_insert(now) > DRAIN;
            if pending.is_empty() || late || broken {
                tally.backlog = backlog;
                break;
            }
        } else if broken {
            // Count the rest of the schedule as sent and lost.
            while let Some((_, due)) = sched.take_due(Instant::now() + Duration::from_secs(3600)) {
                tally.attempted += 1;
                tally.failed += 1;
                tally.lat.push((due, f64::INFINITY));
            }
        }
        if !progressed {
            let wait = next.map_or(IDLE_SLEEP, |d| {
                d.saturating_duration_since(now).min(IDLE_SLEEP)
            });
            std::thread::sleep(wait);
        }
    }
    for (_, (due, ..)) in pending.drain() {
        tally.failed += 1;
        tally.lat.push((due, f64::INFINITY));
    }
    wire.set_nonblocking(false).expect("blocking socket");
}

/// Closed loop on one connection: keep `DEPTH` requests in flight until
/// `end`, then collect the stragglers.
fn closed_loop(
    wire: &mut Wire,
    gen: &mut OpGen,
    ctx: &Ctx,
    end: Instant,
    tally: &mut Tally,
    spans: &mut Spans,
) {
    let mut pending: HashMap<u64, (Kind, Option<usize>)> = HashMap::new();
    let mut send =
        |wire: &mut Wire, tally: &mut Tally, pending: &mut HashMap<_, _>, spans: &mut Spans| {
            let k = gen.next();
            tally.attempted += 1;
            let log = tally.log_solver(k);
            match wire.send(ctx.target(k), ctx.op(k), spans, None) {
                Ok(id) => {
                    pending.insert(id, (k, log));
                    true
                }
                Err(e) => {
                    eprintln!("send failed: {e}");
                    tally.failed += 1;
                    false
                }
            }
        };
    for _ in 0..DEPTH {
        if !send(wire, tally, &mut pending, spans) {
            break;
        }
    }
    while !pending.is_empty() {
        match wire.recv(spans) {
            Ok(resp) => {
                let Some((k, log)) = pending.remove(&resp.id()) else {
                    tally.mismatches += 1;
                    continue;
                };
                tally.settle(ctx, k, log, resp);
                if Instant::now() < end && !send(wire, tally, &mut pending, spans) {
                    break;
                }
            }
            Err(e) => {
                eprintln!("connection failed: {e}");
                break;
            }
        }
    }
    tally.failed += pending.len() as u64;
}

/// Conjugate gradients with the products supplied by `apply`; the same code
/// runs over the wire and, as the reference, in process.
fn client_cg(
    b: &[f64],
    mut apply: impl FnMut(&[f64]) -> Option<Vec<f64>>,
) -> Option<(Vec<f64>, u64)> {
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    let tol = CG_TOL * norm2(b);
    let mut x = vec![0.0; b.len()];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut rr = dot(&r, &r);
    for k in 0..CG_MAX_ITERS {
        if rr.sqrt() <= tol {
            return Some((x, k));
        }
        let w = apply(&p)?;
        let alpha = rr / dot(&p, &w);
        for i in 0..x.len() {
            x[i] += alpha * p[i];
            r[i] -= alpha * w[i];
        }
        let next = dot(&r, &r);
        let beta = next / rr;
        for i in 0..p.len() {
            p[i] = r[i] + beta * p[i];
        }
        rr = next;
    }
    None
}

/// Server-side CG: `solver_iterate` calls until the residual reaches the
/// tolerance. `step(b)` runs one call; returns the iterate and the number of
/// calls.
fn session_cg(
    b: &[f64],
    mut step: impl FnMut(Option<&[f64]>) -> Option<(Vec<f64>, f64)>,
) -> Option<(Vec<f64>, u64)> {
    let tol = CG_TOL * norm2(b);
    let (mut x, mut res) = step(Some(b))?;
    let mut calls = 1;
    while res > tol {
        if calls * SOLVER_STEPS as u64 >= CG_MAX_ITERS {
            return None;
        }
        (x, res) = step(None)?;
        calls += 1;
    }
    Some((x, calls))
}

/// Solve times of the CG segments of one pass.
struct CgTimes {
    /// Milliseconds per solve, per SPD system.
    times: Vec<Vec<f64>>,
    iters: u64,
    secs: f64,
}

impl CgTimes {
    /// Σ over the systems of the median solve.
    fn solve_ms(&self) -> f64 {
        self.times.iter().map(|t| median(t.clone())).sum()
    }
}

/// One CG segment on one connection: solve each SPD system for fresh seeded
/// right-hand sides until `budget` is spent (at least one round), and verify
/// every answer against an in-process replay and the true residual.
#[allow(clippy::too_many_arguments)]
fn cg_phase(
    mix: Mix,
    wire: &mut Wire,
    ctx: &Ctx,
    rng: &mut Rng,
    budget: Duration,
    cg: &mut CgTimes,
    report: &mut Report,
    spans: &mut Spans,
) {
    let s = ctx.s;
    let CgTimes { times, iters, secs } = cg;
    let start = Instant::now();
    let mut rounds = 0;
    while start.elapsed() < budget || rounds == 0 {
        rounds += 1;
        for (j, &m) in s.spd.iter().enumerate() {
            let (name, csr) = (&s.names[m], &s.csrs[m]);
            let b = rng.vector(csr.nrows());
            let id = times[j].len() as u64;
            let t = Instant::now();
            let root = spans.open("cg.solve", t, None, id);
            let remote = match mix {
                Mix::Spmv => client_cg(&b, |p| {
                    match spans.time("net.spmv", root, id, || {
                        wire.call(name, Op::Spmv { x: p.to_vec() }, &mut Spans::new(t, false))
                    }) {
                        Ok(Response::Spmv { y, .. }) => Some(y),
                        _ => None,
                    }
                }),
                Mix::Mixed => session_cg(&b, |b| {
                    let op = Op::SolverIterate {
                        steps: SOLVER_STEPS,
                        b: b.map(<[f64]>::to_vec),
                    };
                    match spans.time("net.solver_iterate", root, id, || {
                        wire.call(name, op, &mut Spans::new(t, false))
                    }) {
                        Ok(Response::Solver { x, residual, .. }) => Some((x, residual)),
                        _ => None,
                    }
                }),
            };
            let end = Instant::now();
            spans.close(root, end);
            report.op(remote.is_some());
            let Some((x, count)) = remote else {
                continue;
            };
            // The in-process replay sees the same products only if every
            // reply was bit-identical to the registry's own.
            let reference = match mix {
                Mix::Spmv => {
                    let served = s.registry.get(name).expect("registered");
                    client_cg(&b, |p| served.spmv_now(p).ok())
                }
                Mix::Mixed => {
                    let mut session: Option<spmv_serve::SolverSession> = None;
                    session_cg(&b, |b| {
                        let sess = match (&mut session, b) {
                            (Some(open), Some(b)) => {
                                open.reset(b).ok()?;
                                open
                            }
                            (None, Some(b)) => {
                                session.insert(s.registry.solver_session(name, b).ok()?)
                            }
                            (Some(open), None) => open,
                            (None, None) => return None,
                        };
                        let res = sess.iterate(SOLVER_STEPS as u64).ok()?;
                        Some((sess.extract(), res))
                    })
                    .map(|(x, calls)| {
                        let n = session.as_ref().map_or(calls, |s| s.iterations());
                        (x, n)
                    })
                }
            };
            let ran = reference.as_ref().map_or(0, |r| r.1);
            report.check(reference.is_some_and(|(rx, _)| bitwise_eq(&rx, &x)), || {
                format!("CG over the wire on {name} differs from the in-process replay")
            });
            report.check(suite::true_residual_ok(csr, &b, &x), || {
                format!("CG over the wire on {name} missed the true-residual bound")
            });
            let solve = (end - t).as_secs_f64();
            times[j].push(solve * 1e3);
            *secs += solve;
            *iters += if mix == Mix::Spmv { count } else { ran };
        }
    }
}

/// Replay every solver call of every connection in process and compare the
/// reply fingerprints.
fn verify_solver_log(ctx: &Ctx, logs: &[Vec<SolverCall>], report: &mut Report) {
    for log in logs {
        let mut sessions: Vec<Option<spmv_serve::SolverSession>> =
            (0..ctx.s.spd.len()).map(|_| None).collect();
        let mut broken = vec![false; ctx.s.spd.len()];
        for call in log {
            let name = &ctx.s.names[ctx.s.spd[call.j]];
            let Some(reply) = call.reply else {
                broken[call.j] = true;
                continue;
            };
            if broken[call.j] && call.b.is_none() {
                continue;
            }
            broken[call.j] = false;
            let slot = &mut sessions[call.j];
            let session = match (call.b, slot.as_mut()) {
                (Some(b), Some(s)) => {
                    s.reset(&ctx.inp.bs[call.j][b]).expect("reset");
                    s
                }
                (Some(b), None) => slot.insert(
                    ctx.s
                        .registry
                        .solver_session(name, &ctx.inp.bs[call.j][b])
                        .expect("session opens"),
                ),
                (None, Some(s)) => s,
                (None, None) => {
                    report.check(false, || format!("solver call on {name} without a session"));
                    continue;
                }
            };
            let residual = session.iterate(SOLVER_STEPS as u64).expect("iterate");
            let expected = (stats::bits_hash(session.solution()), residual.to_bits());
            report.check(expected == reply, || {
                format!("solver reply on {name} differs from the in-process session")
            });
        }
    }
}

/// Counters of the registry and the shards: at one instant
/// ([`Window::read`]), or their growth over one or more stretches of time.
struct Window {
    batcher: BatcherWindow,
    evictions: u64,
    rebuilds: u64,
    bytes: u64,
    requests: u64,
}

impl Window {
    fn read(s: &Setup, inp: &Inputs) -> Window {
        let shards = s.server.shard_stats();
        Window {
            batcher: BatcherWindow::read(&inp.stats),
            evictions: s.registry.evictions(),
            rebuilds: s.registry.cold_rebuilds(),
            bytes: shards.iter().map(|n| n.bytes_in() + n.bytes_out()).sum(),
            requests: shards.iter().map(|n| n.requests()).sum(),
        }
    }

    fn zero() -> Window {
        Window {
            batcher: BatcherWindow::zero(),
            evictions: 0,
            rebuilds: 0,
            bytes: 0,
            requests: 0,
        }
    }

    /// Growth from `before` to `self`.
    fn since(&self, before: &Window) -> Window {
        Window {
            batcher: self.batcher.since(&before.batcher),
            evictions: self.evictions - before.evictions,
            rebuilds: self.rebuilds - before.rebuilds,
            bytes: self.bytes - before.bytes,
            requests: self.requests - before.requests,
        }
    }

    fn add(&mut self, other: &Window) {
        self.batcher.add(&other.batcher);
        self.evictions += other.evictions;
        self.rebuilds += other.rebuilds;
        self.bytes += other.bytes;
        self.requests += other.requests;
    }
}

/// Wait (at most `DRAIN`) until every shard has seen its connections close,
/// so that a pass's shard placement does not count the previous pass's
/// connections.
fn await_idle(s: &Setup) {
    let start = Instant::now();
    while s.server.shard_stats().iter().any(|n| n.active() > 0) && start.elapsed() < DRAIN {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Connections accepted so far by each shard.
fn accepted(s: &Setup) -> Vec<u64> {
    s.server
        .shard_stats()
        .iter()
        .map(|n| n.accepted())
        .collect()
}

/// Max ÷ mean of connections per shard.
fn shard_skew(per: &[u64]) -> f64 {
    let mean = per.iter().sum::<u64>() as f64 / per.len().max(1) as f64;
    let max = per.iter().copied().max().unwrap_or(0) as f64;
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

struct Pass {
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    sat_rps: f64,
    spmv_gflops: f64,
    cg: CgTimes,
    /// Growth of the counters over the open-loop segments.
    open: Window,
    /// Generator connections placed on each shard.
    placement: Vec<u64>,
    lag_ms: Vec<f64>,
    backlog: u64,
}

/// A latency percentile in which failed requests (infinite latency) count as
/// taking the whole phase.
fn latency_pct(lat: Vec<f64>, p: f64, phase_s: f64) -> f64 {
    percentile_of(lat, p).min(phase_s * 1e6)
}

/// One pass: `CYCLES` rounds of an open-loop segment, a closed-loop segment
/// and a CG segment.
fn measure(
    mix: Mix,
    s: &Setup,
    inp: &Inputs,
    args: &Args,
    nconn: usize,
    report: &mut Report,
    spans: &mut Spans,
) -> Pass {
    let ctx = Ctx { s, inp };
    let share = |f: f64| Duration::from_secs_f64(args.seconds * f / CYCLES as f64);
    let last_window = |cycle: usize| (cycle + 1) * WINDOWS_PER_SEGMENT - 1;
    let (open_len, sat_len, cg_len) = (
        share(OPEN_SHARE),
        share(SAT_SHARE),
        share(1.0 - OPEN_SHARE - SAT_SHARE),
    );
    let n_spd = s.spd.len();
    await_idle(s);
    let before = accepted(s);
    let mut carry: Vec<(Wire, OpGen)> = (0..nconn)
        .map(|c| {
            let wire = Wire::connect(s.server.addr()).expect("connect to loopback server");
            (wire, OpGen::new(mix, args.seed, c, n_spd))
        })
        .collect();
    // CG runs on a connection of its own, opened after the generators', so
    // its server-side sessions never meet the generators' solver calls and
    // the shard placement seen is the generators' own.
    let mut cg_wire: Option<Wire> = None;
    let mut placement = None;
    let interval = Duration::from_secs_f64(nconn as f64 / mix.rate());
    let mut open = Window::zero();
    let (mut lat, mut lag_ms, mut backlog, mut done) = (Vec::new(), Vec::new(), 0, Vec::new());
    let mut logs: Vec<Vec<SolverCall>> = vec![Vec::new(); nconn];
    let mut cg_rng = Rng::new(args.seed, 0xc6);
    let mut cg = CgTimes {
        times: vec![Vec::new(); n_spd],
        iters: 0,
        secs: 0.0,
    };
    for cycle in 0..CYCLES {
        // Open loop, evenly spaced sends staggered across the connections.
        let w0 = Window::read(s, inp);
        let t0 = Instant::now() + Duration::from_millis(20);
        let end = t0 + open_len;
        let parent: &Spans = spans;
        let results: Vec<(Tally, Spans, Wire, OpGen)> = std::thread::scope(|scope| {
            let handles: Vec<_> = carry
                .drain(..)
                .enumerate()
                .map(|(c, (mut wire, mut gen))| {
                    let ctx = &ctx;
                    let mut spans = parent.child();
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        let start = t0 + interval.mul_f64(c as f64 / nconn as f64);
                        let sched = Schedule::new(start, interval, end);
                        open_loop(&mut wire, &mut gen, ctx, sched, &mut tally, &mut spans);
                        (tally, spans, wire, gen)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        open.add(&Window::read(s, inp).since(&w0));
        placement.get_or_insert_with(|| {
            let now = accepted(s);
            now.iter()
                .zip(&before)
                .map(|(a, b)| a - b)
                .collect::<Vec<u64>>()
        });
        for (c, (mut tally, sp, wire, gen)) in results.into_iter().enumerate() {
            lat.extend(tally.lat.iter().map(|&(due, us)| {
                let w = window_of(due, cycle, t0, open_len, WINDOWS_PER_SEGMENT);
                (w.unwrap_or(last_window(cycle)), us)
            }));
            lag_ms.append(&mut tally.lag_ms);
            backlog += tally.backlog;
            absorb(report, &tally);
            // Server-side sessions live as long as the connection, so each
            // connection's calls replay as one sequence.
            logs[c].append(&mut tally.solver_log);
            spans.absorb(sp);
            carry.push((wire, gen));
        }

        // Closed loop at a fixed depth on the same connections.
        let sat_start = Instant::now();
        let sat_end = sat_start + sat_len;
        let parent: &Spans = spans;
        let results: Vec<(Tally, Spans, Wire, OpGen)> = std::thread::scope(|scope| {
            let handles: Vec<_> = carry
                .drain(..)
                .map(|(mut wire, mut gen)| {
                    let ctx = &ctx;
                    let mut spans = parent.child();
                    scope.spawn(move || {
                        let mut tally = Tally::default();
                        closed_loop(&mut wire, &mut gen, ctx, sat_end, &mut tally, &mut spans);
                        (tally, spans, wire, gen)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        for (c, (mut tally, sp, wire, gen)) in results.into_iter().enumerate() {
            // Replies that trail the end of the segment are not counted.
            done.extend(tally.done.iter().filter_map(|&(at, flops)| {
                window_of(at, cycle, sat_start, sat_len, WINDOWS_PER_SEGMENT).map(|w| (w, flops))
            }));
            absorb(report, &tally);
            logs[c].append(&mut tally.solver_log);
            spans.absorb(sp);
            carry.push((wire, gen));
        }

        let wire = cg_wire.get_or_insert_with(|| {
            Wire::connect(s.server.addr()).expect("connect to loopback server")
        });
        cg_phase(mix, wire, &ctx, &mut cg_rng, cg_len, &mut cg, report, spans);
    }
    verify_solver_log(&ctx, &logs, report);

    let windows = CYCLES * WINDOWS_PER_SEGMENT;
    let open_s = open_len.as_secs_f64() * CYCLES as f64;
    let window_s = sat_len.as_secs_f64() / WINDOWS_PER_SEGMENT as f64;
    let pct = |p: f64| window_median(&lat, windows, |v| latency_pct(v, p, open_s));
    Pass {
        p50_us: pct(50.0),
        p90_us: pct(90.0),
        p99_us: latency_pct(lat.iter().map(|l| l.1).collect(), 99.0, open_s),
        sat_rps: window_median(&done, windows, |v| v.len() as f64 / window_s),
        spmv_gflops: window_median(&done, windows, |v| v.iter().sum::<f64>() / window_s / 1e9),
        cg,
        open,
        placement: placement.unwrap_or_default(),
        lag_ms,
        backlog,
    }
}

fn absorb(report: &mut Report, t: &Tally) {
    report.attempted += t.attempted;
    report.failed += t.failed;
    report.mismatches += t.mismatches;
}

/// Run `net-spmv` or `net-mixed` and fill `report`.
pub fn run(mix: Mix, args: &Args, host: &Host, report: &mut Report) -> Spans {
    let nproc = host.parallelism;
    let origin = Instant::now();
    let mut spans = Spans::new(origin, args.trace);
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut times = Vec::new();
    let mut s = None;
    for _ in 0..reps {
        // Dropping a set-up shuts its server down and joins its threads.
        drop(s.take());
        let next = setup(mix, nproc, &mut spans);
        times.push((next.total_s, next.gen_s, next.tune_s));
        s = Some(next);
    }
    let s = s.expect("at least one set-up");
    let inp = inputs(&s, args.seed);
    let nconn = nproc.max(1);

    if !args.trace {
        let mut off = Spans::new(origin, false);
        let p = measure(mix, &s, &inp, args, nconn, report, &mut off);
        report.note(format!(
            "shard placement {:?}: net.shard_skew {:.2}; open-loop p99 {:.0} us",
            p.placement,
            shard_skew(&p.placement),
            p.p99_us
        ));
        report.e2e("setup_s", median(times.iter().map(|t| t.0).collect()), "s");
        report.e2e("resident_mb", s.resident_bytes as f64 / 1e6, "MB");
        report.e2e("spmv_gflops", p.spmv_gflops, "GFLOP/s");
        report.e2e("cg_solve_ms", p.cg.solve_ms(), "ms");
        report.e2e("p50_us", p.p50_us, "us");
        report.e2e("p90_us", p.p90_us, "us");
        report.e2e("sat_rps", p.sat_rps, "req/s");
        return spans;
    }

    let mut off = Spans::new(origin, false);
    let base = measure(mix, &s, &inp, args, nconn, report, &mut off);
    let p = measure(mix, &s, &inp, args, nconn, report, &mut spans);
    report.layer("matrices.gen_s", times[0].1, "s");
    report.layer("tuning.tune_s", times[0].2, "s");
    report.layer("tuning.bytes_per_nnz", s.bytes_per_nnz, "B/nnz");
    report.layer("host.triad_gbs", host.triad_gbs, "GB/s");
    report.layer("host.triad_gbs_1t", host.triad_gbs_1t, "GB/s");

    let csrs: Vec<&CsrMatrix> = s.csrs[..TABLE3].iter().map(|c| c.as_ref()).collect();
    let mut engines: Vec<SpmvEngine> = csrs
        .iter()
        .map(|c| SpmvEngine::tuned(c, nproc, &TuningConfig::full()).expect("tiny matrix tunes"))
        .collect();
    let kt = layers::call_times(&csrs, &mut engines, Duration::from_millis(60), args.seed);
    drop(engines);
    layers::report_kernels(&kt, host, report);
    report.layer("engine.epoch_us", layers::epoch_us(&kt), "us");

    report.layer("solver.iters", p.cg.iters as f64, "count");
    report.layer(
        "solver.iter_us",
        p.cg.secs * 1e6 / p.cg.iters.max(1) as f64,
        "us",
    );
    let spd: Vec<(String, Arc<CsrMatrix>)> = s
        .spd
        .iter()
        .map(|&m| (s.names[m].clone(), Arc::clone(&s.csrs[m])))
        .collect();
    report.layer("solver.open_ms", suite::open_ms(&s.registry, &spd), "ms");

    let w = &p.open;
    w.batcher.report(report);
    report.layer("registry.evictions", w.evictions as f64, "count");
    report.layer("registry.cold_rebuilds", w.rebuilds as f64, "count");
    report.layer("registry.rebuild_ms", rebuild_ms(&s), "ms");
    if mix == Mix::Spmv {
        report.note(
            "registry.rebuild_ms reads 0 on net-spmv: the hot set is uncapped, nothing is demoted",
        );
    }
    report.layer(
        "net.bytes_per_req",
        w.bytes as f64 / w.requests.max(1) as f64,
        "B",
    );
    let frames = sample_frames(mix, &s, &inp, args.seed, 256);
    report.layer("net.codec_us", layers::codec_us(&frames), "us");
    report.layer("net.shard_skew", shard_skew(&p.placement), "ratio");
    report.note(format!(
        "shard placement {:?} (generator connections per shard)",
        p.placement
    ));
    report.layer("client.lag_ms", percentile_of(p.lag_ms.clone(), 99.0), "ms");
    report.layer(
        "client.lag_max_ms",
        percentile_of(p.lag_ms.clone(), 100.0),
        "ms",
    );
    report.layer("client.backlog", p.backlog as f64, "count");
    report.layer("client.p99_pooled_us", p.p99_us, "us");

    let mats: Vec<(String, &CsrMatrix)> = s.names[..TABLE3]
        .iter()
        .cloned()
        .zip(csrs.iter().copied())
        .collect();
    let l = layers::ladder(
        &s.registry,
        &mats,
        s.server.addr(),
        420,
        args.seed,
        report,
        &mut spans,
    );
    layers::report_ladder(&l, report);

    let overhead = 100.0 * (p.p50_us / base.p50_us - 1.0);
    report.layer("trace.overhead_pct", overhead, "%");
    report.note(format!(
        "tracing overhead: p50_us {:.1} untraced vs {:.1} traced on seed {}",
        base.p50_us, p.p50_us, args.seed
    ));
    spans
}

/// Median time of `MatrixRegistry::get` on demoted entries (0 when none).
fn rebuild_ms(s: &Setup) -> f64 {
    let cold: Vec<&String> = s
        .names
        .iter()
        .filter(|n| !s.registry.is_hot(n))
        .take(5)
        .collect();
    if cold.is_empty() {
        return 0.0;
    }
    median(
        cold.iter()
            .map(|n| {
                let t = Instant::now();
                s.registry.get(n).expect("registered");
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    )
}

/// The first `n` requests of connection 0's stream with their reference
/// replies: the frames the codec is timed on.
fn sample_frames(
    mix: Mix,
    s: &Setup,
    inp: &Inputs,
    seed: u64,
    n: usize,
) -> Vec<(Request, Response)> {
    let ctx = Ctx { s, inp };
    let mut gen = OpGen::new(mix, seed, 0, s.spd.len());
    (0..n as u64)
        .map(|id| {
            let k = gen.next();
            (
                Request::new(id, ctx.target(k), ctx.op(k)),
                ctx.reference(id, k),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_requests_count_as_missing_the_latency_limit() {
        let mut lat = vec![100.0; 98];
        lat.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(latency_pct(lat.clone(), 50.0, 1.0), 100.0);
        assert_eq!(latency_pct(lat, 99.0, 1.0), 1e6);
    }

    #[test]
    fn client_cg_solves_a_small_spd_system() {
        // A = [[4, 1], [1, 3]], b = [1, 2]  →  x = [1/11, 7/11].
        let apply = |p: &[f64]| Some(vec![4.0 * p[0] + p[1], p[0] + 3.0 * p[1]]);
        let (x, iters) = client_cg(&[1.0, 2.0], apply).expect("converges");
        assert!(iters <= 2);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-12 && (x[1] - 7.0 / 11.0).abs() < 1e-12);
    }
}
