//! Wake-path contracts of the networked server.
//!
//! Between passes every poll loop blocks until a socket is ready or it is
//! woken: by a batcher that finished a batch, by the listener after a
//! connection handoff, or by shutdown. There is no periodic timer behind
//! these paths, so a broken wake path shows up as a hang, not as a slowdown.
//! Every client here carries a read timeout, so a lost wake fails the test
//! with an error instead of hanging it. No latency figure is asserted beyond
//! "well inside the drain bound": the host may be shared.

use spmv_multicore::spmv_core::formats::{CooMatrix, CsrMatrix};
use spmv_multicore::spmv_core::tuning::TuningConfig;
use spmv_multicore::spmv_net::server::{NetServer, ServerConfig};
use spmv_multicore::spmv_net::{NetClient, ShardedNetServer, ShardedNetServerHandle};
use spmv_multicore::spmv_serve::MatrixRegistry;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Long enough for every loop to be blocked in its readiness wait.
const IDLE: Duration = Duration::from_millis(300);
/// Client read/write timeout: a lost wake errors after this.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Half the server's 5 s graceful-drain bound.
const SHUTDOWN_LIMIT: Duration = Duration::from_millis(2500);

fn tridiag(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
            coo.push(i + 1, i, -1.0);
        }
    }
    CsrMatrix::from_coo(&coo)
}

fn registry() -> Arc<MatrixRegistry> {
    let registry = Arc::new(MatrixRegistry::new(1, TuningConfig::naive()));
    registry.insert("t", &tridiag(64)).unwrap();
    registry
}

fn sharded(registry: &Arc<MatrixRegistry>) -> ShardedNetServerHandle {
    ShardedNetServer::bind(
        Arc::clone(registry),
        "127.0.0.1:0",
        ServerConfig::default(),
        2,
    )
    .expect("bind")
    .spawn()
    .expect("spawn")
}

fn connect(addr: std::net::SocketAddr) -> NetClient {
    let client = NetClient::connect(addr).expect("connect");
    client.set_timeout(Some(TIMEOUT)).unwrap();
    client
}

fn x(j: usize) -> Vec<f64> {
    (0..64)
        .map(|i| ((i * 5 + j * 3) % 17) as f64 - 8.0)
        .collect()
}

/// One spmv round trip, checked bit for bit against the in-process engine.
fn round_trip(client: &mut NetClient, registry: &MatrixRegistry, j: usize) {
    let truth = registry.get("t").unwrap().spmv_now(&x(j)).unwrap();
    let y = client
        .spmv("t", &x(j))
        .expect("answer before the client timeout");
    assert_eq!(y, truth);
}

#[test]
fn a_request_to_an_idle_server_is_answered() {
    let registry = registry();
    let mut handle = sharded(&registry);
    let mut client = connect(handle.addr());
    round_trip(&mut client, &registry, 0);
    // Every loop is now blocked; only the request's arrival can wake its shard.
    std::thread::sleep(IDLE);
    round_trip(&mut client, &registry, 1);
    drop(client);
    handle.shutdown();
}

#[test]
fn sequential_round_trips_are_each_woken_by_their_batch() {
    let registry = registry();
    let mut handle = sharded(&registry);
    let mut client = connect(handle.addr());
    for j in 0..50 {
        round_trip(&mut client, &registry, j);
    }
    assert_eq!(handle.totals().responses, 50);
    drop(client);
    handle.shutdown();

    // The single-loop server shares the wait, with the listener in its set.
    let mut single = NetServer::bind(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let mut client = connect(single.addr());
    for j in 0..50 {
        round_trip(&mut client, &registry, j);
    }
    assert_eq!(single.stats().responses(), 50);
    drop(client);
    single.shutdown();
}

#[test]
fn a_connection_opened_after_idling_is_handed_off_and_answered() {
    let registry = registry();
    let mut handle = sharded(&registry);
    // The listener and both shards are blocked with no connection at all.
    std::thread::sleep(IDLE);
    let mut client = connect(handle.addr());
    round_trip(&mut client, &registry, 2);
    assert_eq!(handle.totals().accepted, 1);
    drop(client);
    handle.shutdown();
}

#[test]
fn shutdown_wakes_idle_loops_well_within_the_drain_bound() {
    let registry = registry();

    // An idle sharded server with no connection.
    let mut handle = sharded(&registry);
    std::thread::sleep(IDLE);
    let start = Instant::now();
    handle.shutdown();
    assert!(
        start.elapsed() < SHUTDOWN_LIMIT,
        "idle shutdown took {:?}",
        start.elapsed()
    );

    // An idle sharded server holding an open, idle connection.
    let mut handle = sharded(&registry);
    let mut client = connect(handle.addr());
    round_trip(&mut client, &registry, 3);
    std::thread::sleep(IDLE);
    let start = Instant::now();
    handle.shutdown();
    assert!(
        start.elapsed() < SHUTDOWN_LIMIT,
        "shutdown with an idle connection took {:?}",
        start.elapsed()
    );
    assert_eq!(handle.totals().active(), 0, "drain closed the connection");
    drop(client);

    // The single-loop server, idle with an open connection.
    let mut single = NetServer::bind(
        Arc::clone(&registry),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let mut client = connect(single.addr());
    round_trip(&mut client, &registry, 4);
    std::thread::sleep(IDLE);
    let start = Instant::now();
    single.shutdown();
    assert!(
        start.elapsed() < SHUTDOWN_LIMIT,
        "single-loop shutdown took {:?}",
        start.elapsed()
    );
    drop(client);
}

#[test]
fn concurrent_connects_are_placed_two_per_shard() {
    let registry = registry();
    for round in 0..20 {
        let mut handle = sharded(&registry);
        let addr = handle.addr();
        let clients: Vec<NetClient> = (0..4)
            .map(|j| {
                let registry = Arc::clone(&registry);
                std::thread::spawn(move || {
                    let mut client = connect(addr);
                    round_trip(&mut client, &registry, j);
                    client
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        let active: Vec<u64> = handle.shard_stats().iter().map(|s| s.active()).collect();
        assert_eq!(active, vec![2, 2], "round {round}: placement {active:?}");
        drop(clients);
        handle.shutdown();
    }
}
