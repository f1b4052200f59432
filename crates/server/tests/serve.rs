//! End-to-end daemon tests: concurrent mixed clients against one shared
//! engine, every reply checked against a solo-engine reference; error
//! paths (bad specs, out-of-range vertices, injected I/O faults) that
//! must leave connections and engine invariants intact; and
//! reconciliation of the `serve` flight-recorder group against what the
//! clients actually observed.

use gstore_core::{GStoreEngine, QueryValue, SweepQuery};
use gstore_graph::gen::{generate_rmat, RmatParams};
use gstore_io::{MemBackend, StorageBackend};
use gstore_metrics::{Counter::*, Hist};
use gstore_scr::ScrConfig;
use gstore_server::{read_frame, serve, Client, Reply, ServeOptions, MAX_REQUEST};
use gstore_tile::{ConversionOptions, TileStore};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// PageRank solo-vs-batch agreement bound (established in the multi-query
/// engine tests); everything else compares exactly.
const PR_TOL: f64 = 1e-6;

fn small_store() -> TileStore {
    let el = generate_rmat(&RmatParams::kron(9, 6)).unwrap();
    TileStore::build(&el, &ConversionOptions::new(4).with_group_side(2)).unwrap()
}

fn scr_for(store: &TileStore) -> ScrConfig {
    let seg = (store.data_bytes() / 4).max(512);
    ScrConfig::new(seg, seg * 3).unwrap()
}

fn engine_for(store: &TileStore) -> GStoreEngine {
    GStoreEngine::builder()
        .store(store)
        .scr(scr_for(store))
        .metrics(true)
        .build()
        .unwrap()
}

/// The mixed workload: every sweep kind plus every point-read kind.
const MIXED: [&str; 9] = [
    "bfs:0",
    "bfs:3",
    "pagerank:5",
    "wcc",
    "kcore:2",
    "degrees",
    "neighbors:1",
    "degree:2",
    "khop:0:2",
];

/// Solo-engine reference answers for each spec, computed without the
/// daemon (fresh engine per sweep so nothing is shared).
fn reference_answers(store: &TileStore, specs: &[&str], walk_seed: u64) -> Vec<QueryValue> {
    let tiling = *store.layout().tiling();
    let engine = engine_for(store);
    let degrees = store.degrees().to_vec();
    let reader = engine.point_reader();
    specs
        .iter()
        .map(|spec| {
            let q: gstore_core::QuerySpec = spec.parse().unwrap();
            match q.kind() {
                gstore_core::QueryKind::Point => {
                    gstore_core::spec::run_point(&reader, &q, walk_seed).unwrap()
                }
                gstore_core::QueryKind::Sweep => {
                    let mut solo = engine_for(store);
                    let mut query = SweepQuery::new(&q, tiling, Some(&degrees)).unwrap();
                    solo.run(query.algorithm_mut(), 10_000).unwrap();
                    query.result()
                }
            }
        })
        .collect()
}

fn expect_value(reply: Reply, spec: &str) -> QueryValue {
    match reply {
        Reply::Value(v) => v,
        other => panic!("{spec}: expected a value, got {other:?}"),
    }
}

#[test]
fn mixed_queries_match_solo_reference() {
    let store = small_store();
    let reference = reference_answers(&store, &MIXED, 42);
    let handle = serve(engine_for(&store), ServeOptions::default()).unwrap();
    let addr = handle.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    for (spec, expected) in MIXED.iter().zip(&reference) {
        let got = expect_value(client.query_retrying(spec, 100).unwrap(), spec);
        assert!(
            got.approx_eq(expected, PR_TOL),
            "{spec}: daemon said {got:?}, solo reference {expected:?}"
        );
    }
    drop(client);

    let engine = handle.shutdown();
    assert_eq!(engine.aio_in_flight(), 0);
    assert_eq!(engine.buffer_pool_stats().outstanding, 0);
}

#[test]
fn thirty_two_concurrent_clients_agree_with_reference() {
    let store = small_store();
    let reference = reference_answers(&store, &MIXED, 42);
    let handle = serve(engine_for(&store), ServeOptions::default()).unwrap();
    let addr = handle.local_addr().to_string();

    let clients = 32;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let reference = reference.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                // Each client walks the mixed list from a different
                // offset, so at any moment the daemon sees a blend of
                // sweeps and point reads.
                for i in 0..MIXED.len() {
                    let j = (i + c) % MIXED.len();
                    let got =
                        expect_value(client.query_retrying(MIXED[j], 1000).unwrap(), MIXED[j]);
                    assert!(
                        got.approx_eq(&reference[j], PR_TOL),
                        "client {c} {}: got {got:?}, want {:?}",
                        MIXED[j],
                        reference[j]
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let engine = handle.shutdown();
    let m = engine.metrics().expect("engine built with metrics");

    // Connection bookkeeping: all 32 clients opened and closed (the
    // shutdown wake-up connection is never registered).
    assert_eq!(m[ServeConnectionsOpened], clients as u64);
    assert_eq!(m[ServeConnectionsClosed], clients as u64);

    // Flow reconciliation: every accepted query completed, nothing leaked.
    assert_eq!(m[ServeQueriesQueued], m[ServeQueriesCompleted]);
    assert_eq!(
        m[ServeQueriesQueued] + m[ServeQueriesRejected],
        m[ServeQueriesCompleted] + m[ServeQueriesRejected]
    );
    assert_eq!(m[ServeBatchQueries], m[ServeQueriesCompleted]);
    assert_eq!(m[ServeQueryErrors], 0);
    assert_eq!(m[ServePointErrors], 0);

    // 6 sweeps and 3 point reads per client made it through (retries on
    // BUSY mean submissions may exceed completions, never the reverse).
    assert_eq!(m[ServeQueriesCompleted], clients as u64 * 6);
    assert_eq!(m[ServePointQueries], clients as u64 * 3);

    // The whole point of admission batching: with 32 clients issuing
    // overlapping sweeps, batches formed (mean size > 1) and the shared
    // scans amortized reads across queries.
    assert!(
        m[ServeBatches] < m[ServeBatchQueries],
        "no batching happened"
    );
    let amortization = m.value("serve.read_amortization").unwrap();
    assert!(amortization > 1.0, "no read amortization: {amortization}");
    // serve-group amortization is the sum over BatchRunStats of the same
    // runs, so the engine-level query_batch group must agree.
    let amortized: u64 = m.sweeps.iter().map(|s| s.bytes_amortized).sum();
    assert_eq!(m[ServeBytesAmortized], amortized);
    assert_eq!(m[ServeSweeps] as usize, m.sweeps.len());

    assert_eq!(engine.aio_in_flight(), 0);
    assert_eq!(engine.buffer_pool_stats().outstanding, 0);
}

#[test]
fn errors_do_not_tear_down_the_connection() {
    let store = small_store();
    let n = store.layout().tiling().vertex_count();
    let handle = serve(engine_for(&store), ServeOptions::default()).unwrap();
    let addr = handle.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();

    // A parse error, an out-of-range point read, and an out-of-range
    // sweep root — each must come back as a typed ERR on the same live
    // connection.
    match client.query("bogus:1").unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, "invalid_parameter"),
        other => panic!("expected ERR, got {other:?}"),
    }
    match client.query(&format!("degree:{n}")).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, "vertex_out_of_range"),
        other => panic!("expected ERR, got {other:?}"),
    }
    match client.query(&format!("bfs:{n}")).unwrap() {
        Reply::Error { code, .. } => assert_eq!(code, "vertex_out_of_range"),
        other => panic!("expected ERR, got {other:?}"),
    }

    // The connection still answers real queries afterwards.
    let v = expect_value(client.query_retrying("degree:0", 100).unwrap(), "degree:0");
    assert!(matches!(v, QueryValue::Degree(_)));
    let v = expect_value(client.query_retrying("wcc", 100).unwrap(), "wcc");
    assert!(matches!(v, QueryValue::Wcc { .. }));
    drop(client);

    let engine = handle.shutdown();
    let m = engine.metrics().unwrap();
    assert_eq!(m[ServePointErrors], 1); // the bad degree lookup
    assert_eq!(m[ServeQueryErrors], 0); // bad roots are refused before queueing
    assert_eq!(engine.aio_in_flight(), 0);
    assert_eq!(engine.buffer_pool_stats().outstanding, 0);
}

/// A backend that injects exactly one I/O fault per arming — the test
/// holds the trigger, so the fault lands deterministically inside the
/// one sweep served while armed. (The engine's own fault-path tests use
/// `IoFaultInjector`'s ordinal policies; here the daemon decides read
/// ordering, so an explicit trigger is the deterministic spelling.)
struct ArmedFault {
    inner: Arc<dyn StorageBackend>,
    armed: std::sync::atomic::AtomicBool,
    injected: std::sync::atomic::AtomicU64,
}

impl ArmedFault {
    fn new(inner: Arc<dyn StorageBackend>) -> Self {
        ArmedFault {
            inner,
            armed: std::sync::atomic::AtomicBool::new(false),
            injected: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn arm(&self) {
        self.armed.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    fn injected(&self) -> u64 {
        self.injected.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl StorageBackend for ArmedFault {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        if self.armed.swap(false, std::sync::atomic::Ordering::SeqCst) {
            self.injected
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            return Err(std::io::Error::other(format!(
                "injected fault at offset {offset}"
            )));
        }
        self.inner.read_at(offset, buf)
    }
}

/// A mid-sweep injected I/O fault fails the admitted batch with a typed
/// ERR — and the daemon, the connection, and the engine all survive to
/// serve the next query.
#[test]
fn injected_io_fault_mid_sweep_is_survivable() {
    let store = small_store();
    let index = store.index();
    let inner: Arc<dyn StorageBackend> = Arc::new(MemBackend::new(store.data().to_vec()));
    let fault_backend = Arc::new(ArmedFault::new(inner));
    let engine = GStoreEngine::builder()
        .backend(index, Arc::clone(&fault_backend) as Arc<dyn StorageBackend>)
        .scr(scr_for(&store))
        .metrics(true)
        .build()
        .unwrap();
    let handle = serve(engine, ServeOptions::default()).unwrap();
    let addr = handle.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    // Sanity: a clean sweep first.
    expect_value(client.query_retrying("wcc", 1000).unwrap(), "wcc");

    // Arm, then sweep: the single fault lands mid-run and must come back
    // as a typed ERR, not a dropped connection.
    fault_backend.arm();
    match client.query_retrying("wcc", 1000).unwrap() {
        Reply::Error { code, message } => {
            assert_eq!(code, "io");
            assert!(message.contains("injected fault"), "{message}");
        }
        other => panic!("expected an io ERR, got {other:?}"),
    }
    assert_eq!(fault_backend.injected(), 1);

    // Same connection, disarmed: served fine again.
    let v = expect_value(client.query_retrying("bfs:0", 1000).unwrap(), "bfs:0");
    assert!(matches!(v, QueryValue::Bfs { .. }));
    drop(client);

    let engine = handle.shutdown();
    let m = engine.metrics().unwrap();
    assert!(m[ServeQueryErrors] >= 1);
    assert_eq!(m[ServeQueriesQueued], m[ServeQueriesCompleted]);
    // The invariants the issue pins: no in-flight AIO, no leaked pooled
    // buffers, even after a failed run.
    assert_eq!(engine.aio_in_flight(), 0);
    assert_eq!(engine.buffer_pool_stats().outstanding, 0);
}

/// With a tiny queue and slow sweeps, backpressure must surface as BUSY
/// — and the reconciliation invariant (submitted = completed + rejected)
/// must hold exactly.
#[test]
fn backpressure_replies_busy_and_reconciles() {
    let store = small_store();
    let opts = ServeOptions {
        max_batch: 1,
        queue_capacity: 1,
        ..Default::default()
    };
    let handle = serve(engine_for(&store), opts).unwrap();
    let addr = handle.local_addr().to_string();

    let clients = 8;
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let mut busy = 0u64;
                let mut done = 0u64;
                for _ in 0..4 {
                    // Raw query (no retry): BUSY is a valid, counted
                    // outcome here.
                    match client.query("wcc").unwrap() {
                        Reply::Busy => busy += 1,
                        Reply::Value(_) => done += 1,
                        Reply::Error { code, message } => {
                            panic!("unexpected ERR {code}: {message}")
                        }
                    }
                }
                (busy, done)
            })
        })
        .collect();
    let mut total_busy = 0;
    let mut total_done = 0;
    for w in workers {
        let (busy, done) = w.join().unwrap();
        total_busy += busy;
        total_done += done;
    }
    assert_eq!(total_busy + total_done, clients * 4);

    let engine = handle.shutdown();
    let m = engine.metrics().unwrap();
    assert_eq!(m[ServeQueriesRejected], total_busy);
    assert_eq!(m[ServeQueriesCompleted], total_done);
    assert_eq!(
        m[ServeQueriesQueued] + m[ServeQueriesRejected],
        total_busy + total_done
    );
    // max_batch=1 forces every batch to be a singleton.
    assert_eq!(m[ServeBatches], m[ServeBatchQueries]);
    assert_eq!(engine.aio_in_flight(), 0);
    assert_eq!(engine.buffer_pool_stats().outstanding, 0);
}

/// Queue-depth histogram sanity: with one client there is never more
/// than one query queued, so every enqueue lands in the first bucket.
#[test]
fn single_client_queue_depth_stays_at_one() {
    let store = small_store();
    let handle = serve(engine_for(&store), ServeOptions::default()).unwrap();
    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    for _ in 0..3 {
        expect_value(client.query_retrying("degrees", 100).unwrap(), "degrees");
    }
    drop(client);
    let engine = handle.shutdown();
    let m = engine.metrics().unwrap();
    assert_eq!(m[ServeQueriesQueued], 3);
    assert_eq!(m.hist(Hist::ServeQueueDepth)[0], 3); // depth 1 -> bucket [1, 2)
    assert_eq!(m.percentile(Hist::ServeQueueDepth, 0.99), 1);
}

/// A served point read costs about what the direct call costs. With the
/// frame sent as two writes (header, then payload) each direction of a
/// round trip waited out the peer's delayed ACK: ≥ 80 ms per request on
/// loopback. One segment per frame makes it sub-millisecond; the
/// threshold sits an order of magnitude from both.
#[test]
fn point_round_trips_do_not_stall_on_the_wire() {
    let store = small_store();
    let handle = serve(engine_for(&store), ServeOptions::default()).unwrap();
    let mut client = Client::connect(&handle.local_addr().to_string()).unwrap();

    let mut latencies: Vec<Duration> = (0..50)
        .map(|i| {
            let spec = format!("degree:{i}");
            let t = Instant::now();
            expect_value(client.query(&spec).unwrap(), &spec);
            t.elapsed()
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median served degree took {median:?}"
    );
    drop(client);
    handle.shutdown();
}

/// Requests are QuerySpec text. A header claiming a megabyte is refused
/// before a byte is allocated for it: that connection is closed, and the
/// daemon goes on serving everyone else.
#[test]
fn oversized_request_header_closes_only_that_connection() {
    let store = small_store();
    let handle = serve(engine_for(&store), ServeOptions::default()).unwrap();
    let addr = handle.local_addr().to_string();
    let mut bystander = Client::connect(&addr).unwrap();
    expect_value(bystander.query("degree:0").unwrap(), "degree:0");

    let mut hostile = TcpStream::connect(&addr).unwrap();
    hostile.write_all(&(1u32 << 20).to_le_bytes()).unwrap();
    // The daemon hangs up without reading the (absent) payload and
    // without replying.
    let mut rest = Vec::new();
    assert_eq!(hostile.read_to_end(&mut rest).unwrap(), 0);

    // The largest request the daemon does accept is still answered (with
    // a typed ERR: it is not a query).
    let mut padded = TcpStream::connect(&addr).unwrap();
    gstore_server::write_frame(&mut padded, &"x".repeat(MAX_REQUEST)).unwrap();
    let reply = read_frame(&mut padded).unwrap().expect("a reply frame");
    assert!(reply.starts_with("ERR invalid_parameter "), "{reply:.60}");

    expect_value(bystander.query("degree:1").unwrap(), "degree:1");
    drop((bystander, padded));
    let engine = handle.shutdown();
    assert_eq!(engine.metrics().unwrap()[ServePointQueries], 2);
    assert_eq!(engine.aio_in_flight(), 0);
}
