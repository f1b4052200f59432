//! `gstore serve`: a long-lived query daemon over one [`GStoreEngine`].
//!
//! The daemon splits the engine's two access paths across threads the way
//! the paper's deployment splits them across workloads:
//!
//! * **Point reads** (`neighbors` / `degree` / `khop` / `walk`) are
//!   answered directly on the connection's own thread from a shared
//!   [`PointReader`] — they touch single tiles and never wait for sweeps.
//! * **Sweep queries** (`bfs` / `pagerank` / `wcc` / `kcore` / `degrees`)
//!   are *admission-batched*: connection threads enqueue instantiated
//!   [`SweepQuery`]s into a bounded queue, and one sweep-loop thread —
//!   the sole owner of the engine — drains up to `max_batch` of them into
//!   each [`QueryBatch`] run. Queries arriving while a batch is sweeping
//!   simply join the next one, so concurrent clients share disk scans
//!   ([`BatchRunStats::read_amortization`]); a full queue refuses with a
//!   typed `BUSY` reply instead of buffering unboundedly.
//!
//! Errors never tear a connection down: a bad spec, an out-of-range
//! vertex, or an I/O fault mid-sweep each produce a typed `ERR` frame
//! (see [`proto`]) and the connection keeps serving. The engine drains
//! its in-flight AIO before surfacing a failed run, so the daemon's
//! invariants (`aio_in_flight == 0`, no outstanding pooled buffers
//! between runs) hold across faults — [`ServerHandle::shutdown`] hands
//! the engine back so embedders and tests can check exactly that.
//!
//! Everything the daemon does is recorded in the engine's flight
//! recorder under the `serve` group (connections, queue flow, per-batch
//! amortization, a queue-depth histogram) when the engine was built with
//! [`metrics`](gstore_core::engine::EngineBuilder::metrics).

pub mod proto;
mod queue;

pub use proto::{read_frame, write_frame, Reply, MAX_FRAME, MAX_REQUEST};

use crate::queue::{Admission, QueuedSweep};
use gstore_core::spec::run_point;
use gstore_core::{
    BatchRunStats, GStoreEngine, PointReader, QueryBatch, QueryKind, QuerySpec, SweepQuery,
};
use gstore_graph::{GraphError, Result};
use gstore_metrics::{NoopRecorder, Recorder};
use gstore_tile::Tiling;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};

/// How the daemon listens and batches.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address. Port 0 picks a free port (see
    /// [`ServerHandle::local_addr`]) — the test and bench default.
    pub addr: String,
    /// Most sweep queries one admitted batch may carry; clamped to
    /// [`QueryBatch::MAX_QUERIES`].
    pub max_batch: usize,
    /// Admission-queue bound; beyond it clients get `BUSY`. Defaults to
    /// `2 * max_batch` when 0.
    pub queue_capacity: usize,
    /// Sweep cap per batch run (safety net for non-converging queries).
    pub max_iters: u32,
    /// Seed for `walk` point reads, fixed per daemon so replies are
    /// reproducible across connections.
    pub walk_seed: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            max_batch: QueryBatch::MAX_QUERIES,
            queue_capacity: 0,
            max_iters: 10_000,
            walk_seed: 42,
        }
    }
}

/// State shared by every connection thread.
struct Shared {
    reader: PointReader,
    admission: Admission,
    rec: Arc<dyn Recorder>,
    tiling: Tiling,
    degrees: Vec<u64>,
    walk_seed: u64,
    shutdown: AtomicBool,
    /// One slot per live connection. A connection thread frees its slot
    /// as it exits and the accept loop reuses free slots, so the table is
    /// bounded by the peak number of concurrent connections, not by how
    /// many the daemon has ever accepted.
    conns: Mutex<Vec<Option<Conn>>>,
}

/// What shutdown needs of a live connection: a clone of its stream to
/// unblock the read, and its thread to join.
struct Conn {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

/// A running daemon. Dropping the handle *without* calling
/// [`ServerHandle::shutdown`] leaves the threads serving until the
/// process exits.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    sweep_thread: Option<JoinHandle<GStoreEngine>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current admission-queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.shared.admission.len()
    }

    /// Stops accepting, unblocks every connection, drains the admitted
    /// sweep queries, joins all threads, and hands the engine back for
    /// inspection (`aio_in_flight`, `buffer_pool_stats`, `metrics`).
    pub fn shutdown(mut self) -> GStoreEngine {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; once it is
        // joined the connection table can only shrink.
        let _ = TcpStream::connect(self.addr);
        self.accept_thread
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("accept thread never panics");
        // Unblock connection reads and join their threads. The slots are
        // emptied under the lock and joined outside it: an exiting thread
        // takes the lock to free its own slot.
        let live: Vec<Conn> = {
            let mut conns = self.shared.conns.lock().expect("conns lock poisoned");
            conns.iter_mut().filter_map(Option::take).collect()
        };
        for conn in live {
            let _ = conn.stream.shutdown(Shutdown::Both);
            let _ = conn.thread.join();
        }
        // Only now close admission: connections waiting on in-flight
        // sweep replies needed the loop alive to finish first.
        self.shared.admission.close();
        self.sweep_thread
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("sweep thread never panics")
    }
}

/// Starts the daemon over `engine`. The engine must have been built with
/// metrics if serve counters are wanted; it is consumed by the sweep loop
/// and returned by [`ServerHandle::shutdown`]. PageRank queries read the
/// store's own degree array, so startup runs no sweep.
pub fn serve(engine: GStoreEngine, opts: ServeOptions) -> Result<ServerHandle> {
    let tiling = *engine.index().layout.tiling();
    let max_batch = opts.max_batch.clamp(1, QueryBatch::MAX_QUERIES);
    let queue_capacity = if opts.queue_capacity == 0 {
        2 * max_batch
    } else {
        opts.queue_capacity
    };
    let degrees = engine.index().degrees().to_vec();

    let rec: Arc<dyn Recorder> = engine
        .recorder_handle()
        .unwrap_or_else(|| Arc::new(NoopRecorder));
    let listener = TcpListener::bind(&opts.addr).map_err(GraphError::Io)?;
    let addr = listener.local_addr().map_err(GraphError::Io)?;

    let shared = Arc::new(Shared {
        reader: engine.point_reader(),
        admission: Admission::new(queue_capacity),
        rec: Arc::clone(&rec),
        tiling,
        degrees,
        walk_seed: opts.walk_seed,
        shutdown: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
    });

    let sweep_shared = Arc::clone(&shared);
    let max_iters = opts.max_iters;
    let sweep_thread = thread::Builder::new()
        .name("gstore-sweep".into())
        .spawn(move || sweep_loop(engine, &sweep_shared, max_batch, max_iters))
        .map_err(GraphError::Io)?;

    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("gstore-accept".into())
        .spawn(move || accept_loop(listener, &accept_shared))
        .map_err(GraphError::Io)?;

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        sweep_thread: Some(sweep_thread),
    })
}

/// Accepts connections until shutdown, giving each a thread and a slot in
/// the connection table.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _)) = accepted else { continue };
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        // The table stays locked across the spawn so the new thread cannot
        // free its slot before the slot is filled.
        let mut conns = shared.conns.lock().expect("conns lock poisoned");
        let slot = conns.iter().position(Option::is_none).unwrap_or_else(|| {
            conns.push(None);
            conns.len() - 1
        });
        let conn_shared = Arc::clone(shared);
        let spawned = thread::Builder::new()
            .name("gstore-conn".into())
            .spawn(move || {
                connection_loop(stream, &conn_shared);
                // Frees the slot — and with it this thread's own handle,
                // which detaches a thread that has nothing left to do.
                // After shutdown emptied the table there is nothing to free.
                conn_shared.conns.lock().expect("conns lock poisoned")[slot] = None;
            });
        if let Ok(thread) = spawned {
            conns[slot] = Some(Conn {
                stream: clone,
                thread,
            });
        }
    }
}

/// Serves one connection: a frame in, a reply frame out, until the peer
/// closes (or shutdown unblocks the read). Query-level failures reply
/// `ERR` and keep going; only transport-level failures — a request header
/// claiming more than [`MAX_REQUEST`] among them — end the loop.
///
/// Each frame costs one `read` (through the `BufReader`) and one `write`
/// (header and payload assembled in `frame`); both buffers are reused for
/// the life of the connection.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    shared.rec.serve_connection_opened();
    // One segment per frame already avoids the Nagle/delayed-ACK stall
    // for strict request/reply traffic; NODELAY covers peers that pipeline.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut request = Vec::new();
    let mut frame = Vec::new();
    while let Ok(true) = proto::read_frame_into(&mut reader, MAX_REQUEST, &mut request) {
        let Ok(line) = proto::frame_text(&request) else {
            break;
        };
        let Some(reply) = answer(line, shared) else {
            break;
        };
        let sent = proto::build_frame(&mut frame, |buf| reply.encode_into(buf))
            .and_then(|()| reader.get_mut().write_all(&frame));
        if sent.is_err() {
            break;
        }
        proto::trim_buffer(&mut frame);
    }
    shared.rec.serve_connection_closed();
}

/// Produces the reply for one request line. `None` means the reply
/// channel died under us (shutdown mid-sweep) and the connection should
/// just close.
fn answer(line: &str, shared: &Arc<Shared>) -> Option<Reply> {
    let spec: QuerySpec = match line.parse() {
        Ok(spec) => spec,
        Err(e) => return Some(Reply::error(&e)),
    };
    if spec.kind() == QueryKind::Point {
        let result = run_point(&shared.reader, &spec, shared.walk_seed);
        shared.rec.serve_point_query(result.is_ok());
        return Some(match result {
            Ok(value) => Reply::Value(value),
            Err(e) => Reply::error(&e),
        });
    }
    // Sweep: instantiate here so a bad argument (e.g. out-of-range BFS
    // root) is refused before it ever occupies a queue slot.
    let query = match SweepQuery::new(&spec, shared.tiling, Some(&shared.degrees)) {
        Ok(query) => query,
        Err(e) => return Some(Reply::error(&e)),
    };
    let (tx, rx) = mpsc::channel();
    match shared.admission.try_push(QueuedSweep { query, reply: tx }) {
        Err(_) => {
            shared.rec.serve_query_rejected();
            Some(Reply::Busy)
        }
        Ok(depth) => {
            shared.rec.serve_query_queued(depth as u64);
            rx.recv().ok()
        }
    }
}

/// The sweep loop: sole owner of the engine. Drains admitted queries in
/// batches, runs each batch as one shared scan, streams results back.
/// Returns the engine at shutdown so its invariants can be inspected.
fn sweep_loop(
    mut engine: GStoreEngine,
    shared: &Arc<Shared>,
    max_batch: usize,
    max_iters: u32,
) -> GStoreEngine {
    while let Some(mut admitted) = shared.admission.pop_batch(max_batch) {
        shared.rec.serve_batch_admitted(admitted.len() as u64);
        let run: Result<BatchRunStats> = {
            let mut batch = QueryBatch::new();
            for item in admitted.iter_mut() {
                // Infallible: max_batch is clamped to MAX_QUERIES.
                batch
                    .push(item.query.algorithm_mut())
                    .expect("batch within MAX_QUERIES");
            }
            engine.run_batch(&mut batch, max_iters)
        };
        match run {
            Ok(stats) => {
                shared.rec.serve_batch_run(
                    stats.sweeps as u64,
                    stats.aggregate.bytes_read,
                    stats.bytes_amortized,
                );
                for item in admitted {
                    shared.rec.serve_query_completed(true);
                    let _ = item.reply.send(Reply::Value(item.query.result()));
                }
            }
            Err(e) => {
                // A failed run drained its in-flight I/O before
                // surfacing (engine invariant), so the loop — and every
                // connection — keeps serving; the whole batch gets a
                // typed ERR.
                let reply = Reply::error(&e);
                for item in admitted {
                    shared.rec.serve_query_completed(false);
                    let _ = item.reply.send(reply.clone());
                }
            }
        }
    }
    engine
}

/// A blocking client for the serve protocol: one stream, one outstanding
/// query at a time. This is what `gstore client` and the tests drive.
pub struct Client {
    reader: BufReader<TcpStream>,
    /// Frame buffers, reused across queries like the daemon's.
    request: Vec<u8>,
    reply: Vec<u8>,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
            request: Vec::new(),
            reply: Vec::new(),
        })
    }

    /// Sends one query spec and waits for its reply.
    pub fn query(&mut self, spec: &str) -> io::Result<Reply> {
        proto::build_frame(&mut self.request, |buf| {
            buf.extend_from_slice(spec.as_bytes())
        })?;
        self.reader.get_mut().write_all(&self.request)?;
        if !proto::read_frame_into(&mut self.reader, MAX_FRAME, &mut self.reply)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let reply = Reply::parse(proto::frame_text(&self.reply)?);
        proto::trim_buffer(&mut self.reply);
        reply
    }

    /// Like [`Client::query`], but retries `BUSY` replies (bounded) so
    /// callers that just want an answer under backpressure can wait
    /// their turn.
    pub fn query_retrying(&mut self, spec: &str, max_retries: u32) -> io::Result<Reply> {
        for _ in 0..max_retries {
            match self.query(spec)? {
                Reply::Busy => thread::sleep(std::time::Duration::from_millis(2)),
                reply => return Ok(reply),
            }
        }
        self.query(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gstore_graph::gen::{generate_rmat, RmatParams};
    use gstore_metrics::Counter;
    use gstore_scr::ScrConfig;
    use gstore_tile::{ConversionOptions, TileStore};
    use std::time::{Duration, Instant};

    /// The connection table as `(slots, live)`.
    fn conn_table(handle: &ServerHandle) -> (usize, usize) {
        let conns = handle.shared.conns.lock().unwrap();
        (conns.len(), conns.iter().flatten().count())
    }

    /// 500 connections over the daemon's life, never more than two at a
    /// time: the table must end no larger than that peak (it grew by one
    /// slot and one thread handle per connection before slots were
    /// reused), and shutdown must still account for every thread.
    #[test]
    fn connection_table_is_bounded_by_peak_concurrency() {
        const PEAK: usize = 2;
        let el = generate_rmat(&RmatParams::kron(8, 6)).unwrap();
        let store = TileStore::build(&el, &ConversionOptions::new(4)).unwrap();
        let seg = (store.data_bytes() / 4).max(512);
        let engine = GStoreEngine::builder()
            .store(&store)
            .scr(ScrConfig::new(seg, seg * 3).unwrap())
            .metrics(true)
            .build()
            .unwrap();
        let handle = serve(engine, ServeOptions::default()).unwrap();
        let addr = handle.local_addr().to_string();

        for round in 0..500 / PEAK {
            let mut clients: Vec<Client> =
                (0..PEAK).map(|_| Client::connect(&addr).unwrap()).collect();
            for client in &mut clients {
                assert!(matches!(client.query("degree:0").unwrap(), Reply::Value(_)));
            }
            drop(clients);
            // A slot is freed by its own thread once it sees the close;
            // wait for that so the next round finds the table empty.
            let deadline = Instant::now() + Duration::from_secs(10);
            while conn_table(&handle).1 > 0 {
                assert!(
                    Instant::now() < deadline,
                    "round {round}: slots never freed"
                );
                thread::sleep(Duration::from_micros(50));
            }
            assert!(conn_table(&handle).0 <= PEAK, "round {round}");
        }

        let engine = handle.shutdown();
        let m = engine.metrics().unwrap();
        assert_eq!(m[Counter::ServeConnectionsOpened], 500);
        assert_eq!(m[Counter::ServeConnectionsClosed], 500);
        assert_eq!(m[Counter::ServePointQueries], 500);
        assert_eq!(engine.aio_in_flight(), 0);
        assert_eq!(engine.buffer_pool_stats().outstanding, 0);
    }
}
