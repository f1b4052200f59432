//! [`EngineBuilder`]: the one way to construct a [`GStoreEngine`],
//! validated once at [`EngineBuilder::build`].

use crate::engine::GStoreEngine;
use gstore_graph::{GraphError, Result};
use gstore_io::{FileBackend, IoBackend, IoFaultInjector, MemBackend, StorageBackend};
use gstore_scr::ScrConfig;
use gstore_tile::{TileIndex, TilePaths, TileStore};
use std::sync::Arc;

/// The builder's validated output, fixed for the engine's lifetime.
#[derive(Clone, Copy)]
pub(crate) struct EngineConfig {
    /// Memory budget (segments + cache pool).
    pub(crate) scr: ScrConfig,
    /// When false, runs the Figure 13 "base policy": two big segments,
    /// no cache pool, no rewind.
    pub(crate) use_scr_cache: bool,
    /// AIO worker threads.
    pub(crate) io_workers: usize,
    /// Record per-phase timings, I/O counters and cache behaviour into a
    /// flight recorder, exposed via [`GStoreEngine::metrics`]. Off by
    /// default: the disabled path takes no timestamps and no locks.
    pub(crate) metrics: bool,
    /// Hot-tile cache capacity for readers from
    /// [`GStoreEngine::point_reader`] (0 = no cache: every point read
    /// fetches from storage).
    pub(crate) point_read_cache_bytes: u64,
    /// Which I/O engine to construct: the pread worker pool, raw
    /// io_uring, or a runtime-probed choice between them.
    pub(crate) io_backend: IoBackend,
}

/// Where an [`EngineBuilder`] gets its graph.
#[derive(Clone)]
enum BuilderSource {
    None,
    /// The two on-disk files; opened at [`EngineBuilder::build`] time.
    Paths(TilePaths),
    /// An index plus any storage backend (files, memory, simulators,
    /// fault injectors). [`EngineBuilder::store`] resolves to this too.
    Backend {
        index: TileIndex,
        backend: Arc<dyn StorageBackend>,
    },
}

/// The memory policy an [`EngineBuilder`] runs under.
#[derive(Clone)]
enum BuilderPolicy {
    None,
    /// Full Slide-Cache-Rewind: streaming segments + proactive cache pool.
    Scr(ScrConfig),
    /// Figure 13's baseline: two big segments, no cache pool, no rewind.
    /// Validated (and split into segments) at build time.
    Base(u64),
}

/// Typed builder for [`GStoreEngine`] — the one blessed way to construct
/// an engine. A build needs exactly two decisions, each stated once:
///
/// * a **source**: [`EngineBuilder::paths`] (the two on-disk files),
///   [`EngineBuilder::store`] (an in-memory [`TileStore`]), or
///   [`EngineBuilder::backend`] (any [`StorageBackend`]: simulated
///   arrays, fault injection, tiering);
/// * a **memory policy**: [`EngineBuilder::scr`] (explicit
///   [`ScrConfig`]) or [`EngineBuilder::base_policy`] (Figure 13's
///   cache-less baseline, sized from a total byte budget).
///
/// Everything else is an optional knob with a sensible default.
/// Validation happens once, at [`EngineBuilder::build`]: a missing
/// source or policy, zero workers, or an undersized backend all fail
/// there with a typed [`GraphError`].
///
/// ```
/// use gstore_core::{Bfs, GStoreEngine};
/// use gstore_graph::gen::{generate_rmat, RmatParams};
/// use gstore_scr::ScrConfig;
/// use gstore_tile::{ConversionOptions, TileStore};
///
/// let el = generate_rmat(&RmatParams::kron(9, 8)).unwrap();
/// let store = TileStore::build(&el, &ConversionOptions::new(5)).unwrap();
/// let mut engine = GStoreEngine::builder()
///     .store(&store)
///     .scr(ScrConfig::new(16 << 10, 256 << 10).unwrap())
///     .io_workers(2)
///     .build()
///     .unwrap();
/// let mut bfs = Bfs::new(*store.layout().tiling(), 0);
/// let stats = engine.run(&mut bfs, 1000).unwrap();
/// assert!(stats.bytes_read > 0);
/// ```
#[derive(Clone)]
pub struct EngineBuilder {
    source: BuilderSource,
    policy: BuilderPolicy,
    io_workers: usize,
    metrics: bool,
    point_read_cache_bytes: u64,
    io_backend: IoBackend,
    io_fault: Option<IoFaultInjector>,
    uring_probe_override: Option<bool>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            source: BuilderSource::None,
            policy: BuilderPolicy::None,
            io_workers: 4,
            metrics: false,
            point_read_cache_bytes: 0,
            io_backend: IoBackend::Auto,
            io_fault: None,
            uring_probe_override: None,
        }
    }
}

impl EngineBuilder {
    /// Source: a stored graph's two files, opened at build time.
    pub fn paths(mut self, paths: &TilePaths) -> Self {
        self.source = BuilderSource::Paths(paths.clone());
        self
    }

    /// Source: an in-memory store, served through a memory backend so the
    /// full pipeline — AIO, segments, pool — still executes (tests,
    /// experiments).
    pub fn store(mut self, store: &TileStore) -> Self {
        let index = store.index();
        self.source = BuilderSource::Backend {
            index,
            backend: Arc::new(MemBackend::new(store.data().to_vec())),
        };
        self
    }

    /// Source: an explicit index over any storage backend (simulated
    /// arrays, fault injection, tiered storage, ...).
    pub fn backend(mut self, index: TileIndex, backend: Arc<dyn StorageBackend>) -> Self {
        self.source = BuilderSource::Backend { index, backend };
        self
    }

    /// Memory policy: full Slide-Cache-Rewind under an explicit
    /// [`ScrConfig`] (streaming segments + proactive cache pool).
    pub fn scr(mut self, config: ScrConfig) -> Self {
        self.policy = BuilderPolicy::Scr(config);
        self
    }

    /// Memory policy: the Figure 13 baseline — the whole `total_bytes`
    /// budget goes to two big streaming segments, no cache pool, no
    /// rewind. Validated at build time.
    pub fn base_policy(mut self, total_bytes: u64) -> Self {
        self.policy = BuilderPolicy::Base(total_bytes);
        self
    }

    /// AIO worker threads (default 4; must be at least 1).
    pub fn io_workers(mut self, workers: usize) -> Self {
        self.io_workers = workers;
        self
    }

    /// Record per-phase timings, I/O counters, cache behaviour and
    /// query-batch sharing into a flight recorder, exposed via
    /// [`GStoreEngine::metrics`] (default false: the disabled path takes
    /// no timestamps and no locks).
    pub fn metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Hot-tile cache capacity for point readers handed out by
    /// [`GStoreEngine::point_reader`] (default 0: no cache, every point
    /// read fetches from storage). Sized independently of the SCR budget —
    /// point-read traffic is recency-skewed, sweep traffic is plan-driven.
    pub fn point_read_cache_bytes(mut self, bytes: u64) -> Self {
        self.point_read_cache_bytes = bytes;
        self
    }

    /// Which I/O engine to construct (default [`IoBackend::Auto`]):
    ///
    /// * `Auto` — probe `io_uring_setup` once; use the io_uring engine
    ///   when the probe succeeds **and** the source is file-backed,
    ///   otherwise silently use the pread worker pool. Every pipeline
    ///   behaves identically on either engine.
    /// * `Workers` — always the worker pool.
    /// * `Uring` — require io_uring; [`EngineBuilder::build`] fails with
    ///   a typed [`GraphError::InvalidParameter`] when the host denies it
    ///   or the backend exposes no file descriptor.
    pub fn io_backend(mut self, backend: IoBackend) -> Self {
        self.io_backend = backend;
        self
    }

    /// Inject faults at the request path per the injector's policy
    /// (failure testing): sweep reads on whichever engine was selected and
    /// the misses of every [`GStoreEngine::point_reader`] all pass through
    /// this one seam. Keep a clone of the injector to observe its
    /// counters.
    pub fn io_fault(mut self, fault: IoFaultInjector) -> Self {
        self.io_fault = Some(fault);
        self
    }

    /// Overrides the io_uring availability probe (tests: force the
    /// `Auto`/`Uring` selection logic down either path regardless of what
    /// the host actually supports). `false` behaves exactly like a kernel
    /// that denies `io_uring_setup`.
    pub fn uring_probe_override(mut self, available: Option<bool>) -> Self {
        self.uring_probe_override = available;
        self
    }

    /// Validates the configuration and constructs the engine.
    pub fn build(self) -> Result<GStoreEngine> {
        if self.io_workers == 0 {
            return Err(GraphError::InvalidParameter(
                "engine needs at least one I/O worker".into(),
            ));
        }
        let (scr, use_scr_cache) = match self.policy {
            BuilderPolicy::None => {
                return Err(GraphError::InvalidParameter(
                    "engine builder needs a memory policy: scr(..) or base_policy(..)".into(),
                ))
            }
            BuilderPolicy::Scr(c) => (c, true),
            BuilderPolicy::Base(total) => (ScrConfig::base_policy(total)?, false),
        };
        let config = EngineConfig {
            scr,
            use_scr_cache,
            io_workers: self.io_workers,
            metrics: self.metrics,
            point_read_cache_bytes: self.point_read_cache_bytes,
            io_backend: self.io_backend,
        };
        let (index, backend) = match self.source {
            BuilderSource::None => {
                return Err(GraphError::InvalidParameter(
                    "engine builder needs a source: paths(..), store(..) or backend(..)".into(),
                ))
            }
            BuilderSource::Paths(p) => {
                let index = TileIndex::read(&p.start)?;
                let backend: Arc<dyn StorageBackend> = Arc::new(FileBackend::open(&p.tiles)?);
                (index, backend)
            }
            BuilderSource::Backend { index, backend } => (index, backend),
        };
        GStoreEngine::construct(
            index,
            backend,
            config,
            self.io_fault,
            self.uring_probe_override,
        )
    }
}
