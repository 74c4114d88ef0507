//! `servekit` — content-addressed run cache and serving layer for `mck`.
//!
//! Every `mck` run is a pure function of `(configuration, scenario, seed)`
//! — the determinism contract the rest of the workspace pins byte-for-byte
//! in CI — and every artifact is self-describing versioned JSON. Those two
//! facts make results **content-addressable**: hash the canonicalized
//! request, and the artifact it produces can be stored, shared, and served
//! without ever recomputing it.
//!
//! * [`hash`] — canonical JSON form (recursive member sort) and a
//!   hand-rolled SHA-256; the repo builds offline, no external digests;
//! * [`key`] — request → content address: configuration normalization
//!   (includes every byte-shaping knob, excludes byte-neutral host-local
//!   choices like the worker count) plus the artifact schema tag, so a
//!   schema bump invalidates rather than mis-serves;
//! * [`cache`] — the on-disk store: `index.json` + `objects/<key>.json`,
//!   atomic write-rename publication, hit/miss/evict/corrupt accounting,
//!   corruption-tolerant reads (bad entries are quarantined, a damaged
//!   index is rebuilt by rescanning the objects);
//! * [`coalesce`] — identical in-flight keys share one computation;
//! * [`http`] — a minimal HTTP/1.1 server/client over `std::net`;
//! * [`server`] — the `mck serve` engine: `POST /run`, `POST /sweep`,
//!   `GET /status`, `GET /metrics` (Prometheus), `POST /shutdown`; cache
//!   hits answer immediately, misses run through `simkit::pool::run`
//!   behind bounded admission (429 backpressure) and drain gracefully on
//!   shutdown.
//!
//! # Quickstart
//!
//! ```
//! use servekit::prelude::*;
//! use std::sync::atomic::Ordering;
//!
//! let dir = std::env::temp_dir().join(format!("servekit_doc_{}", std::process::id()));
//! let service = ServeService::new(&ServeOptions {
//!     cache_dir: dir.clone(),
//!     ..ServeOptions::default()
//! })
//! .unwrap();
//! let request = servekit::http::Request {
//!     method: "POST".into(),
//!     path: "/run".into(),
//!     headers: vec![],
//!     body: br#"{"protocol":"QBC","horizon":200,"seed":7}"#.to_vec(),
//! };
//! let cold = service.handle(&request);
//! let warm = service.handle(&request);
//! assert_eq!(cold.body, warm.body); // byte-identical cache hit
//! assert_eq!(service.metrics.sim_runs.load(Ordering::SeqCst), 1);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod coalesce;
pub mod hash;
pub mod http;
pub mod key;
pub mod server;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::cache::{CacheStats, IndexEntry, RunCache};
    pub use crate::coalesce::{Coalescer, Outcome};
    pub use crate::hash::{canonical, digest_json, sha256_hex};
    pub use crate::http::{client_request, header_value, Request, Response};
    pub use crate::key::{
        config_from_json, figure_key, key_of, normalized_config_json, run_key, sweep_key,
    };
    pub use crate::server::{
        artifact_bytes, ServeMetrics, ServeOptions, ServeService, ServeSummary, Server,
    };
}
