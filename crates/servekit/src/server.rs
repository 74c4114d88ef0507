//! The sweep service: HTTP endpoints bridged onto the cache and the
//! simulation job queue.
//!
//! Request flow for `POST /run` and `POST /sweep`:
//!
//! 1. parse + validate the body into a checked [`SimConfig`] (400 on any
//!    unknown or invalid member);
//! 2. derive the content address ([`crate::key`]) and probe the cache — a
//!    hit answers immediately with the stored bytes, executing **zero**
//!    simulation events (the `serve.sim.events` counter pins this);
//! 3. on a miss, admission control: at most `queue_depth` computations in
//!    flight, beyond which the request is rejected with `429` backpressure
//!    instead of queueing unboundedly;
//! 4. identical in-flight keys coalesce onto one computation
//!    ([`crate::coalesce`]); the leader runs the computation through
//!    [`simkit::pool::run`] (panic capture, submission-ordered results)
//!    and publishes the artifact bytes to the cache before anyone is
//!    answered, so cold and warm responses are byte-identical.
//!
//! `GET /status` reports counters as JSON; `GET /metrics` reuses the
//! Prometheus exposition from `simkit::metrics`. `POST /shutdown` drains
//! gracefully: the listener stops accepting, in-flight requests finish,
//! worker threads join.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use mck::prelude::*;
use simkit::json::Json;
use simkit::metrics::MetricsRegistry;
use simkit::pool::Job;

use crate::cache::RunCache;
use crate::coalesce::{Coalescer, Outcome};
use crate::http::{self, Request, Response};
use crate::key;

/// Largest accepted request body.
const MAX_BODY: usize = 256 * 1024;

/// How to bind and run a server.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7199` (`:0` for an ephemeral port).
    pub addr: String,
    /// Cache directory (created if absent).
    pub cache_dir: PathBuf,
    /// Cache capacity in entries.
    pub max_entries: usize,
    /// Maximum concurrent cache-miss computations; beyond it, 429.
    pub queue_depth: usize,
    /// HTTP handler threads.
    pub http_workers: usize,
    /// Stop after this many accepted requests (`None` = until shutdown).
    pub max_requests: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            cache_dir: PathBuf::from(".mck-cache"),
            max_entries: 4096,
            queue_depth: 4,
            http_workers: 4,
            max_requests: None,
        }
    }
}

/// Monotonic counters for the serving layer (atomics: bumped from handler
/// threads, read by `/status`, `/metrics`, and the drain summary).
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests routed (any endpoint).
    pub requests: AtomicU64,
    /// Cache hits answered from disk.
    pub hits: AtomicU64,
    /// Misses computed by this process.
    pub misses: AtomicU64,
    /// Requests answered by joining another request's computation.
    pub coalesced: AtomicU64,
    /// Requests rejected by backpressure (429).
    pub rejected: AtomicU64,
    /// Requests that failed (4xx/5xx other than 429).
    pub errors: AtomicU64,
    /// Simulation runs executed.
    pub sim_runs: AtomicU64,
    /// Simulation events dispatched by those runs. Warm traffic leaves
    /// this untouched — the acceptance check for "a hit executes nothing".
    pub sim_events: AtomicU64,
}

/// The request handler: everything the server does, minus the sockets —
/// so tests and the bench can drive it in-process.
pub struct ServeService {
    cache: Mutex<RunCache>,
    coalescer: Coalescer<Arc<String>>,
    /// Cache-miss computations currently admitted.
    inflight: AtomicUsize,
    queue_depth: usize,
    /// Set by `POST /shutdown`; the accept loop checks it per connection.
    shutdown: AtomicBool,
    /// Counters, exposed for assertions and the drain summary.
    pub metrics: ServeMetrics,
}

impl ServeService {
    /// Opens the cache and builds a handler.
    pub fn new(opts: &ServeOptions) -> std::io::Result<ServeService> {
        Ok(ServeService {
            cache: Mutex::new(RunCache::open(&opts.cache_dir, opts.max_entries)?),
            coalescer: Coalescer::new(),
            inflight: AtomicUsize::new(0),
            queue_depth: opts.queue_depth,
            shutdown: AtomicBool::new(false),
            metrics: ServeMetrics::default(),
        })
    }

    /// True once a shutdown has been requested.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Routes one request.
    pub fn handle(&self, req: &Request) -> Response {
        self.metrics.requests.fetch_add(1, Ordering::SeqCst);
        match (req.method.as_str(), req.path.as_str()) {
            ("POST", "/run") => self.handle_run(&req.body),
            ("POST", "/sweep") => self.handle_sweep(&req.body),
            ("GET", "/status") => {
                Response::json(200, format!("{}\n", self.status_json().to_pretty()))
            }
            ("GET", "/metrics") => Response::text(200, self.prometheus()),
            ("POST", "/shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                Response::json(200, "{\"draining\":true}\n")
            }
            ("GET", "/") => Response::text(
                200,
                "mck serve: POST /run, POST /sweep, GET /status, GET /metrics, POST /shutdown\n",
            ),
            (_, "/run" | "/sweep" | "/status" | "/metrics" | "/shutdown") => {
                self.metrics.errors.fetch_add(1, Ordering::SeqCst);
                Response::error(405, "method not allowed")
            }
            _ => {
                self.metrics.errors.fetch_add(1, Ordering::SeqCst);
                Response::error(404, "no such endpoint")
            }
        }
    }

    fn handle_run(&self, body: &[u8]) -> Response {
        let cfg = match parse_body(body).and_then(|doc| key::config_from_json(&doc)) {
            Ok(cfg) => cfg,
            Err(why) => return self.bad_request(&why),
        };
        let cache_key = key::run_key(&cfg);
        let context = format!(
            "serve run {} t_switch={} seed={}",
            cfg.protocol.name(),
            cfg.t_switch,
            cfg.seed
        );
        self.serve_cached(&cache_key, mck::artifact::RUN_SCHEMA, move |metrics| {
            let run_cfg = cfg.clone();
            let job = Job::new(context, move || {
                // Metrics on: the canonical artifact embeds the metric
                // snapshot (same instrumentation `mck run --metrics`
                // uses); overlays never change artifact bytes.
                Simulation::run_with(
                    run_cfg,
                    Instrumentation {
                        metrics: true,
                        ..Instrumentation::off()
                    },
                )
            });
            let reports = simkit::pool::run(1, vec![job]).map_err(|panics| {
                panics
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            })?;
            let report = reports.into_iter().next().expect("one job, one report");
            metrics.sim_runs.fetch_add(1, Ordering::SeqCst);
            metrics.sim_events.fetch_add(report.events, Ordering::SeqCst);
            Ok(artifact_bytes(&mck::artifact::run_artifact(&cfg, &report)))
        })
    }

    fn handle_sweep(&self, body: &[u8]) -> Response {
        let doc = match parse_body(body) {
            Ok(doc) => doc,
            Err(why) => return self.bad_request(&why),
        };
        // Sweep-shaping members live beside the config members; split them
        // off before the config parser sees (and rejects) them.
        let mut ts: Vec<f64> = Vec::new();
        let mut reps: usize = 3;
        let mut config_members: Vec<(String, Json)> = Vec::new();
        let Some(members) = doc.as_obj() else {
            return self.bad_request("request body must be a JSON object");
        };
        for (name, v) in members {
            match name.as_str() {
                "t_switch_list" => {
                    let Some(list) = v.as_arr() else {
                        return self.bad_request("'t_switch_list' must be an array");
                    };
                    for item in list {
                        match item.as_f64() {
                            Some(x) => ts.push(x),
                            None => {
                                return self
                                    .bad_request("'t_switch_list' entries must be numbers")
                            }
                        }
                    }
                }
                "replications" => match v.as_u64() {
                    Some(n) if n > 0 => reps = n as usize,
                    _ => return self.bad_request("'replications' must be a positive integer"),
                },
                _ => config_members.push((name.clone(), v.clone())),
            }
        }
        if ts.is_empty() {
            ts = mck::experiments::T_SWITCH_SWEEP.to_vec();
        }
        let cfg = match key::config_from_json(&Json::Obj(config_members)) {
            Ok(cfg) => cfg,
            Err(why) => return self.bad_request(&why),
        };
        let base_seed = cfg.seed;
        let cache_key = key::sweep_key(&cfg, &ts, base_seed, reps);
        self.serve_cached(&cache_key, mck::artifact::SWEEP_SCHEMA, move |metrics| {
            // run_sweep flattens points × replications into one job list
            // and collects in submission (seed) order.
            let points = mck::experiments::run_sweep(&cfg, &ts, base_seed, reps);
            metrics
                .sim_runs
                .fetch_add((ts.len() * reps) as u64, Ordering::SeqCst);
            let events: u64 = points
                .iter()
                .flat_map(|(_, s)| s.reports.iter())
                .map(|r| r.events)
                .sum();
            metrics.sim_events.fetch_add(events, Ordering::SeqCst);
            // No timing member: the cached sweep artifact stays a pure
            // function of the request, hence byte-stable across hits.
            Ok(artifact_bytes(&mck::artifact::sweep_artifact(
                &cfg, base_seed, reps, &points, None,
            )))
        })
    }

    fn bad_request(&self, why: &str) -> Response {
        self.metrics.errors.fetch_add(1, Ordering::SeqCst);
        Response::error(400, why)
    }

    /// The hit-or-compute spine shared by every cacheable endpoint.
    fn serve_cached(
        &self,
        cache_key: &str,
        kind: &'static str,
        compute: impl FnOnce(&ServeMetrics) -> Result<String, String>,
    ) -> Response {
        if let Some(bytes) = self.cache.lock().expect("cache lock").get(cache_key) {
            self.metrics.hits.fetch_add(1, Ordering::SeqCst);
            return cached_response(bytes, cache_key, "hit");
        }
        // Backpressure: admit at most `queue_depth` concurrent computations.
        // (Joiners piggyback on an admitted computation, so they are not
        // separately admitted.)
        let admitted = self
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.queue_depth).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            self.metrics.rejected.fetch_add(1, Ordering::SeqCst);
            return Response::error(429, "queue full, retry later")
                .with_header("retry-after", "1");
        }
        let outcome = self.coalescer.run_or_join(cache_key, || {
            let bytes = Arc::new(compute(&self.metrics)?);
            // Publish before answering anyone: a warm probe that races this
            // request either misses (and coalesces) or hits the full bytes.
            self.cache
                .lock()
                .expect("cache lock")
                .put(cache_key, kind, &bytes)
                .map_err(|e| format!("cache write: {e}"))?;
            Ok(bytes)
        });
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        match outcome {
            Ok(Outcome::Led(bytes)) => {
                self.metrics.misses.fetch_add(1, Ordering::SeqCst);
                cached_response(bytes.as_str().to_owned(), cache_key, "miss")
            }
            Ok(Outcome::Joined(bytes)) => {
                self.metrics.coalesced.fetch_add(1, Ordering::SeqCst);
                cached_response(bytes.as_str().to_owned(), cache_key, "coalesced")
            }
            Err(why) => {
                self.metrics.errors.fetch_add(1, Ordering::SeqCst);
                Response::error(500, &why)
            }
        }
    }

    /// The `/status` document.
    pub fn status_json(&self) -> Json {
        let count = |c: &AtomicU64| Json::uint(c.load(Ordering::SeqCst));
        let cache = self.cache.lock().expect("cache lock");
        let stats = cache.stats();
        Json::Obj(vec![
            ("schema".into(), Json::str("mck.serve_status/v1")),
            ("version".into(), Json::str(mck::artifact::version())),
            ("requests".into(), count(&self.metrics.requests)),
            ("hits".into(), count(&self.metrics.hits)),
            ("misses".into(), count(&self.metrics.misses)),
            ("coalesced".into(), count(&self.metrics.coalesced)),
            ("rejected".into(), count(&self.metrics.rejected)),
            ("errors".into(), count(&self.metrics.errors)),
            ("sim_runs".into(), count(&self.metrics.sim_runs)),
            ("sim_events".into(), count(&self.metrics.sim_events)),
            (
                "inflight".into(),
                Json::uint(self.inflight.load(Ordering::SeqCst) as u64),
            ),
            ("queue_depth".into(), Json::uint(self.queue_depth as u64)),
            ("jobs".into(), Json::uint(mck::runner::jobs() as u64)),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("dir".into(), Json::str(cache.dir().display().to_string())),
                    ("entries".into(), Json::uint(cache.entries().len() as u64)),
                    ("bytes".into(), Json::uint(cache.total_bytes())),
                    ("evictions".into(), Json::uint(stats.evictions)),
                    ("corrupt".into(), Json::uint(stats.corrupt)),
                ]),
            ),
            ("draining".into(), Json::Bool(self.draining())),
        ])
    }

    /// The `/metrics` exposition, reusing `simkit::metrics`' Prometheus
    /// text rendering over the serve counters and cache gauges.
    pub fn prometheus(&self) -> String {
        let mut reg = MetricsRegistry::new();
        let pairs: &[(&str, &AtomicU64)] = &[
            ("serve.requests", &self.metrics.requests),
            ("serve.cache.hits", &self.metrics.hits),
            ("serve.cache.misses", &self.metrics.misses),
            ("serve.cache.coalesced", &self.metrics.coalesced),
            ("serve.rejected", &self.metrics.rejected),
            ("serve.errors", &self.metrics.errors),
            ("serve.sim.runs", &self.metrics.sim_runs),
            ("serve.sim.events", &self.metrics.sim_events),
        ];
        for (name, value) in pairs {
            let id = reg.counter(name);
            reg.add(id, value.load(Ordering::SeqCst));
        }
        let cache = self.cache.lock().expect("cache lock");
        let stats = cache.stats();
        let evictions = reg.counter("serve.cache.evictions");
        reg.add(evictions, stats.evictions);
        let corrupt = reg.counter("serve.cache.corrupt");
        reg.add(corrupt, stats.corrupt);
        let entries = reg.gauge("serve.cache.entries");
        reg.set(entries, cache.entries().len() as f64);
        let bytes = reg.gauge("serve.cache.bytes");
        reg.set(bytes, cache.total_bytes() as f64);
        drop(cache);
        let inflight = reg.gauge("serve.inflight");
        reg.set(inflight, self.inflight.load(Ordering::SeqCst) as f64);
        reg.snapshot().to_prometheus()
    }
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8".to_string())?;
    if text.trim().is_empty() {
        // An empty body means "the paper's defaults".
        return Ok(Json::Obj(Vec::new()));
    }
    simkit::json::parse(text).map_err(|e| format!("body: {e}"))
}

/// Serializes an artifact exactly as [`mck::artifact::write`] lays it on
/// disk (pretty + trailing newline) so cache files, HTTP bodies, and
/// `--metrics` outputs are interchangeable byte-for-byte.
pub fn artifact_bytes(artifact: &Json) -> String {
    format!("{}\n", artifact.to_pretty())
}

fn cached_response(bytes: String, cache_key: &str, disposition: &str) -> Response {
    Response::json(200, bytes)
        .with_header("x-mck-cache", disposition)
        .with_header("x-mck-key", cache_key)
}

/// Counter totals reported after a graceful drain.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Requests accepted.
    pub requests: u64,
    /// Cache hits.
    pub hits: u64,
    /// Computed misses.
    pub misses: u64,
    /// Coalesced requests.
    pub coalesced: u64,
    /// Backpressure rejections.
    pub rejected: u64,
}

/// A bound listener plus its handler, ready to run.
pub struct Server {
    listener: TcpListener,
    service: Arc<ServeService>,
    http_workers: usize,
    max_requests: Option<u64>,
}

impl Server {
    /// Binds the address and opens the cache. The service is shared so
    /// callers (tests, the bench) can inspect counters while serving.
    pub fn bind(opts: &ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        Ok(Server {
            listener,
            service: Arc::new(ServeService::new(opts)?),
            http_workers: opts.http_workers.max(1),
            max_requests: opts.max_requests,
        })
    }

    /// The bound address (resolves `:0` ephemeral binds).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared handler.
    pub fn service(&self) -> Arc<ServeService> {
        self.service.clone()
    }

    /// Serves until shutdown (or `max_requests`), then drains: stops
    /// accepting, lets in-flight requests finish, joins the workers.
    pub fn run(self) -> std::io::Result<ServeSummary> {
        let addr = self.local_addr()?;
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let workers: Vec<_> = (0..self.http_workers)
            .map(|_| {
                let rx = rx.clone();
                let service = self.service.clone();
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only while dequeuing.
                    let stream = match rx.lock().expect("receiver lock").recv() {
                        Ok(stream) => stream,
                        Err(_) => return, // listener closed: drain complete
                    };
                    handle_connection(&service, stream, addr);
                })
            })
            .collect();

        let mut accepted: u64 = 0;
        for stream in self.listener.incoming() {
            if self.service.draining() {
                break;
            }
            let Ok(stream) = stream else { continue };
            accepted += 1;
            // The channel is unbounded on purpose: real admission control
            // happens at the computation layer (429 past `queue_depth`),
            // where the expensive resource lives.
            if tx.send(stream).is_err() {
                break;
            }
            if self.max_requests.is_some_and(|max| accepted >= max) {
                break;
            }
        }
        drop(tx);
        for worker in workers {
            let _ = worker.join();
        }
        let count = |c: &AtomicU64| c.load(Ordering::SeqCst);
        Ok(ServeSummary {
            requests: count(&self.service.metrics.requests),
            hits: count(&self.service.metrics.hits),
            misses: count(&self.service.metrics.misses),
            coalesced: count(&self.service.metrics.coalesced),
            rejected: count(&self.service.metrics.rejected),
        })
    }
}

fn handle_connection(service: &ServeService, mut stream: TcpStream, addr: SocketAddr) {
    let response = match http::read_request(&mut stream, MAX_BODY) {
        Ok(request) => service.handle(&request),
        Err(http::HttpError::TooLarge) => Response::error(413, "request too large"),
        Err(why) => Response::error(400, &why.to_string()),
    };
    let _ = http::write_response(&mut stream, &response);
    // `/shutdown` was just acknowledged on this connection: poke the accept
    // loop (blocked in `incoming()`) so it observes the drain flag.
    if service.draining() {
        let _ = TcpStream::connect(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service(tag: &str, queue_depth: usize) -> ServeService {
        let dir = std::env::temp_dir().join(format!("servekit_srv_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ServeService::new(&ServeOptions {
            cache_dir: dir,
            queue_depth,
            ..ServeOptions::default()
        })
        .unwrap()
    }

    fn post(service: &ServeService, path: &str, body: &str) -> Response {
        service.handle(&Request {
            method: "POST".into(),
            path: path.into(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        })
    }

    #[test]
    fn run_endpoint_hits_after_miss_with_identical_bytes() {
        let service = service("run", 4);
        let body = r#"{"protocol":"QBC","horizon":300,"t_switch":100,"seed":5}"#;
        let cold = post(&service, "/run", body);
        assert_eq!(cold.status, 200, "{:?}", String::from_utf8_lossy(&cold.body));
        let warm = post(&service, "/run", body);
        assert_eq!(warm.status, 200);
        assert_eq!(cold.body, warm.body, "byte-identical warm response");
        let m = &service.metrics;
        assert_eq!(m.misses.load(Ordering::SeqCst), 1);
        assert_eq!(m.hits.load(Ordering::SeqCst), 1);
        assert_eq!(m.sim_runs.load(Ordering::SeqCst), 1, "hit ran nothing");
        // Field order must not defeat the cache.
        let reordered = post(
            &service,
            "/run",
            r#"{"seed":5,"t_switch":100,"horizon":300,"protocol":"QBC"}"#,
        );
        assert_eq!(reordered.body, cold.body);
        assert_eq!(m.hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn bad_bodies_are_rejected_with_400() {
        let service = service("bad", 4);
        assert_eq!(post(&service, "/run", "{ nope").status, 400);
        assert_eq!(post(&service, "/run", r#"{"frobnicate":1}"#).status, 400);
        assert_eq!(post(&service, "/run", r#"{"t_switch":-1}"#).status, 400);
        assert_eq!(post(&service, "/sweep", r#"{"t_switch_list":"all"}"#).status, 400);
        assert_eq!(service.metrics.errors.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn unknown_routes_and_methods_are_reported() {
        let service = service("routes", 4);
        let get = |path: &str| {
            service.handle(&Request {
                method: "GET".into(),
                path: path.into(),
                headers: Vec::new(),
                body: Vec::new(),
            })
        };
        assert_eq!(get("/nope").status, 404);
        assert_eq!(get("/run").status, 405);
        assert_eq!(get("/").status, 200);
    }

    #[test]
    fn sweep_endpoint_caches_whole_artifacts() {
        let service = service("sweep", 4);
        let body =
            r#"{"protocol":"TP","horizon":200,"t_switch_list":[100,200],"replications":2,"seed":3}"#;
        let cold = post(&service, "/sweep", body);
        assert_eq!(cold.status, 200, "{:?}", String::from_utf8_lossy(&cold.body));
        let text = String::from_utf8(cold.body.clone()).unwrap();
        assert!(text.contains("mck.sweep/v1"), "{text}");
        assert!(!text.contains("\"timing\""), "cached sweeps carry no timing");
        let warm = post(&service, "/sweep", body);
        assert_eq!(warm.body, cold.body);
        assert_eq!(service.metrics.sim_runs.load(Ordering::SeqCst), 4, "2×2 grid once");
    }

    #[test]
    fn zero_depth_queue_rejects_every_miss_but_serves_hits() {
        let service = service("backpressure", 1);
        let body = r#"{"horizon":200,"seed":11}"#;
        assert_eq!(post(&service, "/run", body).status, 200);
        // Saturate admission from this same thread by shrinking the window:
        // a depth-0 service cannot exist (assert in RunCache is separate),
        // so emulate saturation by marking the only slot busy.
        service.inflight.store(1, Ordering::SeqCst);
        let rejected = post(&service, "/run", r#"{"horizon":200,"seed":12}"#);
        assert_eq!(rejected.status, 429);
        assert_eq!(service.metrics.rejected.load(Ordering::SeqCst), 1);
        // Hits bypass admission entirely.
        let hit = post(&service, "/run", body);
        assert_eq!(hit.status, 200);
        service.inflight.store(0, Ordering::SeqCst);
    }

    #[test]
    fn status_and_prometheus_expose_counters() {
        let service = service("status", 4);
        post(&service, "/run", r#"{"horizon":200,"seed":2}"#);
        let status = service.status_json();
        assert_eq!(status.get("misses").and_then(Json::as_u64), Some(1));
        assert!(status.get("sim_events").and_then(Json::as_u64).unwrap() > 0);
        let prom = service.prometheus();
        assert!(prom.contains("# TYPE serve_requests counter"), "{prom}");
        assert!(prom.contains("serve_cache_misses 1"), "{prom}");
    }
}
