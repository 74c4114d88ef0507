//! `serve-large-world`: `mck serve`'s `Server` in this process on loopback
//! with one job worker and a fresh cache directory per round. One client
//! connection at a time POSTs 5,000-host worlds (N/32 = 156 cells, horizon
//! 100, QBC and BCS, world size set through `scenario.params`): each world
//! once cold, then repeatedly warm. One operation is one request.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mck::prelude::{CicKind, SimConfig, Simulation};
use servekit::cache::RunCache;
use servekit::http::{client_request, header_value};
use servekit::server::{artifact_bytes, ServeOptions, ServeService, ServeSummary, Server};

use super::{Outcome, Workload};
use crate::checks;
use crate::layers::Layers;
use crate::replay;

/// World size. At 10⁴ hosts a round held two cold requests of about 2 s
/// each, so a run timed each of them only three to six times and its
/// fastest time still moved with the host; 5,000 hosts keep the N/32-cell
/// scale and the per-host metric finalization at a quarter of the cost.
const HOSTS: usize = 5_000;
const HORIZON: f64 = 100.0;
/// Warm requests per world and round.
const WARM: usize = 8;

struct World {
    label: String,
    body: String,
    cfg: SimConfig,
    /// `n_tot` and `events` of a direct in-process run of `cfg`.
    n_tot: u64,
    events: u64,
}

pub struct ServeLargeWorld {
    worlds: Vec<World>,
    scratch: Scratch,
    rounds: u64,
    /// The current round's server, started by step 0.
    live: Option<Live>,
    /// The current round's cold reply body per world.
    cold: Vec<Option<Vec<u8>>>,
    /// The current round's tallies.
    out: Outcome,
}

/// A server running on its own thread with a fresh cache directory.
struct Live {
    addr: String,
    service: Arc<ServeService>,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
    cache_dir: PathBuf,
}

fn request_body(protocol: CicKind, seed: u64) -> String {
    format!(
        "{{\"protocol\":\"{}\",\"horizon\":{HORIZON},\"seed\":{seed},\"scenario\":{{\"schema\":\"mck.scenario/v1\",\
         \"name\":\"large-world\",\"params\":{{\"n_mhs\":{HOSTS},\"n_mss\":{}}}}}}}",
        protocol.name(),
        HOSTS / 32
    )
}

impl ServeLargeWorld {
    /// Builds the request bodies, parses them as the server does, and runs
    /// each world once directly (the reference the served artifacts are
    /// checked against, and the warm-up).
    pub fn prepare(seed: u64) -> Result<ServeLargeWorld, String> {
        let mut worlds = Vec::new();
        for protocol in [CicKind::Qbc, CicKind::Bcs] {
            let body = request_body(protocol, seed);
            let doc = simkit::json::parse(&body).map_err(|e| format!("request body: {e}"))?;
            let cfg = servekit::key::config_from_json(&doc)?;
            let reference = Simulation::run(cfg.clone());
            worlds.push(World {
                label: format!("serve {} N={HOSTS}", protocol.name()),
                body,
                cfg,
                n_tot: reference.n_tot(),
                events: reference.events,
            });
        }
        let scratch = Scratch::new().map_err(|e| format!("scratch directory: {e}"))?;
        let cold = vec![None; worlds.len()];
        Ok(ServeLargeWorld {
            worlds,
            scratch,
            rounds: 0,
            live: None,
            cold,
            out: Outcome::default(),
        })
    }

    fn per_round(&self) -> u64 {
        (self.worlds.len() * (1 + WARM)) as u64
    }

    /// Step 0: a server with one handler thread and one job worker on a
    /// fresh cache directory.
    fn start(&mut self) {
        self.rounds += 1;
        let cache_dir = self.scratch.path().join(format!("cache-{}", self.rounds));
        let opts = ServeOptions {
            cache_dir: cache_dir.clone(),
            http_workers: 1,
            queue_depth: 1,
            ..ServeOptions::default()
        };
        match Server::bind(&opts) {
            Ok(server) => {
                let addr = server
                    .local_addr()
                    .expect("a bound listener has an address")
                    .to_string();
                let service = server.service();
                let handle = std::thread::spawn(move || server.run());
                self.live = Some(Live {
                    addr,
                    service,
                    handle,
                    cache_dir,
                });
            }
            Err(e) => self.out.problems.push(format!("serve: bind: {e}")),
        }
    }

    /// One request: the cold one of world `w` when `warm` is false.
    fn request(&mut self, w: usize, warm: bool) {
        let world = &self.worlds[w];
        let Some(live) = &self.live else {
            self.out.failed += 1;
            return;
        };
        let before = live.service.metrics.sim_events.load(Ordering::SeqCst);
        let (status, headers, body) =
            match client_request(&live.addr, "POST", "/run", world.body.as_bytes()) {
                Ok(reply) => reply,
                Err(e) => {
                    self.out.failed += 1;
                    self.out
                        .problems
                        .push(format!("{}: request: {e}", world.label));
                    return;
                }
            };
        let disposition = header_value(&headers, "x-mck-cache");
        if !warm {
            self.out
                .problems
                .extend(checks::cold_reply(&world.label, status, disposition));
            self.out.problems.extend(checks::served_artifact(
                &world.label,
                &body,
                world.n_tot,
                world.events,
            ));
            self.cold[w] = Some(body);
            return;
        }
        let ran = live.service.metrics.sim_events.load(Ordering::SeqCst) - before;
        let cold = self.cold[w].as_deref().unwrap_or_default();
        self.out.problems.extend(checks::warm_reply(
            &world.label,
            status,
            disposition,
            &body,
            cold,
            ran,
        ));
    }

    /// Stops the server, removes its cache and closes the round's tally.
    fn stop(&mut self) -> Outcome {
        if let Some(live) = self.live.take() {
            let stopped = client_request(&live.addr, "POST", "/shutdown", b"");
            match live.handle.join() {
                Ok(Ok(_)) if stopped.is_ok() => {}
                Ok(Ok(_)) => self
                    .out
                    .problems
                    .push("serve: shutdown request failed".into()),
                Ok(Err(e)) => self.out.problems.push(format!("serve: {e}")),
                Err(_) => self
                    .out
                    .problems
                    .push("serve: server thread panicked".into()),
            }
            let _ = std::fs::remove_dir_all(&live.cache_dir);
        }
        self.cold.iter_mut().for_each(|c| *c = None);
        let mut out = std::mem::take(&mut self.out);
        out.attempted = self.per_round();
        out
    }
}

/// A scratch directory under the working directory, removed (with its
/// parent, when that is left empty) when dropped.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// Creates `.bench_run/<pid>` under the working directory.
    fn new() -> std::io::Result<Scratch> {
        let dir = std::env::current_dir()?
            .join(".bench_run")
            .join(std::process::id().to_string());
        // A directory left by an earlier process with this pid is stale.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch { dir })
    }

    /// The directory.
    fn path(&self) -> &std::path::Path {
        &self.dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

impl Workload for ServeLargeWorld {
    /// Server start, then per world one cold and `WARM` warm requests.
    fn steps(&self) -> usize {
        1 + self.per_round() as usize
    }

    fn step(&mut self, i: usize) {
        match i {
            0 => self.start(),
            _ => self.request((i - 1) / (1 + WARM), !(i - 1).is_multiple_of(1 + WARM)),
        }
    }

    fn finish(&mut self) -> Outcome {
        self.stop()
    }

    fn traced_round(&mut self, layers: &mut Layers) -> Outcome {
        let mut problems = Vec::new();
        let cache = self.scratch.path().join("traced-cache");
        let _ = std::fs::remove_dir_all(&cache);
        let mut store = RunCache::open(&cache, 16).expect("scratch cache opens");
        for w in &self.worlds {
            let key = layers.time("servekit.key_s", || servekit::key::run_key(&w.cfg));
            let events = replay::event_loop(&w.cfg, true, layers).events;
            let mut report = replay::recorded_run(&w.cfg, true);
            let stream = replay::records(&report);
            let forced = replay::replay_cic(&w.cfg, &stream, layers);
            replay::replay_mobnet(&w.cfg, &stream, layers);
            report.trace_events = None;
            replay::replay_registry(&w.cfg, &report, layers);
            let bytes = layers.time("core.artifact_s", || {
                artifact_bytes(&mck::artifact::run_artifact(&w.cfg, &report))
            });
            layers.add("core.artifact_kib", bytes.len() as f64 / 1024.0);
            if let Err(e) = layers.time("servekit.put_s", || {
                store.put(&key, mck::artifact::RUN_SCHEMA, &bytes)
            }) {
                problems.push(format!("{}: cache put: {e}", w.label));
            }
            if layers.time("servekit.get_s", || store.get(&key)).as_deref() != Some(bytes.as_str())
            {
                problems.push(format!(
                    "{}: cache get did not return the stored bytes",
                    w.label
                ));
            }
            problems.extend(checks::same_count(
                &format!("{} simkit.events", w.label),
                events,
                report.events,
            ));
            problems.extend(checks::same_count(
                &format!("{} cic.forced", w.label),
                forced,
                report.ckpts.forced,
            ));
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&cache);
        let (mut cold, mut warm) = (Vec::new(), Vec::new());
        for i in 0..self.steps() {
            let t = Instant::now();
            self.step(i);
            let secs = t.elapsed().as_secs_f64();
            match i {
                0 => {}
                _ if (i - 1).is_multiple_of(1 + WARM) => cold.push(secs),
                _ => warm.push(secs),
            }
        }
        layers.set("servekit.cold_s", crate::median(&cold));
        layers.set("servekit.warm_s", crate::median(&warm));
        let mut out = self.finish();
        out.problems.extend(problems);
        out
    }
}
