//! The closed-loop query stream of the serving workloads, and the checks
//! on what it returns.
//!
//! Two clients each send their next query only after the previous ticket
//! resolved. Every answer is checked for its kind and length as it
//! arrives; one in eight, chosen by the seed, is kept as a digest and
//! verified in full against the sequential oracle after the timed window.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::inputs::{self, Query, QueryStream, Rng};
use crate::layers::{self, Answer, Failure, Kind, Payload, Server, Spec};
use crate::trace::{SpanId, Tracer};
use crate::workload::{Run, Workload, World};

/// Closed-loop clients of every stream.
pub const CLIENTS: u64 = 2;
/// On `serve_churn`, client 0 rebuilds after this many of its queries.
const REBUILD_EVERY: usize = 32;
/// One answer in this many is verified in full.
const VERIFY_ONE_IN: usize = 8;

/// When a stream ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After `seconds`, and not before `min_queries` answers in total.
    After { seconds: f64, min_queries: usize },
    /// After exactly this many queries in total (the traced pass, so its
    /// counts repeat).
    Count(usize),
}

/// One resolved (or failed) ticket.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    pub latency_s: f64,
    pub submit_s: f64,
    pub cache_hit: bool,
    pub epochs: u64,
    pub failure: Option<Failure>,
    /// The answer had the wrong kind or length for its query.
    pub malformed: bool,
}

impl Sample {
    pub fn ok(&self) -> bool {
        self.failure.is_none() && !self.malformed
    }
}

/// A sampled answer awaiting full verification.
pub struct Check {
    query: Query,
    /// Digest of the returned field, or the returned target distance.
    got: u64,
}

pub struct StreamResult {
    pub samples: Vec<Sample>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    /// Failed or malformed tickets; a full-verification mismatch is added
    /// by [`verify`].
    pub failed: u64,
    pub wall_s: f64,
}

impl StreamResult {
    /// Latencies of the tickets that resolved well; a failed one misses
    /// every latency figure.
    pub fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.ok())
            .map(|s| s.latency_s)
            .collect()
    }
}

pub fn spec_of(q: &Query) -> Spec {
    match q.kind {
        Kind::SingleSource => layers::single_source(q.root),
        Kind::PointToPoint => layers::point_to_point(q.root, q.target),
        Kind::MultiSeed => layers::multi_seed(&q.seeds),
        Kind::Bfs => layers::bfs(q.root),
    }
}

/// Submit one query and wait for it, as `serve.submit` and `serve.wait`
/// spans under one `serve.query` span.
pub fn ask(
    server: &Server,
    q: &Query,
    tracer: &Tracer,
    parent: SpanId,
    id: u64,
) -> (Sample, Option<Answer>) {
    let spec = spec_of(q);
    let span = tracer.begin("serve.query", parent, Some(id));
    let (ticket, submit_s, _) = tracer.span("serve.submit", span, Some(id), || {
        layers::submit(server, spec)
    });
    let (answer, wait_s) = match ticket {
        Ok(t) => {
            let (a, s, _) = tracer.span("serve.wait", span, Some(id), || layers::wait(server, t));
            (a, s)
        }
        Err(f) => (Err(f), 0.0),
    };
    tracer.end(span);
    let mut sample = Sample {
        kind: q.kind,
        latency_s: submit_s + wait_s,
        submit_s,
        cache_hit: false,
        epochs: 0,
        failure: None,
        malformed: false,
    };
    let answer = match answer {
        Ok(a) => {
            sample.cache_hit = a.cache_hit;
            sample.epochs = a.epochs;
            Some(a)
        }
        Err(f) => {
            sample.failure = Some(f);
            None
        }
    };
    tracer.count(span, "kind", q.kind as u8 as f64);
    tracer.count(span, "cache_hit", f64::from(u8::from(sample.cache_hit)));
    tracer.count(span, "epochs", sample.epochs as f64);
    tracer.count(
        span,
        "failed",
        f64::from(u8::from(sample.failure.is_some())),
    );
    (sample, answer)
}

/// Kind and length check of an answer against its query.
fn well_formed(q: &Query, answer: &Answer, n: usize) -> bool {
    match (q.kind, &answer.payload) {
        (Kind::SingleSource | Kind::MultiSeed, Payload::Distances(d)) => d.len() == n,
        (Kind::PointToPoint, Payload::Target(_)) => true,
        (Kind::Bfs, Payload::Depths(d)) => d.len() == n,
        _ => false,
    }
}

/// What a full verification compares: the target distance, or a digest of
/// the whole field so the field itself need not outlive the ticket.
fn fingerprint(answer: &Answer) -> u64 {
    match &answer.payload {
        Payload::Distances(d) => inputs::digest(d.as_slice()),
        Payload::Target(d) => *d,
        Payload::Depths(d) => inputs::digest(d.as_slice()),
        Payload::Other => 0,
    }
}

/// The fixed serve warm-up: `count` queries of the workload's stream from
/// one caller, so worker scratch and cache are in their running state.
pub fn warm_up(world: &World, server: &Server, run: &Run, count: usize) {
    let mut stream = QueryStream::new(&world.component, &run.workload.root_law(), run.seed, 99);
    let off = Tracer::new(false);
    for _ in 0..count {
        ask(server, &stream.next(), &off, None, 0);
    }
}

/// Run the workload's stream from [`CLIENTS`] closed-loop clients.
pub fn run_stream(
    world: &World,
    server: &Server,
    run: &Run,
    tracer: &Tracer,
    parent: SpanId,
    stop: Stop,
) -> StreamResult {
    let n = layers::num_vertices(&world.graph);
    let law = run.workload.root_law();
    let churn = run.workload == Workload::ServeChurn;
    let span = tracer.begin("serve.stream", parent, None);
    let start = Instant::now();
    // `After` ends on a shared flag so both clients stop together; `Count`
    // gives each client its share.
    let done = AtomicBool::new(false);
    let client = |c: u64| {
        let mut stream = QueryStream::new(&world.component, &law, run.seed, c);
        let mut pick = Rng::new(run.seed, 50 + c);
        let mut samples: Vec<Sample> = Vec::new();
        let mut checks = Vec::new();
        loop {
            let finished = match stop {
                Stop::Count(total) => {
                    let share = total / CLIENTS as usize
                        + usize::from((c as usize) < total % CLIENTS as usize);
                    samples.len() >= share
                }
                Stop::After {
                    seconds,
                    min_queries,
                } => {
                    if start.elapsed().as_secs_f64() >= seconds
                        && samples.len() * CLIENTS as usize >= min_queries
                    {
                        done.store(true, Ordering::Relaxed);
                    }
                    done.load(Ordering::Relaxed)
                }
            };
            if finished {
                break;
            }
            let q = stream.next();
            let id = (c << 32) | samples.len() as u64;
            let (mut sample, answer) = ask(server, &q, tracer, span, id);
            let sampled = pick.below(VERIFY_ONE_IN) == 0;
            if let Some(answer) = answer {
                if !well_formed(&q, &answer, n) {
                    sample.malformed = true;
                } else if sampled {
                    let got = fingerprint(&answer);
                    checks.push(Check { query: q, got });
                }
            }
            samples.push(sample);
            if churn && c == 0 && samples.len().is_multiple_of(REBUILD_EVERY) {
                tracer.span("serve.rebuild", span, None, || {
                    layers::rebuild(server, &world.dist)
                });
            }
        }
        (samples, checks)
    };
    let per_client: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS).map(|c| s.spawn(move || client(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    tracer.end(span);
    let mut result = StreamResult {
        samples: Vec::new(),
        checks: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s,
    };
    for (samples, checks) in per_client {
        result.samples.extend(samples);
        result.checks.extend(checks);
    }
    result.attempted = result.samples.len() as u64;
    result.failed = result.samples.iter().filter(|s| !s.ok()).count() as u64;
    tracer.count(span, "queries", result.attempted as f64);
    result
}

/// Verify the sampled answers in full, outside every timed window:
/// single-source against the oracle field, point-to-point against the
/// oracle's entry for the target, multi-seed against the min-plus of the
/// seeds' oracle fields, BFS against a hop BFS. Returns the mismatches.
pub fn verify(world: &World, checks: &[Check], tracer: &Tracer, parent: SpanId) -> u64 {
    let mut wrong = 0;
    for check in checks {
        let q = &check.query;
        let (want, _, _) = tracer.span("bench.verify", parent, None, || match q.kind {
            Kind::SingleSource => inputs::digest(&layers::oracle(&world.graph, q.root)),
            Kind::PointToPoint => layers::oracle(&world.graph, q.root)[q.target as usize],
            Kind::MultiSeed => {
                let mut field = vec![u64::MAX; layers::num_vertices(&world.graph)];
                for &(seed, offset) in &q.seeds {
                    let from_seed = layers::oracle(&world.graph, seed);
                    for (best, d) in field.iter_mut().zip(from_seed) {
                        *best = (*best).min(d.saturating_add(offset));
                    }
                }
                inputs::digest(&field)
            }
            Kind::Bfs => inputs::digest(&inputs::hop_bfs(&world.graph, q.root)),
        });
        if want != check.got {
            eprintln!(
                "served {:?} from root {} disagrees with the oracle",
                q.kind, q.root
            );
            wrong += 1;
        }
    }
    wrong
}
