//! The query scheduler: a FIFO of submitted [`QuerySpec`]s drained by a
//! pool of `max_inflight` worker threads, each owning one resident
//! [`EngineScratch`].
//!
//! Locking discipline (mirrored by the static concurrency model in
//! `sssp-lint` and its committed goldens): exactly **one** mutex —
//! `queue` — guards every piece of shared state (job FIFO, finished
//! results, the graph handle, the distance cache, lifecycle flags), and
//! the two condvars `work_ready` / `done_ready` park workers and waiting
//! clients against it. No code path acquires a second lock while holding
//! the first, so the lock-order graph has no edges and cannot deadlock;
//! queries themselves execute strictly outside the critical section.
//!
//! Unwind discipline (mirrored by the static panic-reachability pass,
//! `sssp-lint --panics`): specs are validated before the queue lock is
//! ever taken, query execution runs behind `catch_unwind` so a panic
//! fails only its own ticket ([`crate::QueryError::Panicked`]), and every
//! lock acquisition goes through `Shared::lock_queue`, which recovers a
//! poisoned mutex instead of cascading the poison — one crashed thread
//! can never wedge the condvar protocol for everyone else.
//!
//! [`EngineScratch`]: sssp_core::EngineScratch

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sssp_comm::cost::MachineModel;
use sssp_core::bfs::bfs_on;
use sssp_core::cc::cc_on;
use sssp_core::closeness::harmonic_closeness_until;
use sssp_core::pagerank::pagerank_on;
use sssp_core::{canonical_seeds, run, EngineScratch, NoopRecorder, Query, SsspConfig, Threaded};
use sssp_dist::DistGraph;

use crate::cache::{DistanceCache, Hit, SeedKey};
use crate::{QueryError, QueryOutput, QueryResult, QuerySpec};

/// Handle to a submitted query; redeem it with [`SsspServer::wait`] or
/// [`SsspServer::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ticket(u64);

/// Serving parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads, i.e. the number of queries in flight at once.
    /// Each worker owns one [`EngineScratch`]; every query still spawns
    /// its own rank threads inside the engine.
    pub max_inflight: usize,
    /// Distance-cache capacity in full fields (0 disables the cache).
    pub cache_capacity: usize,
    /// Default per-query deadline, measured from submit time (`None` =
    /// unbounded). A query that misses it fails with
    /// [`QueryError::TimedOut`]; [`SsspServer::submit_with_deadline`]
    /// overrides this per query.
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_inflight: 4,
            cache_capacity: 32,
            deadline: None,
        }
    }
}

/// What a worker should do with one claimed job.
enum JobKind {
    /// Run a validated query (deadline fixed at submit time).
    Query {
        spec: QuerySpec,
        deadline: Option<Instant>,
    },
    /// Panic on the worker thread, inside the unwind guard — the chaos
    /// probe the crash-isolation tests inject.
    PanicProbe,
}

/// One queued job.
struct Job {
    ticket: Ticket,
    kind: JobKind,
}

/// Everything the queue mutex guards.
struct QueueState {
    /// FIFO of submitted, not-yet-claimed jobs.
    jobs: VecDeque<Job>,
    /// Finished queries awaiting pickup, by ticket.
    results: BTreeMap<u64, Result<QueryResult, QueryError>>,
    /// The resident graph every new query runs against.
    graph: Arc<DistGraph>,
    /// Bumped by [`SsspServer::rebuild`]; stale cache inserts are dropped.
    generation: u64,
    /// The landmark / repeat-root distance cache.
    cache: DistanceCache,
    /// Next ticket id.
    next_ticket: u64,
    /// Set once by the server's `Drop`; workers drain the FIFO then exit.
    shutdown: bool,
    /// Queries currently claimed by a worker.
    running: usize,
    /// High-water mark of `running` over the server's lifetime.
    peak_running: usize,
    /// Tickets that failed with [`QueryError::Panicked`].
    panicked: u64,
    /// Tickets that failed with [`QueryError::TimedOut`].
    timed_out: u64,
}

/// The shared half of the server: one mutex, two condvars (see the
/// module docs for the locking discipline), and a lock-free mirror of the
/// resident graph's vertex count so submit-time validation never touches
/// the lock.
struct Shared {
    queue: Mutex<QueueState>,
    work_ready: Condvar,
    done_ready: Condvar,
    /// Vertex count of the resident graph, updated under the queue lock
    /// by [`SsspServer::rebuild`] but readable without it. Submit-time
    /// validation reads this mirror; a racing rebuild costs at most a
    /// late [`QueryError::InvalidSpec`] from the worker's re-validation,
    /// never a panic.
    num_vertices: AtomicUsize,
}

impl Shared {
    /// Acquire the queue lock, **recovering** from poison: the queue's
    /// critical sections only mutate state through infallible operations
    /// (the static panic pass keeps them free of panic sites), so a
    /// poisoned mutex still holds a consistent `QueueState` — recovering
    /// it keeps one crashed thread from permanently wedging every worker
    /// and client parked on the condvars.
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Park on `work_ready`, re-acquiring the queue lock on wake (poison
    /// recovered, same contract as [`Shared::lock_queue`]).
    fn wait_work<'a>(&self, g: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
        self.work_ready
            .wait(g)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Park on `done_ready`, re-acquiring the queue lock on wake (poison
    /// recovered, same contract as [`Shared::lock_queue`]).
    fn wait_done<'a>(&self, g: MutexGuard<'a, QueueState>) -> MutexGuard<'a, QueueState> {
        self.done_ready
            .wait(g)
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A query-serving engine over one resident graph. Dropping the server
/// finishes every queued query, then joins the workers.
pub struct SsspServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    max_inflight: usize,
    deadline: Option<Duration>,
}

/// What a worker claimed from the queue in one critical section: either
/// an already-decided outcome (cache hit, expired deadline) or work to
/// execute outside the lock.
enum Claim {
    /// The ticket's outcome was decided inside the critical section.
    Done {
        ticket: Ticket,
        outcome: Result<QueryResult, QueryError>,
    },
    /// A cache hit whose answer is composed from resident single-source
    /// fields — an O(n·k) loop the worker runs after releasing the lock.
    Compose {
        ticket: Ticket,
        parts: Vec<(u64, Arc<Vec<u64>>)>,
        generation: u64,
    },
    /// A query to execute.
    Run {
        ticket: Ticket,
        spec: QuerySpec,
        deadline: Option<Instant>,
        graph: Arc<DistGraph>,
        generation: u64,
    },
    /// A panic probe to detonate behind the unwind guard.
    Probe {
        ticket: Ticket,
    },
    Exit,
}

impl SsspServer {
    /// Spin up a server over `graph`: `serve.max_inflight` workers, each
    /// with an empty [`EngineScratch`] warmed by its first query. `cfg`
    /// and `model` apply to every SSSP-family query (analytics endpoints
    /// take only what they need from them).
    pub fn new(
        graph: Arc<DistGraph>,
        cfg: SsspConfig,
        model: MachineModel,
        serve: ServeConfig,
    ) -> SsspServer {
        let num_vertices = AtomicUsize::new(graph.num_vertices());
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                results: BTreeMap::new(),
                graph,
                generation: 0,
                cache: DistanceCache::new(serve.cache_capacity),
                next_ticket: 0,
                shutdown: false,
                running: 0,
                peak_running: 0,
                panicked: 0,
                timed_out: 0,
            }),
            work_ready: Condvar::new(),
            done_ready: Condvar::new(),
            num_vertices,
        });
        let max_inflight = serve.max_inflight.max(1);
        let workers = (0..max_inflight)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let cfg = cfg.clone();
                std::thread::spawn(move || worker_loop(&shared, &cfg, &model))
            })
            .collect();
        SsspServer {
            shared,
            workers,
            max_inflight,
            deadline: serve.deadline,
        }
    }

    /// The worker-pool size (= maximum concurrently running queries).
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Enqueue a query under the server's default deadline and return its
    /// ticket. A spec naming a vertex outside the resident graph (or a
    /// sourceless closeness query) is rejected with
    /// [`QueryError::InvalidSpec`] **before the queue lock is taken** —
    /// a malformed submit is an error return in the submitting thread and
    /// can never poison the queue.
    pub fn submit(&self, spec: QuerySpec) -> Result<Ticket, QueryError> {
        self.submit_with_deadline(spec, self.deadline)
    }

    /// [`SsspServer::submit`] with a per-query deadline override
    /// (measured from now; `None` = unbounded regardless of the config
    /// default).
    pub fn submit_with_deadline(
        &self,
        spec: QuerySpec,
        deadline: Option<Duration>,
    ) -> Result<Ticket, QueryError> {
        // Validation reads the lock-free vertex-count mirror, so a bad
        // spec returns before any critical section. A rebuild can race
        // the mirror read; the worker re-validates against the graph it
        // actually claims, so the race costs a late error, never a panic.
        let n = self.shared.num_vertices.load(Ordering::Acquire);
        spec.validate(n)?;
        let deadline = deadline.map(|d| Instant::now() + d);
        let mut q = self.shared.lock_queue();
        let ticket = Ticket(q.next_ticket);
        q.next_ticket += 1;
        q.jobs.push_back(Job {
            ticket,
            kind: JobKind::Query { spec, deadline },
        });
        self.shared.work_ready.notify_one();
        Ok(ticket)
    }

    /// Enqueue a job that **panics inside a worker** — the chaos probe
    /// the crash-isolation tests inject. The panic detonates on the
    /// worker thread, behind the same unwind guard real queries run
    /// under, so the probe's ticket fails with [`QueryError::Panicked`]
    /// while every other ticket (and the server itself) is unaffected.
    pub fn submit_panic_probe(&self) -> Ticket {
        let mut q = self.shared.lock_queue();
        let ticket = Ticket(q.next_ticket);
        q.next_ticket += 1;
        q.jobs.push_back(Job {
            ticket,
            kind: JobKind::PanicProbe,
        });
        self.shared.work_ready.notify_one();
        ticket
    }

    /// Block until `ticket`'s query finishes and take its outcome. Each
    /// ticket can be redeemed exactly once.
    pub fn wait(&self, ticket: Ticket) -> Result<QueryResult, QueryError> {
        let mut q = self.shared.lock_queue();
        loop {
            if let Some(outcome) = q.results.remove(&ticket.0) {
                return outcome;
            }
            // sssp-lint: allow(concurrency-blocking-hold): a condvar wait
            // atomically releases the queue lock while parked; workers
            // publishing results can always acquire it.
            q = self.shared.wait_done(q);
        }
    }

    /// Take `ticket`'s outcome if the query already finished.
    pub fn poll(&self, ticket: Ticket) -> Option<Result<QueryResult, QueryError>> {
        let mut q = self.shared.lock_queue();
        q.results.remove(&ticket.0)
    }

    /// Submit-and-wait convenience for sequential callers.
    pub fn run(&self, spec: QuerySpec) -> Result<QueryResult, QueryError> {
        let ticket = self.submit(spec)?;
        self.wait(ticket)
    }

    /// Swap in a new resident graph: bumps the generation and clears the
    /// distance cache. Queries already claimed by a worker finish against
    /// the graph they started with (their results report the old
    /// generation, and their cache inserts are discarded); queries still
    /// queued run against the new graph.
    pub fn rebuild(&self, graph: Arc<DistGraph>) {
        let n = graph.num_vertices();
        let mut q = self.shared.lock_queue();
        q.graph = graph;
        q.generation += 1;
        q.cache.clear();
        self.shared.num_vertices.store(n, Ordering::Release);
    }

    /// One consistent snapshot of the server's counters.
    pub fn stats(&self) -> ServeStats {
        let q = self.shared.lock_queue();
        ServeStats {
            generation: q.generation,
            cache_hits: q.cache.hits(),
            own_field_hits: q.cache.own_hits,
            target_field_hits: q.cache.target_hits,
            composed_hits: q.cache.composed_hits,
            cache_misses: q.cache.misses,
            peak_inflight: q.peak_running,
            panicked: q.panicked,
            timed_out: q.timed_out,
        }
    }
}

/// The server's counters over its lifetime, read under one lock by
/// [`SsspServer::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// The current graph generation (0 until the first
    /// [`SsspServer::rebuild`]).
    pub generation: u64,
    /// Lookups the distance cache answered, by any route: the sum of
    /// the three fields below.
    pub cache_hits: u64,
    /// Hits read from the seed set's own field (a point-to-point query:
    /// its root's).
    pub own_field_hits: u64,
    /// Point-to-point hits read from the target's field at the root.
    pub target_field_hits: u64,
    /// Multi-seed hits composed from every seed's single-source field.
    pub composed_hits: u64,
    /// Lookups the distance cache missed.
    pub cache_misses: u64,
    /// The most queries ever observed running at the same instant — the
    /// serving benchmark's concurrency gate.
    pub peak_inflight: usize,
    /// Tickets that failed with [`QueryError::Panicked`].
    pub panicked: u64,
    /// Tickets that failed with [`QueryError::TimedOut`]. The serving
    /// telemetry block records both failure counts, and the benchmark gate
    /// requires them to be zero on a clean run.
    pub timed_out: u64,
}

impl Drop for SsspServer {
    fn drop(&mut self) {
        {
            // `lock_queue` recovers poison, so shutdown goes through even
            // after a crash — a drop may not panic, and the parked
            // workers need the wake-up.
            let mut q = self.shared.lock_queue();
            q.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for h in self.workers.drain(..) {
            // A worker that somehow died already surfaced its message on
            // stderr; the server's drop must not double-panic.
            let _ = h.join();
        }
    }
}

/// Claim the next job — answering straight from the cache, failing an
/// already-expired deadline, or deciding to exit — one critical section
/// on the queue mutex.
fn claim(shared: &Shared) -> Claim {
    let mut q = shared.lock_queue();
    loop {
        if let Some(Job { ticket, kind }) = q.jobs.pop_front() {
            q.running += 1;
            q.peak_running = q.peak_running.max(q.running);
            let (spec, deadline) = match kind {
                JobKind::Query { spec, deadline } => (spec, deadline),
                JobKind::PanicProbe => return Claim::Probe { ticket },
            };
            // A deadline that expired while the job sat in the FIFO fails
            // here, before any engine work is scheduled for it.
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Claim::Done {
                    ticket,
                    outcome: Err(QueryError::TimedOut),
                };
            }
            // Re-validate against the graph this claim actually runs on: a
            // rebuild may have raced the submit-time mirror check, and the
            // cache lookup below indexes with spec vertices.
            let n = q.graph.num_vertices();
            if let Err(e) = spec.validate(n) {
                return Claim::Done {
                    ticket,
                    outcome: Err(e),
                };
            }
            let output = match &spec {
                QuerySpec::PointToPoint { root, target } => q
                    .cache
                    .lookup_pair(*root, *target)
                    .map(QueryOutput::TargetDistance),
                _ => match spec
                    .seeds()
                    .and_then(|seeds| q.cache.lookup(&canonical_seeds(&seeds, n)))
                {
                    Some(Hit::Own(dist)) => Some(QueryOutput::Distances(dist)),
                    Some(Hit::Composed(parts)) => {
                        return Claim::Compose {
                            ticket,
                            parts,
                            generation: q.generation,
                        }
                    }
                    None => None,
                },
            };
            if let Some(output) = output {
                return Claim::Done {
                    ticket,
                    outcome: Ok(QueryResult {
                        ticket,
                        output,
                        epochs: 0,
                        cache_hit: true,
                        generation: q.generation,
                    }),
                };
            }
            return Claim::Run {
                ticket,
                spec,
                deadline,
                graph: Arc::clone(&q.graph),
                generation: q.generation,
            };
        }
        if q.shutdown {
            return Claim::Exit;
        }
        // sssp-lint: allow(concurrency-blocking-hold): a condvar wait
        // atomically releases the queue lock while parked; submitters can
        // always acquire it to hand over work.
        q = shared.wait_work(q);
    }
}

/// Publish a finished ticket and (for successful full distance runs) feed
/// the cache — one critical section on the queue mutex. Failure counters
/// advance here so the telemetry block sees every outcome exactly once.
fn finish(
    shared: &Shared,
    ticket: Ticket,
    outcome: Result<QueryResult, QueryError>,
    cache_insert: Option<(SeedKey, Arc<Vec<u64>>, u64)>,
) {
    let mut q = shared.lock_queue();
    if let Some((key, dist, insert_generation)) = cache_insert {
        // A rebuild may have raced this query; a stale field must not
        // poison the new graph's cache.
        if q.generation == insert_generation {
            q.cache.insert(key, dist);
        }
    }
    match &outcome {
        Err(QueryError::Panicked(_)) => q.panicked += 1,
        Err(QueryError::TimedOut) => q.timed_out += 1,
        _ => {}
    }
    q.running -= 1;
    q.results.insert(ticket.0, outcome);
    shared.done_ready.notify_all();
}

/// The multi-seed field from resident single-source fields:
/// `d(v) = min_i(o_i + d_i(v))`, an unreached entry (`u64::MAX`) skipped —
/// exactly what a run from the seed set computes. Runs outside the queue
/// lock.
fn compose(parts: &[(u64, Arc<Vec<u64>>)]) -> Vec<u64> {
    let n = parts.first().map_or(0, |(_, field)| field.len());
    let mut out = vec![u64::MAX; n];
    for (offset, field) in parts {
        for (best, &d) in out.iter_mut().zip(field.iter()) {
            if d != u64::MAX {
                check_compose_headroom(*offset, d);
                *best = (*best).min(offset + d);
            }
        }
    }
    out
}

/// Composition headroom: a seed offset `o ≤ max_seed_offset(n)` plus a
/// single-source distance `d ≤ (n − 1)·u32::MAX` is at most `u64::MAX −
/// u32::MAX` (the bound stated at [`sssp_core::max_seed_offset`]), so
/// `o + d` cannot wrap or collide with the unreached sentinel.
#[inline]
fn check_compose_headroom(o: u64, d: u64) {
    let top = u64::MAX - u64::from(u32::MAX);
    debug_assert!(
        d <= top && o <= top - d,
        "seed offset {o} + distance {d} leaves no headroom below u64::MAX"
    );
}

/// Best-effort text of a panic payload: string payloads (the overwhelming
/// majority — `panic!`, `assert!`, `expect` all produce them) are carried
/// verbatim; anything else gets a fixed description.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute one claimed query **outside the critical section**: re-validate
/// the spec against the graph actually claimed (submit validated against a
/// lock-free snapshot that a rebuild may have raced), then run the endpoint
/// under its deadline. Every kind honours it: the SSSP family through the
/// engine's `epoch.deadline` collective, BFS, components and PageRank
/// through the verdict their per-round reduce carries, and closeness
/// through each per-source run. All but closeness run on the rank-thread
/// transport.
/// A query that misses it fails with [`QueryError::TimedOut`] and is never
/// cached. Returns the output, the epoch (or round) count and an optional
/// cache insert.
#[allow(clippy::type_complexity)]
fn run_spec(
    spec: &QuerySpec,
    deadline: Option<Instant>,
    graph: &Arc<DistGraph>,
    cfg: &SsspConfig,
    model: &MachineModel,
    scratch: &mut EngineScratch,
) -> Result<(QueryOutput, u64, Option<(SeedKey, Arc<Vec<u64>>)>), QueryError> {
    let n = graph.num_vertices();
    spec.validate(n)?;
    // A partially computed answer is never served.
    let finished = |timed_out: bool| {
        if timed_out {
            Err(QueryError::TimedOut)
        } else {
            Ok(())
        }
    };
    match spec {
        QuerySpec::SingleSource { .. } | QuerySpec::MultiSeed { .. } => {
            let seeds = spec.seeds().unwrap_or_default();
            let query = Query::seeded(&seeds).with_deadline(deadline);
            let (out, _) = run(graph, &query, cfg, model, Threaded(scratch), NoopRecorder);
            finished(out.timed_out)?;
            let dist = Arc::new(out.distances);
            let insert = Some((canonical_seeds(&seeds, n), Arc::clone(&dist)));
            Ok((QueryOutput::Distances(dist), out.epochs, insert))
        }
        QuerySpec::PointToPoint { root, target } => {
            let query = Query::root(*root)
                .with_target(Some(*target))
                .with_deadline(deadline);
            let (out, _) = run(graph, &query, cfg, model, Threaded(scratch), NoopRecorder);
            finished(out.timed_out)?;
            // The early-terminated field is partially tentative, so it
            // never enters the cache; only the target entry is final.
            let td = out.distances.get(*target as usize).copied();
            let td = td.ok_or_else(|| {
                QueryError::InvalidSpec(format!("target {target} out of range (n = {n})"))
            })?;
            Ok((QueryOutput::TargetDistance(td), out.epochs, None))
        }
        QuerySpec::Bfs { root } => {
            let out = bfs_on(graph, *root, model, deadline, Threaded(scratch));
            finished(out.timed_out)?;
            let rounds = out.stats.levels.len() as u64;
            Ok((QueryOutput::BfsDepths(Arc::new(out.depth)), rounds, None))
        }
        QuerySpec::Components => {
            let out = cc_on(graph, model, deadline, Threaded(scratch));
            finished(out.timed_out)?;
            let labels = QueryOutput::ComponentLabels(Arc::new(out.labels));
            Ok((labels, out.rounds, None))
        }
        QuerySpec::PageRank { config } => {
            let out = pagerank_on(graph, config, model, deadline, Threaded(scratch));
            finished(out.timed_out)?;
            let scores = QueryOutput::PageRankScores(Arc::new(out.scores));
            Ok((scores, out.iterations as u64, None))
        }
        QuerySpec::Closeness { sources } => {
            let (c, timed_out) = harmonic_closeness_until(graph, sources, cfg, model, deadline);
            finished(timed_out)?;
            Ok((QueryOutput::Closeness(Arc::new(c)), 0, None))
        }
    }
}

/// One worker: claim, execute outside the lock behind an unwind guard,
/// publish, repeat. The worker's [`EngineScratch`] stays resident across
/// queries and is discarded when the graph generation changes **or** when
/// a query panics (a mid-superstep unwind leaves the scratch in whatever
/// state the crashing epoch abandoned, so it must not seed the next run).
// sssp-lint: panic-root(serve-worker)
fn worker_loop(shared: &Shared, cfg: &SsspConfig, model: &MachineModel) {
    let mut scratch = EngineScratch::new(0);
    let mut scratch_generation = u64::MAX;
    loop {
        let (ticket, spec, deadline, graph, generation) = match claim(shared) {
            Claim::Done { ticket, outcome } => {
                finish(shared, ticket, outcome, None);
                continue;
            }
            Claim::Compose {
                ticket,
                parts,
                generation,
            } => {
                // Behind the same guard as an engine run: a failed debug
                // headroom check fails this ticket only.
                let composed = catch_unwind(|| compose(&parts));
                let outcome = match composed {
                    Ok(dist) => Ok(QueryResult {
                        ticket,
                        output: QueryOutput::Distances(Arc::new(dist)),
                        epochs: 0,
                        cache_hit: true,
                        generation,
                    }),
                    Err(payload) => Err(QueryError::Panicked(panic_message(payload.as_ref()))),
                };
                finish(shared, ticket, outcome, None);
                continue;
            }
            Claim::Probe { ticket } => {
                // The probe panics behind the same guard real queries run
                // under; its unwind must stop here, at the ticket.
                let blast = catch_unwind(|| panic!("deliberate panic probe"));
                let msg = match blast {
                    Err(payload) => panic_message(payload.as_ref()),
                    Ok(()) => "probe failed to panic".to_string(),
                };
                finish(shared, ticket, Err(QueryError::Panicked(msg)), None);
                continue;
            }
            Claim::Run {
                ticket,
                spec,
                deadline,
                graph,
                generation,
            } => (ticket, spec, deadline, graph, generation),
            Claim::Exit => return,
        };
        if generation != scratch_generation {
            scratch = EngineScratch::new(graph.num_ranks());
            scratch_generation = generation;
        }
        // The ticket boundary: a panic anywhere inside the query — rank
        // threads re-raise theirs at the engine join — is caught here, on
        // the worker thread, outside every critical section. The worker
        // publishes the failure and goes back to claiming.
        let guarded = catch_unwind(AssertUnwindSafe(|| {
            run_spec(&spec, deadline, &graph, cfg, model, &mut scratch)
        }));
        let (outcome, cache_insert) = match guarded {
            Ok(Ok((output, epochs, insert))) => (
                Ok(QueryResult {
                    ticket,
                    output,
                    epochs,
                    cache_hit: false,
                    generation,
                }),
                insert.map(|(key, dist)| (key, dist, generation)),
            ),
            Ok(Err(e)) => (Err(e), None),
            Err(payload) => {
                // Force a fresh scratch: the unwound query abandoned it
                // mid-superstep.
                scratch_generation = u64::MAX;
                (
                    Err(QueryError::Panicked(panic_message(payload.as_ref()))),
                    None,
                )
            }
        };
        finish(shared, ticket, outcome, cache_insert);
    }
}
