//! Stress/differential suite for the rank-thread rendezvous.
//!
//! Every rank runs the same seeded program of collectives and exchanges
//! and checks each result against the value computed sequentially from the
//! seed — contributions are a pure function of `(seed, round, rank)`, so
//! every rank knows what every other rank contributed. The program mixes
//! all collective kinds, the fused reduce, the debug self-checks, and
//! back-to-back exchanges with *no* collective between them (the long-pull
//! request → response shape), which is the sequence only the mailbox's
//! parity banks keep apart. Seeded per-rank jitter (`yield_now`, sleeps
//! shorter and longer than the ladder's yield window) skews the arrivals so
//! the spin, yield and park rungs of the wait ladder are all taken; rank
//! counts above `available_parallelism` cover oversubscription. A mismatch panics the rank (which aborts its peers); a
//! lost wake-up trips the watchdog instead of hanging the suite.

use std::time::{Duration, Instant};

use sssp_comm::fingerprint::fp_mix;
use sssp_comm::threaded::{run_threaded, RankCtx};
use sssp_comm::transport::Comm;

const ROUNDS: u64 = 2_000;

/// The `(seed, round, rank, salt)` → value function everything derives from.
fn draw(seed: u64, round: u64, rank: usize, salt: u64) -> u64 {
    fp_mix(fp_mix(seed, round, rank as u64), salt, round)
}

/// Rank `rank`'s contribution to the reduction of `round` (bounded so sums
/// over eight ranks cannot overflow).
fn contribution(seed: u64, round: u64, rank: usize, lane: u64) -> u64 {
    draw(seed, round, rank, 0x100 + lane) >> 24
}

/// The batch `src` sends `dst` in the exchange of `round`: usually a few
/// messages, now and then none or a few hundred.
fn batch(seed: u64, round: u64, src: usize, dst: usize) -> Vec<u64> {
    let h = draw(seed, round, src, 0x200 + dst as u64);
    let len = match h % 16 {
        0 => 0,
        15 => 100 + (h >> 8) % 200,
        k => k % 4,
    };
    (0..len)
        .map(|i| (h << 16) ^ (src as u64) << 8 ^ i)
        .collect()
}

/// Skew this rank's arrival: mostly not at all (peers cross on the spin
/// rung), sometimes by a yield or a short sleep (the yield rung), and now and
/// then by longer than the ladder's yield window, so that peers park.
fn jitter(seed: u64, round: u64, rank: usize) {
    match draw(seed, round, rank, 0x300) % 256 {
        0 => std::thread::sleep(Duration::from_millis(2)),
        1..=4 => std::thread::sleep(Duration::from_micros(300)),
        5..=36 => std::thread::yield_now(),
        _ => {}
    }
}

/// One rank's exchange buffers and its message-conservation tally.
struct Lanes {
    out: Vec<Vec<u64>>,
    inbox: Vec<u64>,
    sent: u64,
    delivered: u64,
}

impl Lanes {
    /// Post `batches(me, dst)` to every `dst`, receive, and compare with the
    /// source-ordered concatenation of what every rank sent this one.
    fn exchange(&mut self, ctx: &mut RankCtx<u64>, batches: impl Fn(usize, usize) -> Vec<u64>) {
        let (p, me) = (ctx.num_ranks(), ctx.rank());
        for (dst, lane) in self.out.iter_mut().enumerate() {
            *lane = batches(me, dst);
            self.sent += lane.len() as u64;
        }
        ctx.exchange_pooled(&mut self.out, &mut self.inbox);
        let expect: Vec<u64> = (0..p).flat_map(|src| batches(src, me)).collect();
        assert_eq!(
            self.inbox, expect,
            "rank {me}: inbox is not the source-ordered merge"
        );
        assert!(self.out.iter().all(Vec::is_empty), "lanes must be drained");
        self.delivered += self.inbox.len() as u64;
    }
}

/// One rank's run of the program. Returns the number of rounds checked.
fn program(seed: u64, mut ctx: RankCtx<u64>) -> u64 {
    let p = ctx.num_ranks();
    let me = ctx.rank();
    let all = |round: u64, lane: u64| (0..p).map(move |r| contribution(seed, round, r, lane));
    let mut lanes = Lanes {
        out: vec![Vec::new(); p],
        inbox: Vec::new(),
        sent: 0,
        delivered: 0,
    };
    for round in 0..ROUNDS {
        ctx.set_epoch(round / 16);
        jitter(seed, round, me);
        let mine = contribution(seed, round, me, 0);
        let tag = format!("p {p} seed {seed} round {round} rank {me}");
        match draw(seed, round, 0, 0x400) % 9 {
            0 => assert_eq!(
                ctx.allreduce_min(mine),
                all(round, 0).min().unwrap(),
                "{tag}"
            ),
            1 => assert_eq!(
                ctx.allreduce_max(mine),
                all(round, 0).max().unwrap(),
                "{tag}"
            ),
            2 => assert_eq!(ctx.allreduce_sum(mine), all(round, 0).sum::<u64>(), "{tag}"),
            3 => assert_eq!(
                ctx.allreduce_min_window(mine),
                all(round, 0).min().unwrap(),
                "{tag}"
            ),
            4 => assert_eq!(
                ctx.any(mine & 7 == 0),
                all(round, 0).any(|v| v & 7 == 0),
                "{tag}"
            ),
            5 => {
                let lane = |l: u64| contribution(seed, round, me, l);
                let got = ctx.allreduce_fused([lane(0), lane(1)], [lane(2), lane(3), lane(4)]);
                let sum = |l| all(round, l).sum::<u64>();
                let max = |l| all(round, l).max().unwrap();
                assert_eq!(got, ([sum(0), sum(1)], [max(2), max(3), max(4)]), "{tag}");
            }
            6 => lanes.exchange(&mut ctx, |src, dst| batch(seed, round, src, dst)),
            7 => {
                // Request → response with nothing in between: each rank
                // answers every request with its value plus one, so the
                // response lanes are the transposed request lanes.
                lanes.exchange(&mut ctx, |src, dst| batch(seed, round, src, dst));
                lanes.exchange(&mut ctx, |src, dst| {
                    batch(seed, round, dst, src)
                        .iter()
                        .map(|m| m.wrapping_add(1))
                        .collect()
                });
            }
            _ => {
                // The debug self-checks are rendezvous episodes too.
                Comm::assert_consistent(&ctx, lanes.sent, lanes.delivered);
                (lanes.sent, lanes.delivered) = (0, 0);
            }
        }
    }
    ROUNDS
}

/// Run `f` on a thread of its own and fail, rather than hang, if it has not
/// finished after `limit`.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let worker = std::thread::spawn(f);
    let start = Instant::now();
    while !worker.is_finished() {
        assert!(start.elapsed() < limit, "rendezvous hung (lost wake-up?)");
        std::thread::sleep(Duration::from_millis(5));
    }
    worker
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e))
}

#[test]
fn seeded_programs_match_the_sequential_values_at_every_rank_count() {
    // Two seeds at the contended rank counts: the op mix, batch sizes and
    // jitter all move with the seed.
    let runs = [
        (1, 11),
        (2, 12),
        (3, 13),
        (5, 14),
        (8, 15),
        (2, 102),
        (8, 108),
    ];
    for (p, seed) in runs {
        let done = within(Duration::from_secs(120), move || {
            run_threaded(p, move |ctx: RankCtx<u64>| program(seed, ctx))
        });
        assert_eq!(done, vec![ROUNDS; p], "p {p} seed {seed}");
    }
}
