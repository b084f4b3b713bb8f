//! Stress/differential suite for the rank-thread rendezvous.
//!
//! Every rank runs the same seeded program of collectives and exchanges
//! and checks each result against the value computed sequentially from the
//! seed — contributions are a pure function of `(seed, round, rank)`, so
//! every rank knows what every other rank contributed. The program mixes
//! every lane op, the five-lane decision shape, the debug self-checks,
//! exchanges that carry reduction lanes (checked like any reduce, and
//! followed straight away by one), and back-to-back exchanges with *no*
//! collective between them (the long-pull request → response shape),
//! which is the sequence only the mailbox's parity banks keep apart. Seeded per-rank jitter (`yield_now`, sleeps
//! shorter and longer than the ladder's yield window) skews the arrivals so
//! the spin, yield and park rungs of the wait ladder are all taken; rank
//! counts above `available_parallelism` cover oversubscription. A mismatch panics the rank (which aborts its peers); a
//! lost wake-up trips the watchdog instead of hanging the suite.

use std::time::{Duration, Instant};

use sssp_comm::exchange::Outbox;
use sssp_comm::fingerprint::fp_mix;
use sssp_comm::threaded::{run_threaded, RankCtx};
use sssp_comm::transport::{Comm, Lane};

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
    out: Vec<Outbox<u64>>,
    inbox: Vec<Vec<u64>>,
    sent: u64,
    delivered: u64,
}

impl Lanes {
    /// Post `batches(me, dst)` to every `dst` with `lanes` riding on the
    /// exchange, receive, and compare with the source-ordered concatenation
    /// of what every rank sent this one (its own lane after the lower
    /// ranks' batches). Returns the reduced lanes.
    fn exchange<const N: usize>(
        &mut self,
        ctx: &mut RankCtx<u64>,
        batches: impl Fn(usize, usize) -> Vec<u64>,
        lanes: [Lane; N],
    ) -> [u64; N] {
        let (p, me) = (ctx.num_ranks(), ctx.rank());
        for (dst, lane) in self.out[0].out.iter_mut().enumerate() {
            *lane = batches(me, dst);
            self.sent += lane.len() as u64;
        }
        let (_, reduced) = ctx.exchange(&mut self.out, &mut self.inbox, 8, lanes);
        let expect: Vec<u64> = (0..p).flat_map(|src| batches(src, me)).collect();
        assert_eq!(
            self.inbox[0], expect,
            "rank {me}: inbox is not the source-ordered merge"
        );
        let lower: usize = (0..me).map(|src| batches(src, me).len()).sum();
        assert_eq!(self.out[0].own_at, lower, "rank {me}: own lane misplaced");
        assert!(
            self.out[0].out.iter().all(Vec::is_empty),
            "lanes must be drained"
        );
        self.delivered += self.inbox[0].len() as u64;
        reduced
    }
}

/// One rank's run of the program. Returns the number of rounds checked.
fn program(seed: u64, mut ctx: RankCtx<u64>) -> u64 {
    let p = ctx.num_ranks();
    let me = ctx.rank();
    let all = |round: u64, lane: u64| (0..p).map(move |r| contribution(seed, round, r, lane));
    let mut lanes = Lanes {
        out: vec![Outbox::new(p)],
        inbox: vec![Vec::new()],
        sent: 0,
        delivered: 0,
    };
    // The five-lane decision shape's reduced values: two sums, three maxima.
    let decision = |round: u64| {
        let sum = |l| all(round, l).sum::<u64>();
        let max = |l| all(round, l).max().unwrap();
        [sum(0), sum(1), max(2), max(3), max(4)]
    };
    for round in 0..ROUNDS {
        ctx.set_epoch(round / 16);
        jitter(seed, round, me);
        let mine = contribution(seed, round, me, 0);
        let tag = format!("p {p} seed {seed} round {round} rank {me}");
        match draw(seed, round, 0, 0x400) % 10 {
            0 => assert_eq!(
                ctx.allreduce([Lane::Min(mine)]),
                [all(round, 0).min().unwrap()],
                "{tag}"
            ),
            1 => assert_eq!(
                ctx.allreduce([Lane::Max(mine)]),
                [all(round, 0).max().unwrap()],
                "{tag}"
            ),
            2 => assert_eq!(ctx.allreduce_sum(mine), all(round, 0).sum::<u64>(), "{tag}"),
            3 => assert_eq!(
                ctx.allreduce([Lane::Window(mine)]),
                [all(round, 0).min().unwrap()],
                "{tag}"
            ),
            4 => assert_eq!(
                ctx.allreduce([Lane::Any(mine & 7 == 0)]),
                [u64::from(all(round, 0).any(|v| v & 7 == 0))],
                "{tag}"
            ),
            5 => {
                let lane = |l: u64| contribution(seed, round, me, l);
                let got = ctx.allreduce([
                    Lane::Sum(lane(0)),
                    Lane::Sum(lane(1)),
                    Lane::Max(lane(2)),
                    Lane::Max(lane(3)),
                    Lane::Max(lane(4)),
                ]);
                assert_eq!(got, decision(round), "{tag}");
            }
            6 => {
                lanes.exchange(&mut ctx, |src, dst| batch(seed, round, src, dst), []);
            }
            7 => {
                // Request → response with nothing in between: each rank
                // answers every request with its value plus one, so the
                // response lanes are the transposed request lanes. The
                // request carries the short loop's activity flag.
                let any = lanes.exchange(
                    &mut ctx,
                    |src, dst| batch(seed, round, src, dst),
                    [Lane::Any(mine & 7 == 0)],
                );
                assert_eq!(any, [u64::from(all(round, 0).any(|v| v & 7 == 0))], "{tag}");
                lanes.exchange(
                    &mut ctx,
                    |src, dst| {
                        batch(seed, round, dst, src)
                            .iter()
                            .map(|m| m.wrapping_add(1))
                            .collect()
                    },
                    [],
                );
            }
            8 => {
                // The five-lane decision shape on an exchange, then a
                // reduce straight after it: the two episodes use opposite
                // banks of both the mailbox and the lanes.
                let lane = |l: u64| contribution(seed, round, me, l);
                let got = lanes.exchange(
                    &mut ctx,
                    |src, dst| batch(seed, round, src, dst),
                    [
                        Lane::Sum(lane(0)),
                        Lane::Sum(lane(1)),
                        Lane::Max(lane(2)),
                        Lane::Max(lane(3)),
                        Lane::Max(lane(4)),
                    ],
                );
                assert_eq!(got, decision(round), "{tag}");
                assert_eq!(
                    ctx.allreduce([Lane::Min(mine), Lane::Window(lane(1))]),
                    [all(round, 0).min().unwrap(), all(round, 1).min().unwrap()],
                    "{tag}"
                );
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
