//! Property-based tests of the communication substrate.

use proptest::prelude::*;

use sssp_comm::exchange::{exchange_pooled, pack_sorted_run, MinTable, Outbox};
use sssp_comm::packet::PacketConfig;
use sssp_comm::stats::StepStats;
use sssp_comm::threaded::{run_threaded, RankCtx};
use sssp_comm::transport::{Comm, Lane};

/// Arbitrary traffic pattern: a list of (src, dst, payload) sends over p ranks.
fn arb_traffic() -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
    (1usize..10).prop_flat_map(|p| {
        let sends = proptest::collection::vec((0..p, 0..p, any::<u32>()), 0..200);
        (Just(p), sends)
    })
}

/// One exchange into fresh inboxes, framed per `packet`.
fn exchange<M>(
    mut obs: Vec<Outbox<M>>,
    msg_bytes: usize,
    packet: Option<&PacketConfig>,
) -> (Vec<Vec<M>>, StepStats) {
    let mut inboxes: Vec<Vec<M>> = obs.iter().map(|_| Vec::new()).collect();
    let stats = exchange_pooled(&mut obs, &mut inboxes, msg_bytes, packet);
    (inboxes, stats)
}

/// Fold `lane` into `table`, emit it, and run the comparison sort the table
/// replaces; the two must leave the same bytes and report the same savings.
fn table_matches_sort(table: &mut MinTable, lane: &[(u32, u64)]) {
    for &(k, v) in lane {
        table.fold(k, v);
    }
    let mut by_table = Vec::new();
    let saved = table.emit(&mut by_table, |k, v| (k, v));
    let mut by_sort = lane.to_vec();
    assert_eq!(saved, pack_sorted_run(&mut by_sort, |m| m.0, |m| m.1, true));
    assert_eq!(by_table, by_sort, "n_keys {}", table.n_keys());
}

#[test]
fn min_table_edge_lanes_match_the_sort() {
    let mut table = MinTable::new(8);
    table_matches_sort(&mut table, &[]);
    table_matches_sort(&mut table, &[(5, 40)]);
    // Every message for one target, the minimum neither first nor last.
    table_matches_sort(&mut table, &[(3, 9), (3, 2), (3, 2), (3, u64::MAX), (3, 7)]);
    // The largest local index, on a word boundary and just past one.
    for n_keys in [64usize, 65, 128, 1000] {
        let top = (n_keys - 1) as u32;
        let mut table = MinTable::new(n_keys);
        table_matches_sort(&mut table, &[(top, 4), (0, 1), (top, 3), (63, 0)]);
    }
    // A large lane followed by a small one: no word of the first survives.
    let mut table = MinTable::new(1000);
    table_matches_sort(&mut table, &[(900, 1), (899, 2), (900, 0)]);
    table_matches_sort(&mut table, &[(2, 5), (1, 5)]);
}

#[test]
fn min_table_discard_forgets_unemitted_folds() {
    let mut table = MinTable::new(128);
    table.fold(70, 3);
    table.fold(2, 9);
    table.discard();
    table_matches_sort(&mut table, &[(5, 1), (5, 0)]);
}

proptest! {
    #[test]
    fn min_table_matches_sorted_dedup_byte_for_byte(
        lanes in proptest::collection::vec(
            proptest::collection::vec((0u32..300, 0u64..50), 0..400),
            1..6,
        )
    ) {
        // One table across successive lanes, as the engine reuses it across
        // supersteps: stale words would surface here.
        let mut table = MinTable::new(300);
        for lane in &lanes {
            table_matches_sort(&mut table, lane);
        }
    }

    #[test]
    fn min_tables_fold_interleaved_and_emit_in_destination_order(
        n_keys in proptest::collection::vec(1usize..200, 1..6),
        sends in proptest::collection::vec((0usize..6, 0u32..200, 0u64..50), 0..600),
    ) {
        // One table per destination, folded in whatever order the sends
        // come, then emitted destination by destination into its own lane:
        // each lane must equal its sorted, deduplicated share of the sends.
        let p = n_keys.len();
        let sends: Vec<(usize, u32, u64)> = sends
            .into_iter()
            .map(|(d, k, v)| (d % p, k % n_keys[d % p] as u32, v))
            .collect();
        let mut tables: Vec<MinTable> = n_keys.iter().map(|&n| MinTable::new(n)).collect();
        for &(d, k, v) in &sends {
            tables[d].fold(k, v);
        }
        let mut lanes: Vec<Vec<(u32, u64)>> = vec![Vec::new(); p];
        let mut saved = 0;
        for (table, lane) in tables.iter_mut().zip(&mut lanes) {
            saved += table.emit(lane, |k, v| (k, v));
        }
        let mut by_sort: Vec<Vec<(u32, u64)>> = vec![Vec::new(); p];
        for &(d, k, v) in &sends {
            by_sort[d].push((k, v));
        }
        let sort_saved: u64 = by_sort
            .iter_mut()
            .map(|lane| pack_sorted_run(lane, |m| m.0, |m| m.1, true))
            .sum();
        prop_assert_eq!(saved, sort_saved);
        prop_assert_eq!(lanes, by_sort);
    }

    #[test]
    fn exchange_conserves_every_message((p, sends) in arb_traffic()) {
        let mut obs: Vec<Outbox<(usize, usize, u32)>> = (0..p).map(|_| Outbox::new(p)).collect();
        for &(s, d, x) in &sends {
            obs[s].send(d, (s, d, x));
        }
        let (inboxes, stats) = exchange(obs, 12, None);

        // Every message arrives exactly once, at its destination.
        let mut received: Vec<(usize, usize, u32)> = Vec::new();
        for (dst, inbox) in inboxes.iter().enumerate() {
            for &(s, d, x) in inbox {
                prop_assert_eq!(d, dst, "message delivered to wrong rank");
                received.push((s, d, x));
            }
        }
        let mut sent_sorted = sends.clone();
        sent_sorted.sort_unstable();
        received.sort_unstable();
        prop_assert_eq!(received, sent_sorted);

        // Stats split local/remote correctly.
        let local = sends.iter().filter(|&&(s, d, _)| s == d).count() as u64;
        prop_assert_eq!(stats.local_msgs, local);
        prop_assert_eq!(stats.remote_msgs, sends.len() as u64 - local);
        prop_assert_eq!(stats.remote_bytes, stats.remote_msgs * 12);
    }

    #[test]
    fn inbox_order_is_source_major((p, sends) in arb_traffic()) {
        let mut obs: Vec<Outbox<usize>> = (0..p).map(|_| Outbox::new(p)).collect();
        for &(s, d, _) in &sends {
            obs[s].send(d, s);
        }
        let (inboxes, _) = exchange(obs, 8, None);
        for inbox in &inboxes {
            // Sources appear in non-decreasing order within each inbox.
            prop_assert!(inbox.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn packet_framing_only_adds_bytes((p, sends) in arb_traffic()) {
        let build = || {
            let mut obs: Vec<Outbox<u32>> = (0..p).map(|_| Outbox::new(p)).collect();
            for &(s, d, x) in &sends {
                obs[s].send(d, x);
            }
            obs
        };
        let (_, raw) = exchange(build(), 16, None);
        let (inboxes, framed) = exchange(build(), 16, Some(&PacketConfig::bgq()));
        prop_assert_eq!(framed.remote_msgs, raw.remote_msgs);
        prop_assert!(framed.remote_bytes >= raw.remote_bytes);
        prop_assert!(framed.max_rank_send_bytes >= raw.max_rank_send_bytes);
        // Delivery identical regardless of framing.
        let total: usize = inboxes.iter().map(Vec::len).sum();
        prop_assert_eq!(total as u64, raw.remote_msgs + raw.local_msgs);
    }

    #[test]
    fn wire_bytes_monotone_in_count(count in 0u64..10_000, msg in 1usize..64) {
        let cfg = PacketConfig::bgq();
        let a = cfg.wire_bytes(count, msg);
        let b = cfg.wire_bytes(count + 1, msg);
        prop_assert!(b >= a);
        prop_assert!(a >= count * msg as u64);
    }

    #[test]
    fn collectives_match_reference(vals in proptest::collection::vec(0u64..u32::MAX as u64, 1..6)) {
        // Rank r contributes vals[r]; every rank must see the reference,
        // from the one-lane sum and from one five-lane reduce of every op.
        let (sum, min, max) = (
            vals.iter().sum::<u64>(),
            *vals.iter().min().unwrap(),
            *vals.iter().max().unwrap(),
        );
        let even = u64::from(vals.iter().any(|v| v % 2 == 0));
        let reference = (sum, [sum, min, max, even, min]);
        let shared = std::sync::Arc::new(vals.clone());
        let per_rank = run_threaded(vals.len(), move |mut ctx: RankCtx<u64>| {
            let v = shared[ctx.rank()];
            let lanes = ctx.allreduce([
                Lane::Sum(v),
                Lane::Min(v),
                Lane::Max(v),
                Lane::Any(v % 2 == 0),
                Lane::Window(v),
            ]);
            (ctx.allreduce_sum(v), lanes)
        });
        for got in per_rank {
            prop_assert_eq!(got, reference);
        }
    }
}
