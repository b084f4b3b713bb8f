// Seeded violations for the no-shared-state rule inside the real-thread
// engine module. Linted by the fixture self-test under the path
// crates/core/src/engine/threaded.rs: the module runs on real OS threads,
// but it may reach them only through the sssp_comm::threaded primitives —
// raw thread/sync machinery stays banned there too.

use std::sync::Barrier; // line 7: Barrier
use std::thread::Builder as _; // line 8: (named import, caught below)

fn rolls_its_own_superstep(p: usize) {
    let barrier = std::sync::Barrier::new(p); // line 11: Barrier
    std::thread::Builder::new(); // line 12: thread::Builder
    let (tx, rx) = std::sync::mpsc::channel::<u64>(); // line 13: mpsc::
    drop((tx, rx, barrier));
}

// The sanctioned surface: everything below goes through RankCtx and must
// stay clean.
fn sanctioned_rank_body(ctx: &mut sssp_comm::threaded::RankCtx<u64>) -> u64 {
    let [k] = ctx.allreduce([Lane::Min(7)]);
    let mut out = vec![Vec::new(); ctx.num_ranks()];
    let mut inbox = Vec::new();
    ctx.exchange_pooled(&mut out, &mut inbox);
    ctx.shrink(inbox.len());
    k + ctx.allreduce_sum(inbox.len() as u64)
}
