//! Fixture: collective call sites guarded by rank-local state. The
//! collectives at lines 7 and 11 must fire; the sanitized tail must not.

fn divergent_reduce(ctx: &mut RankCtx, inbox: &[u64]) {
    let r = ctx.rank();
    if r == 0 {
        ctx.allreduce_sum(1);
    }
    let flag = !inbox.is_empty();
    while flag {
        ctx.exchange_pooled(out, inbox);
    }
}

fn clean_reduce(ctx: &mut RankCtx, st: &RankState) {
    let total = ctx.allreduce_sum(st.len());
    if total > 0 {
        ctx.allreduce([Lane::Max(total)]);
    }
}
