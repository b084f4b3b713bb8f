//! Fixture: a guard on the rank-local inbox whose condition holds a
//! closure with braces. The closure's `{` is not the guarded block: the
//! collective at line 7 must fire.

fn any_positive(ctx: &mut RankCtx, inbox: &[u64]) {
    if inbox.iter().any(|m| { *m > 0 }) {
        ctx.allreduce_sum(1);
    }
}
