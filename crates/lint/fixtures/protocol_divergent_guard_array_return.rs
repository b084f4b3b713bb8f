//! Fixture: a rank-guarded collective inside a function that returns an
//! array. The `;` of the `[u64; 2]` return type must not hide the body
//! from the rule: the collective at line 8 must fire.

fn lanes(ctx: &mut RankCtx) -> [u64; 2] {
    let r = ctx.rank();
    if r == 0 {
        ctx.allreduce([Lane::Min(1), Lane::Max(2)]);
    }
    [0; 2]
}
