//! Fixture: exchanges that carry reduction lanes. The lanes they hand back
//! are collective results, so the collectives guarded by them at lines 10
//! and 17 are uniform; the step record beside them is rank-local, so the
//! collective it guards at line 13 must fire, and only it.

fn short_loop(&mut self, ctx: &mut RankCtx, st: &RankState) {
    let active = !st.active.is_empty();
    let (step, [any]) = ctx.exchange(out, inbox, 16, [Lane::Any(active)]);
    if any != 0 {
        ctx.allreduce([Lane::Sum(1)]);
    }
    if step.local_msgs > 0 {
        ctx.allreduce([Lane::Sum(2)]);
    }
    let (_, [more]) = self.exchange_relax(0, 0, [Lane::Any(active)]);
    while more != 0 {
        ctx.allreduce_sum(3);
    }
}
