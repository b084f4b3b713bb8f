//! Fixture: a mailbox exchange missing the crossing between its post and
//! take phases. The second `.lock(` at line 10 must fire.

fn bad_exchange(&self, batch: Vec<u64>) -> Vec<u64> {
    {
        let mut cell = self.mailbox[self.dst].lock();
        cell.replace(batch);
    }
    // Missing: the barrier crossing between the post and the take below.
    let mut mine = self.mailbox[self.rank].lock();
    let out = mine.take().unwrap_or_default();
    drop(mine);
    self.barrier.wait(self.round);
    out
}

fn good_exchange(&self, batch: Vec<u64>) -> Vec<u64> {
    {
        let mut cell = self.mailbox[self.dst].lock();
        cell.replace(batch);
    }
    self.barrier.wait(self.round);
    let out = {
        let mut mine = self.mailbox[self.rank].lock();
        mine.take().unwrap_or_default()
    };
    self.barrier.wait(self.round + 1);
    out
}
