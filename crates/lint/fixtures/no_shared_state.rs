// Seeded violations for the no-shared-state rule. Linted by the fixture
// self-test under the path crates/core/src/bfs.rs (any
// library path outside sssp-comm::threaded).

use std::sync::atomic::AtomicU64; // line 5: Atomic
use std::sync::{Mutex, RwLock}; // line 6: Mutex + RwLock

fn sneaky_parallelism(work: Vec<u64>) -> u64 {
    let total = AtomicU64::new(0); // line 9: Atomic
    std::thread::spawn(move || {}); // line 10: thread::spawn
    let (tx, rx) = std::sync::mpsc::channel::<u64>(); // line 11: mpsc::
    drop((tx, rx));
    total.into_inner()
}

static mut COUNTER: u64 = 0; // line 16: static mut

fn fine_sequential(work: &[u64]) -> u64 {
    // Arc alone is immutable sharing and allowed:
    let shared = std::sync::Arc::new(work.to_vec());
    shared.iter().sum()
}
