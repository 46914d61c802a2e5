//! Seeded violation: ad-hoc threading in a deterministic crate. Any
//! fan-out that does not go through `simkernel::pool`'s index-ordered
//! joins makes the fold order depend on the scheduler.

pub fn parallel_fold(xs: &[u64]) -> u64 {
    let handle = std::thread::spawn(move || 0u64); //~ thread-spawn
    let base = handle.join().unwrap_or(0);
    let mut total = base;
    std::thread::scope(|s| { //~ thread-spawn
        s.spawn(|| total += xs.iter().sum::<u64>());
    });
    total
}

pub fn named_worker() {
    let b = std::thread::Builder::new(); //~ thread-spawn
    let _ = b;
}
