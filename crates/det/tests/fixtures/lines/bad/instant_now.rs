//! Seeded violation: reading the wall clock inside a deterministic crate.
//! Host time must never influence simulated behavior; profiling belongs
//! in the sanctioned `simkernel::wallclock` / `obs::span` modules.

pub fn service_time_us() -> u128 {
    let started = std::time::Instant::now(); //~ wall-clock det-closure
    expensive();
    started.elapsed().as_micros()
}

pub fn jitter_seed() -> u64 {
    use std::time::Instant; //~ wall-clock
    0
}

fn expensive() {}
