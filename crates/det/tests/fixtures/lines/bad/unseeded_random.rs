//! Seeded violation: randomness that is not the workspace's seeded PRNG.
//! Anything drawing from process or OS entropy makes replays impossible;
//! the only sanctioned source is `simkernel::rng` seeded from the
//! experiment's master seed.

pub fn shuffle_events(events: &mut Vec<u64>) {
    let mut rng = thread_rng(); //~ unseeded-random
    let _ = &mut rng;
    let salt: u64 = rand::random(); //~ unseeded-random
    events.push(salt);
}

pub fn hasher_state() {
    use std::collections::hash_map::RandomState; //~ unordered-collection unseeded-random
    let _ = RandomState::new(); //~ unseeded-random
}

pub fn os_entropy(buf: &mut [u8]) {
    getrandom(buf); //~ unseeded-random det-closure
}

pub fn reseed() -> u64 {
    let rng = SmallRng::from_entropy(); //~ unseeded-random
    let _ = rng;
    7
}
