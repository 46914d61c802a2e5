//! Seeded violation: float accumulation in a counter file declared
//! integer-only. Float addition is not associative, so a parallel merge
//! that folds partial sums in a different order produces a different
//! byte stream — counters must stay integral, with ratios derived at
//! render time.

pub struct ChurnCounter {
    total: f64, //~ float-accum
    events: u64,
}

impl ChurnCounter {
    pub fn add(&mut self, updates: f32) { //~ float-accum
        self.total += updates as f64; //~ float-accum
        self.events += 1;
    }

    pub fn events(&self) -> u64 {
        self.events
    }
}
