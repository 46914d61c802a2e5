//! FNV-1a over the integer serialisation of simulated results.
//!
//! A speed-up that changes what was simulated is not a speed-up: every
//! repetition folds its reports and op counts into one 64-bit fingerprint,
//! and all repetitions of a workload and seed must agree on it. Floats go
//! in as their bit patterns, so agreement means bit-identical reports.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64 hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds one integer in (little-endian, so the value is portable).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one float in by bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The hash of everything folded in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn order_and_float_sign_matter() {
        let mut a = Fnv::default();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::default();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut z = Fnv::default();
        z.f64(0.0);
        let mut nz = Fnv::default();
        nz.f64(-0.0);
        assert_ne!(z.finish(), nz.finish());
    }
}
