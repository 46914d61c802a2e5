//! The hot-path root and a panicking helper it reaches.

pub fn step(frame: u64) -> u64 {
    let looked = pick(frame);
    looked.wrapping_mul(3)
}

fn pick(frame: u64) -> u64 { //~ panic-surface
    let table = [2u64, 3, 5, 8];
    let slot = (frame % 4) as usize;
    table[slot].checked_mul(frame).unwrap()
}
