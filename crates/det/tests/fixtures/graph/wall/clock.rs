//! The sanctioned wall-side module of this case (declared under
//! [wall-side] in det.toml). The closure pass flags edges INTO this
//! module; it never walks through it, so its internals carry no
//! markers.

pub fn now_us() -> u64 {
    let d = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    d.as_secs()
}
