//! The sanctioned wall-side module. The closure pass never walks
//! through it, and — although this case puts it inside the deterministic
//! tier — the wall-clock line rule waves its file through, because that
//! exemption is derived from `[wall-side] modules`.

pub fn now_us() -> u64 {
    let d = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default();
    d.as_secs()
}
