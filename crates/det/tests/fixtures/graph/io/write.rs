//! Artifact writers: one flows through the schema stamp, one does not.

pub fn save_unstamped(path: &str, body: &str) { //~ artifact-contract
    std::fs::write(path, body).ok();
}

pub fn save_stamped(path: &str, payload: u64) {
    let body = format!("{{\"schema_version\":{SCHEMA_VERSION},\"value\":{payload}}}");
    std::fs::write(path, body).ok();
}
