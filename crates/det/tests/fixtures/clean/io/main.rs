//! A compliant artifact-writing binary: the written file carries the
//! schema stamp, and main's closure mentions both exit-constant groups.

const EXIT_OK: i32 = 0;
const EXIT_FAIL: i32 = 1;

fn write_report(path: &str, value: u64) -> bool {
    let body = format!("{{\"schema_version\":{SCHEMA_VERSION},\"value\":{value}}}");
    std::fs::write(path, body).is_ok()
}

fn main() {
    let code = if write_report("out.json", 7) { EXIT_OK } else { EXIT_FAIL };
    std::process::exit(code);
}
