//! The one way to a file: every artifact the workspace writes goes
//! through [`write()`] or [`append`], and each refuses a document whose
//! first line does not carry the current [`SCHEMA_VERSION`] stamp.
//!
//! `clippy.toml` bans the standard library's file writers
//! (`std::fs::write`, `File::create`, `OpenOptions::open`) everywhere
//! else, so an unstamped artifact cannot be written: a writer that forgets
//! the stamp fails at run time, and one that bypasses this module fails
//! clippy.
//!
//! A stamp is one of three spellings, the one each format allows:
//!
//! ```text
//! {"schema_version":N…        compact JSON: ledger lines, the trace header
//! {\n  "schema_version": N…   pretty JSON: metrics, costmodel
//! # schema_version=N\n…       CSV: figure tables, a comment line loaders skip
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "the one sanctioned home of file writes; each checks the schema stamp first"
)]

use std::io::{self, Write as _};
use std::path::Path;

use crate::SCHEMA_VERSION;

/// Writes `doc` to `path`, replacing any file there and creating its
/// parent directory.
///
/// # Errors
/// [`io::ErrorKind::InvalidData`] when `doc` does not open with the schema
/// stamp, or the I/O error of the write.
pub fn write(path: &Path, doc: &[u8]) -> io::Result<()> {
    check_stamp(path, doc)?;
    create_parent(path)?;
    std::fs::write(path, doc)
}

/// Appends `lines` to `path`, creating the file and its parent directory
/// on first use. Every line must carry the stamp: an append-only log is
/// read line by line.
///
/// # Errors
/// As [`write()`].
pub fn append(path: &Path, lines: &[u8]) -> io::Result<()> {
    for line in lines.split(|&b| b == b'\n').filter(|line| !line.is_empty()) {
        check_stamp(path, line)?;
    }
    create_parent(path)?;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(lines)
}

/// True if `doc` opens with the stamp of [`SCHEMA_VERSION`] in one of
/// the three spellings of the module docs.
fn is_stamped(doc: &[u8]) -> bool {
    let v = SCHEMA_VERSION;
    [
        format!("{{\"schema_version\":{v}"),
        format!("{{\n  \"schema_version\": {v}"),
        format!("# schema_version={v}"),
    ]
    .iter()
    .any(|stamp| {
        doc.strip_prefix(stamp.as_bytes())
            .is_some_and(|rest| !rest.first().is_some_and(u8::is_ascii_digit))
    })
}

fn check_stamp(path: &Path, doc: &[u8]) -> io::Result<()> {
    if is_stamped(doc) {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{}: refusing an artifact without the schema_version {SCHEMA_VERSION} stamp",
            path.display()
        ),
    ))
}

fn create_parent(path: &Path) -> io::Result<()> {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_spellings_of_the_current_stamp_pass() {
        let v = SCHEMA_VERSION;
        assert!(is_stamped(
            format!("{{\"schema_version\":{v},\"kind\":\"trace\"}}").as_bytes()
        ));
        assert!(is_stamped(
            format!("{{\n  \"schema_version\": {v},\n").as_bytes()
        ));
        assert!(is_stamped(
            format!("# schema_version={v}\nn,u\n").as_bytes()
        ));
    }

    #[test]
    fn unstamped_and_foreign_documents_are_refused() {
        let v = SCHEMA_VERSION;
        for doc in [
            String::new(),
            "n,u\n1,2\n".to_string(),
            format!("{{\"kind\":\"trace\",\"schema_version\":{v}}}"),
            format!("{{\"schema_version\":{}}}", v + 1),
            format!("{{\"schema_version\":{v}0}}"),
        ] {
            assert!(!is_stamped(doc.as_bytes()), "{doc:?}");
        }
    }

    #[test]
    fn writes_refuse_an_unstamped_document_and_touch_nothing() {
        let dir = std::env::temp_dir().join(format!("bgpscale-artifact-{}", std::process::id()));
        let path = dir.join("sub").join("a.csv");
        let err = write(&path, b"n,u\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!path.exists());

        let stamped = format!("# schema_version={SCHEMA_VERSION}\nn,u\n");
        write(&path, stamped.as_bytes()).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), stamped);

        let log = dir.join("log.jsonl");
        let line = format!("{{\"schema_version\":{SCHEMA_VERSION}}}\n");
        append(&log, line.as_bytes()).unwrap();
        append(&log, line.as_bytes()).unwrap();
        let mixed = format!("{line}{{\"other\":1}}\n");
        assert_eq!(
            append(&log, mixed.as_bytes()).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        assert_eq!(std::fs::read_to_string(&log).unwrap(), line.repeat(2));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
