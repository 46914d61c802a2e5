//! Seeded violation: a hazard hiding behind a multi-line string literal.
//! The lexer must carry "inside a string" across lines: the prose on a
//! continuation line is literal text (never flagged), and whatever
//! follows the closing quote on that line is code again (always flagged).
//! A lexer that closes the literal at end of line gets both wrong — it
//! flags the prose `Instant`, and the closing quote then opens a phantom
//! string that swallows the real `HashMap` after it.

pub fn continued_with_backslash() -> usize {
    let s = "first line, then \
        prose that mentions Instant and SystemTime"; let hidden: std::collections::HashMap<u32, u32> = Default::default(); //~ unordered-collection
    s.len() + hidden.len()
}

pub fn plain_two_line_literal() -> usize {
    let s = "no backslash here: thread_rng() and env::var
        are still just prose, even on the second line"; let t = std::thread::spawn(|| 0u64); //~ thread-spawn
    s.len() + t.join().map_or(0, |v| v as usize)
}
