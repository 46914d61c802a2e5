//! Line-oriented Rust lexing: comment/string stripping and tokenizing.
//!
//! Every file is lexed **once** (by [`crate::source`]); the line rules
//! and the call-graph passes both read the same stripped lines, so they
//! can never disagree about what is code and what is comment or literal.
//!
//! The scanner works line by line but keeps cross-line state (nested block
//! comments, multi-line plain and raw strings), so a rule token inside a
//! doc comment, a string literal, or an HTML template never fires — and
//! code after a literal's closing quote is never mistaken for one. Stripped
//! characters are replaced with spaces, which preserves column positions
//! for diagnostics.
//!
//! This is deliberately *not* a full Rust lexer — it is the smallest
//! state machine that is sound for the hazard patterns we match: exact
//! identifiers and `::` paths. The classic pitfalls are covered:
//! `'"'` char literals, lifetimes (`&'a str`), nested `/* /* */ */`
//! comments, and `"..."` / `r#"..."#` strings spanning lines.

use crate::Rule;

/// Cross-line lexer state.
#[derive(Default)]
pub struct Lexer {
    /// Nesting depth of `/* */` block comments (Rust block comments nest).
    block_comment: usize,
    /// `Some(hashes)` while inside a multi-line raw string `r#"..."#`.
    raw_string: Option<usize>,
    /// True while inside a plain `"..."` (or `b"..."`) literal that did
    /// not close on its line, with or without a trailing `\`.
    in_string: bool,
}

/// One stripped line.
pub struct Line {
    /// The code with comments and literal contents replaced by spaces
    /// (column-preserving).
    pub code: String,
    /// The text of the first `//` comment on the line, without the
    /// slashes, if any.
    pub comment: Option<String>,
    /// 0-based char column where that `//` comment starts, if any —
    /// callers that need the raw pre-comment text (the stamp-mention
    /// check, where an identifier may sit inside a format string) slice
    /// the original line up to here.
    pub comment_col: Option<usize>,
}

impl Lexer {
    pub fn new() -> Lexer {
        Lexer::default()
    }

    /// Strips one line, updating cross-line state.
    pub fn strip_line(&mut self, line: &str) -> Line {
        let chars: Vec<char> = line.chars().collect();
        let mut out = String::with_capacity(chars.len());
        let mut comment = None;
        let mut comment_col = None;
        let mut i = 0;
        if self.in_string {
            i = self.skip_string_body(&chars, 0, &mut out);
        }
        while i < chars.len() {
            let c = chars[i];
            let next = chars.get(i + 1).copied();
            if self.block_comment > 0 {
                if c == '*' && next == Some('/') {
                    self.block_comment -= 1;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    self.block_comment += 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            if let Some(hashes) = self.raw_string {
                if c == '"' && chars[i + 1..].iter().take_while(|&&h| h == '#').count() >= hashes {
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                    self.raw_string = None;
                } else {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            match c {
                '/' if next == Some('/') => {
                    comment = Some(chars[i + 2..].iter().collect::<String>());
                    comment_col = Some(i);
                    break;
                }
                '/' if next == Some('*') => {
                    self.block_comment += 1;
                    out.push_str("  ");
                    i += 2;
                }
                '"' => {
                    out.push(' ');
                    i = self.skip_string_body(&chars, i + 1, &mut out);
                }
                'r' | 'b' if Self::starts_raw_or_byte_string(&chars, i) => {
                    // Keep the prefix letters as spaces too; literals carry
                    // no tokens we match.
                    i = self.skip_prefixed_string(&chars, i, &mut out);
                }
                '\'' => {
                    i = Self::skip_char_or_lifetime(&chars, i, &mut out);
                }
                _ => {
                    out.push(c);
                    i += 1;
                }
            }
        }
        Line {
            code: out,
            comment,
            comment_col,
        }
    }

    /// True if position `i` starts `r"`, `r#"`, `b"`, `br"`, or `br#"`
    /// *and* is not the tail of a longer identifier (`attr"` is not valid
    /// Rust anyway, but `for r in…` must not trip this).
    fn starts_raw_or_byte_string(chars: &[char], i: usize) -> bool {
        if i > 0 {
            let prev = chars[i - 1];
            if prev.is_alphanumeric() || prev == '_' {
                return false;
            }
        }
        let mut j = i;
        if chars.get(j) == Some(&'b') {
            j += 1;
        }
        let raw = chars.get(j) == Some(&'r');
        if raw {
            j += 1;
            while chars.get(j) == Some(&'#') {
                j += 1;
            }
        }
        // `b"…"` (j == i+1, no r) or `r…"`/`br…"`.
        chars.get(j) == Some(&'"') && (raw || j == i + 1)
    }

    /// Consumes the body of a plain `"…"` string from `i` (just past the
    /// opening quote, or column 0 of a continuation line) through its
    /// closing quote, pushing spaces. A string that does not close on
    /// this line stays open in `self.in_string`: the literal continues on
    /// the next line, whether or not this one ends in a `\`.
    fn skip_string_body(&mut self, chars: &[char], mut i: usize, out: &mut String) -> usize {
        self.in_string = true;
        while i < chars.len() {
            let step = match chars[i] {
                '\\' => 2.min(chars.len() - i),
                '"' => {
                    self.in_string = false;
                    1
                }
                _ => 1,
            };
            for _ in 0..step {
                out.push(' ');
            }
            i += step;
            if !self.in_string {
                break;
            }
        }
        i
    }

    /// Consumes a raw or byte string starting at the `r`/`b` prefix. If a
    /// raw string does not close on this line, records the open delimiter
    /// in `self.raw_string`.
    fn skip_prefixed_string(&mut self, chars: &[char], mut i: usize, out: &mut String) -> usize {
        let mut raw = false;
        if chars.get(i) == Some(&'b') {
            out.push(' ');
            i += 1;
        }
        if chars.get(i) == Some(&'r') {
            raw = true;
            out.push(' ');
            i += 1;
        }
        let mut hashes = 0;
        while chars.get(i) == Some(&'#') {
            hashes += 1;
            out.push(' ');
            i += 1;
        }
        debug_assert_eq!(chars.get(i), Some(&'"'));
        out.push(' ');
        i += 1;
        if !raw {
            return self.skip_string_body(chars, i, out);
        }
        while i < chars.len() {
            if chars[i] == '"' && chars[i + 1..].iter().take_while(|&&h| h == '#').count() >= hashes
            {
                for _ in 0..=hashes {
                    out.push(' ');
                }
                return i + 1 + hashes;
            }
            out.push(' ');
            i += 1;
        }
        self.raw_string = Some(hashes);
        i
    }

    /// Disambiguates a `'` at `i`: a char literal (`'x'`, `'\n'`, `'"'`)
    /// is stripped; a lifetime tick (`&'a str`) is replaced by a space and
    /// the following identifier lexes normally (lifetimes never collide
    /// with our patterns — none is a bare hazard identifier).
    fn skip_char_or_lifetime(chars: &[char], i: usize, out: &mut String) -> usize {
        if chars.get(i + 1) == Some(&'\\') {
            // Escaped char literal: strip to the closing quote.
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' {
                j += 1;
            }
            let end = (j + 1).min(chars.len());
            for _ in i..end {
                out.push(' ');
            }
            return end;
        }
        if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1).is_some() {
            out.push_str("   ");
            return i + 3;
        }
        out.push(' ');
        i + 1
    }
}

/// One token of stripped code: its 0-based char column and text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    pub col: usize,
    pub text: String,
}

/// Tokenizes stripped code: identifiers, numbers, `::`, and single
/// punctuation characters. Whitespace separates.
pub fn tokenize(code: &str) -> Vec<Token> {
    let chars: Vec<char> = code.chars().collect();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            tokens.push(Token {
                col: start,
                text: chars[start..i].iter().collect(),
            });
        } else if c.is_ascii_digit() {
            // A numeric literal, including any type suffix (`1.0f64`):
            // one token, so suffixes never masquerade as type identifiers.
            let start = i;
            while i < chars.len()
                && (chars[i].is_alphanumeric() || chars[i] == '_' || chars[i] == '.')
            {
                i += 1;
            }
            tokens.push(Token {
                col: start,
                text: chars[start..i].iter().collect(),
            });
        } else if c == ':' && chars.get(i + 1) == Some(&':') {
            tokens.push(Token {
                col: i,
                text: "::".to_string(),
            });
            i += 2;
        } else {
            tokens.push(Token {
                col: i,
                text: c.to_string(),
            });
            i += 1;
        }
    }
    tokens
}

/// The comment prefix that makes a comment an audited suppression.
pub const ALLOW_PREFIX: &str = "det::allow";

/// Parses a `det::allow(<rule>, reason = "...")` audited-suppression
/// directive out of a comment's text. Returns `None` if the comment is
/// not a directive, `Some(Err(()))` if it is one but malformed (unknown
/// rule id, missing or unquoted reason, unterminated argument list).
///
/// A directive must be the *start* of its comment — prose that merely
/// mentions the syntax, like this doc comment or a `//!` example, is
/// never a directive (doc comments reach us with a leading `!`/`/`,
/// which also disqualifies them).
pub fn parse_allow(comment: &str) -> Option<Result<(Rule, String), ()>> {
    let rest = comment.trim_start().strip_prefix(ALLOW_PREFIX)?;
    Some(parse_allow_args(rest.trim_start()).ok_or(()))
}

/// The `(<rule>, reason = "...")` tail of a directive.
fn parse_allow_args(rest: &str) -> Option<(Rule, String)> {
    let rest = rest.strip_prefix('(')?;
    let id_len = rest
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
        .map_or(rest.len(), |(i, _)| i);
    let rule = Rule::from_id(&rest[..id_len])?;
    // `reason` is mandatory: suppressions are audited.
    let rest = rest[id_len..].trim_start().strip_prefix(',')?;
    let rest = rest.trim_start().strip_prefix("reason")?;
    let rest = rest.trim_start().strip_prefix('=')?;
    let rest = rest.trim_start().strip_prefix('"')?;
    let end = rest.find('"')?;
    let reason = rest[..end].trim();
    if reason.is_empty() || !rest[end + 1..].trim_start().starts_with(')') {
        return None;
    }
    Some((rule, reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strip(src: &str) -> Vec<String> {
        let mut lx = Lexer::new();
        src.lines().map(|l| lx.strip_line(l).code).collect()
    }

    #[test]
    fn line_comments_are_stripped_and_captured() {
        let mut lx = Lexer::new();
        let line = lx.strip_line("let x = 1; // HashMap here");
        assert_eq!(line.code, "let x = 1; ");
        assert_eq!(line.comment.as_deref(), Some(" HashMap here"));
    }

    #[test]
    fn strings_are_stripped_column_preserving() {
        let mut lx = Lexer::new();
        let line = lx.strip_line(r#"let s = "Instant::now"; let y = 2;"#);
        assert!(!line.code.contains("Instant"));
        assert_eq!(
            line.code.chars().count(),
            r#"let s = "Instant::now"; let y = 2;"#.len()
        );
        assert!(line.code.contains("let y = 2;"));
    }

    #[test]
    fn escaped_quote_in_string_does_not_end_it() {
        let mut lx = Lexer::new();
        let line = lx.strip_line(r#"let s = "a\"HashMap"; ok()"#);
        assert!(!line.code.contains("HashMap"));
        assert!(line.code.contains("ok()"));
    }

    #[test]
    fn nested_block_comments_span_lines() {
        let out = strip("a /* x /* SystemTime */ y\nstill SystemTime */ b");
        assert!(!out[0].contains("SystemTime"));
        assert!(!out[1].contains("SystemTime"));
        assert!(out[1].contains('b'));
    }

    #[test]
    fn plain_strings_span_lines_with_or_without_a_backslash() {
        // Continued with `\`: the prose on line 2 is literal text, the
        // code after the closing quote is code.
        let out =
            strip("let s = \"first \\\n    mentions HashMap\"; let h: HashSet<u32>;\nInstant");
        assert!(!out[1].contains("HashMap"), "{:?}", out[1]);
        assert!(out[1].contains("let h: HashSet<u32>;"), "{:?}", out[1]);
        assert!(out[2].contains("Instant"));
        // A plain two-line literal, and an escaped quote on the
        // continuation line that must not close it.
        let out = strip("f(\"usage:\n  Instant \\\" still\n  SystemTime\", tail())");
        assert!(!out[1].contains("Instant") && !out[1].contains("still"));
        assert!(!out[2].contains("SystemTime"));
        assert!(out[2].contains(", tail())"));
        // `//` inside a continued literal is not a comment.
        let mut lx = Lexer::new();
        lx.strip_line("let u = \"see \\");
        let line = lx.strip_line("    http://x\"; g()");
        assert_eq!(line.comment, None);
        assert!(line.code.contains("g()"));
    }

    #[test]
    fn raw_strings_span_lines() {
        let out = strip("let h = r#\"<b>\nInstant::now()\n\"# ; tail()");
        assert!(!out[1].contains("Instant"));
        assert!(out[2].contains("tail()"));
    }

    #[test]
    fn char_literal_with_quote_and_lifetimes() {
        let mut lx = Lexer::new();
        let line = lx.strip_line(r#"if c == '"' { f::<&'a str>(HashMap) }"#);
        // The '"' char literal must not open a string that swallows the rest.
        assert!(line.code.contains("HashMap"));
        let line2 = lx.strip_line(r"let n = '\n'; g()");
        assert!(line2.code.contains("g()"));
    }

    #[test]
    fn r_identifier_is_not_a_raw_string() {
        let mut lx = Lexer::new();
        let line = lx.strip_line(r#"for r in rows { use_it(r, "x") }"#);
        assert!(line.code.contains("for r in rows"));
    }

    #[test]
    fn tokenizer_yields_idents_and_paths() {
        let toks = tokenize("std::thread::spawn(f)");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(texts, ["std", "::", "thread", "::", "spawn", "(", "f", ")"]);
        assert_eq!(toks[2].col, 5);
    }

    #[test]
    fn allow_directive_parses_and_rejects() {
        assert_eq!(
            parse_allow(" det::allow(wall-clock, reason = \"bench only\")"),
            Some(Ok((Rule::WallClock, "bench only".to_string())))
        );
        let graph =
            parse_allow(" det::allow(panic-surface, reason = \"in bounds by construction\")");
        assert!(matches!(graph, Some(Ok((Rule::PanicSurface, _)))));
        // The retired per-tool prefixes are not directives at all.
        for old in ["detlint", "detflow"] {
            assert_eq!(
                parse_allow(&format!(" {old}::allow(wall-clock, reason = \"y\")")),
                None
            );
        }
        // Malformed: missing reason, unknown rule, empty reason.
        assert_eq!(parse_allow(" det::allow(env-read)"), Some(Err(())));
        assert_eq!(
            parse_allow(" det::allow(no-such-rule, reason = \"x\")"),
            Some(Err(()))
        );
        assert_eq!(
            parse_allow(" det::allow(env-read, reason = \" \")"),
            Some(Err(()))
        );
    }

    #[test]
    fn comment_col_points_at_the_slashes() {
        let mut lx = Lexer::new();
        let line = lx.strip_line("let x = 1; // trailing");
        assert_eq!(line.comment_col, Some(11));
        let none = lx.strip_line("let y = 2;");
        assert_eq!(none.comment_col, None);
    }

    #[test]
    fn numeric_suffixes_do_not_split() {
        let toks = tokenize("let x = 1.0f64 + y_f64;");
        let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
        assert!(texts.contains(&"1.0f64"));
        assert!(texts.contains(&"y_f64"));
        assert!(!texts.contains(&"f64"));
    }
}
