//! Lexical source model for the analyzer: the one lexer every pass reads.
//!
//! Rules never look at raw text directly: every file is first reduced to a
//! per-line view in which comment bodies and string/char literal contents
//! are blanked out (so `".unwrap()"` inside a string can never fire the
//! no-panic rule), every code byte carries its `()`/`[]`/`{}` depth,
//! `#[cfg(test)]` / `#[test]` regions are masked, and
//! `sssp-lint: allow(rule)` markers are resolved per line. A pass that
//! needs a block's end or a bracket's match compares depths; none counts
//! brackets itself.
//!
//! The lexical helpers every pass shares live here too: tokens, token
//! search, identifier boundaries, `let` bindings, and `Guards`, the
//! held-guard tracker behind both the lock-order walk and the panic-site
//! scan.

/// One line of a parsed source file.
#[derive(Debug)]
pub struct Line {
    /// The original line text, untouched.
    pub raw: String,
    /// The line with comments and literal contents replaced by spaces.
    /// String/char delimiters are kept so `.expect("…")` still reads as
    /// `.expect("   ")`.
    pub code: String,
    /// The bracket depth of each byte of `code`, counted once over `()`,
    /// `[]` and `{}` from the top of the file: an opener and its closer
    /// sit at the depth outside them, everything between one deeper.
    pub depth: Vec<u32>,
    /// True when the line sits inside a `#[cfg(test)]` or `#[test]`
    /// region (including the attribute line and the closing brace).
    pub in_test: bool,
    /// Rule names allowed on this line via an inline marker, either on
    /// the line itself or anywhere in the comment block directly above it
    /// (blank lines end a block).
    pub allows: Vec<String>,
}

/// A fully parsed source file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Per-line views, index 0 = line 1.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Parse `text` into the per-line model used by all rules: the one
    /// lexer every pass reads.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let code = strip_literals(text);
        debug_assert_eq!(
            text.split('\n').count(),
            code.len(),
            "strip must preserve line count"
        );
        let mut level = 0u32;
        // Markers on comment-only lines accumulate and attach to the next
        // code line; a blank line discards them.
        let mut pending: Vec<String> = Vec::new();
        let mut lines: Vec<Line> = text
            .split('\n')
            .zip(code)
            .map(|(raw, code)| {
                let mut allows = parse_markers(raw);
                if !code.trim().is_empty() {
                    allows.append(&mut pending);
                } else if raw.trim().is_empty() {
                    pending.clear();
                } else {
                    pending.extend(allows.iter().cloned());
                }
                let depth = code
                    .bytes()
                    .map(|b| match b {
                        b'(' | b'[' | b'{' => {
                            level += 1;
                            level - 1
                        }
                        b')' | b']' | b'}' => {
                            level = level.saturating_sub(1);
                            level
                        }
                        _ => level,
                    })
                    .collect();
                Line {
                    raw: raw.to_string(),
                    code,
                    depth,
                    in_test: false,
                    allows,
                }
            })
            .collect();
        mask_test_regions(&mut lines);
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
        }
    }
}

/// Lexer state for [`strip_literals`].
enum State {
    Normal,
    LineComment,
    /// Block comments nest in Rust; the payload is the nesting depth.
    BlockComment(u32),
    Str,
    /// Raw string; the payload is the number of `#` marks in the opener.
    RawStr(u32),
    CharLit,
}

/// Blank out comment bodies and string/char literal contents, preserving
/// the line structure exactly (same number of lines, same byte columns
/// for everything kept).
fn strip_literals(text: &str) -> Vec<String> {
    let cs: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut st = State::Normal;
    let mut prev_ident = false;
    let mut i = 0;
    while i < cs.len() {
        let c = cs[i];
        if c == '\n' {
            if matches!(st, State::LineComment) {
                st = State::Normal;
            }
            out.push('\n');
            prev_ident = false;
            i += 1;
            continue;
        }
        match st {
            State::Normal => {
                if c == '/' && cs.get(i + 1) == Some(&'/') {
                    st = State::LineComment;
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && cs.get(i + 1) == Some(&'*') {
                    st = State::BlockComment(1);
                    out.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    st = State::Str;
                    out.push('"');
                    i += 1;
                } else if !prev_ident && (c == 'r' || c == 'b') {
                    if let Some(hashes) = raw_string_opener(&cs, i) {
                        // `r"`, `r#"`, `br##"` … — skip prefix, hashes
                        // and the opening quote.
                        let skip = (cs[i] == 'b') as usize + 1 + hashes as usize + 1;
                        for _ in 0..skip {
                            out.push(' ');
                        }
                        st = State::RawStr(hashes);
                        i += skip;
                    } else {
                        out.push(c);
                        prev_ident = true;
                        i += 1;
                    }
                } else if c == '\'' {
                    // Distinguish `'a` (lifetime/label: keep scanning) from
                    // `'a'` / `'\n'` (char literal: blank contents).
                    let next = cs.get(i + 1);
                    let lifetime = matches!(next, Some(&n) if n.is_alphabetic() || n == '_')
                        && cs.get(i + 2) != Some(&'\'');
                    if lifetime {
                        out.push(' ');
                        i += 1;
                    } else {
                        st = State::CharLit;
                        out.push('\'');
                        i += 1;
                    }
                } else {
                    prev_ident = c.is_alphanumeric() || c == '_';
                    out.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                out.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && cs.get(i + 1) == Some(&'/') {
                    st = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 2;
                } else if c == '/' && cs.get(i + 1) == Some(&'*') {
                    st = State::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 2;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::Str | State::CharLit => {
                let quote = if matches!(st, State::Str) { '"' } else { '\'' };
                if c == '\\' {
                    out.push(' ');
                    if cs.get(i + 1).is_some_and(|&n| n != '\n') {
                        out.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == quote {
                    out.push(quote);
                    st = State::Normal;
                    i += 1;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw_string(&cs, i, hashes) {
                    out.push('"');
                    for _ in 0..hashes {
                        out.push(' ');
                    }
                    st = State::Normal;
                    i += 1 + hashes as usize;
                } else {
                    out.push(' ');
                    i += 1;
                }
            }
        }
    }
    out.split('\n').map(String::from).collect()
}

/// If position `i` starts a raw (byte) string opener, return its `#` count.
fn raw_string_opener(cs: &[char], i: usize) -> Option<u32> {
    let mut j = i;
    if cs.get(j) == Some(&'b') {
        j += 1;
    }
    if cs.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while cs.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (cs.get(j) == Some(&'"')).then_some(hashes)
}

/// True when the `"` at position `i` is followed by `hashes` `#` marks.
fn closes_raw_string(cs: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| cs.get(i + k) == Some(&'#'))
}

/// Attribute spellings that mark the following item as test-only.
const TEST_ATTRS: &[&str] = &[
    "#[cfg(test)]",
    "#[test]",
    "#[cfg(all(test",
    "#[cfg(any(test",
];

/// Mark the lines of test regions: the item following a test attribute,
/// up to the brace that matches its first `{`, or up to its `;` when it
/// has no body (`#[cfg(test)] use foo;`).
fn mask_test_regions(lines: &mut [Line]) {
    // Depths of the test items open here, and of an attribute whose item
    // has not opened yet.
    let mut open: Vec<u32> = Vec::new();
    let mut pending: Option<u32> = None;
    for line in lines {
        if let Some(at) = TEST_ATTRS.iter().find_map(|a| line.code.find(a)) {
            pending = Some(line.depth[at]);
        }
        let starts_in_test = pending.is_some() || !open.is_empty();
        for (at, b) in line.code.bytes().enumerate() {
            let d = line.depth[at];
            match b {
                b'{' if pending.is_some() => {
                    pending = None;
                    open.push(d);
                }
                b'}' if open.last() == Some(&d) => {
                    open.pop();
                }
                b';' if pending == Some(d) => pending = None,
                _ => {}
            }
        }
        line.in_test = starts_in_test || !open.is_empty();
    }
}

/// Extract rule names from a `sssp-lint: allow(rule-a, rule-b)` marker.
fn parse_markers(raw: &str) -> Vec<String> {
    let mut allows = Vec::new();
    let mut rest = raw;
    while let Some(at) = rest.find("sssp-lint: allow(") {
        let args = &rest[at + "sssp-lint: allow(".len()..];
        if let Some(close) = args.find(')') {
            allows.extend(
                args[..close]
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty()),
            );
            rest = &args[close + 1..];
        } else {
            break;
        }
    }
    allows
}

// ---------------------------------------------------------------------------
// lexical helpers shared by the passes

/// True for characters that may appear in an identifier.
pub(crate) fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The identifier (possibly empty) starting at byte offset `at`.
pub(crate) fn ident_at(code: &str, at: usize) -> &str {
    let rest = &code[at..];
    &rest[..rest.find(|c: char| !ident_char(c)).unwrap_or(rest.len())]
}

/// The tokens of a stretch of code with their byte offsets: each
/// identifier or number whole, every other character on its own.
pub(crate) fn tokens(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let c = code[at..].chars().next()?;
        let start = at;
        at += if ident_char(c) {
            ident_at(code, at).len()
        } else {
            c.len_utf8()
        };
        Some((start, &code[start..at]))
    })
}

/// The identifier ending just before byte offset `end`; `None` when there
/// is none or it starts with a digit (a tuple index is not a name).
pub(crate) fn ident_before(code: &str, end: usize) -> Option<&str> {
    let head = &code[..end];
    let name = &head[head.trim_end_matches(ident_char).len()..];
    name.chars()
        .next()
        .filter(|c| !c.is_ascii_digit())
        .map(|_| name)
}

/// Find `needle` in `code` as a token: when the needle starts (ends) with
/// an identifier character, the preceding (following) character must not
/// be one. `prefix` relaxes the trailing boundary so `Atomic` matches
/// `AtomicU64`.
pub(crate) fn token_positions(code: &str, needle: &str, prefix: bool) -> Vec<usize> {
    let first_ident = needle.chars().next().is_some_and(ident_char);
    let last_ident = needle.chars().next_back().is_some_and(ident_char);
    code.match_indices(needle)
        .filter(|&(at, _)| {
            let before_ok = !first_ident || !code[..at].chars().next_back().is_some_and(ident_char);
            let after_ok = prefix
                || !last_ident
                || !code[at + needle.len()..]
                    .chars()
                    .next()
                    .is_some_and(ident_char);
            before_ok && after_ok
        })
        .map(|(at, _)| at)
        .collect()
}

/// The name bound by the first `let` in `code`; `None` when the `let`
/// binds a pattern (`let (a, b) = ..`).
pub(crate) fn let_name(code: &str) -> Option<&str> {
    let at = *token_positions(code, "let", false).first()?;
    let rest = code[at + 3..].trim_start();
    let name = ident_at(rest.strip_prefix("mut ").unwrap_or(rest), 0);
    (!name.is_empty()).then_some(name)
}

/// A lock guard live during a [`Guards`] walk.
struct Guard {
    lock: String,
    /// The `let` name the guard is bound to; `None` for a temporary.
    name: Option<String>,
    /// Depth of the guard's statement; the guard dies when the brace
    /// around it closes.
    depth: u32,
}

/// The held-guard tracker of one function body, fed line by line. It owns
/// the lexical guard lifetime: a guard bound by `let` lives until its
/// brace closes or `drop(name)` releases it, a temporary until the next
/// `;`. What counts as an acquisition is the caller's call (see
/// [`Guards::line`]).
#[derive(Default)]
pub(crate) struct Guards {
    held: Vec<Guard>,
    /// The name bound by the `let` statement in progress, and its depth.
    binding: Option<(String, u32)>,
}

impl Guards {
    /// Locks of the live guards, oldest first.
    pub(crate) fn held(&self) -> Vec<String> {
        self.held.iter().map(|g| g.lock.clone()).collect()
    }

    /// True while a `let` statement binding one name is in progress, so an
    /// acquisition now yields a named guard.
    pub(crate) fn in_let(&self) -> bool {
        self.binding.is_some()
    }

    /// Walk one line of body code and its depths. `acquire(self, at,
    /// method)` is asked about every method call `.method(`, `at` being
    /// the method's byte offset, and returns the lock the call acquires,
    /// if any.
    pub(crate) fn line(
        &mut self,
        code: &str,
        depth: &[u32],
        mut acquire: impl FnMut(&Guards, usize, &str) -> Option<String>,
    ) {
        for (at, tok) in tokens(code) {
            let method = code[..at].ends_with('.') && tok.starts_with(ident_char);
            let call = code[at + tok.len()..].trim_start().starts_with('(');
            match tok {
                "}" => self.held.retain(|g| g.depth <= depth[at]),
                ";" => {
                    self.binding = None;
                    self.held.retain(|g| g.name.is_some());
                }
                "let" if !method => {
                    self.binding = let_name(&code[at..]).map(|n| (n.to_string(), depth[at]));
                }
                "drop" if !method && call => {
                    let open = at + code[at..].find('(').unwrap_or(0) + 1;
                    let name = ident_at(code, open);
                    if let Some(pos) = self
                        .held
                        .iter()
                        .rposition(|g| g.name.as_deref() == Some(name))
                    {
                        self.held.remove(pos);
                    }
                }
                _ if method && call => {
                    if let Some(lock) = acquire(self, at, tok) {
                        let (name, depth) = match &self.binding {
                            Some((name, d)) => (Some(name.clone()), *d),
                            None => (None, depth[at]),
                        };
                        self.held.push(Guard { lock, name, depth });
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(text: &str) -> Vec<String> {
        strip_literals(text)
    }

    #[test]
    fn strips_line_and_block_comments() {
        let c = codes("let x = 1; // .unwrap()\n/* panic! */ let y = 2;");
        assert_eq!(c[0].trim_end(), "let x = 1;");
        assert!(!c[1].contains("panic!"));
        assert!(c[1].contains("let y = 2;"));
    }

    #[test]
    fn nested_block_comments() {
        let c = codes("/* outer /* inner */ still */ code");
        assert!(!c[0].contains("outer"));
        assert!(!c[0].contains("still"));
        assert!(c[0].contains("code"));
    }

    #[test]
    fn blanks_string_contents_keeps_delimiters() {
        let c = codes(r#"m.expect("do not .unwrap() here");"#);
        assert!(!c[0].contains(".unwrap()"));
        assert!(c[0].contains(".expect(\""));
    }

    #[test]
    fn escaped_quotes_do_not_terminate() {
        let c = codes(r#"let s = "a\"b"; panic!();"#);
        assert!(c[0].contains("panic!"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let c = codes("let s = r#\"contains .unwrap() and \"quotes\"\"#; Mutex");
        assert!(!c[0].contains(".unwrap()"));
        assert!(c[0].contains("Mutex"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let c = codes("fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x'; panic!()");
        // The char literal 'x' is blanked, but code after it survives.
        assert!(c[0].contains("panic!"));
        assert!(c[0].contains("fn f<"));
    }

    #[test]
    fn char_escape_literal() {
        let c = codes(r"let c = '\''; todo!()");
        assert!(c[0].contains("todo!"));
    }

    #[test]
    fn cfg_test_mod_is_masked() {
        let f = SourceFile::parse(
            "x.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn t() {}\n}\nfn live2() {}\n",
        );
        let mask: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(
            mask,
            vec![false, true, true, true, true, true, true, false, false]
        );
    }

    #[test]
    fn test_attr_fn_is_masked_without_cfg() {
        let f = SourceFile::parse("x.rs", "#[test]\nfn t() {\n    body();\n}\nfn live() {}\n");
        assert!(f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn cfg_test_on_use_does_not_mask_rest_of_file() {
        let f = SourceFile::parse("x.rs", "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n");
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let f = SourceFile::parse("x.rs", "#[cfg(not(test))]\nfn live() {\n    x();\n}\n");
        assert!(!f.lines[2].in_test);
    }

    #[test]
    fn markers_propagate_through_comment_blocks_not_blanks() {
        let f = SourceFile::parse(
            "x.rs",
            "// sssp-lint: allow(rule-a): reason spanning\n// a second comment line\nlet x = 1;\n// sssp-lint: allow(rule-b)\n\nlet y = 2;\n",
        );
        assert!(f.lines[2].allows.iter().any(|a| a == "rule-a"));
        // The blank line at index 4 discards rule-b before `let y`.
        assert!(f.lines[5].allows.is_empty());
    }

    #[test]
    fn markers_apply_to_own_and_next_line() {
        let f = SourceFile::parse(
            "x.rs",
            "// sssp-lint: allow(rule-a, rule-b)\nlet x = 1;\nlet y = 2; // sssp-lint: allow(rule-c)\n",
        );
        assert!(f.lines[1].allows.iter().any(|a| a == "rule-a"));
        assert!(f.lines[1].allows.iter().any(|a| a == "rule-b"));
        assert!(f.lines[2].allows.iter().any(|a| a == "rule-c"));
        assert!(f.lines[2].allows.iter().all(|a| a != "rule-a"));
    }

    #[test]
    fn held_guards_end_at_their_brace_drop_or_statement() {
        // One body read by both guard walks: the lock-order walk flags a
        // `.wait()` under a live guard, the panic scan an `.unwrap()`.
        let src = "\
struct S { a: Mutex<Vec<u64>>, bar: Barrier }
impl S {
    fn f(&self) {
        {
            let g = self.a.lock().unwrap_or_else(PoisonError::into_inner);
            self.bar.wait();
            g.first().unwrap();
        }
        self.bar.wait();
        g.first().unwrap();
        let g = self.a.lock().unwrap_or_else(PoisonError::into_inner); self.bar.wait(); g.first().unwrap();
        drop(g);
        self.bar.wait();
        g.first().unwrap();
        self.a.lock().unwrap_or_else(PoisonError::into_inner).push(1); self.bar.wait();
        x.unwrap();
        self.a
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .first()
            .unwrap();
        let m = self
            .a
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.bar.wait();
        m.first().unwrap();
    }
}
";
        let sf = SourceFile::parse("crates/serve/src/x.rs", src);
        let lines = |hits: Vec<(usize, String)>| hits.into_iter().map(|h| h.0).collect::<Vec<_>>();
        // Lock-order walk: the guard covers the rest of its own line (10),
        // a temporary ends at its `;` (14) and a `let` spans its lines (25).
        assert_eq!(
            lines(crate::concurrency::check_blocking_hold(&sf)),
            vec![5, 10, 25]
        );
        // Panic scan: a guard never covers its acquisition line (10) and
        // only `let`-bound guards count, so the chained temporary (16-20)
        // covers nothing.
        assert_eq!(
            lines(crate::panics::check_critical_section(&sf)),
            vec![6, 26]
        );
    }
}
