//! Graph I/O: the DIMACS shortest-path format and a compact binary format.
//!
//! The 9th DIMACS Implementation Challenge (which the paper's related work
//! builds on — the PBGL SSSP evaluation \[16\] ran on it) fixed the `.gr`
//! exchange format for weighted graphs:
//!
//! ```text
//! c comment
//! p sp <num_vertices> <num_edges>
//! a <src> <dst> <weight>        (1-based vertex ids)
//! ```
//!
//! DIMACS arcs are directed; SSSP benchmark graphs list both directions of
//! every undirected edge. [`read_dimacs`] therefore keeps each `a` line as
//! one undirected edge by default and offers a deduplicating mode for
//! files that list both directions.
//!
//! The binary format is a straightforward little-endian dump
//! (`magic, n, m, (u, v, w)*`) for fast round-trips of generated graphs.

use std::io::{BufRead, Write};

use crate::{Edge, EdgeList};

/// Errors from the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed input at `line`.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error on line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Write an edge list in DIMACS `.gr` format (each undirected edge as one
/// `a` line, 1-based ids).
///
/// # Examples
///
/// ```
/// use sssp_graph::{io, gen};
/// use std::io::BufReader;
///
/// let el = gen::path(3, 7);
/// let mut buf = Vec::new();
/// io::write_dimacs(&mut buf, &el).unwrap();
/// assert!(String::from_utf8_lossy(&buf).contains("p sp 3 2"));
///
/// let back = io::read_dimacs(BufReader::new(&buf[..]), false).unwrap();
/// assert_eq!(back.edges, el.edges);
/// ```
pub fn write_dimacs<W: Write>(w: &mut W, el: &EdgeList) -> std::io::Result<()> {
    writeln!(w, "c generated by sssp-mps")?;
    writeln!(w, "p sp {} {}", el.n, el.edges.len())?;
    for e in &el.edges {
        writeln!(w, "a {} {} {}", e.u + 1, e.v + 1, e.w)?;
    }
    Ok(())
}

/// Read a DIMACS `.gr` file. With `dedup_reverse`, an `a v u w` line that
/// mirrors an already-seen `a u v w` is dropped (for files that list both
/// arc directions of an undirected graph).
pub fn read_dimacs<R: BufRead>(mut r: R, dedup_reverse: bool) -> Result<EdgeList, IoError> {
    let mut el: Option<EdgeList> = None;
    let mut declared_edges = 0usize;
    let mut seen = std::collections::HashSet::new();
    let mut line = String::new();
    let mut lineno = 0;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            None | Some("c") => continue,
            Some("p") => {
                if el.is_some() {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: "duplicate p line".into(),
                    });
                }
                let kind = parts.next().unwrap_or("");
                if kind != "sp" {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: format!("expected 'p sp', got 'p {kind}'"),
                    });
                }
                let n =
                    check_vertex_count(parse_field(&mut parts, lineno, "vertex count")?, lineno)?;
                declared_edges = parse_field(&mut parts, lineno, "edge count")?;
                el = Some(EdgeList::new(n));
            }
            Some("a") => {
                let el = el.as_mut().ok_or(IoError::Parse {
                    line: lineno,
                    msg: "'a' line before 'p' line".into(),
                })?;
                let u: u64 = parse_field(&mut parts, lineno, "source")?;
                let v: u64 = parse_field(&mut parts, lineno, "target")?;
                let w: u32 = parse_field(&mut parts, lineno, "weight")?;
                if u == 0 || v == 0 || u > el.n as u64 || v > el.n as u64 {
                    return Err(IoError::Parse {
                        line: lineno,
                        msg: format!("vertex id out of range: {u} or {v} (n = {})", el.n),
                    });
                }
                let (u, v) = ((u - 1) as u32, (v - 1) as u32);
                if dedup_reverse && !seen.insert((u.min(v), u.max(v), w)) {
                    continue;
                }
                el.edges.push(Edge { u, v, w });
            }
            Some(other) => {
                return Err(IoError::Parse {
                    line: lineno,
                    msg: format!("unknown line type '{other}'"),
                });
            }
        }
    }
    let el = el.ok_or(IoError::Parse {
        line: 0,
        msg: "missing 'p sp' line".into(),
    })?;
    if !dedup_reverse && el.edges.len() != declared_edges {
        return Err(IoError::Parse {
            line: 0,
            msg: format!(
                "edge count mismatch: declared {declared_edges}, found {}",
                el.edges.len()
            ),
        });
    }
    Ok(el)
}

/// Most vertices a graph may declare: every id must fit a `VertexId`
/// (`u32`).
const MAX_VERTICES: u64 = 1 << 32;

/// Refuse a declared vertex count whose ids `VertexId` cannot hold.
fn check_vertex_count(n: u64, line: usize) -> Result<usize, IoError> {
    match usize::try_from(n) {
        Ok(n_usize) if n <= MAX_VERTICES => Ok(n_usize),
        _ => Err(IoError::Parse {
            line,
            msg: format!("vertex count {n} exceeds the 2^32 a u32 id can address"),
        }),
    }
}

fn parse_field<'a, T: std::str::FromStr>(
    parts: &mut impl Iterator<Item = &'a str>,
    line: usize,
    what: &str,
) -> Result<T, IoError> {
    parts
        .next()
        .ok_or(IoError::Parse {
            line,
            msg: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| IoError::Parse {
            line,
            msg: format!("invalid {what}"),
        })
}

const BIN_MAGIC: u64 = 0x5353_5350_4752_0001; // "SSSPGR" v1

/// Write the compact binary format.
pub fn write_binary<W: Write>(w: &mut W, el: &EdgeList) -> std::io::Result<()> {
    w.write_all(&BIN_MAGIC.to_le_bytes())?;
    w.write_all(&(el.n as u64).to_le_bytes())?;
    w.write_all(&(el.edges.len() as u64).to_le_bytes())?;
    for e in &el.edges {
        w.write_all(&e.u.to_le_bytes())?;
        w.write_all(&e.v.to_le_bytes())?;
        w.write_all(&e.w.to_le_bytes())?;
    }
    Ok(())
}

/// Read the compact binary format.
pub fn read_binary<R: std::io::Read>(r: &mut R) -> Result<EdgeList, IoError> {
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    if u64::from_le_bytes(u64buf) != BIN_MAGIC {
        return Err(IoError::Parse {
            line: 0,
            msg: "bad magic".into(),
        });
    }
    r.read_exact(&mut u64buf)?;
    let n = check_vertex_count(u64::from_le_bytes(u64buf), 0)?;
    r.read_exact(&mut u64buf)?;
    let m = usize::try_from(u64::from_le_bytes(u64buf)).map_err(|_| IoError::Parse {
        line: 0,
        msg: "edge count exceeds the address space".into(),
    })?;
    let mut el = EdgeList::new(n);
    let mut u32buf = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut u32buf)?;
        let u = u32::from_le_bytes(u32buf);
        r.read_exact(&mut u32buf)?;
        let v = u32::from_le_bytes(u32buf);
        r.read_exact(&mut u32buf)?;
        let w = u32::from_le_bytes(u32buf);
        if u as usize >= n || v as usize >= n {
            return Err(IoError::Parse {
                line: 0,
                msg: "vertex id out of range".into(),
            });
        }
        el.edges.push(Edge { u, v, w });
    }
    Ok(el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use std::io::BufReader;

    #[test]
    fn dimacs_roundtrip() {
        let el = gen::uniform(50, 200, 30, 7);
        let mut buf = Vec::new();
        write_dimacs(&mut buf, &el).unwrap();
        let back = read_dimacs(BufReader::new(&buf[..]), false).unwrap();
        assert_eq!(back.n, el.n);
        assert_eq!(back.edges, el.edges);
    }

    #[test]
    fn dimacs_parses_reference_snippet() {
        let text = "c example\np sp 4 3\na 1 2 5\na 2 3 7\na 3 4 1\n";
        let el = read_dimacs(BufReader::new(text.as_bytes()), false).unwrap();
        assert_eq!(el.n, 4);
        assert_eq!(el.edges[1], Edge { u: 1, v: 2, w: 7 });
    }

    #[test]
    fn dimacs_dedups_reverse_arcs() {
        let text = "p sp 3 4\na 1 2 5\na 2 1 5\na 2 3 7\na 3 2 7\n";
        let el = read_dimacs(BufReader::new(text.as_bytes()), true).unwrap();
        assert_eq!(el.edges.len(), 2);
    }

    #[test]
    fn dimacs_rejects_bad_input() {
        for (text, what) in [
            ("a 1 2 3\n", "a before p"),
            ("p sp 2 1\na 1 5 9\n", "id out of range"),
            ("p xx 2 1\n", "wrong problem kind"),
            ("p sp 2 2\na 1 2 3\n", "count mismatch"),
            ("p sp 2 1\na 1 2\n", "missing weight"),
            ("p sp 2 1\nz 1 2 3\n", "unknown line"),
            ("", "empty"),
        ] {
            assert!(
                read_dimacs(BufReader::new(text.as_bytes()), false).is_err(),
                "should reject: {what}"
            );
        }
    }

    #[test]
    fn dimacs_rejects_a_vertex_count_past_u32_ids() {
        // Used to pass the `u ≤ n` check and wrap `u − 1` into an edge 0–0.
        let text = "p sp 5000000000 1\na 4294967297 1 5\n";
        let err = read_dimacs(BufReader::new(text.as_bytes()), false).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 1, .. }), "{err}");
        let top = format!("p sp {} 0\n", 1u64 << 32);
        assert!(read_dimacs(BufReader::new(top.as_bytes()), false).is_ok());
    }

    #[test]
    fn binary_rejects_a_vertex_count_past_u32_ids() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &gen::path(3, 1)).unwrap();
        buf[8..16].copy_from_slice(&((1u64 << 32) + 1).to_le_bytes());
        let err = read_binary(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }), "{err}");
    }

    /// An accepted graph must at least be well-formed.
    fn assert_well_formed(el: &EdgeList) {
        let n = el.n as u64;
        assert!(el
            .edges
            .iter()
            .all(|e| u64::from(e.u) < n && u64::from(e.v) < n));
    }

    fn both_formats(el: &EdgeList) -> (Vec<u8>, Vec<u8>) {
        let (mut text, mut bin) = (Vec::new(), Vec::new());
        write_dimacs(&mut text, el).unwrap();
        write_binary(&mut bin, el).unwrap();
        (text, bin)
    }

    #[test]
    fn truncated_inputs_are_errors() {
        let (text, bin) = both_formats(&gen::uniform(6, 12, 40, 4));
        // Any cut up to the start of the last line loses at least one edge.
        let last_line = text[..text.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        for cut in 0..=last_line {
            let got = read_dimacs(BufReader::new(&text[..cut]), false);
            assert!(got.is_err(), "DIMACS cut at byte {cut} accepted");
        }
        for cut in 0..bin.len() {
            assert!(
                matches!(read_binary(&mut &bin[..cut]), Err(IoError::Io(_))),
                "binary cut at byte {cut} accepted"
            );
        }
    }

    #[test]
    fn oversized_counts_are_errors() {
        for text in [
            "p sp 3 18446744073709551615\na 1 2 3\n",
            "p sp 3 99999999999999999999999\na 1 2 3\n",
            "p sp 99999999999999999999999 1\na 1 2 3\n",
            "p sp 3 1\na 1 18446744073709551616 3\n",
            "p sp 3 1\na 1 2 4294967296\n",
        ] {
            let got = read_dimacs(BufReader::new(text.as_bytes()), false);
            assert!(
                matches!(got, Err(IoError::Parse { .. })),
                "accepted {text:?}"
            );
        }
        let (_, mut bin) = both_formats(&gen::path(3, 1));
        bin[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(read_binary(&mut &bin[..]), Err(IoError::Io(_))));
    }

    #[test]
    fn non_utf8_inputs_are_errors() {
        let text = b"p sp 2 1\nc \xff\xfe\na 1 2 3\n";
        for dedup in [false, true] {
            let got = read_dimacs(BufReader::new(&text[..]), dedup);
            assert!(matches!(got, Err(IoError::Io(_))));
        }
        let junk = [0xffu8; 64];
        assert!(read_dimacs(BufReader::new(&junk[..]), false).is_err());
        assert!(matches!(
            read_binary(&mut &junk[..]),
            Err(IoError::Parse { .. })
        ));
    }

    #[test]
    fn byte_mutated_inputs_never_panic() {
        let (text, bin) = both_formats(&gen::uniform(5, 8, 30, 2));
        for i in 0..text.len() {
            for b in [0u8, b'0', b'9', b' ', b'\n', b'-', b'a', b'p', 0xff] {
                let mut t = text.clone();
                t[i] = b;
                for dedup in [false, true] {
                    if let Ok(el) = read_dimacs(BufReader::new(&t[..]), dedup) {
                        assert_well_formed(&el);
                    }
                }
            }
        }
        for i in 0..bin.len() {
            for b in [0u8, 1, 0x7f, 0x80, 0xff] {
                let mut m = bin.clone();
                m[i] = b;
                if let Ok(el) = read_binary(&mut &m[..]) {
                    assert_well_formed(&el);
                }
                if i < 8 && b != bin[i] {
                    assert!(read_binary(&mut &m[..]).is_err(), "bad magic accepted");
                }
            }
        }
    }

    #[test]
    fn binary_roundtrip() {
        let el = gen::uniform(64, 500, 255, 9);
        let mut buf = Vec::new();
        write_binary(&mut buf, &el).unwrap();
        let back = read_binary(&mut &buf[..]).unwrap();
        assert_eq!(back.n, el.n);
        assert_eq!(back.edges, el.edges);
    }

    #[test]
    fn binary_rejects_corruption() {
        let el = gen::uniform(8, 20, 10, 1);
        let mut buf = Vec::new();
        write_binary(&mut buf, &el).unwrap();
        buf[0] ^= 0xFF; // break the magic
        assert!(read_binary(&mut &buf[..]).is_err());
        let mut truncated = Vec::new();
        write_binary(&mut truncated, &el).unwrap();
        truncated.truncate(truncated.len() - 3);
        assert!(read_binary(&mut &truncated[..]).is_err());
    }

    #[test]
    fn dimacs_distances_survive_roundtrip() {
        // End-to-end: distances computed on the original and the
        // re-parsed graph must agree.
        let el = gen::uniform(40, 160, 20, 3);
        let g1 = crate::CsrBuilder::new().build(&el);
        let mut buf = Vec::new();
        write_dimacs(&mut buf, &el).unwrap();
        let el2 = read_dimacs(BufReader::new(&buf[..]), false).unwrap();
        let g2 = crate::CsrBuilder::new().build(&el2);
        assert_eq!(g1, g2);
    }
}
