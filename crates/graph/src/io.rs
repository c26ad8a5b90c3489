//! Graph serialization: whitespace edge lists and a compact binary format.
//!
//! The edge-list format interoperates with the tooling ecosystem the paper
//! used (SNAP/networkx-style `u v` lines, `#` comments). The binary format
//! is the workspace-native cold store: little-endian, length-prefixed, with
//! a magic header, so a paper-scale crawl can be checkpointed and reloaded
//! in seconds.

use crate::builder::GraphBuilder;
use crate::csr::{DiGraph, NodeId};
use crate::streaming::stream_from_fn;
use crate::{GraphError, Result};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes identifying the binary graph format ("VNG1").
const MAGIC: [u8; 4] = *b"VNG1";

/// Write `g` as a text edge list: header comments, then one `u v` pair per
/// line.
pub fn write_edge_list<W: Write>(g: &DiGraph, w: &mut W) -> Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "# verified-net edge list")?;
    writeln!(w, "# nodes: {} edges: {}", g.node_count(), g.edge_count())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Parse a text edge list. Lines starting with `#` are comments; node count
/// is the max id + 1 unless `min_nodes` demands more.
pub fn read_edge_list<R: Read>(r: R, min_nodes: u32) -> Result<DiGraph> {
    let reader = BufReader::new(r);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_id: u32 = 0;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        let parse = |s: Option<&str>| -> Result<u32> {
            s.ok_or_else(|| GraphError::ParseLine {
                line: lineno + 1,
                message: "missing field".into(),
            })?
            .parse::<u32>()
            .map_err(|e| GraphError::ParseLine { line: lineno + 1, message: e.to_string() })
        };
        let u = parse(parts.next())?;
        let v = parse(parts.next())?;
        if parts.next().is_some() {
            return Err(GraphError::ParseLine {
                line: lineno + 1,
                message: "too many fields".into(),
            });
        }
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() { min_nodes } else { (max_id + 1).max(min_nodes) };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.add_edges(edges)?;
    Ok(b.build())
}

/// Write `g` in the compact binary format (`VNG1`).
pub fn write_binary<W: Write>(g: &DiGraph, w: &mut W) -> Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(&MAGIC)?;
    w.write_all(&(g.node_count() as u32).to_le_bytes())?;
    w.write_all(&(g.edge_count() as u64).to_le_bytes())?;
    // Out-degree per node, then concatenated sorted targets. The reverse
    // CSR is rebuilt on load.
    for u in g.nodes() {
        w.write_all(&(g.out_degree(u) as u32).to_le_bytes())?;
    }
    for (_, v) in g.edges() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Read a graph in the compact binary format (`VNG1`).
///
/// Reads the whole blob, then checks every declared count against the
/// bytes actually present before sizing anything from it: a short or
/// hostile blob is a [`GraphError::Io`] `UnexpectedEof`, never a huge
/// allocation. The edges then stream straight into a
/// [`StreamingBuilder`](crate::StreamingBuilder), with no tuple staging.
pub fn read_binary<R: Read>(mut r: R) -> Result<DiGraph> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    let truncated = || GraphError::Io(std::io::ErrorKind::UnexpectedEof.into());
    if bytes.get(..4).ok_or_else(truncated)? != MAGIC {
        return Err(GraphError::BadMagic);
    }
    let header = bytes.get(4..16).ok_or_else(truncated)?;
    let n = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice"));
    let m = u64::from_le_bytes(header[4..].try_into().expect("8-byte slice"));
    let body = &bytes[16..];
    // 4·n fits in u64, and in usize once it is known to fit in `body`.
    let degree_len = 4 * u64::from(n);
    if degree_len > body.len() as u64 {
        return Err(truncated());
    }
    let (degree_bytes, targets) = body.split_at(degree_len as usize);
    let total: u64 = words(degree_bytes).map(u64::from).sum();
    if total != m {
        return Err(GraphError::DegreeSumMismatch { declared: m, sum: total });
    }
    if m.checked_mul(4).is_none_or(|need| need > targets.len() as u64) {
        return Err(truncated());
    }
    let edges = || {
        words(degree_bytes)
            .enumerate()
            .flat_map(|(u, d)| std::iter::repeat_n(u as NodeId, d as usize))
            .zip(words(targets))
    };
    let (graph, _) = stream_from_fn(n, edges)?;
    Ok(graph)
}

/// Little-endian `u32` words of `bytes` (a trailing partial word is ignored).
fn words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.chunks_exact(4).map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk")))
}

/// Write a graph to `path` in binary format.
pub fn save<P: AsRef<Path>>(g: &DiGraph, path: P) -> Result<()> {
    let mut f = std::fs::File::create(path)?;
    write_binary(g, &mut f)
}

/// Load a binary-format graph from `path`.
pub fn load<P: AsRef<Path>>(path: P) -> Result<DiGraph> {
    let f = std::fs::File::open(path)?;
    read_binary(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn sample() -> DiGraph {
        from_edges(6, &[(0, 1), (0, 5), (1, 2), (2, 0), (4, 1)]).unwrap()
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..], 6).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn edge_list_min_nodes_pads_isolated_tail() {
        let text = b"0 1\n";
        let g = read_edge_list(&text[..], 10).unwrap();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list(&b"0 x\n"[..], 0).is_err());
        assert!(read_edge_list(&b"0\n"[..], 0).is_err());
        assert!(read_edge_list(&b"0 1 2\n"[..], 0).is_err());
    }

    #[test]
    fn edge_list_errors_carry_line_numbers() {
        // The bad line is the third physical line (after a comment and a
        // good edge); the structured error must say so.
        match read_edge_list(&b"# ok\n0 1\n0 1 2\n"[..], 0) {
            Err(GraphError::ParseLine { line, message }) => {
                assert_eq!(line, 3);
                assert_eq!(message, "too many fields");
            }
            other => panic!("expected ParseLine, got {other:?}"),
        }
        match read_edge_list(&b"0\n"[..], 0) {
            Err(GraphError::ParseLine { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected ParseLine, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_degree_sum_mismatch() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Corrupt the declared edge count (u64 LE at offset 8, after magic
        // and node count).
        buf[8] = buf[8].wrapping_add(1);
        match read_binary(&buf[..]) {
            Err(GraphError::DegreeSumMismatch { declared, sum }) => {
                assert_eq!(sum, g.edge_count() as u64);
                assert_eq!(declared, g.edge_count() as u64 + 1);
            }
            other => panic!("expected DegreeSumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_skips_comments_and_blanks() {
        let text = b"# hello\n\n0 1\n  \n# trailing\n1 0\n";
        let g = read_edge_list(&text[..], 0).unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOPE\x00\x00\x00\x00";
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::BadMagic)));
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_binary(&buf[..]).is_err());
    }

    #[test]
    fn binary_counts_past_the_blob_are_truncation_not_allocation() {
        // n = u32::MAX with no degrees present: 16 bytes once asked for a
        // 17 GB degree vector.
        let mut huge_n = MAGIC.to_vec();
        huge_n.extend_from_slice(&u32::MAX.to_le_bytes());
        huge_n.extend_from_slice(&0u64.to_le_bytes());
        // One node whose degree (and m) is u32::MAX with no targets
        // present: 20 bytes once asked for ~34 GB of staged edges.
        let mut huge_m = MAGIC.to_vec();
        huge_m.extend_from_slice(&1u32.to_le_bytes());
        huge_m.extend_from_slice(&u64::from(u32::MAX).to_le_bytes());
        huge_m.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!((huge_n.len(), huge_m.len()), (16, 20));
        for blob in [huge_n, huge_m] {
            match read_binary(&blob[..]) {
                Err(GraphError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
                }
                other => panic!("expected UnexpectedEof, got {other:?}"),
            }
        }
    }

    #[test]
    fn binary_rejects_out_of_range_targets() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        // The last target (node 1, from 4 -> 1) becomes node 6 of 6.
        let last = buf.len() - 4;
        buf[last..].copy_from_slice(&6u32.to_le_bytes());
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphError::NodeOutOfRange { node: 6, count: 6 })
        ));
    }

    #[test]
    fn file_save_load_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir().join("vnet_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.vng");
        save(&g, &path).unwrap();
        let g2 = load(&path).unwrap();
        assert_eq!(g, g2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_graph_roundtrips_both_formats() {
        let g = DiGraph::empty(4);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(read_binary(&buf[..]).unwrap(), g);
        let mut buf2 = Vec::new();
        write_edge_list(&g, &mut buf2).unwrap();
        assert_eq!(read_edge_list(&buf2[..], 4).unwrap(), g);
    }
}
