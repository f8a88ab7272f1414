//! Graph file formats: Matrix Market and DIMACS.
//!
//! The paper's datasets ship as SuiteSparse Matrix Market files
//! (soc-LiveJournal1, hollywood-2009, indochina-2004) and DIMACS
//! shortest-path files (road_usa, osm-eur). These readers let the
//! benchmark harness consume the originals when they are available;
//! writers make the synthetic presets exportable for cross-checking with
//! other frameworks.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

use crate::csr::{Csr, VertexId};

/// Errors from graph parsing.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file, with a human-readable reason.
    Malformed(String),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed(m) => write!(f, "malformed graph file: {m}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn malformed(msg: impl Into<String>) -> ParseError {
    ParseError::Malformed(msg.into())
}

/// A declared vertex count, rejected unless every 1-based id up to it fits
/// a [`VertexId`].
fn vertex_count(n: usize) -> Result<usize, ParseError> {
    if n > VertexId::MAX as usize {
        return Err(malformed(format!("{n} vertices overflow 32-bit vertex ids")));
    }
    Ok(n)
}

/// Read a Matrix Market coordinate file as a directed graph.
///
/// Supports `%%MatrixMarket matrix coordinate <field> <symmetry>` with
/// `pattern`/`integer`/`real` fields (values are ignored) and
/// `general`/`symmetric` symmetry (symmetric adds both directions).
/// Vertex ids in the file are 1-based, per the format.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Csr, ParseError> {
    let mut lines = BufReader::new(reader).lines();
    let header = lines
        .next()
        .ok_or_else(|| malformed("empty file"))??;
    let head = header.to_ascii_lowercase();
    if !head.starts_with("%%matrixmarket matrix coordinate") {
        return Err(malformed(format!("unsupported header: {header}")));
    }
    let symmetric = head.contains("symmetric");

    // Skip comments, find the size line.
    let size_line = loop {
        let line = lines
            .next()
            .ok_or_else(|| malformed("missing size line"))??;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        break line;
    };
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| malformed("bad size line")))
        .collect::<Result<_, _>>()?;
    let [rows, cols, nnz] = dims[..] else {
        return Err(malformed("size line needs rows cols nnz"));
    };
    let n = vertex_count(rows.max(cols))?;

    // Not pre-sized from `nnz`: a file may declare any count.
    let mut edges = Vec::new();
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: usize = it
            .next()
            .ok_or_else(|| malformed("entry missing row"))?
            .parse()
            .map_err(|_| malformed("bad row index"))?;
        let v: usize = it
            .next()
            .ok_or_else(|| malformed("entry missing col"))?
            .parse()
            .map_err(|_| malformed("bad col index"))?;
        if u == 0 || v == 0 || u > n || v > n {
            return Err(malformed(format!("index out of range: {u} {v}")));
        }
        let (u, v) = ((u - 1) as VertexId, (v - 1) as VertexId);
        edges.push((u, v));
        if symmetric && u != v {
            edges.push((v, u));
        }
    }
    if edges.len() < nnz {
        return Err(malformed(format!(
            "expected {nnz} entries, found {}",
            edges.len()
        )));
    }
    Ok(Csr::from_edges(n, &edges))
}

/// Write a graph as a general pattern Matrix Market file (1-based).
pub fn write_matrix_market<W: Write>(g: &Csr, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(w, "% exported by atos-graph")?;
    writeln!(w, "{} {} {}", g.n_vertices(), g.n_vertices(), g.n_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{} {}", u + 1, v + 1)?;
    }
    w.flush()
}

/// Read a DIMACS shortest-path (`.gr`) file: `p sp <n> <m>` then
/// `a <u> <v> <weight>` arcs (1-based; weights ignored — the paper's BFS
/// and PageRank are unweighted).
pub fn read_dimacs<R: Read>(reader: R) -> Result<Csr, ParseError> {
    let mut n = 0usize;
    let mut edges = Vec::new();
    for line in BufReader::new(reader).lines() {
        let line = line?;
        let t = line.trim();
        match t.chars().next() {
            None | Some('c') => continue,
            Some('p') => {
                let parts: Vec<&str> = t.split_whitespace().collect();
                if parts.len() < 4 || parts[1] != "sp" {
                    return Err(malformed(format!("bad problem line: {t}")));
                }
                n = vertex_count(parts[2].parse().map_err(|_| malformed("bad vertex count"))?)?;
            }
            Some('a') => {
                let mut it = t.split_whitespace().skip(1);
                let u: usize = it
                    .next()
                    .ok_or_else(|| malformed("arc missing source"))?
                    .parse()
                    .map_err(|_| malformed("bad arc source"))?;
                let v: usize = it
                    .next()
                    .ok_or_else(|| malformed("arc missing target"))?
                    .parse()
                    .map_err(|_| malformed("bad arc target"))?;
                if n == 0 || u == 0 || v == 0 || u > n || v > n {
                    return Err(malformed(format!("arc out of range: {t}")));
                }
                edges.push(((u - 1) as VertexId, (v - 1) as VertexId));
            }
            Some(_) => return Err(malformed(format!("unknown line: {t}"))),
        }
    }
    if n == 0 {
        return Err(malformed("missing problem line"));
    }
    Ok(Csr::from_edges(n, &edges))
}

/// Write a DIMACS shortest-path file with unit weights.
pub fn write_dimacs<W: Write>(g: &Csr, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "c exported by atos-graph")?;
    writeln!(w, "p sp {} {}", g.n_vertices(), g.n_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "a {} {} 1", u + 1, v + 1)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::rmat;

    #[test]
    fn matrix_market_roundtrip() {
        let g = rmat(8, 1500, (0.57, 0.19, 0.19, 0.05), 1);
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn dimacs_roundtrip() {
        let g = rmat(7, 600, (0.55, 0.2, 0.2, 0.05), 2);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let back = read_dimacs(&buf[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn symmetric_matrix_market_adds_reverse_edges() {
        let input = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n";
        let g = read_matrix_market(input.as_bytes()).unwrap();
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn matrix_market_with_values_and_comments() {
        let input = "%%MatrixMarket matrix coordinate real general\n% comment\n\n2 2 2\n1 2 0.5\n2 1 1.5\n";
        let g = read_matrix_market(input.as_bytes()).unwrap();
        assert_eq!(g.n_edges(), 2);
    }

    #[test]
    fn rejects_bad_headers_and_indices() {
        assert!(read_matrix_market("%%MatrixMarket matrix array real general\n1 1 0\n".as_bytes()).is_err());
        assert!(read_matrix_market("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n".as_bytes()).is_err());
        assert!(read_matrix_market("".as_bytes()).is_err());
        assert!(read_dimacs("a 1 2 1\n".as_bytes()).is_err(), "arc before problem line");
        assert!(read_dimacs("p sp 2 1\nz nonsense\n".as_bytes()).is_err());
    }

    #[test]
    fn dimacs_skips_comments_and_weights() {
        let input = "c road graph\np sp 3 3\na 1 2 7\na 2 3 9\nc trailing\na 3 1 2\n";
        let g = read_dimacs(input.as_bytes()).unwrap();
        assert_eq!(g.n_vertices(), 3);
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.neighbors(2), &[0]);
    }
}
