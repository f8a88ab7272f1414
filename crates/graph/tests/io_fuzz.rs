//! Reader fuzz: `read_matrix_market` and `read_dimacs` must turn *any* bytes
//! into a graph or an `Err` — never a panic, never an allocation sized by a
//! header's word alone. Inputs: arbitrary bytes (invalid UTF-8 included)
//! spliced with the formats' hard cases, and files the writers produced,
//! truncated or with one field or line broken, which must be `Err`.

use atos_graph::csr::Csr;
use atos_graph::generators::rmat;
use atos_graph::io::{read_dimacs, read_matrix_market, write_dimacs, write_matrix_market};
use proptest::collection::vec;
use proptest::prelude::*;

/// How an input may start: no header, either Matrix Market symmetry, DIMACS.
const PREFIXES: &[&str] = &[
    "",
    "%%MatrixMarket matrix coordinate pattern general\n",
    "%%MatrixMarket matrix coordinate real symmetric\n",
    "p sp 5 8\n",
];

/// What the readers have to split, parse and range-check. Numbers carry
/// their own spaces so neighbouring tokens never fuse into a vertex count
/// the host cannot allocate.
const HARD_CASES: &[&str] = &[
    "\n",
    "\r\n",
    " ",
    "\t",
    "%",
    "%%MatrixMarket matrix coordinate pattern general",
    "p sp ",
    "p",
    "a ",
    "a",
    "c ",
    " 0 ",
    " 1 ",
    " 2 ",
    " 5 ",
    " -1 ",
    " 1.5 ",
    " 4294967296 ",
    " 18446744073709551615 ",
    " 99999999999999999999 ",
    "symmetric",
    "é",
];

/// Numbers no index may be: below the 1-based range, negative, fractional,
/// non-numeric, past `u64`.
const BAD_INDICES: &[&str] = &["0", "-1", "1.5", "x", "18446744073709551616"];

fn seed_graph() -> Csr {
    rmat(6, 200, (0.57, 0.19, 0.19, 0.05), 3)
}

/// Replace the `field`-th whitespace-separated field of `line`.
fn with_field(line: &str, field: usize, value: &str) -> String {
    let mut parts: Vec<&str> = line.split_whitespace().collect();
    parts[field] = value;
    parts.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_are_read_without_panic(
        prefix in 0usize..PREFIXES.len(),
        bytes in vec(any::<u8>(), 0..256),
        picks in vec(0usize..HARD_CASES.len(), 0..64),
    ) {
        // Interleave raw bytes with the hard cases, a few bytes between each.
        let mut input = PREFIXES[prefix].as_bytes().to_vec();
        let mut chunks = bytes.chunks(3);
        for pick in picks {
            input.extend_from_slice(chunks.next().unwrap_or(&[]));
            input.extend_from_slice(HARD_CASES[pick].as_bytes());
        }
        input.extend(chunks.flatten());
        let _ = read_matrix_market(&input[..]);
        let _ = read_dimacs(&input[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn near_miss_matrix_market_files_are_errors(
        cut in any::<usize>(),
        line in any::<usize>(),
        field in 0usize..2,
        bad in 0usize..BAD_INDICES.len(),
    ) {
        let g = seed_graph();
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        prop_assert_eq!(read_matrix_market(text.as_bytes()).unwrap(), g.clone());

        // Cut anywhere before the last entry begins: fewer entries than the
        // size line declares (or no size line, or a broken header).
        let last = text.trim_end().rfind('\n').unwrap() + 1;
        let short = &text[..cut % last];
        prop_assert!(read_matrix_market(short.as_bytes()).is_err(), "{} bytes read", short.len());

        // One entry index out of range or not a number.
        let n_plus_one = (g.n_vertices() + 1).to_string();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let entry = 3 + line % g.n_edges();
        for value in [BAD_INDICES[bad], &n_plus_one] {
            lines[entry] = with_field(&lines[entry], field, value);
            let broken = lines.join("\n");
            prop_assert!(read_matrix_market(broken.as_bytes()).is_err(), "{}", lines[entry]);
        }
    }

    #[test]
    fn near_miss_dimacs_files_are_errors(
        line in any::<usize>(),
        field in 1usize..3,
        bad in 0usize..BAD_INDICES.len(),
    ) {
        let g = seed_graph();
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        prop_assert_eq!(read_dimacs(text.as_bytes()).unwrap(), g.clone());
        let lines: Vec<&str> = text.lines().collect();
        let arc = 2 + line % g.n_edges();
        let read = |lines: &[String]| read_dimacs(lines.join("\n").as_bytes());

        // One arc endpoint out of range or not a number.
        let n_plus_one = (g.n_vertices() + 1).to_string();
        for value in [BAD_INDICES[bad], &n_plus_one] {
            let mut broken: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            broken[arc] = with_field(lines[arc], field, value);
            prop_assert!(read(&broken).is_err(), "{}", broken[arc]);
        }
        // Arcs before the problem line.
        let mut late: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let problem = late.remove(1);
        late.insert(arc, problem);
        prop_assert!(read(&late).is_err(), "problem line after arc {arc}");
        // A line of no known kind.
        let mut unknown: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let any_line = line % lines.len();
        unknown[any_line].replace_range(..1, "b");
        prop_assert!(read(&unknown).is_err(), "{}", unknown[any_line]);
    }
}

#[test]
fn header_counts_past_the_vertex_id_range_are_errors() {
    for size in ["4294967296 1 0", "1 18446744073709551615 0"] {
        let input = format!("%%MatrixMarket matrix coordinate pattern general\n{size}\n");
        assert!(read_matrix_market(input.as_bytes()).is_err(), "{size}");
    }
    assert!(read_dimacs("p sp 4294967296 0\n".as_bytes()).is_err());
    // A declared entry count allocates nothing: the entries that are there
    // decide.
    let lying =
        "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 18446744073709551615\n1 2\n";
    assert!(read_matrix_market(lying.as_bytes()).is_err());
    let g = read_dimacs("p sp 2 18446744073709551615\na 1 2 1\n".as_bytes()).unwrap();
    assert_eq!(g.n_edges(), 1);
}
