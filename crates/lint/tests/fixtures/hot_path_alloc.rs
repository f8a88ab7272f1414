//! Lint fixture: `hot-path-alloc` — allocation in an `#[atos_hot]` fn, in
//! a comment-marked fn (`denylisted_hot`), and one call level deep.

#[atos_hot]
pub fn attributed_hot(out: &mut Vec<u64>) {
    let staged = vec![1, 2, 3];
    out.extend_from_slice(&staged);
    refill(out);
}
// atos-lint: hot
pub fn denylisted_hot(n: usize) -> String {
    format!("task {n}")
}

fn refill(out: &mut Vec<u64>) {
    let mut tmp = Vec::with_capacity(8);
    tmp.push(0);
    out.extend_from_slice(&tmp);
}
