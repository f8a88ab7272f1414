//! Lint fixture: `panic-in-kernel` — panicking constructs inside queue
//! protocol functions (`push_group`/`pop_group`, hot by their markers),
//! including bare slice indexing.
// atos-lint: hot(no-index)
pub fn push_group(q: &Queue, items: &[u64]) -> u64 {
    let idx = q.end_alloc.fetch_add(items.len() as u64, Ordering::Relaxed);
    assert!(idx + (items.len() as u64) <= q.capacity);
    for (i, item) in items.iter().enumerate() {
        q.slots[(idx + i as u64) as usize] = *item;
    }
    idx
}
// atos-lint: hot(no-index)
pub fn pop_group(q: &Queue, out: &mut Vec<u64>) {
    let h = q.head.checked_sub(1).unwrap();
    out.push(q.take(h).expect("slot ready"));
}
