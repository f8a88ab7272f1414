//! Regression fixture for `use`-alias call resolution: the panicking
//! helper is imported under a different name, so a purely name-keyed
//! resolver would miss the edge and the transitive panic-in-kernel
//! finding with it.

mod helpers {
    pub fn grow(v: &mut Vec<u64>) {
        let last = v.last().copied().unwrap();
        v.push(last);
    }
}

use helpers::grow as quietly_grow;

#[atos_hot]
fn hot_entry(v: &mut Vec<u64>) {
    quietly_grow(v);
}
