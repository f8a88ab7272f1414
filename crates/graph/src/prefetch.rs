//! Cache-line hints: the one place the workspace tells the memory system
//! what it is about to read.
//!
//! A task starts with two or three dependent cold loads — the row index
//! entry, the first line of the row, the task's own state — that nothing
//! overlaps when tasks run one at a time. The runtime announces tasks a few
//! positions before it runs them ([`Lookahead`]); each structure turns the
//! announcement into [`prefetch`] calls on its own arrays.

#![expect(unsafe_code, reason = "_mm_prefetch behind a bounds-checked helper")]

/// How far ahead of its execution a task is being announced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookahead {
    /// Several tasks ahead: touch what *locates* the task's data (row index
    /// entries) and the task's own state. Nothing may be assumed cached.
    Far,
    /// A few tasks ahead, after a [`Lookahead::Far`] for the same task: the
    /// index entries are cached now, so read them and touch what they point
    /// at (the first line of the row).
    Near,
}

/// Hint that `slice[index]` is about to be read. An out-of-range `index` is
/// a no-op — a hint never panics — and so is every target but x86_64.
#[inline(always)]
pub fn prefetch<T>(slice: &[T], index: usize) {
    hot!(prefetch, {
        let Some(item) = slice.get(index) else {
            return;
        };
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: the pointer comes from a live reference, and a prefetch
            // has no architectural effect: it reads and writes nothing the
            // program can observe.
            unsafe { _mm_prefetch::<_MM_HINT_T0>((item as *const T).cast::<i8>()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = item;
    })
}

/// The two stages for a CSR-shaped pair of arrays, where row `v` is
/// `rows[offsets[v]..offsets[v + 1]]`: `Far` touches the row's offset entry,
/// `Near` reads that entry and touches the row's first line.
#[inline(always)]
pub(crate) fn prefetch_row<T>(offsets: &[u32], rows: &[T], v: usize, ahead: Lookahead) {
    hot!(prefetch_row, {
        match ahead {
            Lookahead::Far => prefetch(offsets, v),
            Lookahead::Near => {
                if let Some(&lo) = offsets.get(v) {
                    prefetch(rows, lo as usize);
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_hints_are_no_ops() {
        let empty: [u64; 0] = [];
        prefetch(&empty, 0);
        prefetch(&empty, usize::MAX);
        let some = [1u32, 2, 3];
        prefetch(&some, 0);
        prefetch(&some, 2);
        prefetch(&some, some.len());
        prefetch(&some, usize::MAX);
        // Zero-sized elements have no line to fetch, and still do not panic.
        prefetch(&[(), ()], 1);
    }
}
