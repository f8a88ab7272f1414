//! The DFS exploration path: an ordered record of every nondeterministic
//! decision of one execution, and the backtracking machinery that drives
//! exhaustive exploration.
//!
//! Two kinds of decision exist:
//!
//! * **Schedule** — which thread performs the next visible operation
//!   (options are thread ids, the currently running thread listed first so
//!   the first-explored execution minimizes context switches);
//! * **Value** — which store a (relaxed or acquire) load observes, as an
//!   index into the candidate-store list computed from the happens-before
//!   state.
//!
//! A path serializes to a *schedule string* like `t0.t0.t1.v1.t0`, which can
//! be replayed verbatim with [`crate::replay`].

/// One recorded decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Branch {
    /// Thread choice: `options[taken]` ran next.
    Schedule {
        /// Enabled thread ids at this point (preemption-budget filtered).
        options: Vec<usize>,
        /// Index into `options` of the choice taken.
        taken: usize,
    },
    /// Load-visibility choice among `n` candidate stores.
    Value {
        /// Number of candidate stores.
        n: usize,
        /// Candidate index taken (0 = oldest visible store).
        taken: usize,
    },
}

impl Branch {
    fn advance(&mut self) -> bool {
        match self {
            Branch::Schedule { options, taken } => {
                if *taken + 1 < options.len() {
                    *taken += 1;
                    true
                } else {
                    false
                }
            }
            Branch::Value { n, taken } => {
                if *taken + 1 < *n {
                    *taken += 1;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// A parsed schedule-string token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Token {
    /// `t<tid>` — run thread `tid`.
    Thread(usize),
    /// `v<k>` — the load observes candidate `k`.
    Value(usize),
}

/// Parse a schedule string (`t0.t1.v2...`) into tokens.
pub fn parse_schedule(s: &str) -> Result<Vec<Token>, String> {
    let mut out = Vec::new();
    for tok in s.split('.').filter(|t| !t.is_empty()) {
        let (kind, num) = tok.split_at(1);
        let n: usize = num
            .parse()
            .map_err(|_| format!("bad schedule token {tok:?}"))?;
        match kind {
            "t" => out.push(Token::Thread(n)),
            "v" => out.push(Token::Value(n)),
            _ => return Err(format!("bad schedule token {tok:?}")),
        }
    }
    Ok(out)
}

/// The decision tape of the current execution plus the DFS backtrack state.
#[derive(Default, Debug)]
pub struct Path {
    branches: Vec<Branch>,
    /// Next branch to consume when re-executing a prefix.
    cursor: usize,
}

impl Path {
    /// Start a new execution over the same (possibly advanced) prefix.
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Number of decisions consumed so far in the current execution.
    pub fn consumed(&self) -> usize {
        self.cursor
    }

    /// DFS: follow the recorded schedule decision at the cursor, or append a
    /// new branch taking `options[0]`. Returns the chosen thread id.
    pub fn next_schedule(&mut self, options: Vec<usize>) -> usize {
        if self.cursor < self.branches.len() {
            let b = &self.branches[self.cursor];
            self.cursor += 1;
            match b {
                Branch::Schedule { options: o, taken } => {
                    debug_assert_eq!(
                        o, &options,
                        "nondeterministic model: enabled-thread set diverged on replayed prefix"
                    );
                    o[*taken]
                }
                Branch::Value { .. } => {
                    panic!("nondeterministic model: schedule point where a load was recorded")
                }
            }
        } else {
            let t = options[0];
            self.branches.push(Branch::Schedule { options, taken: 0 });
            self.cursor += 1;
            t
        }
    }

    /// DFS: follow or append a load-visibility decision among `n` candidates.
    pub fn next_value(&mut self, n: usize) -> usize {
        if self.cursor < self.branches.len() {
            let b = &self.branches[self.cursor];
            self.cursor += 1;
            match b {
                Branch::Value { n: m, taken } => {
                    debug_assert_eq!(
                        *m, n,
                        "nondeterministic model: candidate-store count diverged"
                    );
                    *taken
                }
                Branch::Schedule { .. } => {
                    panic!("nondeterministic model: load point where a schedule was recorded")
                }
            }
        } else {
            self.branches.push(Branch::Value { n, taken: 0 });
            self.cursor += 1;
            0
        }
    }

    /// Record a decision made by an external chooser (fuzz / replay modes).
    pub fn record(&mut self, b: Branch) {
        self.branches.truncate(self.cursor);
        self.branches.push(b);
        self.cursor += 1;
    }

    /// Backtrack: advance the deepest branch with an untried alternative,
    /// discarding everything after it. Returns `false` when the space is
    /// exhausted.
    pub fn step_back(&mut self) -> bool {
        while let Some(last) = self.branches.last_mut() {
            if last.advance() {
                self.cursor = 0;
                return true;
            }
            self.branches.pop();
        }
        false
    }

    /// Serialize the decisions consumed by the current execution.
    pub fn schedule_string(&self) -> String {
        self.branches[..self.cursor.min(self.branches.len())]
            .iter()
            .map(|b| match b {
                Branch::Schedule { options, taken } => format!("t{}", options[*taken]),
                Branch::Value { taken, .. } => format!("v{taken}"),
            })
            .collect::<Vec<_>>()
            .join(".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dfs_explores_all_leaves() {
        // Two binary decisions => 4 executions.
        let mut path = Path::default();
        let mut seen = Vec::new();
        loop {
            path.rewind();
            let a = path.next_value(2);
            let b = path.next_value(2);
            seen.push((a, b));
            if !path.step_back() {
                break;
            }
        }
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn dfs_handles_variable_depth() {
        // Decision 0 controls whether a second decision exists.
        let mut path = Path::default();
        let mut leaves = 0;
        loop {
            path.rewind();
            let a = path.next_schedule(vec![7, 9]);
            if a == 7 {
                path.next_value(3);
            }
            leaves += 1;
            if !path.step_back() {
                break;
            }
        }
        // 3 leaves under t7, 1 leaf under t9.
        assert_eq!(leaves, 4);
    }

    #[test]
    fn schedule_string_round_trips() {
        let mut path = Path::default();
        path.rewind();
        path.next_schedule(vec![0, 1]);
        path.next_value(3);
        path.next_schedule(vec![1, 0]);
        let s = path.schedule_string();
        assert_eq!(s, "t0.v0.t1");
        let toks = parse_schedule(&s).unwrap();
        assert_eq!(
            toks,
            vec![Token::Thread(0), Token::Value(0), Token::Thread(1)]
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_schedule("t0.x1").is_err());
        assert!(parse_schedule("tt").is_err());
        assert_eq!(parse_schedule("").unwrap(), vec![]);
    }
}
