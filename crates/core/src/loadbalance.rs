//! How an idle PE gets work (DESIGN.md §10) — the one module that knows
//! stealing.
//!
//! The paper's scheduling loop is *owner-computes*: every task is processed
//! by the PE that owns its vertex, so a skewed frontier leaves some PEs
//! idle while the hub owner grinds. [`LoadBalance`] selects between that
//! ([`LoadBalance::Owner`], the default) and pull-based work stealing
//! ([`LoadBalance::Steal`]) on `AtosConfig::lb` / `--load-balance`.
//!
//! A steal happens at the moment a PE pops an empty queue: it pulls up to
//! half of the longest queue, at most [`STEAL_GRAIN`] tasks, with one
//! `pop_batch`. Queues never hold foreign tasks, and every stolen task
//! is still **processed under the victim's identity**
//! (`process(victim, task)`), so owner-computes state, sender-side
//! mirrors, and the shard-escape discipline are untouched. Only the *busy
//! time* of the work moves to the thief, which is the hardware analogy: a
//! stolen `pop_group` executes on the thief's SMs while the data it
//! touches stays where it lives. On a priority queue the single pop obeys
//! the victim's eligibility threshold exactly as the owner's own pop
//! would: the thief gets eligible work only, and never opens the victim's
//! next bucket for it.
//!
//! Priority scheduling is not a balancing policy; it is a queue
//! architecture (`QueueMode::Priority`, the `AtosConfig::priority_*`
//! presets).

use atos_macros::atos_hot;
use atos_sim::Time;
use atos_trace::Tracer;

use crate::app::Application;
use crate::runtime::{Ev, Runtime};

/// Steal granularity: tasks one steal may claim. Mirrors the queue
/// substrate's group reservation width (`pop_group`) and the NVLink
/// direct-comm coalescing group — one warp's worth of tasks is the unit
/// that can be claimed with a single counter reservation, so it is the
/// safe steal quantum.
pub const STEAL_GRAIN: usize = 32;

/// Load-balance policy selector (the `--load-balance` flag; stored in
/// `AtosConfig::lb`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LoadBalance {
    /// Static owner-computes (the paper's scheduling; the default).
    Owner,
    /// Cross-PE work stealing at group granularity.
    Steal,
}

impl LoadBalance {
    /// Both policies, in reporting order.
    pub const ALL: [LoadBalance; 2] = [LoadBalance::Owner, LoadBalance::Steal];

    /// Stable lowercase name (flag value, metric key fragment).
    pub const fn name(self) -> &'static str {
        match self {
            LoadBalance::Owner => "owner",
            LoadBalance::Steal => "steal",
        }
    }

    /// Stable numeric code recorded in `RunStats::lb_discipline` (metric
    /// `lb.discipline`), so profiles can name the active policy. Codes 2
    /// and 3 belonged to the retired `chunk` and `priority` disciplines
    /// and are not reused.
    pub const fn code(self) -> u8 {
        match self {
            LoadBalance::Owner => 0,
            LoadBalance::Steal => 1,
        }
    }

    /// Parse a `--load-balance` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        LoadBalance::ALL.into_iter().find(|lb| lb.name() == s)
    }
}

impl<A: Application, Tr: Tracer> Runtime<A, Tr> {
    /// `thief` popped nothing: under [`LoadBalance::Steal`], pull work from
    /// the busiest peer into `batch`. Returns `(victim, taken)` when
    /// something was stolen — the caller executes the batch under the
    /// victim's identity — and `None` under owner-computes or when no peer
    /// is worth a reservation.
    #[atos_hot]
    pub(crate) fn try_steal(
        &mut self,
        thief: usize,
        cap: usize,
        batch: &mut Vec<A::Task>,
    ) -> Option<(usize, usize)> {
        if self.cfg.lb != LoadBalance::Steal {
            return None;
        }
        let victim = self.pick_victim(thief)?;
        let taken = self.steal_from(victim, cap, batch);
        (taken > 0).then_some((victim, taken))
    }

    /// Choose a steal victim for `thief`: the PE with the longest
    /// queue (ties to the lowest index). A victim keeps at least one task,
    /// so a queue of one is not worth a reservation; `None` when no peer
    /// is stealable — the common case, and the only extra cost stealing
    /// adds to a quiescing run.
    #[atos_hot]
    fn pick_victim(&mut self, thief: usize) -> Option<usize> {
        // The thief is about to read its peers' queues (and may run one
        // peer's tasks): each is first brought up to date with the
        // arrivals that precede the thief's own step.
        let now = (self.engine.now(), self.engine.popped_seq());
        let mut best = 1usize;
        let mut victim = None;
        for v in 0..self.pes.len() {
            if v == thief {
                continue;
            }
            self.settle(v, now);
            let len = self.pes[v].queue.len();
            if len > best {
                best = len;
                victim = Some(v);
            }
        }
        victim
    }

    /// Pull one steal group from `victim` into `batch` — half its backlog,
    /// bounded by [`STEAL_GRAIN`] and the thief's round capacity — with a
    /// single `pop_batch`, the simulator analog of one bounded `pop_group`
    /// reservation against the victim's published `end` counter. Returns
    /// the count taken and books the steal counters.
    #[atos_hot]
    fn steal_from(&mut self, victim: usize, cap: usize, batch: &mut Vec<A::Task>) -> usize {
        let want = (self.pes[victim].queue.len() / 2).min(STEAL_GRAIN).min(cap);
        let at = batch.len();
        self.pes[victim].queue.pop_batch(want, batch);
        let stolen = &batch[at..];
        if stolen.is_empty() {
            return 0;
        }
        self.stats.lb_steals += 1;
        self.stats.lb_stolen_tasks += stolen.len() as u64;
        for t in stolen {
            self.stats.lb_stolen_edges += self.app.task_edges(t);
        }
        stolen.len()
    }

    /// `busy_pe` finished a round executing `exec_pe`'s work; if that
    /// queue still holds a backlog, wake drained peers so they
    /// get a steal attempt when the busy window closes. No-op under
    /// owner-computes. Bypasses `Runtime::wake`'s non-empty-queue guard:
    /// the woken step finds its own queue empty and pulls from a victim —
    /// or steals nothing and goes back to sleep without rescheduling
    /// itself, so termination is preserved. `idle_ran` is left alone: a
    /// steal wake is not an idle transition, so `f2` does not re-run.
    #[atos_hot]
    pub(crate) fn wake_idle_peers(&mut self, busy_pe: usize, exec_pe: usize, delay: Time) {
        if self.cfg.lb != LoadBalance::Steal || self.pes[exec_pe].queue.is_empty() {
            return;
        }
        for peer in 0..self.pes.len() {
            if peer != busy_pe && !self.pes[peer].step_scheduled && self.pes[peer].queue.is_empty()
            {
                self.pes[peer].step_scheduled = true;
                self.engine.schedule_after(delay, Ev::Step { pe: peer });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AtosConfig, QueueMode};
    use crate::emitter::Emitter;
    use atos_sim::Fabric;

    #[test]
    fn names_codes_round_trip() {
        assert_eq!(LoadBalance::ALL.len(), 2);
        for lb in LoadBalance::ALL {
            assert_eq!(LoadBalance::parse(lb.name()), Some(lb));
        }
        assert_eq!(
            (LoadBalance::Owner.code(), LoadBalance::Steal.code()),
            (0, 1)
        );
        // The retired disciplines stay retired: their names resolve to
        // nothing.
        for gone in ["chunk", "priority", "merge-path"] {
            assert_eq!(LoadBalance::parse(gone), None);
        }
    }

    /// A task is its own priority bucket; nothing is emitted.
    struct Buckets;

    impl Application for Buckets {
        type Task = u32;
        fn process(&mut self, _pe: usize, _t: u32, _out: &mut Emitter<u32>) {}
        fn on_receive(&mut self, _pe: usize, t: u32) -> Option<u32> {
            Some(t)
        }
        fn priority(&self, t: &u32) -> u32 {
            *t
        }
        fn task_edges(&self, _t: &u32) -> u64 {
            1
        }
    }

    fn two_pes(cfg: AtosConfig) -> Runtime<Buckets> {
        Runtime::new(Buckets, Fabric::daisy(2), cfg)
    }

    #[test]
    fn steal_takes_half_the_longest_queue_up_to_the_grain() {
        let mut rt = two_pes(AtosConfig::standard_persistent().with_lb(LoadBalance::Steal));
        rt.seed(1, 0..100u32);
        let mut batch = Vec::new();
        assert_eq!(
            rt.try_steal(0, usize::MAX, &mut batch),
            Some((1, STEAL_GRAIN))
        );
        assert_eq!(
            batch,
            (0..STEAL_GRAIN as u32).collect::<Vec<_>>(),
            "FIFO order"
        );
        batch.clear();
        // The thief's round capacity bounds the group too.
        assert_eq!(rt.try_steal(0, 5, &mut batch), Some((1, 5)));
        assert_eq!(rt.stats.lb_steals, 2);
        assert_eq!(rt.stats.lb_stolen_tasks, STEAL_GRAIN as u64 + 5);
        assert_eq!(
            rt.stats.lb_stolen_edges, rt.stats.lb_stolen_tasks,
            "unit-degree tasks"
        );
    }

    #[test]
    fn a_victim_keeps_its_last_task_and_owner_never_steals() {
        let mut rt = two_pes(AtosConfig::standard_persistent().with_lb(LoadBalance::Steal));
        rt.seed(1, [7u32]);
        let mut batch = Vec::new();
        assert_eq!(rt.try_steal(0, usize::MAX, &mut batch), None);
        assert_eq!(rt.pes[1].queue.len(), 1);

        let mut owner = two_pes(AtosConfig::standard_persistent());
        owner.seed(1, 0..100u32);
        assert_eq!(owner.try_steal(0, usize::MAX, &mut batch), None);
        assert!(batch.is_empty());
        assert_eq!(owner.stats.lb_steals, 0);
    }

    #[test]
    fn steal_from_a_priority_victim_leaves_its_threshold_alone() {
        // One eligible task (bucket 0 < threshold 1) and ten waiting in
        // bucket 5. The owner's own pop would serve the eligible task and
        // stop at the threshold; so must the thief's. Popping the group
        // one task at a time used to re-open the threshold on every task:
        // five tasks stolen, threshold left at 6.
        let cfg = AtosConfig {
            queue: QueueMode::Priority {
                threshold: 1,
                threshold_delta: 1,
            },
            ..AtosConfig::standard_persistent().with_lb(LoadBalance::Steal)
        };
        let mut rt = two_pes(cfg);
        rt.seed(1, std::iter::once(0u32).chain(std::iter::repeat_n(5, 10)));
        let mut batch = Vec::new();
        assert_eq!(rt.try_steal(0, usize::MAX, &mut batch), Some((1, 1)));
        assert_eq!(batch, [0]);
        assert_eq!(rt.pes[1].queue.threshold(), Some(1));
        assert_eq!(rt.pes[1].queue.len(), 10);
        assert_eq!((rt.stats.lb_steals, rt.stats.lb_stolen_tasks), (1, 1));
    }
}
