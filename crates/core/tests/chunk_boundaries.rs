//! Remote runs cut at every chunk boundary the class table makes.
//!
//! A remote run is written into chunks whose capacities walk
//! [`CHUNK_CLASSES`], and each chunk departs as a train; cars are cut over
//! the concatenation of a route's trains. Here every PE emits, one step at
//! a time, runs one short of, exactly at and one past every class size and
//! every boundary a run crosses (the classes' running sums), and runs
//! several top-class chunks long — once through [`Emitter::push`] and once
//! through [`Emitter::extend_remote`]. Under fine-grained cars and under
//! the aggregator, whose cars span chunks, every route must deliver its
//! tasks in emission order, and the two emission paths must leave
//! identical [`RunStats`].

use atos_core::emitter::CHUNK_CLASSES;
use atos_core::{Application, AtosConfig, CommMode, Emitter, RunStats, Runtime};
use atos_sim::Fabric;

const N_PES: usize = 3;
/// The first field of a task that starts the next run on its own PE.
const GO: u32 = u32::MAX;

/// Run lengths that start, end or straddle every chunk boundary.
fn lengths() -> Vec<u32> {
    let top = CHUNK_CLASSES[CHUNK_CLASSES.len() - 1];
    let mut edges: Vec<usize> = CHUNK_CLASSES.to_vec();
    let mut sum = 0;
    for c in CHUNK_CLASSES.iter().chain([top; 3].iter()) {
        sum += c;
        edges.push(sum);
    }
    let mut lens: Vec<u32> = edges
        .iter()
        .flat_map(|&e| [e - 1, e, e + 1])
        .map(|l| l as u32)
        .collect();
    lens.push(1);
    lens
}

/// Seeded with one `(GO, 0)` per PE: the go task `(GO, i)` sends run
/// `lens[i]` to every other PE and queues `(GO, i + 1)`, so each run is
/// one step's. A remote task is `(src, position on its route)`.
struct Bursts {
    lens: Vec<u32>,
    by_extend: bool,
    /// `sent[src][dst]`: tasks emitted on the route so far.
    sent: Vec<Vec<u32>>,
    /// `got[dst][src]`: positions delivered on the route, in order.
    got: Vec<Vec<Vec<u32>>>,
    /// `on_receive_run` calls: one per piece of a car that spans chunks.
    pieces: u64,
}

impl Bursts {
    fn new(by_extend: bool) -> Self {
        Bursts {
            lens: lengths(),
            by_extend,
            sent: vec![vec![0; N_PES]; N_PES],
            got: vec![vec![Vec::new(); N_PES]; N_PES],
            pieces: 0,
        }
    }
}

impl Application for Bursts {
    type Task = (u32, u32);

    fn process(&mut self, pe: usize, (kind, i): (u32, u32), out: &mut Emitter<(u32, u32)>) {
        debug_assert_eq!(kind, GO, "remote tasks are consumed on arrival");
        let Some(&len) = self.lens.get(i as usize) else {
            return;
        };
        for dst in (0..N_PES).filter(|&d| d != pe) {
            let first = self.sent[pe][dst];
            self.sent[pe][dst] += len;
            let run = (first..first + len).map(|at| (pe as u32, at));
            if self.by_extend {
                out.extend_remote(dst, run);
            } else {
                for task in run {
                    out.push(dst, task);
                }
            }
        }
        out.push_local((GO, i + 1));
    }

    fn on_receive(&mut self, pe: usize, (src, at): (u32, u32)) -> Option<(u32, u32)> {
        self.got[pe][src as usize].push(at);
        None
    }

    fn on_receive_run(&mut self, pe: usize, run: &[(u32, u32)], _keep: &mut Vec<(u32, u32)>) {
        self.pieces += 1;
        for &task in run {
            self.on_receive(pe, task);
        }
    }

    fn task_edges(&self, _task: &(u32, u32)) -> u64 {
        1
    }
}

fn run(by_extend: bool, fabric: Fabric, cfg: AtosConfig) -> (RunStats, Bursts) {
    let mut rt = Runtime::new(Bursts::new(by_extend), fabric, cfg);
    for pe in 0..N_PES {
        rt.seed(pe, [(GO, 0)]);
    }
    let stats = rt.run();
    (stats, rt.into_app())
}

fn check(name: &str, fabric: impl Fn() -> Fabric, cfg: AtosConfig, cars_span_chunks: bool) {
    let (pushed, by_push) = run(false, fabric(), cfg);
    let (extended, by_extend) = run(true, fabric(), cfg);
    let per_route: u32 = by_push.lens.iter().sum();
    for app in [&by_push, &by_extend] {
        for (dst, routes) in app.got.iter().enumerate() {
            for (src, got) in routes.iter().enumerate() {
                let want: Vec<u32> = if src == dst {
                    Vec::new()
                } else {
                    (0..per_route).collect()
                };
                assert!(
                    *got == want,
                    "{name}: route {src} → {dst} delivered out of emission order"
                );
            }
        }
    }
    assert_eq!(
        pushed.remote_tasks,
        (N_PES * (N_PES - 1)) as u64 * per_route as u64
    );
    assert_eq!(
        format!("{pushed:?}"),
        format!("{extended:?}"),
        "{name}: push and extend_remote differ"
    );
    assert_eq!(by_push.pieces, by_extend.pieces, "{name}");
    if cars_span_chunks {
        assert!(
            by_push.pieces > pushed.messages,
            "{name}: {} pieces for {} cars, none spans a chunk boundary",
            by_push.pieces,
            pushed.messages
        );
    }
}

#[test]
fn fine_grained_cars_deliver_every_run_in_order() {
    let cfg = AtosConfig {
        comm: CommMode::Direct { group: 32 },
        ..AtosConfig::standard_persistent()
    };
    check("direct/32", || Fabric::daisy(N_PES), cfg, false);
}

#[test]
fn cars_off_the_chunk_grid_deliver_every_run_in_order() {
    let cfg = AtosConfig {
        comm: CommMode::Direct { group: 100 },
        ..AtosConfig::standard_persistent()
    };
    check("direct/100", || Fabric::daisy(N_PES), cfg, true);
}

#[test]
fn aggregated_cars_span_chunks_and_deliver_every_run_in_order() {
    check(
        "aggregated",
        || Fabric::ib_cluster(N_PES),
        AtosConfig::ib_pagerank(),
        true,
    );
}
