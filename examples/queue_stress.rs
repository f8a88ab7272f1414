//! Host-side stress of the paper's concurrent queue (real threads, real
//! atomics — no simulation).
//!
//! Spawns producers and consumers against the counter-publication queue,
//! then prints a Figure 1-style side-by-side of all five queue
//! configurations under the pop-and-push workload.
//!
//! ```bash
//! cargo run --release --example queue_stress
//! ```

use std::sync::Arc;
use std::time::Instant;

use atos::queue::sync::{AtomicU64, Ordering};

use atos::queue::bench_harness::{run, Experiment, QueueKind};
use atos::queue::counter::CounterQueue;
use atos::queue::PopState;

fn main() {
    // Part 1: a hand-rolled producer/consumer pipeline on the counter
    // queue, checking conservation under real contention.
    let producers = 4;
    let consumers = 4;
    let per = 250_000u64;
    let q: Arc<CounterQueue<u64>> =
        Arc::new(CounterQueue::with_capacity((producers * per) as usize));
    let consumed = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..producers {
            let q = Arc::clone(&q);
            s.spawn(move || {
                let mut group = [0u64; 32];
                let mut i = 0;
                while i < per {
                    let n = 32.min((per - i) as usize);
                    for (k, g) in group[..n].iter_mut().enumerate() {
                        *g = t * per + i + k as u64;
                    }
                    q.push_group(&group[..n]).expect("sized for workload");
                    i += n as u64;
                }
            });
        }
        for _ in 0..consumers {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            let checksum = Arc::clone(&checksum);
            s.spawn(move || {
                let goal = producers * per;
                let mut h = PopState::new();
                let mut buf = Vec::with_capacity(64);
                let mut local_sum = 0u64;
                let mut local_count = 0u64;
                loop {
                    buf.clear();
                    let got = q.pop_group(&mut h, 64, &mut buf);
                    if got == 0 {
                        if q.published() == goal && q.is_empty() {
                            h.abandon();
                            break;
                        }
                        std::hint::spin_loop();
                        continue;
                    }
                    local_count += got as u64;
                    local_sum = local_sum.wrapping_add(buf.iter().sum::<u64>());
                }
                consumed.fetch_add(local_count, Ordering::Relaxed);
                checksum.fetch_add(local_sum, Ordering::Relaxed);
            });
        }
    });
    let total = producers * per;
    let elapsed = t0.elapsed();
    let expect_sum: u64 = (0..total).sum();
    assert_eq!(consumed.load(Ordering::Relaxed), total);
    assert_eq!(checksum.load(Ordering::Relaxed), expect_sum);
    println!(
        "counter queue: {} items through {}P/{}C in {:.1} ms ({:.1} M items/s), checksum ok",
        total,
        producers,
        consumers,
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64() / 1e6
    );

    // Part 2: Figure 1-style comparison at one contention point.
    let n = 1 << 15;
    println!("\npop-and-push, {n} virtual threads x 10 ops:");
    for kind in QueueKind::ALL {
        let s = run(kind, Experiment::ConcurrentPopPush, n);
        println!(
            "  {:<18}{:>10.3} ms",
            kind.label(),
            s.elapsed.as_secs_f64() * 1e3
        );
    }
}
