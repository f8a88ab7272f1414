//! Bad fixture for `shard-escape`: entry-point writes to authoritative
//! vertex state that escape the owner-computes discipline. The attribute
//! on `process` declares `depth` and `labels` owner-indexed.

struct Part;
impl Part {
    fn owner(&self, _v: u32) -> usize {
        0
    }
}

struct BadApp {
    depth: Vec<u32>,
    labels: Vec<u32>,
    mirror: Vec<Vec<u32>>,
    graph: Vec<u32>,
    partition: Part,
}

impl BadApp {
    #[atos_shard(owner(depth, labels), private(mirror), shared(graph))]
    fn process(&mut self, pe: usize, v: u32) {
        let owner = self.partition.owner(v);
        if owner == pe {
            self.depth[v as usize] = 1;
        } else {
            self.depth[v as usize] = 2;
        }
    }

    fn on_receive(&mut self, pe: usize, w: u32) {
        self.labels[w as usize] = 9;
        assert_owner!(self.partition, w, pe);
        self.depth[w as usize] = 3;
        store(self, w);
        self.graph[0] = 1;
    }
}

/// Outlined helper: its unwitnessed write is attributed to the entry
/// point that reaches it.
fn store(app: &mut BadApp, w: u32) {
    app.depth[w as usize] = 7;
}
