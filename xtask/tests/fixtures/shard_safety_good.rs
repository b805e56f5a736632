//! Good fixture: D6. Shard state owned directly, the read-only routing
//! table shared as an `Arc`, and one `Rc` that provably never crosses a
//! thread, behind a reasoned expectation.

use std::sync::Arc;

pub struct Shard {
    now_nanos: u64,
    flows: Vec<u64>,
    routes: Arc<Vec<u32>>,
}

impl Shard {
    pub fn advance(&mut self, to: u64) -> usize {
        self.now_nanos = to;
        self.flows.iter().filter(|&&f| f <= to).count() + self.routes.len()
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "single-threaded debug helper, never handed to a worker"
)]
pub fn debug_snapshot(shard: &Shard) -> u64 {
    let view: std::rc::Rc<u64> = std::rc::Rc::new(shard.now_nanos);
    *view
}
