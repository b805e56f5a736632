//! Bad fixture: D6, clippy.toml's `Rc`/`RefCell` and `thread_local!` bans
//! (`disallowed_types`, `disallowed_macros`): shard state that cannot move
//! onto a worker thread, or that smuggles thread identity into the history.

use std::cell::RefCell;
use std::rc::Rc;

thread_local! {
    static EVENTS_SEEN: RefCell<u64> = const { RefCell::new(0) };
}

pub struct FlowTable {
    shared: Rc<Vec<u64>>,
}

impl FlowTable {
    pub fn bump(&self) {
        EVENTS_SEEN.with(|c| *c.borrow_mut() += self.shared.len() as u64);
    }
}
