//! Fixture: hot-path reachability and layering.
//! This file is never compiled; it only feeds the scanner.

// HIT layer-violation: netsim (layer 0) must not look up at core.
use h3cdn::campaign::Campaign;
// h3cdn-lint: allow(layer-violation)
use h3cdn::scenario::ScenarioSpec;
// CLEAN: sim-core is the same layer.
use h3cdn_sim_core::SimTime;

pub struct Engine {
    slots: Vec<u64>,
}

impl Engine {
    pub fn run_until_checked(&mut self, deadline: u64) -> u64 {
        self.dispatch_one(deadline)
    }

    fn dispatch_one(&mut self, at: u64) -> u64 {
        // HIT hot-path-panic: reachable via Engine::run_until_checked -> dispatch_one.
        let v = self.slots.first().unwrap();
        // h3cdn-lint: allow(hot-path-panic)
        let w = self.slots.last().unwrap();
        v + w + at
    }

    fn cold_probe(&self) -> u64 {
        // CLEAN: not reachable from any dispatch root.
        self.slots.iter().copied().next_back().unwrap()
    }
}
