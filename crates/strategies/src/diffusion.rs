//! Nearest-neighbour load diffusion (extension baseline).
//!
//! A third classical family from the same era as the paper's two schemes
//! (Cybenko-style diffusive balancing): goals stay local on creation, and a
//! periodic per-PE process levels the load against each neighbour — if my
//! queue exceeds a neighbour's known load by at least `threshold`, I send
//! enough goals to split the difference (capped per cycle so one cycle
//! cannot flood a channel).
//!
//! Where the Gradient Model moves one goal per cycle toward the nearest
//! inferred idle PE, diffusion moves many goals one hop toward *any* less
//! loaded neighbour. It is agility-wise between CWN (immediate push) and GM
//! (demand-driven trickle), which makes it a useful calibration point in the
//! shootout.

use oracle_model::{Core, GoalMsg, Strategy};
use oracle_topo::PeId;
use serde::{Deserialize, Serialize};

/// Timer tag for the diffusion process's periodic wakeup.
const TIMER_CYCLE: u64 = 4;

/// Parameters of the diffusion strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffusionParams {
    /// Sleep between diffusion cycles, in time units.
    pub interval: u64,
    /// Minimum load difference before any goal moves.
    pub threshold: u32,
    /// Most goals exported per neighbour per cycle.
    pub max_per_cycle: u32,
}

impl Default for DiffusionParams {
    fn default() -> Self {
        DiffusionParams {
            interval: 20,
            threshold: 2,
            max_per_cycle: 2,
        }
    }
}

/// The diffusion strategy.
#[derive(Debug, Clone)]
pub struct Diffusion {
    params: DiffusionParams,
}

impl Diffusion {
    /// Diffusion with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `interval == 0` or `threshold < 1`.
    pub fn new(params: DiffusionParams) -> Self {
        assert!(params.interval > 0, "diffusion interval must be positive");
        assert!(params.threshold >= 1, "threshold must be at least 1");
        Diffusion { params }
    }

    fn cycle(&mut self, core: &mut Core, pe: PeId) {
        let degree = core.topology().degree(pe);
        for i in 0..degree {
            let nbr = core.topology().neighbors(pe)[i].pe;
            let own = core.queued_goal_count(pe);
            let theirs = core.known_load_of(pe, nbr);
            if own < theirs.saturating_add(self.params.threshold) {
                continue;
            }
            // Split the difference, capped.
            let surplus = (own - theirs) / 2;
            let to_move = surplus.min(self.params.max_per_cycle);
            for _ in 0..to_move {
                match core.take_newest_goal(pe) {
                    Some(goal) => core.forward_goal(pe, nbr, goal),
                    None => break,
                }
            }
        }
        core.set_timer(pe, self.params.interval, TIMER_CYCLE);
    }
}

impl Strategy for Diffusion {
    fn name(&self) -> &'static str {
        "diffusion"
    }

    fn init(&mut self, core: &mut Core) {
        for i in 0..core.num_pes() as u32 {
            let delay = 1 + core.rng(PeId(i)).below(self.params.interval);
            core.set_timer(PeId(i), delay, TIMER_CYCLE);
        }
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        core.accept_goal(pe, goal);
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        core.accept_goal(pe, goal);
    }

    fn on_timer(&mut self, core: &mut Core, pe: PeId, tag: u64) {
        if tag == TIMER_CYCLE {
            self.cycle(core, pe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_fib;
    use oracle_model::MachineConfig;
    use oracle_topo::mesh::mesh2d;

    #[test]
    fn spreads_work_and_completes() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(Diffusion::new(DiffusionParams::default())),
            14,
            MachineConfig::default(),
        );
        let active = r.per_pe_utilization.iter().filter(|&&u| u > 0.05).count();
        assert!(active >= 10, "diffusion reached only {active}/16 PEs");
    }

    #[test]
    fn beats_keep_local() {
        let diff = run_fib(
            mesh2d(4, 4, false),
            Box::new(Diffusion::new(DiffusionParams::default())),
            13,
            MachineConfig::default(),
        );
        let local = run_fib(
            mesh2d(4, 4, false),
            Box::new(crate::KeepLocal),
            13,
            MachineConfig::default(),
        );
        assert!(
            diff.speedup > 2.0 * local.speedup,
            "diffusion {} should dominate keep-local {}",
            diff.speedup,
            local.speedup
        );
    }

    #[test]
    fn goals_move_hop_by_hop() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(Diffusion::new(DiffusionParams::default())),
            12,
            MachineConfig::default(),
        );
        // Many goals stay where created; movers go one hop per cycle.
        assert!(r.hop_histogram[0] > 0);
        assert!(r.avg_goal_distance < 3.0);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_fib(
                mesh2d(4, 4, false),
                Box::new(Diffusion::new(DiffusionParams::default())),
                12,
                MachineConfig::default().with_seed(6),
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.traffic, b.traffic);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_panics() {
        Diffusion::new(DiffusionParams {
            interval: 0,
            ..DiffusionParams::default()
        });
    }
}
