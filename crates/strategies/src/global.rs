//! Uniform global-random placement — the scheme CWN was designed to avoid.
//!
//! The paper's §2.1 opens with the scalability argument: "global
//! communication — allowing communication between arbitrary pairs of PEs —
//! is not scalable. In a system with global communication, as the number of
//! PEs is increased, a point is reached beyond which the system is always
//! communication bound." This strategy realizes exactly that regime: every
//! new goal is sent to a uniformly random PE anywhere in the machine,
//! routed hop-by-hop over the contended channels. On small machines it
//! balances beautifully; as the machine (and therefore the mean route
//! length) grows, communication swamps it — the `global_scalability`
//! ablation plots the crossover against CWN.

use oracle_des::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use oracle_des::FastHashMap;
use oracle_model::{Core, GoalId, GoalMsg, Strategy};
use oracle_topo::PeId;

use crate::util::check_pes;

/// Send every goal to a uniformly random PE (global communication).
#[derive(Debug, Clone, Default)]
pub struct GlobalRandom {
    /// Final destination (PE index) of each goal currently in flight.
    in_flight: FastHashMap<GoalId, u32>,
}

impl GlobalRandom {
    /// A fresh global-random placer.
    pub fn new() -> Self {
        Self::default()
    }

    fn route_toward(&mut self, core: &mut Core, pe: PeId, dest: PeId, goal: GoalMsg) {
        if dest == pe {
            self.in_flight.remove(&goal.id);
            core.accept_goal(pe, goal);
            return;
        }
        let hop = core.topology().next_hop(pe, dest);
        core.forward_goal(pe, hop, goal);
    }
}

impl Strategy for GlobalRandom {
    fn name(&self) -> &'static str {
        "global-random"
    }

    fn needs_load_broadcast(&self) -> bool {
        false
    }

    fn on_goal_created(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        let n = core.num_pes() as u64;
        let dest = PeId(core.rng(pe).below(n) as u32);
        self.in_flight.insert(goal.id, dest.0);
        self.route_toward(core, pe, dest, goal);
    }

    fn on_goal_message(&mut self, core: &mut Core, pe: PeId, goal: GoalMsg) {
        match self.in_flight.get(&goal.id).map(|&dest| PeId(dest)) {
            Some(dest) => self.route_toward(core, pe, dest, goal),
            // Directed transfers (or lost state) are accepted in place.
            None => core.accept_goal(pe, goal),
        }
    }

    fn snapshot_state(&self, w: &mut SnapWriter) {
        self.in_flight.put(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader, core: &Core) -> Result<(), SnapError> {
        let in_flight: FastHashMap<GoalId, u32> = Snap::get(r)?;
        check_pes(in_flight.values().map(|&pe| PeId(pe)), core, self.name())?;
        self.in_flight = in_flight;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::run_fib;
    use oracle_model::MachineConfig;
    use oracle_topo::{mesh::mesh2d, misc::complete};

    #[test]
    fn balances_well_on_small_machines() {
        let r = run_fib(
            mesh2d(3, 3, false),
            Box::new(GlobalRandom::new()),
            14,
            MachineConfig::default(),
        );
        // Uniform placement: every PE sees close-to-average work.
        assert!(
            r.imbalance_cv < 0.3,
            "global random should be nearly even, cv = {}",
            r.imbalance_cv
        );
        let active = r.per_pe_utilization.iter().filter(|&&u| u > 0.05).count();
        assert_eq!(active, 9);
    }

    #[test]
    fn goal_distance_tracks_mean_path_length() {
        let r = run_fib(
            mesh2d(4, 4, false),
            Box::new(GlobalRandom::new()),
            13,
            MachineConfig::default(),
        );
        let mean = mesh2d(4, 4, false).mean_distance();
        // 1/16 of goals stay local (dest == source), the rest travel the
        // topology's typical distance.
        assert!(
            (r.avg_goal_distance - mean).abs() < 1.0,
            "avg distance {} vs mean path {mean}",
            r.avg_goal_distance
        );
    }

    #[test]
    fn on_complete_graph_it_is_one_hop_scatter() {
        let r = run_fib(
            complete(6),
            Box::new(GlobalRandom::new()),
            12,
            MachineConfig::default(),
        );
        assert!(r.avg_goal_distance <= 1.0);
        assert_eq!(r.result, 144);
    }

    #[test]
    fn deterministic() {
        let mk = || {
            run_fib(
                mesh2d(4, 4, false),
                Box::new(GlobalRandom::new()),
                12,
                MachineConfig::default().with_seed(13),
            )
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.completion_time, b.completion_time);
        assert_eq!(a.hop_histogram, b.hop_histogram);
    }
}
