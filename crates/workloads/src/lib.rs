//! # oracle-workloads — the simulated computations
//!
//! The paper deliberately chose "predictable computation\[s\], whose structure
//! is easy to grasp", so that simulation features are attributable to the
//! load-balancing scheme rather than to the workload:
//!
//! * [`dc::DivideConquer`] — `dc(M,N) ← if M = N then M else
//!   dc(M,(M+N)/2) + dc(1+(M+N)/2, N)`: a well-balanced binary tree.
//! * [`fib::Fibonacci`] — doubly-recursive naive Fibonacci: a
//!   not-so-well-balanced tree.
//!
//! Both "compute" real values through the simulated machine, which
//! end-to-end checks the whole message plumbing. This crate adds extension
//! workloads beyond the paper: strongly skewed trees
//! ([`lopsided::Lopsided`]), seeded random trees with heterogeneous grain
//! ([`random_tree::RandomTree`]), and multi-phase computations whose
//! parallelism rises and falls in cycles ([`cyclic::Cyclic`]) — the "real
//! life" shape the paper says its two workloads stand in for.

pub mod cyclic;
pub mod dc;
pub mod fib;
pub mod lopsided;
pub mod random_tree;
pub mod spec;
pub mod tak;

pub use cyclic::Cyclic;
pub use dc::DivideConquer;
pub use fib::Fibonacci;
pub use lopsided::Lopsided;
pub use random_tree::RandomTree;
pub use spec::{WorkloadSpec, WORKLOAD_GRAMMAR};
pub use tak::Tak;

/// The paper's six Fibonacci problem sizes.
pub const PAPER_FIB_SIZES: [i64; 6] = [7, 9, 11, 13, 15, 18];

/// The paper's six divide-and-conquer problem sizes (`dc(1, X)`); note they
/// are Fibonacci numbers, chosen so each dc tree has exactly as many goals
/// as the fib computation of the matching index.
pub const PAPER_DC_SIZES: [i64; 6] = [21, 55, 144, 377, 987, 4181];

#[cfg(test)]
pub(crate) mod reference {
    use oracle_model::{Continuation, Expansion, Program, TaskSpec};

    /// Walk a program's task tree sequentially (reference executor) and
    /// return `(goals, result)`.
    pub fn reference_run(p: &dyn Program) -> (u64, i64) {
        fn eval(p: &dyn Program, spec: &TaskSpec, goals: &mut u64) -> i64 {
            *goals += 1;
            match p.expand(spec) {
                Expansion::Leaf(v) => v,
                Expansion::Split(children) => {
                    let mut round = 0;
                    let mut kids = children;
                    loop {
                        let mut acc = p.combine_init(spec);
                        for c in &kids {
                            acc = p.combine(spec, acc, eval(p, c, goals));
                        }
                        match p.continue_after(spec, round, acc) {
                            Continuation::Done(v) => return v,
                            Continuation::Spawn(next) => {
                                kids = next;
                                round += 1;
                            }
                        }
                    }
                }
            }
        }
        let mut goals = 0;
        let v = eval(p, &p.root(), &mut goals);
        (goals, v)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::reference_run;
    use super::*;

    #[test]
    fn paper_sizes_correspond() {
        // dc(1, X) has 2X - 1 goals; fib(n) has 2*fib(n+1) - 1 goals, and
        // X was chosen as fib(n+1), so the pairs match exactly.
        for (fib_n, dc_x) in PAPER_FIB_SIZES.iter().zip(PAPER_DC_SIZES) {
            let (fib_goals, _) = reference_run(&Fibonacci::new(*fib_n));
            let (dc_goals, _) = reference_run(&DivideConquer::new(1, dc_x));
            assert_eq!(fib_goals, dc_goals, "fib({fib_n}) vs dc(1,{dc_x})");
        }
    }
}
