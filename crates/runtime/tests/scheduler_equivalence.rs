//! Scheduler equivalence: the four scheduling policies must produce
//! bit-identical outputs on a shared DAG.
//!
//! The contract under test is the one the GOFMM phases rely on: when every
//! cross-task data access is covered by a dependency edge and each task is
//! deterministic, the schedule (sequential topological order, level-by-level
//! barrier groups, FIFO pool, or HEFT with stealing, at any worker count)
//! must not change a single bit of the result — floating-point
//! non-associativity included, because the DAG fixes every accumulation
//! order.

use gofmm_runtime::{heap_children, DisjointCells, ReusablePlan, TraversalPolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POLICIES: [TraversalPolicy; 4] = [
    TraversalPolicy::Sequential,
    TraversalPolicy::LevelByLevel,
    TraversalPolicy::DagFifo,
    TraversalPolicy::DagHeft,
];

/// Deterministic random DAG: task `i` depends on a few earlier tasks and
/// combines their cell values in a fixed, order-sensitive chain.
fn random_dag_outputs(policy: TraversalPolicy, workers: usize, seed: u64) -> Vec<f64> {
    let n = 400;
    let mut rng = StdRng::seed_from_u64(seed);
    let dep_sets: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            if i == 0 {
                return Vec::new();
            }
            let mut d: Vec<usize> = (0..rng.gen_range(0..5usize))
                .map(|_| rng.gen_range(0..i))
                .collect();
            d.sort_unstable();
            d.dedup();
            d
        })
        .collect();

    let cells: DisjointCells<f64> = DisjointCells::from_fn(n, |_| 0.0);
    let mut plan = ReusablePlan::new();
    for (i, deps) in dep_sets.iter().enumerate() {
        let dep_keys: Vec<(&'static str, usize)> = deps.iter().map(|&j| ("t", j)).collect();
        plan.add("t", i, 1.0 + (i % 7) as f64, &dep_keys);
    }
    let stats = plan.run(policy, workers, |_, i| {
        // Order-sensitive floating-point chain over the dependency values;
        // the dep list order is fixed at build time, so the result is
        // schedule-independent iff the DAG is respected.
        let mut acc = 1.0 + i as f64 * 1e-3;
        for &j in &dep_sets[i] {
            acc = acc * 1.000_000_1 + (*cells.read(j)).sin() * 0.5;
        }
        *cells.write(i) = acc;
    });
    assert_eq!(stats.tasks_executed, n, "{policy}: not every task ran");
    cells.into_inner()
}

#[test]
fn policies_bit_identical_on_random_dags() {
    for seed in [1u64, 7, 42] {
        let reference = random_dag_outputs(TraversalPolicy::Sequential, 1, seed);
        for policy in POLICIES {
            for workers in [1usize, 3, 8] {
                let out = random_dag_outputs(policy, workers, seed);
                for (i, (a, b)) in reference.iter().zip(&out).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{policy} x{workers} seed {seed}: cell {i} differs ({a} vs {b})"
                    );
                }
            }
        }
    }
}

/// Levels of the perfect binary heap standing in for the partition tree.
const LEVELS: u32 = 6;
/// Its node count and the heap index of its first leaf.
const NODES: usize = (1 << LEVELS) - 1;
const LEAF_START: usize = (1 << (LEVELS - 1)) - 1;

/// A miniature of the GOFMM evaluation phase built through [`ReusablePlan`]:
/// an upward sweep (N2S shape), a cross-node combination over "far" nodes
/// (S2S shape), a downward sweep accumulating into children (S2N shape, with
/// the child-S2S ordering edges), and independent leaf tasks (L2L shape).
fn phase_plan_outputs(policy: TraversalPolicy, workers: usize) -> (Vec<f64>, Vec<f64>) {
    let n = NODES;
    // "Far list": nodes at the same level, cyclic neighbors.
    let far = |node: usize| -> Vec<usize> {
        let level = (node + 1).ilog2();
        let start = (1usize << level) - 1;
        let width = 1usize << level;
        (1..=2usize.min(width - 1))
            .map(|k| start + ((node - start) + k) % width)
            .collect()
    };

    let up: DisjointCells<f64> = DisjointCells::from_fn(n, |i| i as f64 * 0.01);
    let down: DisjointCells<f64> = DisjointCells::from_fn(n, |_| 0.0);
    let mut plan = ReusablePlan::new();
    plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
    for node in 0..n {
        let deps: Vec<(&'static str, usize)> = far(node).iter().map(|&s| ("UP", s)).collect();
        plan.add("CROSS", node, 2.0, &deps);
    }
    plan.add_top_down(
        "DOWN",
        n,
        |_| false,
        |_| 1.0,
        |node, deps| {
            deps.push(("CROSS", node));
            if let Some((l, r)) = heap_children(node, n) {
                deps.push(("CROSS", l));
                deps.push(("CROSS", r));
            }
        },
    );
    for leaf in LEAF_START..n {
        plan.add("LEAF", leaf, 1.0, &[("DOWN", leaf)]);
    }

    let stats = plan.run(policy, workers, |family, node| match family {
        "UP" => {
            let v = match heap_children(node, n) {
                Some((l, r)) => (*up.read(l)).mul_add(1.001, *up.read(r) * 0.999),
                None => (node as f64).sin(),
            };
            *up.write(node) += v;
        }
        "CROSS" => {
            let mut acc = 0.0;
            for &s in &far(node) {
                acc = acc * 1.000_001 + (*up.read(s)).cos();
            }
            *down.write(node) += acc;
        }
        "DOWN" => {
            let v = *down.read(node);
            if let Some((l, r)) = heap_children(node, n) {
                *down.write(l) += v * 0.25;
                *down.write(r) += v * 0.75;
            }
        }
        "LEAF" => *down.write(node) *= 1.5,
        other => panic!("unexpected family {other}"),
    });
    assert!(stats.tasks_executed > 0);
    (up.into_inner(), down.into_inner())
}

#[test]
fn phase_plan_bit_identical_across_policies() {
    let (up_ref, down_ref) = phase_plan_outputs(TraversalPolicy::Sequential, 1);
    // The reference itself must be nontrivial.
    assert!(up_ref.iter().any(|&v| v != 0.0));
    assert!(down_ref.iter().any(|&v| v != 0.0));
    for policy in POLICIES {
        for workers in [2usize, 4, 8] {
            let (up, down) = phase_plan_outputs(policy, workers);
            for (i, (a, b)) in up_ref.iter().zip(&up).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{policy} x{workers}: UP[{i}]");
            }
            for (i, (a, b)) in down_ref.iter().zip(&down).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{policy} x{workers}: DOWN[{i}]");
            }
        }
    }
}

/// A miniature of the solver's two-sweep solve on one reusable plan: an
/// upward sweep ("SUP" shape — leaf solves and skeleton reductions) followed
/// by a downward sweep ("SDOWN" shape) where every downward task depends on
/// the matching upward task (it reads the coefficients the up-sweep wrote)
/// and on its parent's downward task (which wrote its incoming coefficient).
fn solve_sweep_outputs(policy: TraversalPolicy, workers: usize) -> Vec<f64> {
    let n = NODES;
    let mut plan = gofmm_runtime::ReusablePlan::new();
    plan.add_bottom_up("SUP", n, |_| false, |_| 1.0);
    plan.add_top_down(
        "SDOWN",
        n,
        |_| false,
        |_| 1.0,
        |node, deps| deps.push(("SUP", node)),
    );

    let up: DisjointCells<f64> = DisjointCells::from_fn(n, |_| 0.0);
    let delta: DisjointCells<f64> = DisjointCells::from_fn(n, |_| 0.0);
    let stats = plan.run(policy, workers, |family, node| match family {
        "SUP" => {
            let v = match heap_children(node, n) {
                Some((l, r)) => (*up.read(l)).mul_add(0.75, *up.read(r) * 1.25),
                None => (node as f64 * 0.37).cos(),
            };
            *up.write(node) = v + 1.0;
        }
        "SDOWN" => {
            let incoming = *delta.read(node);
            let own = *up.read(node);
            if let Some((l, r)) = heap_children(node, n) {
                *delta.write(l) = incoming * 0.5 + own * 0.125;
                *delta.write(r) = incoming * 0.5 - own * 0.125;
            } else {
                // Leaves fold their coefficient back into the up cell —
                // ordered after their own SUP by the explicit edge.
                *up.write(node) = own - incoming;
            }
        }
        other => panic!("unexpected family {other}"),
    });
    assert_eq!(stats.tasks_executed, 2 * n);
    let mut out = up.into_inner();
    out.extend(delta.into_inner());
    out
}

#[test]
fn solver_shaped_up_down_plan_bit_identical_across_policies() {
    let reference = solve_sweep_outputs(TraversalPolicy::Sequential, 1);
    assert!(reference.iter().any(|&v| v != 0.0));
    for policy in POLICIES {
        for workers in [2usize, 4, 8] {
            let out = solve_sweep_outputs(policy, workers);
            for (i, (a, b)) in reference.iter().zip(&out).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{policy} x{workers}: cell {i}");
            }
        }
    }
}

#[test]
fn repeated_runs_are_stable() {
    // Guard against racy nondeterminism slipping past a single lucky run.
    let reference = random_dag_outputs(TraversalPolicy::DagHeft, 8, 5);
    for _ in 0..5 {
        let again = random_dag_outputs(TraversalPolicy::DagHeft, 8, 5);
        assert!(reference
            .iter()
            .zip(&again)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
