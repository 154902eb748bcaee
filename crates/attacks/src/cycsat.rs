//! CycSAT: cycle-aware preprocessing for the SAT attack (Zhou et al.,
//! ICCAD 2017).
//!
//! Cyclic locking (Full-Lock's cyclic insertion mode, Fig 6(c)) breaks the
//! plain SAT attack: the Tseytin CNF of a cyclic netlist admits "floating"
//! assignments on the loops, so the attack can return keys that oscillate
//! in hardware. CycSAT computes, for a feedback edge set, *no-structural-
//! cycle* (NC) conditions over the key bits — a cycle is structurally open
//! when some key-controlled MUX along it selects its other leg — and
//! conjoins `¬cycle` clauses before the DIP loop.
//!
//! This implementation is CycSAT-I: path conditions are computed on the
//! graph with all feedback edges removed (the standard formulation, exact
//! for MUX-routed locking like CLNs and crossbars, where every cycle is
//! gated by key-input MUX selects).

use std::collections::{HashMap, HashSet};

use fulllock_locking::LockedCircuit;
use fulllock_netlist::{topo, GateKind, Netlist, SignalId};
use fulllock_sat::{Cnf, Lit, Var};

/// A partially-constant condition (constant folding keeps the NC formula
/// small).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cond {
    True,
    False,
    Is(Lit),
}

fn and2(cnf: &mut Cnf, a: Cond, b: Cond) -> Cond {
    match (a, b) {
        (Cond::False, _) | (_, Cond::False) => Cond::False,
        (Cond::True, x) | (x, Cond::True) => x,
        (Cond::Is(la), Cond::Is(lb)) => {
            if la == lb {
                return Cond::Is(la);
            }
            if la == !lb {
                return Cond::False;
            }
            let v = Lit::positive(cnf.new_var());
            cnf.add_clause([!v, la]);
            cnf.add_clause([!v, lb]);
            cnf.add_clause([v, !la, !lb]);
            Cond::Is(v)
        }
    }
}

fn or_list(cnf: &mut Cnf, terms: &[Cond]) -> Cond {
    if terms.contains(&Cond::True) {
        return Cond::True;
    }
    let lits: Vec<Lit> = terms
        .iter()
        .filter_map(|t| match t {
            Cond::Is(l) => Some(*l),
            _ => None,
        })
        .collect();
    match lits.len() {
        0 => Cond::False,
        1 => Cond::Is(lits[0]),
        _ => {
            let v = Lit::positive(cnf.new_var());
            for &l in &lits {
                cnf.add_clause([!l, v]);
            }
            let mut long = vec![!v];
            long.extend(lits);
            cnf.add_clause(long);
            Cond::Is(v)
        }
    }
}

/// The key-dependent condition under which the edge `fanin[slot] → gate`
/// structurally exists: a key-selected MUX leg exists only when the select
/// picks it; every other edge always exists.
fn edge_condition(
    netlist: &Netlist,
    gate: SignalId,
    slot: usize,
    key_slot_of: &HashMap<SignalId, usize>,
    key_vars: &[Var],
) -> Cond {
    let node = netlist.node(gate);
    if node.gate_kind() == Some(GateKind::Mux) {
        let select = node.fanins()[0];
        if let Some(&ks) = key_slot_of.get(&select) {
            let k = Lit::positive(key_vars[ks]);
            // MUX fan-ins are [S, A, B]: S=0 selects A (slot 1), S=1
            // selects B (slot 2).
            match slot {
                1 => return Cond::Is(!k),
                2 => return Cond::Is(k),
                _ => {}
            }
        }
    }
    Cond::True
}

/// Conjoins NC ("no structural cycle") clauses over `key_vars` for every
/// feedback edge of the locked netlist. Returns the number of feedback
/// edges constrained. Acyclic netlists get no clauses.
///
/// The SAT attack calls this for both of its key copies whenever the
/// locked netlist is cyclic.
pub fn add_no_cycle_clauses(locked: &LockedCircuit, cnf: &mut Cnf, key_vars: &[Var]) -> usize {
    let netlist = &locked.netlist;
    // Clauses follow the DFS order of the edge list, so every process
    // builds the same formula; the set only answers membership.
    let feedback_order = topo::feedback_edges(netlist);
    let feedback: HashSet<(SignalId, usize)> = feedback_order.iter().copied().collect();
    if feedback.is_empty() {
        return 0;
    }
    let key_slot_of: HashMap<SignalId, usize> = locked
        .key_inputs
        .iter()
        .enumerate()
        .map(|(slot, &sig)| (sig, slot))
        .collect();

    let order = topo::topo_order_cut(netlist, &feedback_order)
        .expect("removing the feedback edges breaks every cycle");

    for &(head, head_slot) in &feedback_order {
        let tail = netlist.node(head).fanins()[head_slot];
        // Path condition from `head` (the gate the feedback edge enters)
        // forward to `tail` (the wire that would close the loop).
        let mut reach: Vec<Option<Cond>> = vec![None; netlist.len()];
        reach[head.index()] = Some(Cond::True);
        for &j in &order {
            if j == head {
                continue;
            }
            let mut terms: Vec<Cond> = Vec::new();
            for (slot, &i) in netlist.node(j).fanins().iter().enumerate() {
                if feedback.contains(&(j, slot)) {
                    continue;
                }
                if let Some(c) = reach[i.index()] {
                    let e = edge_condition(netlist, j, slot, &key_slot_of, key_vars);
                    let t = and2(cnf, c, e);
                    if t != Cond::False {
                        terms.push(t);
                    }
                }
            }
            if !terms.is_empty() {
                reach[j.index()] = Some(or_list(cnf, &terms));
            }
        }
        let Some(path) = reach[tail.index()] else {
            continue; // tail unreachable: this feedback edge closes no loop
        };
        let closing = edge_condition(netlist, head, head_slot, &key_slot_of, key_vars);
        match and2(cnf, path, closing) {
            Cond::False => {}
            Cond::True => {
                // Structurally unavoidable cycle: no key opens it. Assert
                // falsity honestly (the formula becomes UNSAT, surfacing
                // the modelling problem rather than hiding it).
                cnf.add_clause([]);
            }
            Cond::Is(l) => cnf.add_clause([!l]),
        }
    }
    feedback.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_locking::{FullLock, FullLockConfig, LockingScheme, PlrSpec, WireSelection};
    use fulllock_netlist::random::{generate, RandomCircuitConfig};
    use fulllock_sat::cdcl::{SolveResult, Solver};

    fn cyclic_locked() -> (fulllock_netlist::Netlist, LockedCircuit) {
        let original = generate(RandomCircuitConfig {
            inputs: 12,
            outputs: 6,
            gates: 150,
            max_fanin: 3,
            seed: 31,
        })
        .unwrap();
        let config = FullLockConfig {
            plrs: vec![PlrSpec::new(8)],
            selection: WireSelection::Cyclic,
            twist_probability: 0.5,
            seed: 17,
        };
        let locked = FullLock::new(config).lock(&original).unwrap();
        (original, locked)
    }

    #[test]
    fn acyclic_netlists_get_no_clauses() {
        let original = generate(RandomCircuitConfig::default()).unwrap();
        let locked = fulllock_locking::Rll::new(4, 0).lock(&original).unwrap();
        let mut cnf = Cnf::new();
        let key_vars: Vec<Var> = (0..4).map(|_| cnf.new_var()).collect();
        assert_eq!(add_no_cycle_clauses(&locked, &mut cnf, &key_vars), 0);
        assert_eq!(cnf.num_clauses(), 0);
    }

    #[test]
    fn correct_key_satisfies_nc_clauses() {
        let (_, locked) = cyclic_locked();
        assert!(fulllock_netlist::topo::is_cyclic(&locked.netlist));
        let mut cnf = Cnf::new();
        let key_vars: Vec<Var> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
        let fb = add_no_cycle_clauses(&locked, &mut cnf, &key_vars);
        assert!(fb > 0, "cyclic insertion must produce feedback edges");
        assert!(cnf.num_clauses() > 0);
        let mut solver = Solver::from_cnf(&cnf);
        let assumptions: Vec<Lit> = key_vars
            .iter()
            .zip(locked.correct_key.bits())
            .map(|(&v, &b)| Lit::with_polarity(v, b))
            .collect();
        assert_eq!(solver.solve(&assumptions), SolveResult::Sat);
    }

    #[test]
    fn some_key_violates_nc_clauses() {
        // The NC constraints must actually exclude part of the key space
        // (otherwise they constrain nothing).
        let (_, locked) = cyclic_locked();
        let mut cnf = Cnf::new();
        let key_vars: Vec<Var> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
        add_no_cycle_clauses(&locked, &mut cnf, &key_vars);
        let mut solver = Solver::from_cnf(&cnf);
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut excluded = 0;
        for _ in 0..50 {
            let assumptions: Vec<Lit> = key_vars
                .iter()
                .map(|&v| Lit::with_polarity(v, rng.gen_bool(0.5)))
                .collect();
            if solver.solve(&assumptions) == SolveResult::Unsat {
                excluded += 1;
            }
        }
        assert!(excluded > 0, "NC clauses excluded no random key");
    }

    #[test]
    fn clause_order_is_reproducible() {
        let (_, locked) = cyclic_locked();
        let build = || {
            let mut cnf = Cnf::new();
            let key_vars: Vec<Var> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
            add_no_cycle_clauses(&locked, &mut cnf, &key_vars);
            cnf
        };
        let first = build();
        assert!(first.num_clauses() > 0);
        for _ in 0..4 {
            assert_eq!(build().clauses(), first.clauses());
        }
    }

    #[test]
    fn cond_helpers_fold_constants() {
        let mut cnf = Cnf::new();
        assert_eq!(and2(&mut cnf, Cond::True, Cond::False), Cond::False);
        assert_eq!(and2(&mut cnf, Cond::True, Cond::True), Cond::True);
        let v = Lit::positive(cnf.new_var());
        assert_eq!(and2(&mut cnf, Cond::True, Cond::Is(v)), Cond::Is(v));
        assert_eq!(and2(&mut cnf, Cond::Is(v), Cond::Is(!v)), Cond::False);
        assert_eq!(or_list(&mut cnf, &[]), Cond::False);
        assert_eq!(or_list(&mut cnf, &[Cond::True, Cond::Is(v)]), Cond::True);
        assert_eq!(or_list(&mut cnf, &[Cond::Is(v)]), Cond::Is(v));
    }
}
