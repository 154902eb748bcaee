//! Topological analysis: ordering, logic levels, cycles, and SCCs.
//!
//! Full-Lock's cyclic insertion mode deliberately creates combinational
//! cycles, so every analysis here is defined for general digraphs and the
//! DAG-only ones report [`NetlistError::Cyclic`].

use std::collections::HashSet;

use crate::{Netlist, NetlistError, Result, SignalId};

/// Computes a topological order of all signals (fan-ins before fan-outs).
///
/// # Errors
///
/// Returns [`NetlistError::Cyclic`] if the netlist has a combinational
/// cycle; the error names one signal on a cycle.
///
/// # Example
///
/// ```
/// use fulllock_netlist::{GateKind, Netlist, topo};
///
/// # fn main() -> Result<(), fulllock_netlist::NetlistError> {
/// let mut nl = Netlist::new("t");
/// let a = nl.add_input("a");
/// let g = nl.add_gate(GateKind::Not, &[a])?;
/// let order = topo::topo_order(&nl)?;
/// assert!(order.iter().position(|&s| s == a) < order.iter().position(|&s| s == g));
/// # Ok(())
/// # }
/// ```
pub fn topo_order(netlist: &Netlist) -> Result<Vec<SignalId>> {
    topo_order_cut(netlist, &[])
}

/// Computes a topological order of all signals over the fan-in edges that
/// remain once the given `(gate, fan-in slot)` edges are cut. Cutting the
/// [`feedback_edges`] of a cyclic netlist leaves a DAG, so this is the
/// walk order of every cycle-aware analysis. With nothing cut it is
/// [`topo_order`].
///
/// The order is deterministic: Kahn's algorithm with a ready stack seeded
/// in signal order, popping last-in first, and releasing fan-outs in
/// signal-then-slot order.
///
/// # Errors
///
/// Returns [`NetlistError::Cyclic`] if a cycle survives the cut; the
/// error names one signal on it.
pub fn topo_order_cut(netlist: &Netlist, cut: &[(SignalId, usize)]) -> Result<Vec<SignalId>> {
    let n = netlist.len();
    let cut: HashSet<(SignalId, usize)> = cut.iter().copied().collect();
    let is_cut = |edge: (SignalId, usize)| !cut.is_empty() && cut.contains(&edge);
    let mut indegree = vec![0usize; n];
    let mut fanouts: Vec<Vec<SignalId>> = vec![Vec::new(); n];
    for s in netlist.signals() {
        for (slot, &f) in netlist.node(s).fanins().iter().enumerate() {
            // Self-loops (deferred gates never wired) count like any edge.
            if !is_cut((s, slot)) {
                indegree[s.index()] += 1;
                fanouts[f.index()].push(s);
            }
        }
    }
    let mut ready: Vec<SignalId> = netlist
        .signals()
        .filter(|s| indegree[s.index()] == 0)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(s) = ready.pop() {
        order.push(s);
        for &t in &fanouts[s.index()] {
            indegree[t.index()] -= 1;
            if indegree[t.index()] == 0 {
                ready.push(t);
            }
        }
    }
    if order.len() != n {
        let on_cycle = netlist
            .signals()
            .find(|s| indegree[s.index()] > 0)
            .expect("missing node implies positive indegree somewhere");
        return Err(NetlistError::Cyclic {
            on_cycle: on_cycle.index() as u32,
        });
    }
    Ok(order)
}

/// Whether the netlist contains a combinational cycle.
pub fn is_cyclic(netlist: &Netlist) -> bool {
    topo_order(netlist).is_err()
}

/// Computes the logic level of every signal: inputs are level 0, a gate is
/// one more than its deepest fan-in. Indexed by [`SignalId::index`].
///
/// # Errors
///
/// Returns [`NetlistError::Cyclic`] for cyclic netlists.
pub fn levels(netlist: &Netlist) -> Result<Vec<usize>> {
    let order = topo_order(netlist)?;
    let mut level = vec![0usize; netlist.len()];
    for s in order {
        let node = netlist.node(s);
        level[s.index()] = node
            .fanins()
            .iter()
            .map(|f| level[f.index()] + 1)
            .max()
            .unwrap_or(0);
    }
    Ok(level)
}

/// The depth of the netlist: the maximum logic level over all signals.
///
/// # Errors
///
/// Returns [`NetlistError::Cyclic`] for cyclic netlists.
pub fn depth(netlist: &Netlist) -> Result<usize> {
    Ok(levels(netlist)?.into_iter().max().unwrap_or(0))
}

/// Strongly connected components, computed with Tarjan's algorithm
/// (iteratively, so deep netlists do not overflow the stack).
///
/// Components are returned in reverse topological order of the condensation
/// (a component appears before the components it feeds). Only non-trivial
/// components (size > 1, or a self-loop) represent combinational cycles.
pub fn strongly_connected_components(netlist: &Netlist) -> Vec<Vec<SignalId>> {
    let n = netlist.len();
    let fanouts = netlist.fanouts();

    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components = Vec::new();

    // Explicit DFS state: (node, next-fanout-position).
    let mut call_stack: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        call_stack.push((start, 0));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            if *pos < fanouts[v].len() {
                let w = fanouts[v][*pos].index();
                *pos += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut component = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        component.push(SignalId::new(w));
                        if w == v {
                            break;
                        }
                    }
                    components.push(component);
                }
            }
        }
    }
    components
}

/// Signals that lie on at least one combinational cycle: members of
/// non-trivial SCCs, plus self-loops.
pub fn cyclic_signals(netlist: &Netlist) -> Vec<SignalId> {
    let mut result = Vec::new();
    for comp in strongly_connected_components(netlist) {
        if comp.len() > 1 {
            result.extend(comp);
        } else {
            let s = comp[0];
            if netlist.node(s).fanins().contains(&s) {
                result.push(s);
            }
        }
    }
    result.sort_unstable();
    result
}

/// A set of (gate, fan-in slot) edges whose removal makes the netlist
/// acyclic, found by DFS back-edge collection. Not minimum, but small in
/// practice; CycSAT only needs *some* feedback set to anchor its
/// no-cycle conditions.
pub fn feedback_edges(netlist: &Netlist) -> Vec<(SignalId, usize)> {
    let n = netlist.len();
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut feedback = Vec::new();
    // Iterative DFS over fan-in edges (so the "edge" we record is the gate
    // plus the slot index of the fan-in that closes a cycle).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        color[start] = Color::Grey;
        stack.push((start, 0));
        while let Some(&mut (v, ref mut pos)) = stack.last_mut() {
            let fanins = netlist.node(SignalId::new(v)).fanins();
            if *pos < fanins.len() {
                let slot = *pos;
                let w = fanins[slot].index();
                *pos += 1;
                match color[w] {
                    Color::White => {
                        color[w] = Color::Grey;
                        stack.push((w, 0));
                    }
                    Color::Grey => feedback.push((SignalId::new(v), slot)),
                    Color::Black => {}
                }
            } else {
                color[v] = Color::Black;
                stack.pop();
            }
        }
    }
    feedback
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    fn chain(len: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut prev = nl.add_input("a");
        for _ in 0..len {
            prev = nl.add_gate(GateKind::Not, &[prev]).unwrap();
        }
        nl.mark_output(prev);
        nl
    }

    fn ring() -> Netlist {
        // a -> g1 -> g2 -> g1 (cycle between g1 and g2)
        let mut nl = Netlist::new("ring");
        let a = nl.add_input("a");
        let g1 = nl.add_deferred_gate(GateKind::And, 2).unwrap();
        let g2 = nl.add_gate(GateKind::Not, &[g1]).unwrap();
        nl.set_fanin(g1, 0, a).unwrap();
        nl.set_fanin(g1, 1, g2).unwrap();
        nl.mark_output(g2);
        nl
    }

    #[test]
    fn topo_order_respects_edges() {
        let nl = chain(5);
        let order = topo_order(&nl).unwrap();
        assert_eq!(order.len(), nl.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; nl.len()];
            for (i, s) in order.iter().enumerate() {
                p[s.index()] = i;
            }
            p
        };
        for s in nl.signals() {
            for f in nl.node(s).fanins() {
                assert!(pos[f.index()] < pos[s.index()]);
            }
        }
    }

    #[test]
    fn cycle_is_detected() {
        let nl = ring();
        assert!(is_cyclic(&nl));
        assert!(matches!(topo_order(&nl), Err(NetlistError::Cyclic { .. })));
    }

    #[test]
    fn acyclic_is_not_cyclic() {
        assert!(!is_cyclic(&chain(3)));
    }

    #[test]
    fn depth_of_chain() {
        assert_eq!(depth(&chain(7)).unwrap(), 7);
    }

    #[test]
    fn levels_of_diamond() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let l = nl.add_gate(GateKind::Not, &[a]).unwrap();
        let r = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let top = nl.add_gate(GateKind::And, &[l, r]).unwrap();
        let lv = levels(&nl).unwrap();
        assert_eq!(lv[a.index()], 0);
        assert_eq!(lv[l.index()], 1);
        assert_eq!(lv[r.index()], 1);
        assert_eq!(lv[top.index()], 2);
    }

    #[test]
    fn scc_finds_the_ring() {
        let nl = ring();
        let comps = strongly_connected_components(&nl);
        let nontrivial: Vec<_> = comps.into_iter().filter(|c| c.len() > 1).collect();
        assert_eq!(nontrivial.len(), 1);
        assert_eq!(nontrivial[0].len(), 2);
        assert_eq!(cyclic_signals(&nl).len(), 2);
    }

    #[test]
    fn scc_on_dag_is_all_singletons() {
        let nl = chain(4);
        let comps = strongly_connected_components(&nl);
        assert_eq!(comps.len(), nl.len());
        assert!(comps.iter().all(|c| c.len() == 1));
        assert!(cyclic_signals(&nl).is_empty());
    }

    #[test]
    fn feedback_edges_break_all_cycles() {
        let nl = ring();
        let fb = feedback_edges(&nl);
        assert!(!fb.is_empty());
        // Removing (redirecting to a fresh input) every feedback edge must
        // leave an acyclic netlist.
        let mut cut = nl.clone();
        let dummy = cut.add_input("dummy");
        for (gate, slot) in fb {
            cut.set_fanin(gate, slot, dummy).unwrap();
        }
        assert!(!is_cyclic(&cut));
    }

    #[test]
    fn cutting_the_feedback_edges_orders_a_cyclic_netlist() {
        let nl = ring();
        let fb = feedback_edges(&nl);
        let order = topo_order_cut(&nl, &fb).unwrap();
        assert_eq!(order.len(), nl.len());
        let mut pos = vec![0; nl.len()];
        for (i, s) in order.iter().enumerate() {
            pos[s.index()] = i;
        }
        for s in nl.signals() {
            for (slot, f) in nl.node(s).fanins().iter().enumerate() {
                if !fb.contains(&(s, slot)) {
                    assert!(pos[f.index()] < pos[s.index()]);
                }
            }
        }
        // Nothing cut is the plain order.
        let dag = chain(4);
        assert_eq!(
            topo_order_cut(&dag, &[]).unwrap(),
            topo_order(&dag).unwrap()
        );
        assert!(topo_order_cut(&nl, &[]).is_err());
    }

    #[test]
    fn self_loop_is_cyclic_signal() {
        let mut nl = Netlist::new("s");
        let g = nl.add_deferred_gate(GateKind::Not, 1).unwrap();
        assert_eq!(cyclic_signals(&nl), vec![g]);
    }
}
