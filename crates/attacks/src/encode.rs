//! CNF encoding of locked circuits with separated data/key variables.
//!
//! Two encoders live here:
//!
//! * [`encode_locked`] — the generic Tseytin encoding (one variable per
//!   signal, Table 1 clauses per gate): the reference implementation the
//!   property tests compare against, and the full-copy observation
//!   encoding of the `cone_reduce: false` baseline;
//! * [`CircuitEncoder`] — the cone-reduced, structure-aware encoder the
//!   DIP loop uses on every netlist. It constant-propagates known
//!   inputs, aliases single-input gates to (possibly negated) existing
//!   literals instead of allocating variables, and (under
//!   [`EncodeStyle::Structured`]) flattens single-fanout MUX trees into
//!   per-leaf path clauses and links CLN switch-box swap pairs. Signals
//!   outside the key-dependent fanin cone of an observed I/O pair fold to
//!   constants and contribute **zero** clauses — collapsing per-iteration
//!   formula growth from two full circuit copies to the key cone.
//!
//! Cyclic netlists (Full-Lock's cyclic insertion mode) are walked in the
//! order left by cutting their [`feedback_edges`](topo::feedback_edges).
//! A fan-in read through a cut edge sees a fresh placeholder literal for
//! the edge's tail, and after the walk each placeholder is tied back to
//! its tail's value. The result is the full Tseytin copy with signals
//! substituted, so for every key it is satisfiable exactly when
//! [`encode_locked`]'s copy is; CycSAT's no-cycle clauses are added
//! separately, over the key variables only.

use fulllock_locking::LockedCircuit;
use fulllock_netlist::{topo, GateKind, SignalId};
use fulllock_sat::{tseytin, Cnf, Lit, Var};

/// One encoded copy of a locked circuit inside a shared CNF.
#[derive(Debug, Clone)]
pub struct LockedEncoding {
    /// Variable of every signal, indexed by
    /// [`SignalId::index`](fulllock_netlist::SignalId::index).
    pub signal_vars: Vec<Var>,
    /// Variables of the primary outputs, in output order.
    pub output_vars: Vec<Var>,
}

/// What a primary-input slot of the locked netlist is bound to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InputRole {
    /// Data input: slot index into [`LockedCircuit::data_inputs`].
    Data(usize),
    /// Key input: slot index into [`LockedCircuit::key_inputs`].
    Key(usize),
    /// Neither (never produced by our schemes): left unconstrained.
    Free,
}

/// Precomputed netlist-input-slot → data/key-slot map.
///
/// [`encode_locked`] used to rediscover each input's role with a linear
/// `position()` scan per input (quadratic in the interface width); this
/// map is built once in O(n) and shared by every encoding of the same
/// circuit.
#[derive(Debug, Clone)]
pub struct InterfaceMap {
    roles: Vec<InputRole>,
}

impl InterfaceMap {
    /// Builds the role map for `locked` in one pass.
    pub fn new(locked: &LockedCircuit) -> InterfaceMap {
        let mut by_signal = vec![InputRole::Free; locked.netlist.len()];
        for (slot, &sig) in locked.data_inputs.iter().enumerate() {
            by_signal[sig.index()] = InputRole::Data(slot);
        }
        for (slot, &sig) in locked.key_inputs.iter().enumerate() {
            by_signal[sig.index()] = InputRole::Key(slot);
        }
        InterfaceMap {
            roles: locked
                .netlist
                .inputs()
                .iter()
                .map(|sig| by_signal[sig.index()])
                .collect(),
        }
    }
}

/// Encodes `locked` into `cnf`, driving its data inputs from `data_vars`
/// (one per [`LockedCircuit::data_inputs`] slot) and its key inputs from
/// `key_vars` (one per key slot). Gate outputs get fresh variables.
///
/// Encoding two copies with shared `data_vars` and distinct `key_vars` is
/// the miter construction of the SAT attack; encoding one copy and fixing
/// `data_vars` with unit clauses expresses an observed I/O constraint
/// (the [`CircuitEncoder`] does the latter far more cheaply on acyclic
/// netlists).
///
/// # Panics
///
/// Panics if the variable slices do not match the circuit's interface.
pub fn encode_locked(
    locked: &LockedCircuit,
    cnf: &mut Cnf,
    data_vars: &[Var],
    key_vars: &[Var],
) -> LockedEncoding {
    assert_eq!(
        data_vars.len(),
        locked.data_inputs.len(),
        "one var per data input"
    );
    assert_eq!(
        key_vars.len(),
        locked.key_inputs.len(),
        "one var per key input"
    );
    let imap = InterfaceMap::new(locked);
    // Assemble the netlist-input-order variable vector via the slot map.
    let input_vars: Vec<Var> = imap
        .roles
        .iter()
        .map(|role| match role {
            InputRole::Data(slot) => data_vars[*slot],
            InputRole::Key(slot) => key_vars[*slot],
            InputRole::Free => cnf.new_var(),
        })
        .collect();
    let signal_vars = tseytin::encode_into(&locked.netlist, cnf, &input_vars);
    let output_vars = locked
        .netlist
        .outputs()
        .iter()
        .map(|o| signal_vars[o.index()])
        .collect();
    LockedEncoding {
        signal_vars,
        output_vars,
    }
}

/// Which clause shapes the [`CircuitEncoder`] emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodeStyle {
    /// Per-gate Table 1 clauses (still with constant folding and literal
    /// aliasing — those are what make cone reduction work).
    Generic,
    /// Additionally flatten single-fanout MUX trees (LUT select trees,
    /// routing chains) into per-leaf path clauses without auxiliary
    /// variables, emit redundant agreement clauses on MUX leaves, and
    /// link CLN switch-box swap pairs (`s1 ⊕ s2 → o1 = o2`).
    #[default]
    Structured,
}

/// The value a signal takes inside one encoding: a known constant (the
/// signal is outside the key cone of the fixed inputs) or a CNF literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigVal {
    /// The signal is constant under the given input bindings.
    Const(bool),
    /// The signal equals this (possibly negated, possibly shared) literal.
    L(Lit),
}

impl SigVal {
    fn negate(self) -> SigVal {
        match self {
            SigVal::Const(c) => SigVal::Const(!c),
            SigVal::L(l) => SigVal::L(!l),
        }
    }
}

/// What drives each data-input slot of one encoded copy.
#[derive(Debug, Clone, Copy)]
pub enum DataBinding {
    /// A shared CNF variable (miter copies share their `X` variables).
    Var(Var),
    /// A known constant (observed-DIP assertions fix the inputs).
    Const(bool),
}

/// MUX trees deeper than this are split (2^6 = 64 leaves per flattened
/// tree), bounding path-clause width.
const MAX_TREE_DEPTH: usize = 6;
/// Redundant all-leaves-agree clauses are emitted for flattened trees
/// with at most this many leaves.
const MAX_REDUNDANT_LEAVES: usize = 8;

/// The cone-reduced, structure-aware encoder (see the module docs).
/// Built once per attack — the (cut) topological order, fanout census,
/// interface map, deferral flags, and swap-pair table are all
/// input-independent — then replayed cheaply for every miter copy and
/// observed I/O pair.
#[derive(Debug)]
pub struct CircuitEncoder<'a> {
    locked: &'a LockedCircuit,
    imap: InterfaceMap,
    /// Gates in topological order once the feedback edges are cut.
    order: Vec<SignalId>,
    /// Cut feedback edges `(gate, fan-in slot)`, sorted, each with the
    /// index of its tail in `cut_tails`. Empty for acyclic netlists.
    cut: Vec<((SignalId, usize), usize)>,
    /// The distinct tails of the cut edges. Tail `i`'s placeholder lives
    /// at index `netlist.len() + i` of a walk's value table.
    cut_tails: Vec<SignalId>,
    style: EncodeStyle,
    /// Per signal: this MUX's clauses are deferred and flattened into its
    /// unique consuming MUX tree (only honored under `Structured`).
    defer: Vec<bool>,
    /// CLN switch-box swap pairs `(m1, m2)` with `m1 = Mux(s1, a, b)` and
    /// `m2 = Mux(s2, b, a)`.
    swap_pairs: Vec<(SignalId, SignalId)>,
}

impl<'a> CircuitEncoder<'a> {
    /// Analyses `locked` for encoding, cutting the feedback edges of a
    /// cyclic netlist (see the module docs). Returns `None` only if the
    /// cut leaves a cycle, which [`topo::feedback_edges`] rules out.
    pub fn new(locked: &'a LockedCircuit, style: EncodeStyle) -> Option<CircuitEncoder<'a>> {
        let netlist = &locked.netlist;
        let feedback = topo::feedback_edges(netlist);
        let order: Vec<SignalId> = topo::topo_order_cut(netlist, &feedback)
            .ok()?
            .into_iter()
            .filter(|&s| netlist.node(s).gate_kind().is_some())
            .collect();
        let n = netlist.len();
        let mut cut_tails: Vec<SignalId> = Vec::new();
        let mut cut: Vec<((SignalId, usize), usize)> = feedback
            .into_iter()
            .map(|(gate, slot)| {
                let tail = netlist.node(gate).fanins()[slot];
                let i = cut_tails
                    .iter()
                    .position(|&t| t == tail)
                    .unwrap_or_else(|| {
                        cut_tails.push(tail);
                        cut_tails.len() - 1
                    });
                ((gate, slot), i)
            })
            .collect();
        cut.sort_unstable();
        let mut is_tail = vec![false; n];
        for t in &cut_tails {
            is_tail[t.index()] = true;
        }
        // Fanout census with unique-consumer tracking.
        let mut fanout = vec![0u32; n];
        let mut consumer: Vec<Option<(SignalId, usize)>> = vec![None; n];
        for &g in &order {
            for (pos, &f) in netlist.node(g).fanins().iter().enumerate() {
                fanout[f.index()] += 1;
                consumer[f.index()] = Some((g, pos));
            }
        }
        for &o in netlist.outputs() {
            fanout[o.index()] += 1;
        }
        // Swap-pair detection: two MUXes over the same data wires in
        // swapped order. Greedy 1:1 matching on (lo, hi, orientation).
        let mut swap_pairs = Vec::new();
        let mut in_pair = vec![false; n];
        let mut open: std::collections::HashMap<(usize, usize), [Vec<SignalId>; 2]> =
            std::collections::HashMap::new();
        for &g in &order {
            let node = netlist.node(g);
            if node.gate_kind() != Some(GateKind::Mux) {
                continue;
            }
            let (a, b) = (node.fanins()[1], node.fanins()[2]);
            if a == b {
                continue;
            }
            let lo = a.index().min(b.index());
            let hi = a.index().max(b.index());
            let orient = usize::from(a.index() > b.index());
            let slots = open.entry((lo, hi)).or_default();
            if let Some(partner) = slots[1 - orient].pop() {
                swap_pairs.push((partner, g));
                in_pair[partner.index()] = true;
                in_pair[g.index()] = true;
            } else {
                slots[orient].push(g);
            }
        }
        // Deferral: a MUX consumed exactly once, as the data input of
        // another MUX, melts into that consumer's flattened tree. Swap-pair
        // members stay materialized so their linking clauses apply, and cut
        // tails so their placeholders can be tied back.
        let mut defer = vec![false; n];
        for &g in &order {
            let node = netlist.node(g);
            if node.gate_kind() != Some(GateKind::Mux)
                || fanout[g.index()] != 1
                || in_pair[g.index()]
                || is_tail[g.index()]
            {
                continue;
            }
            if let Some((t, pos)) = consumer[g.index()] {
                if netlist.node(t).gate_kind() == Some(GateKind::Mux) && (pos == 1 || pos == 2) {
                    defer[g.index()] = true;
                }
            }
        }
        Some(CircuitEncoder {
            locked,
            imap: InterfaceMap::new(locked),
            order,
            cut,
            cut_tails,
            style,
            defer,
            swap_pairs,
        })
    }

    /// Encodes one circuit copy with symbolic data inputs (a miter half).
    /// Returns the per-output [`SigVal`]s; a key-independent output folds
    /// to the shared input literal (or a constant) and its miter XOR
    /// vanishes.
    ///
    /// # Panics
    ///
    /// Panics if the variable slices do not match the circuit interface.
    pub fn encode_copy(&self, cnf: &mut Cnf, x_vars: &[Var], key_vars: &[Var]) -> Vec<SigVal> {
        let data: Vec<DataBinding> = x_vars.iter().map(|&v| DataBinding::Var(v)).collect();
        let vals = self.run(cnf, &data, key_vars);
        self.outputs(&vals)
    }

    /// Encodes one observed I/O pair for one key copy: the known `inputs`
    /// are constant-propagated, only the key-dependent fanin cone emits
    /// clauses, and the observed `outputs` become unit clauses (or an
    /// immediate contradiction if a key-independent output disagrees with
    /// the observation).
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match the circuit interface.
    pub fn encode_observation(
        &self,
        cnf: &mut Cnf,
        inputs: &[bool],
        outputs: &[bool],
        key_vars: &[Var],
    ) {
        let data: Vec<DataBinding> = inputs.iter().map(|&b| DataBinding::Const(b)).collect();
        let vals = self.run(cnf, &data, key_vars);
        for (slot, val) in self.outputs(&vals).into_iter().enumerate() {
            match val {
                SigVal::Const(c) => {
                    if c != outputs[slot] {
                        // A key-independent output contradicting the
                        // observation: no key is consistent.
                        cnf.add_clause(std::iter::empty());
                    }
                }
                SigVal::L(l) => {
                    cnf.add_clause([if outputs[slot] { l } else { !l }]);
                }
            }
        }
    }

    fn outputs(&self, vals: &[Option<SigVal>]) -> Vec<SigVal> {
        self.locked
            .netlist
            .outputs()
            .iter()
            .map(|o| vals[o.index()].expect("outputs are never deferred"))
            .collect()
    }

    /// Where the fan-in `slot` of gate `g` is read from in a walk's value
    /// table: the fan-in signal itself, or the placeholder of its tail
    /// when the edge is cut.
    fn source(&self, g: SignalId, slot: usize) -> usize {
        if !self.cut.is_empty() {
            if let Ok(i) = self.cut.binary_search_by_key(&(g, slot), |&(edge, _)| edge) {
                return self.locked.netlist.len() + self.cut[i].1;
            }
        }
        self.locked.netlist.node(g).fanins()[slot].index()
    }

    /// The shared forward pass: bind inputs and placeholders, walk gates
    /// in the cut order, tie each placeholder to its tail, then link swap
    /// pairs. The returned table holds the signals, then the placeholders.
    fn run(&self, cnf: &mut Cnf, data: &[DataBinding], key_vars: &[Var]) -> Vec<Option<SigVal>> {
        assert_eq!(data.len(), self.locked.data_inputs.len(), "data width");
        assert_eq!(key_vars.len(), self.locked.key_inputs.len(), "key width");
        let netlist = &self.locked.netlist;
        let n = netlist.len();
        let mut vals: Vec<Option<SigVal>> = vec![None; n + self.cut_tails.len()];
        for (&sig, role) in netlist.inputs().iter().zip(&self.imap.roles) {
            vals[sig.index()] = Some(match role {
                InputRole::Data(slot) => match data[*slot] {
                    DataBinding::Var(v) => SigVal::L(Lit::positive(v)),
                    DataBinding::Const(c) => SigVal::Const(c),
                },
                InputRole::Key(slot) => SigVal::L(Lit::positive(key_vars[*slot])),
                InputRole::Free => SigVal::L(Lit::positive(cnf.new_var())),
            });
        }
        let placeholders: Vec<Lit> = self
            .cut_tails
            .iter()
            .map(|_| Lit::positive(cnf.new_var()))
            .collect();
        for (val, &p) in vals[n..].iter_mut().zip(&placeholders) {
            *val = Some(SigVal::L(p));
        }
        let structured = self.style == EncodeStyle::Structured;
        for &g in &self.order {
            if vals[g.index()].is_some() || (structured && self.defer[g.index()]) {
                continue;
            }
            let val = self.emit_gate(g, cnf, &mut vals);
            vals[g.index()] = Some(val);
        }
        for (tail, &p) in self.cut_tails.iter().zip(&placeholders) {
            match vals[tail.index()].expect("cut tails are never deferred") {
                SigVal::Const(c) => tseytin::assert_lit(cnf, if c { p } else { !p }),
                SigVal::L(l) if l == p => {}
                SigVal::L(l) => tseytin::assert_equal(cnf, p, l),
            }
        }
        if structured {
            for &(m1, m2) in &self.swap_pairs {
                self.link_swap_pair(cnf, netlist, &vals, m1, m2);
            }
        }
        vals
    }

    /// `s1 ⊕ s2 → o1 = o2` for a materialized swap pair (skipped when any
    /// of the four signals folded to a constant — the link is then either
    /// vacuous or subsumed by cheaper unit reasoning).
    fn link_swap_pair(
        &self,
        cnf: &mut Cnf,
        netlist: &fulllock_netlist::Netlist,
        vals: &[Option<SigVal>],
        m1: SignalId,
        m2: SignalId,
    ) {
        let lit = |sig: SignalId| match vals[sig.index()] {
            Some(SigVal::L(l)) => Some(l),
            _ => None,
        };
        let (Some(s1), Some(o1)) = (lit(netlist.node(m1).fanins()[0]), lit(m1)) else {
            return;
        };
        let (Some(s2), Some(o2)) = (lit(netlist.node(m2).fanins()[0]), lit(m2)) else {
            return;
        };
        tseytin::encode_swap_link(cnf, s1, o1, s2, o2);
    }

    fn emit_gate(&self, g: SignalId, cnf: &mut Cnf, vals: &mut Vec<Option<SigVal>>) -> SigVal {
        let node = self.locked.netlist.node(g);
        let kind = node.gate_kind().expect("order holds only gates");
        if kind == GateKind::Mux {
            return self.emit_mux_root(g, cnf, vals);
        }
        let ins: Vec<SigVal> = (0..node.fanins().len())
            .map(|slot| vals[self.source(g, slot)].expect("non-MUX fanins are never deferred"))
            .collect();
        match kind {
            GateKind::Const0 => SigVal::Const(false),
            GateKind::Const1 => SigVal::Const(true),
            GateKind::Buf => ins[0],
            GateKind::Not => ins[0].negate(),
            GateKind::And => and_val(cnf, &ins, false),
            GateKind::Nand => and_val(cnf, &ins, true),
            GateKind::Or => or_val(cnf, &ins, false),
            GateKind::Nor => or_val(cnf, &ins, true),
            GateKind::Xor => xor_val(cnf, &ins, false),
            GateKind::Xnor => xor_val(cnf, &ins, true),
            GateKind::Mux => unreachable!("handled above"),
        }
    }

    /// Encodes a MUX that is not melted into a larger tree: collect its
    /// (possibly flattened) leaves, fold trivial shapes to aliases, else
    /// allocate an output variable and emit per-leaf path clauses.
    fn emit_mux_root(&self, g: SignalId, cnf: &mut Cnf, vals: &mut Vec<Option<SigVal>>) -> SigVal {
        let mut leaves: Vec<(Vec<Lit>, SigVal)> = Vec::new();
        let mut path = Vec::new();
        self.collect_leaves(g, cnf, vals, &mut path, &mut leaves);
        debug_assert!(!leaves.is_empty());
        // Every leaf agrees (includes the const-select single-leaf case):
        // the output IS that value, no variable and no clauses needed.
        if leaves.iter().all(|(_, v)| *v == leaves[0].1) {
            return leaves[0].1;
        }
        let o = Lit::positive(cnf.new_var());
        for (path, leaf) in &leaves {
            match leaf {
                SigVal::Const(true) => {
                    let mut up: Vec<Lit> = path.iter().map(|&l| !l).collect();
                    up.push(o);
                    cnf.add_clause(up);
                }
                SigVal::Const(false) => {
                    let mut down: Vec<Lit> = path.iter().map(|&l| !l).collect();
                    down.push(!o);
                    cnf.add_clause(down);
                }
                SigVal::L(l) => tseytin::encode_mux_path(cnf, o, path, *l),
            }
        }
        if self.style == EncodeStyle::Structured && leaves.len() <= MAX_REDUNDANT_LEAVES {
            let lits: Vec<Lit> = leaves
                .iter()
                .filter_map(|(_, v)| match v {
                    SigVal::L(l) => Some(*l),
                    SigVal::Const(_) => None,
                })
                .collect();
            if lits.len() == leaves.len() {
                // All leaves agree → output agrees (any select value).
                let mut up: Vec<Lit> = lits.iter().map(|&l| !l).collect();
                up.push(o);
                cnf.add_clause(up);
                let mut down = lits;
                down.push(!o);
                cnf.add_clause(down);
            }
        }
        SigVal::L(o)
    }

    /// Walks the (deferred-child) MUX tree under `g`, pruning branches
    /// with constant selects and recording `(path condition, leaf)` pairs.
    fn collect_leaves(
        &self,
        g: SignalId,
        cnf: &mut Cnf,
        vals: &mut Vec<Option<SigVal>>,
        path: &mut Vec<Lit>,
        leaves: &mut Vec<(Vec<Lit>, SigVal)>,
    ) {
        let select = vals[self.source(g, 0)].expect("selects are never deferred");
        match select {
            // S = 1 selects B (Table 1's C = A·S̄ + B·S).
            SigVal::Const(c) => {
                self.descend(g, if c { 2 } else { 1 }, cnf, vals, path, leaves);
            }
            SigVal::L(ls) => {
                path.push(!ls);
                self.descend(g, 1, cnf, vals, path, leaves);
                path.pop();
                path.push(ls);
                self.descend(g, 2, cnf, vals, path, leaves);
                path.pop();
            }
        }
    }

    /// Follows data fan-in `slot` of the tree MUX `g`: flattens a deferred
    /// child into the tree, else records the child's value as a leaf.
    fn descend(
        &self,
        g: SignalId,
        slot: usize,
        cnf: &mut Cnf,
        vals: &mut Vec<Option<SigVal>>,
        path: &mut Vec<Lit>,
        leaves: &mut Vec<(Vec<Lit>, SigVal)>,
    ) {
        let src = self.source(g, slot);
        let child = self.locked.netlist.node(g).fanins()[slot];
        if vals[src].is_none() && path.len() < MAX_TREE_DEPTH {
            // A deferred MUX with room left in the tree: keep flattening.
            self.collect_leaves(child, cnf, vals, path, leaves);
            return;
        }
        let val = match vals[src] {
            Some(v) => v,
            None => {
                // Deferred but the tree is full: materialize the child as
                // its own (sub-)root.
                let v = self.emit_mux_root(child, cnf, vals);
                vals[src] = Some(v);
                v
            }
        };
        leaves.push((path.clone(), val));
    }
}

/// `out ↔ ∧ ins` (negated for NAND) with constant folding and aliasing.
fn and_val(cnf: &mut Cnf, ins: &[SigVal], negate: bool) -> SigVal {
    let mut lits: Vec<Lit> = Vec::with_capacity(ins.len());
    for v in ins {
        match v {
            SigVal::Const(false) => return SigVal::Const(negate),
            SigVal::Const(true) => {}
            SigVal::L(l) => {
                if lits.contains(&!*l) {
                    return SigVal::Const(negate);
                }
                if !lits.contains(l) {
                    lits.push(*l);
                }
            }
        }
    }
    match lits.len() {
        0 => SigVal::Const(!negate),
        1 => SigVal::L(if negate { !lits[0] } else { lits[0] }),
        _ => {
            let o = Lit::with_polarity(cnf.new_var(), !negate);
            tseytin::encode_and_lits(cnf, o, &lits);
            SigVal::L(Lit::positive(o.var()))
        }
    }
}

/// `out ↔ ∨ ins` (negated for NOR) with constant folding and aliasing.
fn or_val(cnf: &mut Cnf, ins: &[SigVal], negate: bool) -> SigVal {
    let mut lits: Vec<Lit> = Vec::with_capacity(ins.len());
    for v in ins {
        match v {
            SigVal::Const(true) => return SigVal::Const(!negate),
            SigVal::Const(false) => {}
            SigVal::L(l) => {
                if lits.contains(&!*l) {
                    return SigVal::Const(!negate);
                }
                if !lits.contains(l) {
                    lits.push(*l);
                }
            }
        }
    }
    match lits.len() {
        0 => SigVal::Const(negate),
        1 => SigVal::L(if negate { !lits[0] } else { lits[0] }),
        _ => {
            let o = Lit::with_polarity(cnf.new_var(), !negate);
            tseytin::encode_or_lits(cnf, o, &lits);
            SigVal::L(Lit::positive(o.var()))
        }
    }
}

/// `out ↔ ⊕ ins` (inverted for XNOR): constants fold into the parity,
/// equal/opposite literal pairs cancel, the rest chain through auxiliary
/// variables exactly like the generic encoder.
fn xor_val(cnf: &mut Cnf, ins: &[SigVal], invert: bool) -> SigVal {
    let mut parity = invert;
    let mut acc: Option<Lit> = None;
    for v in ins {
        let l = match v {
            SigVal::Const(c) => {
                parity ^= c;
                continue;
            }
            SigVal::L(l) => *l,
        };
        acc = match acc {
            None => Some(l),
            Some(a) if a == l => None,
            Some(a) if a == !l => {
                parity = !parity;
                None
            }
            Some(a) => {
                let x = Lit::positive(cnf.new_var());
                tseytin::encode_xor2_lits(cnf, x, a, l);
                Some(x)
            }
        };
    }
    match acc {
        None => SigVal::Const(parity),
        Some(a) => SigVal::L(if parity { !a } else { a }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fulllock_locking::{LockingScheme, LutLock, Rll};
    use fulllock_sat::cdcl::{SolveResult, Solver};

    #[test]
    fn encoding_respects_interface_split() {
        let host = fulllock_netlist::benchmarks::load("c17").unwrap();
        let locked = Rll::new(3, 0).lock(&host).unwrap();
        let mut cnf = Cnf::new();
        let data: Vec<Var> = (0..5).map(|_| cnf.new_var()).collect();
        let keys: Vec<Var> = (0..3).map(|_| cnf.new_var()).collect();
        let enc = encode_locked(&locked, &mut cnf, &data, &keys);
        assert_eq!(enc.output_vars.len(), 2);
        // Correct key + an input pattern must be a satisfying scenario:
        // check via the model against direct evaluation.
        let x = [true, false, true, true, false];
        let y = locked.eval(&x, &locked.correct_key).unwrap();
        let mut solver = Solver::from_cnf(&cnf);
        let mut assumptions: Vec<Lit> = Vec::new();
        for (i, &v) in data.iter().enumerate() {
            assumptions.push(Lit::with_polarity(v, x[i]));
        }
        for (i, &v) in keys.iter().enumerate() {
            assumptions.push(Lit::with_polarity(v, locked.correct_key.bits()[i]));
        }
        for (o, &v) in enc.output_vars.iter().enumerate() {
            assumptions.push(Lit::with_polarity(v, y[o]));
        }
        assert_eq!(solver.solve(&assumptions), SolveResult::Sat);
        // Flipping an output expectation must be UNSAT.
        let last = assumptions.len() - 1;
        assumptions[last] = !assumptions[last];
        assert_eq!(solver.solve(&assumptions), SolveResult::Unsat);
    }

    /// The cone-reduced observation encoding must admit exactly the keys
    /// whose evaluation reproduces the observation.
    #[test]
    fn observation_cone_accepts_exactly_consistent_keys() {
        let host = fulllock_netlist::benchmarks::load("c17").unwrap();
        for style in [EncodeStyle::Generic, EncodeStyle::Structured] {
            let locked = LutLock::new(2, 7).lock(&host).unwrap();
            let encoder = CircuitEncoder::new(&locked, style).unwrap();
            let x = [true, false, false, true, true];
            let y = locked.eval(&x, &locked.correct_key).unwrap();
            let mut cnf = Cnf::new();
            let key_vars: Vec<Var> = locked.key_inputs.iter().map(|_| cnf.new_var()).collect();
            encoder.encode_observation(&mut cnf, &x, &y, &key_vars);
            let mut solver = Solver::from_cnf(&cnf);
            // Every possible key: SAT iff eval matches the observation.
            for bits in 0..1u32 << key_vars.len() {
                let key: Vec<bool> = (0..key_vars.len()).map(|i| bits >> i & 1 == 1).collect();
                let assumptions: Vec<Lit> = key_vars
                    .iter()
                    .zip(&key)
                    .map(|(&v, &b)| Lit::with_polarity(v, b))
                    .collect();
                let consistent = locked
                    .eval(&x, &fulllock_locking::Key::from_bits(key.clone()))
                    .unwrap()
                    == y;
                assert_eq!(
                    solver.solve(&assumptions) == SolveResult::Sat,
                    consistent,
                    "style {style:?} key {bits:b}"
                );
            }
        }
    }

    /// Cone reduction must shrink the observation formula versus a full
    /// circuit copy.
    #[test]
    fn cone_is_smaller_than_full_copy() {
        let host = fulllock_netlist::benchmarks::load("c432").unwrap();
        let locked = LutLock::new(4, 3).lock(&host).unwrap();
        let x: Vec<bool> = (0..locked.data_inputs.len()).map(|i| i % 3 == 0).collect();
        let y = locked.eval(&x, &locked.correct_key).unwrap();

        let mut full = Cnf::new();
        let data: Vec<Var> = locked.data_inputs.iter().map(|_| full.new_var()).collect();
        let keys: Vec<Var> = locked.key_inputs.iter().map(|_| full.new_var()).collect();
        encode_locked(&locked, &mut full, &data, &keys);

        let mut cone = Cnf::new();
        let keys2: Vec<Var> = locked.key_inputs.iter().map(|_| cone.new_var()).collect();
        let encoder = CircuitEncoder::new(&locked, EncodeStyle::Structured).unwrap();
        encoder.encode_observation(&mut cone, &x, &y, &keys2);

        assert!(
            cone.num_clauses() * 4 < full.num_clauses(),
            "cone {} vs full {}",
            cone.num_clauses(),
            full.num_clauses()
        );
    }
}
