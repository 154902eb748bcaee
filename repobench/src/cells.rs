//! The paper cells the attack workloads run, and their set-up.

use std::time::{Duration, Instant};

use full_lock::bench::cln_testbed;
use full_lock::locking::{
    ClnTopology, FullLock, FullLockConfig, LockedCircuit, LockingScheme, PlrSpec, WireSelection,
};
use full_lock::netlist::{benchmarks, topo, Netlist};

/// Table 4's lock seed, used for every Full-Lock cell.
const TABLE4_SEED: u64 = 0xFA11;

/// Which attack a cell runs, and so which encoder path it exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// `SatAttackConfig` on an acyclic lock: the cone-reduced encoder.
    SatCone,
    /// `SatAttackConfig` on a cyclic lock: CycSAT plus full-copy
    /// `encode_locked` per DIP.
    CycSat,
    /// `DoubleDip` on an acyclic lock: full-copy `encode_locked`.
    DoubleDip,
}

impl AttackKind {
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::SatCone => "sat",
            AttackKind::CycSat => "sat-cycsat",
            AttackKind::DoubleDip => "double-dip",
        }
    }
}

/// What one cell is made of, before set-up.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Table 2's bare CLN testbed: `n` wires, one CLN, given lock seed.
    Testbed(usize, ClnTopology, u64),
    /// A suite circuit locked with Full-Lock PLRs of the given sizes.
    Suite(&'static str, &'static [usize], WireSelection),
}

#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    id: &'static str,
    attack: AttackKind,
    source: Source,
}

const CONE_CELLS: [CellSpec; 6] = [
    CellSpec {
        id: "t2-anb16-s0",
        attack: AttackKind::SatCone,
        source: Source::Testbed(16, ClnTopology::AlmostNonBlocking, 0),
    },
    CellSpec {
        id: "t2-anb16-s1",
        attack: AttackKind::SatCone,
        source: Source::Testbed(16, ClnTopology::AlmostNonBlocking, 1),
    },
    CellSpec {
        id: "t2-blocking32-s0",
        attack: AttackKind::SatCone,
        source: Source::Testbed(32, ClnTopology::Shuffle, 0),
    },
    CellSpec {
        id: "fl-c880-2x4x4",
        attack: AttackKind::SatCone,
        source: Source::Suite("c880", &[4, 4], WireSelection::Acyclic),
    },
    CellSpec {
        id: "fl-c1355-2x4x4",
        attack: AttackKind::SatCone,
        source: Source::Suite("c1355", &[4, 4], WireSelection::Acyclic),
    },
    CellSpec {
        id: "fl-apex2-1x8x8",
        attack: AttackKind::SatCone,
        source: Source::Suite("apex2", &[8], WireSelection::Acyclic),
    },
];

const FULLCOPY_CELLS: [CellSpec; 6] = [
    CellSpec {
        id: "cyc-c432-2x4x4",
        attack: AttackKind::CycSat,
        source: Source::Suite("c432", &[4, 4], WireSelection::Cyclic),
    },
    CellSpec {
        id: "cyc-c499-1x8x8",
        attack: AttackKind::CycSat,
        source: Source::Suite("c499", &[8], WireSelection::Cyclic),
    },
    CellSpec {
        id: "cyc-c880-2x4x4",
        attack: AttackKind::CycSat,
        source: Source::Suite("c880", &[4, 4], WireSelection::Cyclic),
    },
    CellSpec {
        id: "cyc-i4-2x4x4",
        attack: AttackKind::CycSat,
        source: Source::Suite("i4", &[4, 4], WireSelection::Cyclic),
    },
    CellSpec {
        id: "dd-c432-2x4x4",
        attack: AttackKind::DoubleDip,
        source: Source::Suite("c432", &[4, 4], WireSelection::Acyclic),
    },
    CellSpec {
        id: "dd-c499-2x4x4",
        attack: AttackKind::DoubleDip,
        source: Source::Suite("c499", &[4, 4], WireSelection::Acyclic),
    },
];

/// One set-up paper cell: the oracle's netlist and its lock.
pub struct Cell {
    pub id: String,
    pub attack: AttackKind,
    pub host: Netlist,
    pub locked: LockedCircuit,
    /// Whether the lock is cyclic (no formal key proof; CycSAT path).
    pub cyclic: bool,
}

impl Cell {
    /// Whether the attack's work counters are expected to repeat exactly
    /// across processes. CycSAT cells are not: `add_no_cycle_clauses`
    /// walks a `HashSet` of feedback edges, so clause order follows the
    /// per-process hash seed. Their counters are recorded but unusable for
    /// count-based claims.
    pub fn counters_repeat(&self) -> bool {
        self.attack != AttackKind::CycSat
    }
}

/// Set-up timings, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `benchmarks::load` of the host circuits.
    pub load: Duration,
    /// `FullLock::lock` (and `cln_testbed`, whose host is a row of
    /// buffers, so its time is the lock's).
    pub lock: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.load + self.lock
    }
}

/// The paper cells of an attack workload; `None` for other workloads.
pub fn workload_cells(workload: &str) -> Option<&'static [CellSpec]> {
    match workload {
        "cone_attack" => Some(&CONE_CELLS),
        "fullcopy_attack" => Some(&FULLCOPY_CELLS),
        _ => None,
    }
}

/// Builds every cell of `specs`, timing the netlist and locking layers.
///
/// # Errors
///
/// Reports a cell whose circuit or lock cannot be built.
pub fn set_up(specs: &[CellSpec]) -> Result<(Vec<Cell>, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut cells = Vec::with_capacity(specs.len());
    for spec in specs {
        let (host, locked) = match spec.source {
            Source::Testbed(n, topology, seed) => {
                let t = Instant::now();
                let built = cln_testbed(n, topology, seed);
                times.lock += t.elapsed();
                built
            }
            Source::Suite(name, sizes, selection) => {
                let t = Instant::now();
                let host = benchmarks::load(name).map_err(|e| format!("{}: load: {e}", spec.id))?;
                times.load += t.elapsed();
                let config = FullLockConfig {
                    plrs: sizes.iter().map(|&s| PlrSpec::new(s)).collect(),
                    selection,
                    twist_probability: 0.5,
                    seed: TABLE4_SEED,
                };
                let t = Instant::now();
                let locked = FullLock::new(config)
                    .lock(&host)
                    .map_err(|e| format!("{}: lock: {e}", spec.id))?;
                times.lock += t.elapsed();
                (host, locked)
            }
        };
        let cyclic = topo::is_cyclic(&locked.netlist);
        if cyclic != (spec.attack == AttackKind::CycSat) {
            return Err(format!(
                "{}: lock is {}cyclic, which the {} path does not expect",
                spec.id,
                if cyclic { "" } else { "a" },
                spec.attack.name()
            ));
        }
        cells.push(Cell {
            id: spec.id.to_string(),
            attack: spec.attack,
            host,
            locked,
            cyclic,
        });
    }
    Ok((cells, times))
}
