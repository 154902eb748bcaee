//! The repository benchmark: time-to-verdict on the Full-Lock paper cells
//! (cone-reduced and full-copy encoder paths) and throughput of the real
//! atlas sweep.
//!
//! ```text
//! repobench --workload <cone_attack|fullcopy_attack|atlas_sweep> --seed <n>
//!           --seconds <s> --trace <0|1> --fulllock <path> --out-dir <dir>
//!           [--git-rev <rev>] [--source-digest <hex>]
//! ```
//!
//! `repobench/run.py` builds the program and this binary, then calls it.
//! The last line of standard output is the result object; the line before
//! it holds the details (host fingerprint, per-cell counters, checks).

mod atlas;
mod attack;
mod cells;
mod host;
mod refclock;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use full_lock::harness::json::Json;

use attack::{CellRun, Layers, Verdict};
use refclock::RefClock;
use stats::{geomean, highest_supported_percentile, median, percentile};
use trace::Trace;

/// SplitMix64: the benchmark's own seeded stream (order shuffles, check
/// patterns, unit samples).
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Small sweeps launched per atlas run only to sample set-up time.
const SETUP_PROBES: usize = 9;
const PROBE_UNITS: usize = 4;
/// Host circuits of the sweep re-run in-process (untraced run) and traced
/// in-process (traced run).
const CHECK_UNITS: usize = 16;
const TRACED_UNITS: usize = 64;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    baseline: bool,
    fulllock: PathBuf,
    out_dir: PathBuf,
    git_rev: String,
    source_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        baseline: false,
        fulllock: PathBuf::from(".bench_build/release/fulllock"),
        out_dir: PathBuf::from(".bench_out"),
        git_rev: "unknown".into(),
        source_digest: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--baseline" {
            args.baseline = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--fulllock" => args.fulllock = value.into(),
            "--out-dir" => args.out_dir = value.into(),
            "--git-rev" => args.git_rev = value,
            "--source-digest" => args.source_digest = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// One metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    detail: Vec<(String, Json)>,
}

impl Outcome {
    fn problem(&mut self, why: impl Into<String>) {
        self.problems.push(why.into());
    }

    fn detail(&mut self, key: &str, value: Json) {
        self.detail.push((key.to_string(), value));
    }

    /// Records an end-to-end metric that must be a positive number.
    fn positive(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) if v.is_finite() && v > 0.0 => self.metrics.push((name, v, unit)),
            other => {
                self.problem(format!("{name} has no positive value ({other:?})"));
                self.metrics.push((name, 0.0, unit));
            }
        }
    }
}

/// Whether to start another measured pass: always a first one, then
/// while at least half of a mean pass still fits in `seconds`.
fn another_pass(start: Instant, seconds: f64, done: usize) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    done == 0 || elapsed + elapsed / done as f64 / 2.0 < seconds
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let ambient = host::ambient_program_settings();
    if !ambient.is_empty() {
        eprintln!(
            "repobench: refusing to run with program settings in the environment: {}",
            ambient.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("repobench: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let result = match (args.workload.as_str(), args.baseline) {
        (w, true) => cells::workload_cells(w)
            .ok_or_else(|| format!("no baseline pass for workload {w:?}"))
            .and_then(|specs| baseline_pass(specs, args.seed)),
        ("cone_attack" | "fullcopy_attack", false) => {
            let specs = cells::workload_cells(&args.workload).expect("matched above");
            if args.trace {
                attack_traced(&args, specs)
            } else {
                attack_untraced(&args, specs)
            }
        }
        ("atlas_sweep", false) => {
            if args.trace {
                atlas_traced(&args)
            } else {
                atlas_untraced(&args)
            }
        }
        (other, false) => Err(format!(
            "unknown workload {other:?} (expected cone_attack, fullcopy_attack or atlas_sweep)"
        )),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(1);
        }
    };
    if args.baseline {
        return ExitCode::SUCCESS;
    }
    emit(&args, outcome);
    ExitCode::SUCCESS
}

fn emit(args: &Args, mut outcome: Outcome) {
    let correct = outcome.problems.is_empty() && outcome.failed == 0 && outcome.attempted > 0;
    for p in &outcome.problems {
        eprintln!("repobench: check failed: {p}");
    }
    for (name, value, unit) in &outcome.metrics {
        eprintln!("  {name:<32} {value:>14.6} {unit}");
    }
    let mut detail = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Int(args.seed)),
        ("trace".to_string(), Json::Bool(args.trace)),
        (
            "host".to_string(),
            host::fingerprint(&args.git_rev, &args.source_digest),
        ),
        (
            "problems".to_string(),
            Json::Array(
                outcome
                    .problems
                    .iter()
                    .map(|p| Json::Str(p.clone()))
                    .collect(),
            ),
        ),
    ];
    detail.append(&mut outcome.detail);
    println!(
        "{}",
        Json::Object(vec![("detail".into(), Json::Object(detail))]).to_text()
    );
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                name.to_string(),
                Json::Object(vec![
                    ("value".into(), Json::Float(*value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    let result = Json::Object(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(outcome.attempted)),
        ("failed".into(), Json::Int(outcome.failed)),
        ("metrics".into(), Json::Object(metrics)),
    ]);
    println!("{}", result.to_text());
}

// ---------------------------------------------------------------- attacks

fn cell_json(run: &CellRun) -> Json {
    let verdict = match &run.verdict {
        Verdict::Solved => "solved".to_string(),
        Verdict::Timeout => "timeout".to_string(),
        Verdict::Failed(why) => format!("failed: {why}"),
    };
    Json::Object(vec![
        ("id".into(), Json::Str(run.id.clone())),
        ("attack".into(), Json::Str(run.attack.name().into())),
        ("seconds".into(), Json::Float(run.seconds)),
        ("cpu_seconds".into(), Json::Float(run.cpu_seconds)),
        ("verdict".into(), Json::Str(verdict)),
        ("dips".into(), Json::Int(run.dips)),
        ("conflicts".into(), Json::Int(run.conflicts)),
        ("propagations".into(), Json::Int(run.propagations)),
        ("final_clauses".into(), Json::Int(run.final_clauses)),
    ])
}

/// Sets the paper cells up `SETUP_REPS` times; returns the last set and
/// the per-repetition timings.
fn repeated_setup(
    specs: &[cells::CellSpec],
) -> Result<(Vec<cells::Cell>, Vec<cells::SetupTimes>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (built, t) = cells::set_up(specs)?;
        times.push(t);
        last = Some(built);
    }
    Ok((last.expect("SETUP_REPS > 0"), times))
}

/// Tallies verdicts into the outcome; returns how many were solved.
fn tally(outcome: &mut Outcome, runs: &[CellRun]) -> u64 {
    let mut solved = 0;
    for run in runs {
        outcome.attempted += 1;
        match &run.verdict {
            Verdict::Solved => solved += 1,
            Verdict::Timeout => {}
            Verdict::Failed(why) => {
                outcome.failed += 1;
                outcome.problem(format!("{}: {why}", run.id));
            }
        }
    }
    solved
}

fn attack_untraced(args: &Args, specs: &[cells::CellSpec]) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (cells, setups) = repeated_setup(specs)?;

    let start = Instant::now();
    let mut clock = RefClock::new();
    let mut passes: Vec<Vec<CellRun>> = Vec::new();
    while another_pass(start, args.seconds, passes.len()) {
        let order = attack::pass_order(cells.len(), args.seed, passes.len() as u64);
        let mut pass = Vec::with_capacity(order.len());
        for &i in &order {
            clock.sample();
            pass.push(attack::run_untraced(&cells[i], args.seed));
        }
        passes.push(pass);
    }
    clock.sample();

    let all: Vec<CellRun> = passes.iter().flatten().cloned().collect();
    let solved = tally(&mut outcome, &all);
    // Repeatable cells must spend the same work on every pass.
    for cell in cells.iter().filter(|c| c.counters_repeat()) {
        let counters: Vec<[u64; 4]> = all
            .iter()
            .filter(|r| r.id == cell.id)
            .map(CellRun::counters)
            .collect();
        if counters.windows(2).any(|w| w[0] != w[1]) {
            outcome.problem(format!(
                "{}: work counters differ between passes: {counters:?}",
                cell.id
            ));
        }
    }

    // Each cell's time-to-verdict and DIPs are its medians over the passes,
    // so a slow spell in one pass moves no total. Times are the attacking
    // process's CPU time (on a shared host, wall time also counts time the
    // hypervisor gives this CPU to other guests) in reference seconds.
    let factor = clock.factor().ok_or("the reference clock took no time")?;
    let cell_median = |cell: &cells::Cell, f: fn(&CellRun) -> f64| -> f64 {
        let values: Vec<f64> = all.iter().filter(|r| r.id == cell.id).map(f).collect();
        median(&values).expect("every cell ran in every pass")
    };
    let times: Vec<f64> = cells
        .iter()
        .map(|c| cell_median(c, |r| r.cpu_seconds) * factor)
        .collect();
    let total: f64 = times.iter().sum();
    let wall_total: f64 = cells.iter().map(|c| cell_median(c, |r| r.seconds)).sum();
    let dips: f64 = cells
        .iter()
        .map(|c| cell_median(c, |r| r.dips as f64))
        .sum();
    // A unit is one attack on one cell, as on the atlas one attack on one
    // circuit: every cell of every pass.
    let units: Vec<f64> = all.iter().map(|r| r.cpu_seconds * factor).collect();
    outcome.positive("attack_s_total", Some(total), "s");
    outcome.positive("attack_s_geomean", geomean(&times), "s");
    outcome.positive("dips_total", Some(dips), "count");
    outcome.positive(
        "solved_frac",
        Some(solved as f64 / all.len() as f64),
        "ratio",
    );
    outcome.positive("peak_rss_mb", host::own_peak_rss_mb(), "MB");
    outcome.positive(
        "setup_s",
        median(&setups.iter().map(|t| secs(t.total())).collect::<Vec<_>>()).map(|s| s * factor),
        "s",
    );
    outcome.positive(
        "units_per_s",
        Some(units.len() as f64 / units.iter().sum::<f64>()),
        "1/s",
    );
    outcome.positive("unit_s_p50", percentile(&units, 50.0), "s");
    outcome.positive("unit_s_p98", percentile(&units, 98.0), "s");

    outcome.detail("passes", Json::Int(passes.len() as u64));
    outcome.detail(
        "setup_reps_s",
        Json::Array(
            setups
                .iter()
                .map(|t| Json::Float(secs(t.total())))
                .collect(),
        ),
    );
    outcome.detail("wall_s_total", Json::Float(wall_total));
    outcome.detail("clock", clock.to_json());
    outcome.detail("timing_samples", Json::Int(units.len() as u64));
    outcome.detail(
        "tail_percentile_supported",
        highest_supported_percentile(units.len(), 10)
            .map_or(Json::Null, |p| Json::Int(u64::from(p))),
    );
    outcome.detail("cells", Json::Array(all.iter().map(cell_json).collect()));
    Ok(outcome)
}

/// One untraced pass in the pass-0 order, printed as a JSON line: the
/// traced run's baseline, in a process of its own.
fn baseline_pass(specs: &[cells::CellSpec], seed: u64) -> Result<Outcome, String> {
    let (cells, _) = cells::set_up(specs)?;
    let order = attack::pass_order(cells.len(), seed, 0);
    let runs: Vec<Json> = order
        .iter()
        .map(|&i| cell_json(&attack::run_untraced(&cells[i], seed)))
        .collect();
    println!(
        "{}",
        Json::Object(vec![("baseline".into(), Json::Array(runs))]).to_text()
    );
    Ok(Outcome::default())
}

fn run_baseline_process(args: &Args) -> Result<Vec<Json>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--baseline",
        ])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .output()
        .map_err(|e| format!("baseline process: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "baseline process exited {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text
        .lines()
        .last()
        .ok_or("baseline process printed nothing")?;
    let json = Json::parse(line)?;
    Ok(json
        .get("baseline")
        .and_then(Json::as_array)
        .ok_or("baseline line has no cells")?
        .to_vec())
}

fn attack_traced(args: &Args, specs: &[cells::CellSpec]) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let (cells, setups) = repeated_setup(specs)?;
    let baseline = run_baseline_process(args)?;

    // Each cell runs untraced, then traced, in this process: the pairs
    // give the tracing overhead without the host's drift between runs.
    let mut trace = Trace::new();
    let mut layers = Layers::default();
    let root = trace.open("pass", "all", None);
    let order = attack::pass_order(cells.len(), args.seed, 0);
    let mut pairs: Vec<(CellRun, CellRun)> = Vec::with_capacity(order.len());
    for &i in &order {
        let untraced = attack::run_untraced(&cells[i], args.seed);
        let traced = attack::run_traced(&cells[i], args.seed, &mut layers, &mut trace, Some(root));
        pairs.push((untraced, traced));
    }
    trace.close(root);
    let runs: Vec<CellRun> = pairs.iter().map(|(_, t)| t.clone()).collect();
    tally(&mut outcome, &runs);
    tally(
        &mut outcome,
        &pairs.iter().map(|(u, _)| u.clone()).collect::<Vec<_>>(),
    );

    // Work counters: traced against untraced in this process, and against
    // the baseline process. Where they are expected to repeat, they must.
    let mut differing = 0u64;
    let mut repeat = Vec::new();
    let (mut traced_same, mut untraced_same) = (0.0, 0.0);
    for ((untraced, run), cell_idx) in pairs.iter().zip(&order) {
        let cell = &cells[*cell_idx];
        let Some(base) = baseline
            .iter()
            .find(|b| b.get("id").and_then(Json::as_str) == Some(run.id.as_str()))
        else {
            outcome.problem(format!("{}: missing from the baseline process", run.id));
            continue;
        };
        let base_counters: Vec<u64> = ["dips", "conflicts", "propagations", "final_clauses"]
            .iter()
            .map(|k| base.get(k).and_then(Json::as_u64).unwrap_or(u64::MAX))
            .collect();
        let across_processes = base_counters == run.counters();
        let in_process = untraced.counters() == run.counters();
        if !across_processes {
            differing += 1;
        }
        if cell.counters_repeat() && !(across_processes && in_process) {
            outcome.problem(format!(
                "{}: traced counters {:?} differ from untraced {:?} (this process) or {base_counters:?} \
                 (baseline process)",
                run.id,
                run.counters(),
                untraced.counters()
            ));
        }
        // The overhead compares like with like: pairs that did the same work.
        if in_process {
            traced_same += run.seconds;
            untraced_same += untraced.seconds;
        }
        let counters = |c: &[u64]| Json::Array(c.iter().map(|&v| Json::Int(v)).collect());
        repeat.push(Json::Object(vec![
            ("id".into(), Json::Str(run.id.clone())),
            (
                "expected_to_repeat".into(),
                Json::Bool(cell.counters_repeat()),
            ),
            (
                "repeated_across_processes".into(),
                Json::Bool(across_processes),
            ),
            ("traced".into(), counters(&run.counters())),
            ("untraced".into(), counters(&untraced.counters())),
            ("baseline_process".into(), counters(&base_counters)),
        ]));
    }
    let overhead = traced_same / untraced_same;

    let load = median(&setups.iter().map(|t| secs(t.load)).collect::<Vec<_>>()).unwrap_or(0.0);
    let lock = median(&setups.iter().map(|t| secs(t.lock)).collect::<Vec<_>>()).unwrap_or(0.0);
    outcome.metrics = layer_metrics(
        &layers,
        load,
        lock,
        &SweepLayer::default(),
        overhead,
        runs.len() as u64,
        differing,
    );

    let trace_path = args
        .out_dir
        .join(format!("trace-{}-seed{}.ndjson", args.workload, args.seed));
    trace
        .write_ndjson(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    outcome.detail("trace_file", Json::Str(trace_path.display().to_string()));
    outcome.detail("spans", Json::Int(trace.len() as u64));
    outcome.detail(
        "tracing_overhead",
        Json::Object(vec![
            ("traced_s".into(), Json::Float(traced_same)),
            ("untraced_s".into(), Json::Float(untraced_same)),
            ("ratio".into(), Json::Float(overhead)),
        ]),
    );
    outcome.detail("counters_repeat", Json::Array(repeat));
    outcome.detail("cells", Json::Array(runs.iter().map(cell_json).collect()));
    Ok(outcome)
}

/// The sweep layer's traced numbers (zero on the attack workloads, which
/// bypass the harness).
#[derive(Default)]
struct SweepLayer {
    exec_s: f64,
    overhead_s_per_unit: f64,
    respawns: u64,
    stolen: u64,
    speculative: u64,
    duplicates: u64,
}

fn layer_metrics(
    l: &Layers,
    load_s: f64,
    lock_s: f64,
    sweep: &SweepLayer,
    overhead: f64,
    cells_checked: u64,
    cells_differing: u64,
) -> Vec<Metric> {
    let c = &l.cdcl;
    let ns = |n: u64| n as f64 / 1e9;
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let encode = secs(l.observation + l.full_copy);
    let other = secs(l.solver_wall)
        - ns(c.propagate_ns)
        - ns(c.analyze_ns)
        - secs(l.oracle_in_loop)
        - encode;
    vec![
        ("cdcl.propagate_s", ns(c.propagate_ns), "s"),
        ("cdcl.analyze_s", ns(c.analyze_ns), "s"),
        ("cdcl.other_s", other, "s"),
        (
            "cdcl.props_per_conflict",
            per(c.propagations as f64, c.conflicts as f64),
            "ratio",
        ),
        (
            "cdcl.conflicts_per_s",
            per(c.conflicts as f64, secs(l.solver_wall)),
            "1/s",
        ),
        ("cdcl.conflicts", c.conflicts as f64, "count"),
        ("cdcl.propagations", c.propagations as f64, "count"),
        ("cdcl.decisions", c.decisions as f64, "count"),
        ("cdcl.restarts", c.restarts as f64, "count"),
        ("cdcl.mean_lbd", c.mean_lbd(), "lbd"),
        ("cdcl.inprocessings", c.inprocessings as f64, "count"),
        ("cdcl.vars_eliminated", c.vars_eliminated as f64, "count"),
        ("cdcl.solves", c.solves as f64, "count"),
        ("cdcl.learnts_carried", c.learnts_carried as f64, "count"),
        ("encode.observation_s", secs(l.observation), "s"),
        (
            "encode.clauses_per_dip",
            per(l.observation_clauses as f64, l.observation_dips as f64),
            "count",
        ),
        ("encode.full_copy_s", secs(l.full_copy), "s"),
        (
            "encode.full_copy_clauses_per_dip",
            per(l.full_copy_clauses as f64, l.full_copy_dips as f64),
            "count",
        ),
        (
            "cycsat.no_cycle_clauses",
            l.no_cycle_clauses as f64,
            "count",
        ),
        ("dip.final_clauses", l.final_clauses as f64, "count"),
        ("dip.final_vars", l.final_vars as f64, "count"),
        (
            "dip.clause_var_ratio",
            per(l.ratio_sum, l.ratio_cells as f64),
            "ratio",
        ),
        ("dip.sat.step_s", secs(l.sat_step), "s"),
        (
            "dip.sat.s_per_dip",
            per(secs(l.sat_step), l.sat_dips as f64),
            "s",
        ),
        ("dip.sat.extract_key_s", secs(l.sat_extract), "s"),
        ("dip.double_dip.loop_s", secs(l.dd_loop), "s"),
        (
            "dip.double_dip.s_per_dip",
            per(secs(l.dd_loop), l.dd_dips as f64),
            "s",
        ),
        ("certify.key_s", secs(l.certify_key), "s"),
        ("certify.prove_s", secs(l.certify_prove), "s"),
        (
            "certify.sim_s",
            secs(l.certify_key) - secs(l.certify_prove),
            "s",
        ),
        ("oracle.query_s", secs(l.oracle_total), "s"),
        ("oracle.queries", l.oracle_queries as f64, "count"),
        ("netlist.load_s", load_s, "s"),
        ("locking.lock_s", lock_s, "s"),
        ("sweep.exec_s", sweep.exec_s, "s"),
        ("sweep.overhead_s_per_unit", sweep.overhead_s_per_unit, "s"),
        ("sweep.respawns", sweep.respawns as f64, "count"),
        ("sweep.stolen", sweep.stolen as f64, "count"),
        ("sweep.speculative", sweep.speculative as f64, "count"),
        ("sweep.duplicates", sweep.duplicates as f64, "count"),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("repeat.cells_checked", cells_checked as f64, "count"),
        ("repeat.cells_differing", cells_differing as f64, "count"),
    ]
}

// ------------------------------------------------------------------ atlas

fn atlas_untraced(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    // Set-up: launch until the first unit settles, on small sweeps of
    // fixed host circuits so the first unit's attack is the same work.
    let mut first_settles = Vec::new();
    let mut clock = RefClock::new();
    let probe = atlas::probe_params(PROBE_UNITS, args.seed);
    for i in 0..SETUP_PROBES {
        clock.sample();
        let run = atlas::launch(
            &args.fulllock,
            &args.out_dir,
            &format!("probe{i}"),
            &probe,
            args.seed,
        )?;
        check_launch(&mut outcome, &run, PROBE_UNITS);
        first_settles.push(secs(run.first_settle));
    }
    let start = Instant::now();
    let mut sweeps = Vec::new();
    while another_pass(start, args.seconds, sweeps.len()) {
        clock.sample();
        let run = atlas::launch(
            &args.fulllock,
            &args.out_dir,
            &format!("main{}", sweeps.len()),
            &atlas::main_params(),
            args.seed,
        )?;
        sweeps.push(run);
    }
    clock.sample();
    // Unit, sweep and set-up times in reference seconds, as on the attack
    // workloads (the workers' busy wall time is their CPU time).
    let factor = clock.factor().ok_or("the reference clock took no time")?;
    let mut solved = 0;
    for run in &sweeps {
        solved += check_launch(&mut outcome, run, atlas::UNITS);
    }
    let plan = atlas::plan(args.seed);
    let sample = atlas::instance_units(CHECK_UNITS, args.seed);
    let last = sweeps.last().expect("at least one sweep");
    let dips = match atlas::check_sample(last, &plan, &sample) {
        Ok(d) => Some(d as f64),
        Err(e) => {
            outcome.failed += 1;
            outcome.problem(e);
            None
        }
    };

    let unit_times = |r: &atlas::SweepRun| -> Vec<f64> {
        r.records.iter().map(|s| s.wall_secs * factor).collect()
    };
    let pooled: Vec<f64> = sweeps.iter().flat_map(unit_times).collect();
    let per_sweep = |f: &dyn Fn(&atlas::SweepRun) -> Option<f64>| -> Option<f64> {
        median(&sweeps.iter().map(f).collect::<Option<Vec<f64>>>()?)
    };
    outcome.positive(
        "attack_s_total",
        per_sweep(&|r| Some(unit_times(r).iter().sum())),
        "s",
    );
    outcome.positive(
        "attack_s_geomean",
        per_sweep(&|r| geomean(&unit_times(r))),
        "s",
    );
    outcome.positive("dips_total", dips, "count");
    outcome.positive(
        "solved_frac",
        Some(solved as f64 / pooled.len() as f64),
        "ratio",
    );
    outcome.positive("peak_rss_mb", host::children_peak_rss_mb(), "MB");
    outcome.positive("setup_s", median(&first_settles).map(|s| s * factor), "s");
    outcome.positive(
        "units_per_s",
        per_sweep(&|r| Some(r.records.len() as f64 / (secs(r.wall) * factor))),
        "1/s",
    );
    outcome.positive("unit_s_p50", percentile(&pooled, 50.0), "s");
    outcome.positive("unit_s_p98", percentile(&pooled, 98.0), "s");

    outcome.detail("sweeps", Json::Int(sweeps.len() as u64));
    outcome.detail("clock", clock.to_json());
    outcome.detail("timing_samples", Json::Int(pooled.len() as u64));
    outcome.detail(
        "tail_percentile_supported",
        highest_supported_percentile(pooled.len(), 10)
            .map_or(Json::Null, |p| Json::Int(u64::from(p))),
    );
    outcome.detail(
        "checked_units",
        Json::Array(sample.iter().map(|&i| Json::Int(i as u64)).collect()),
    );
    outcome.detail(
        "sweep_conflicts",
        Json::Array(
            sweeps
                .iter()
                .map(|r| Json::Int(r.records.iter().map(|s| s.conflicts).sum()))
                .collect(),
        ),
    );
    Ok(outcome)
}

/// Settlement checks on one launch; returns the recovered units.
fn check_launch(outcome: &mut Outcome, run: &atlas::SweepRun, units: usize) -> u64 {
    outcome.attempted += units as u64;
    match atlas::check_settlement(run, units) {
        Ok(recovered) => recovered as u64,
        Err(e) => {
            outcome.failed += 1;
            outcome.problem(e);
            0
        }
    }
}

fn atlas_traced(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut trace = Trace::new();

    let untraced = atlas::launch(
        &args.fulllock,
        &args.out_dir,
        "untraced",
        &atlas::main_params(),
        args.seed,
    )?;
    check_launch(&mut outcome, &untraced, atlas::UNITS);
    let span = trace.open("sweep.run", "all", None);
    let launched = Instant::now();
    let traced = atlas::launch(
        &args.fulllock,
        &args.out_dir,
        "traced",
        &atlas::main_params(),
        args.seed,
    )?;
    trace.record(
        "sweep.first_settle",
        "all",
        Some(span),
        launched,
        Some(launched + traced.first_settle),
    );
    trace.close(span);
    check_launch(&mut outcome, &traced, atlas::UNITS);
    let overhead = secs(traced.wall) / secs(untraced.wall);

    // Work counters across the two sweep launches (separate processes).
    let conflicts = |r: &atlas::SweepRun| -> Vec<(String, u64)> {
        let mut v: Vec<(String, u64)> = r
            .records
            .iter()
            .map(|s| (s.unit.clone(), s.conflicts))
            .collect();
        v.sort();
        v
    };
    let (a, b) = (conflicts(&untraced), conflicts(&traced));
    let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count() as u64;
    if differing > 0 || a.len() != b.len() {
        outcome.problem(format!(
            "{differing} units spent different conflicts in two sweeps of one plan"
        ));
    }

    let plan = atlas::plan(args.seed);
    let sample = atlas::instance_units(TRACED_UNITS, args.seed);
    let mut layers = Layers::default();
    let in_process = atlas::traced_in_process(&plan, &sample, args.seed, &mut layers, &mut trace)?;
    let sweep = SweepLayer {
        exec_s: secs(in_process.exec),
        overhead_s_per_unit: (secs(traced.wall) * atlas::WORKERS as f64 - secs(in_process.exec))
            / atlas::UNITS as f64,
        respawns: traced.respawns,
        stolen: traced.stolen as u64,
        speculative: traced.speculative as u64,
        duplicates: traced.duplicates as u64,
    };
    outcome.metrics = layer_metrics(
        &layers,
        secs(in_process.generate),
        secs(in_process.lock),
        &sweep,
        overhead,
        atlas::UNITS as u64,
        differing,
    );

    let trace_path = args
        .out_dir
        .join(format!("trace-{}-seed{}.ndjson", args.workload, args.seed));
    trace
        .write_ndjson(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    outcome.detail("trace_file", Json::Str(trace_path.display().to_string()));
    outcome.detail("spans", Json::Int(trace.len() as u64));
    outcome.detail(
        "tracing_overhead",
        Json::Object(vec![
            (
                "traced_units_per_s".into(),
                Json::Float(atlas::UNITS as f64 / secs(traced.wall)),
            ),
            (
                "untraced_units_per_s".into(),
                Json::Float(atlas::UNITS as f64 / secs(untraced.wall)),
            ),
            ("wall_ratio".into(), Json::Float(overhead)),
        ]),
    );
    Ok(outcome)
}
