//! The two campaign workloads: `summit-1x` and `policy-zoo-eighth`.
//!
//! A round runs every allocation of the workload once, each from
//! `Campaign::new` to its `RunReport`. Untraced rounds time the
//! allocations; a traced round runs each allocation twice, traced and
//! untraced, reads the tracer's registry, parses and replays the
//! recorded job stream, and rebuilds the occupancy profile from the
//! trace.

use campaign::{Campaign, CampaignConfig, RunReport, StoreBackend};
use resources::{MachineSpec, ResourceGraph};
use sched::{Costs, SchedEngine, SchedPolicy};
use simcore::SimTime;
use trace::Tracer;
use workload::{TraceFile, WorkloadSpec};

use crate::report::Outcome;
use crate::spans::{now, secs_since, Recorder};
use crate::stats;
use crate::Args;

/// Virtual hours of every allocation.
pub const HOURS: u64 = 16;
/// The full machine: 4,608 nodes, 27,648 GPUs.
pub const SUMMIT_NODES: u32 = 4608;
/// The 1/8 rung.
pub const EIGHTH_NODES: u32 = 576;
/// The policies `policy-zoo-eighth` runs back to back.
pub const ZOO_POLICIES: [SchedPolicy; 4] = [
    SchedPolicy::BackfillEasy,
    SchedPolicy::BackfillConservative,
    SchedPolicy::FairShare,
    SchedPolicy::Hierarchical,
];
/// The paper's steady-state GPU occupancy claim, in percent.
const STEADY_OCCUPANCY_PCT: f64 = 98.0;
/// Samples timed for `setup_s`.
const SETUP_SAMPLES: usize = 15;
/// Set-ups of every allocation in one sample.
const SETUP_PER_SAMPLE: usize = 32;

/// Rounds a run makes at least. A zoo round is four allocations (about
/// 7 s); its round wall spread 15-23% (IQR / median) over ten runs of
/// two rounds, on fixed inputs as much as on varied ones, and up to 21%
/// over ten runs of three, so a zoo run takes the median of five.
fn min_rounds(workload: &str) -> u64 {
    if workload == "policy-zoo-eighth" {
        5
    } else {
        1
    }
}

/// One allocation of a workload.
struct Alloc {
    label: &'static str,
    nodes: u32,
    cfg: CampaignConfig,
}

fn allocations(workload: &str, seed: u64) -> Vec<Alloc> {
    if workload == "summit-1x" {
        return vec![Alloc {
            label: "fcfs",
            nodes: SUMMIT_NODES,
            cfg: CampaignConfig {
                seed,
                ..CampaignConfig::scale_rung(SUMMIT_NODES)
            },
        }];
    }
    ZOO_POLICIES
        .iter()
        .map(|&policy| Alloc {
            label: policy.name(),
            nodes: EIGHTH_NODES,
            cfg: CampaignConfig {
                seed,
                sched_policy: policy,
                workload: Some(WorkloadSpec::Hetero),
                store_backend: StoreBackend::Loopback,
                ..CampaignConfig::scale_rung(EIGHTH_NODES)
            },
        })
        .collect()
}

/// Runs one allocation; returns the campaign (for its profiler and
/// tracer), the report and the wall seconds from `Campaign::new` on.
fn run_alloc(a: &Alloc, tracer: Option<Tracer>) -> (Campaign, RunReport, f64) {
    let t0 = now();
    let mut cfg = a.cfg.clone();
    cfg.record_jobs = tracer.is_some();
    let mut c = Campaign::new(cfg);
    if let Some(t) = tracer {
        c.set_tracer(t);
    }
    let report = c.execute_run(a.nodes, HOURS);
    let wall = secs_since(t0);
    (c, report, wall)
}

/// Checks every allocation must pass, traced or not, and logs the
/// allocation to stderr.
fn check_report(out: &mut Outcome, a: &Alloc, c: &Campaign, r: &RunReport, workload: &str) {
    eprintln!(
        "perfbench: {} allocation: {} jobs placed, peak {} GPU jobs, steady GPU occupancy {:.2}%",
        a.label,
        r.ledger.placed,
        r.peak_gpu_jobs,
        steady_gpu_occupancy(c)
    );
    let problems = r.ledger.check();
    out.check(problems.is_empty(), || {
        format!("{}: ledger does not reconcile: {problems:?}", a.label)
    });
    out.check(r.forced_advances == 0, || {
        format!("{}: {} forced clock advances", a.label, r.forced_advances)
    });
    let gpus = a.nodes as u64 * 6;
    out.check(r.peak_gpu_jobs <= gpus, || {
        format!(
            "{}: {} concurrent GPU jobs on {gpus} GPUs",
            a.label, r.peak_gpu_jobs
        )
    });
    if workload == "summit-1x" {
        let steady = steady_gpu_occupancy(c);
        out.check(steady >= STEADY_OCCUPANCY_PCT, || {
            format!("steady-state GPU occupancy {steady:.2}% < {STEADY_OCCUPANCY_PCT}%")
        });
    }
}

/// Mean GPU occupancy (%) over the last third of the profile, computed
/// here from the raw samples rather than read from a report field.
fn steady_gpu_occupancy(c: &Campaign) -> f64 {
    let samples = c.profiler().samples();
    let tail = &samples[samples.len() * 2 / 3..];
    if tail.is_empty() {
        return 0.0;
    }
    let pct: f64 = tail
        .iter()
        .map(|s| 100.0 * s.gpus_used as f64 / s.gpus_total.max(1) as f64)
        .sum();
    pct / tail.len() as f64
}

/// The scheduler an allocation starts from: the machine's resource
/// graph under the allocation's matcher, coupling, costs and policy.
fn engine_for(a: &Alloc) -> SchedEngine {
    let mut engine = SchedEngine::new(
        ResourceGraph::new(MachineSpec::summit_allocation(a.nodes)),
        a.cfg.policy,
        a.cfg.coupling,
        Costs::summit_campaign(),
    );
    engine.set_sched_policy(a.cfg.sched_policy);
    engine
}

/// Times the program's own set-up of every allocation of the workload:
/// `Campaign::new` and `execute_run` for zero virtual hours, which builds
/// the allocation's resource graph, scheduler, workflow manager, store
/// and collectors and closes the run before its first event. A sample
/// is [`SETUP_PER_SAMPLE`] such set-ups of every allocation, each timed
/// on its own and dropped untimed before the next; `setup_s` is the
/// median sample divided by [`SETUP_PER_SAMPLE`].
fn setup_seconds(allocs: &[Alloc]) -> f64 {
    let mut samples = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let mut secs = 0.0;
        for _ in 0..SETUP_PER_SAMPLE {
            for a in allocs {
                let t0 = now();
                let mut c = Campaign::new(a.cfg.clone());
                let r = c.execute_run(a.nodes, 0);
                secs += secs_since(t0);
                drop(std::hint::black_box((c, r)));
            }
        }
        samples.push(secs / SETUP_PER_SAMPLE as f64);
    }
    stats::median(&samples)
}

/// The campaign seed of round `round`: every round of a run draws a
/// different seed from `--seed`, so a run's median spans several inputs.
fn round_seed(seed: u64, round: u64) -> u64 {
    seed ^ (round << 40)
}

pub fn run(args: &Args, spans: &mut Recorder) -> Outcome {
    crate::pin_to_current_cpu();
    if args.trace {
        // Traced runs keep the configuration's own seed, so that the
        // record -> replay parse sees the same recording on every traced
        // run and its failures are a fixed share of the operations.
        let allocs = allocations(&args.workload, CampaignConfig::default().seed);
        return run_traced(args, &allocs, spans);
    }
    let mut out = Outcome::default();
    let first = allocations(&args.workload, args.seed);
    // Warm-up: the first allocation of a process runs into fresh memory
    // and took 10-25% longer than the ones after it on the reference
    // host. It is checked but not timed. Set-up is timed after it, on
    // the same warm footing as the rounds.
    let (c, r, _) = run_alloc(&first[0], None);
    check_report(&mut out, &first[0], &c, &r, &args.workload);
    out.ok_op();
    drop((c, r));
    out.set("setup_s", setup_seconds(&first));
    let t_start = now();
    let mut round_walls = Vec::new();
    let mut placed = 0u64;
    let mut busy = 0.0;
    let mut round = 0u64;
    while round < min_rounds(&args.workload) || secs_since(t_start) < args.seconds {
        let mut round_wall = 0.0;
        for a in &allocations(&args.workload, round_seed(args.seed, round)) {
            let (c, r, wall) = run_alloc(a, None);
            eprintln!("perfbench: {} allocation wall {wall:.3} s", a.label);
            check_report(&mut out, a, &c, &r, &args.workload);
            out.ok_op();
            round_wall += wall;
            placed += r.ledger.placed;
            busy += wall;
        }
        round_walls.push(round_wall);
        round += 1;
    }
    let round_ms: Vec<f64> = round_walls.iter().map(|w| w * 1e3).collect();
    let lat = stats::summarize(&round_ms);
    out.set("wall_s", stats::median(&round_walls));
    out.note("wall_s", format!("median of {} rounds", round_walls.len()));
    out.set("ops_per_s", placed as f64 / busy);
    out.note(
        "ops_per_s",
        "scheduler placements per allocation second".into(),
    );
    out.set("latency_p50_ms", lat.p50);
    out.set("latency_tail_ms", lat.tail);
    out.note("latency_p50_ms", format!("round wall, n={}", lat.count));
    out.note(
        "latency_tail_ms",
        format!("{} of round wall, n={}", lat.tail_label, lat.count),
    );
    out
}

/// Sums of the tracer's counters over a round.
#[derive(Default)]
struct LayerSums {
    wall: f64,
    traced_wall: f64,
    iterations: u64,
    replay_s: f64,
    replay_jobs: u64,
    trace_lines: u64,
    out_of_order: u64,
    events: u64,
    visited: u64,
    matches: u64,
    counters: std::collections::BTreeMap<&'static str, u64>,
}

/// Tracer counters copied into the per-layer metrics under the same
/// names.
const COUNTERS: &[&str] = &[
    "wm.selected",
    "wm.resubmits",
    "feedback.frames",
    "sched.submitted",
    "sched.placed",
    "sched.match_misses",
    "sched.backfills",
    "datastore.kv.writes",
    "datastore.kv.reads",
    "datastore.kv.moves",
];

fn run_traced(args: &Args, allocs: &[Alloc], spans: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let mut sums = LayerSums::default();
    // The same untimed warm-up as an untraced run, so the first traced
    // allocation does not pay for the process's fresh memory. It is
    // checked but not counted, so the failed parses stay a quarter of
    // the operations however many passes a run makes.
    let (c, r, _) = run_alloc(&allocs[0], None);
    check_report(&mut out, &allocs[0], &c, &r, &args.workload);
    drop((c, r));
    let t_start = now();
    let mut request = 0u64;
    // At least two passes, so that on `summit-1x` too each order of the
    // traced/untraced pair runs once.
    while request < 2 * allocs.len() as u64 || secs_since(t_start) < args.seconds {
        for a in allocs {
            traced_alloc(args, a, &mut out, &mut sums, spans, request);
            request += 1;
        }
    }
    let count = |name: &str| sums.counters.get(name).copied().unwrap_or(0);
    for name in COUNTERS {
        out.set(name, count(name) as f64);
    }
    let placed = count("sched.placed");
    let misses = count("sched.match_misses");
    out.set("campaign.wall_s", sums.wall);
    out.set("campaign.iterations", sums.iterations as f64);
    out.set("campaign.non_sched_s", sums.wall - sums.replay_s);
    out.note(
        "campaign.non_sched_s",
        "derived: campaign.wall_s - sched.replay_s".into(),
    );
    out.set(
        "sched.match_hit_ratio",
        placed as f64 / (placed + misses).max(1) as f64,
    );
    out.set("resources.nodes_visited", sums.visited as f64);
    out.set(
        "resources.visits_per_match",
        sums.visited as f64 / sums.matches.max(1) as f64,
    );
    out.set("sched.replay_s", sums.replay_s);
    out.set(
        "sched.replay_jobs_per_s",
        sums.replay_jobs as f64 / sums.replay_s,
    );
    out.set("sched.replay_share", sums.replay_s / sums.wall);
    out.note(
        "sched.replay_share",
        "derived: sched.replay_s / campaign.wall_s".into(),
    );
    out.set("workload.trace_lines", sums.trace_lines as f64);
    out.set("workload.trace_out_of_order", sums.out_of_order as f64);
    out.set("trace.events", sums.events as f64);
    out.set("trace.overhead_s", sums.traced_wall - sums.wall);
    out.note("trace.overhead_s", "derived: traced - untraced wall".into());
    out
}

fn traced_alloc(
    args: &Args,
    a: &Alloc,
    out: &mut Outcome,
    sums: &mut LayerSums,
    spans: &mut Recorder,
    request: u64,
) {
    let round = spans.begin("campaign.allocation", None, request);
    let parent = Some(round.id);
    // The allocation traced and recording, and untraced: the wall the
    // end-to-end metrics see. Which of the two runs first alternates
    // from one allocation to the next, so `trace.overhead_s` carries no
    // run-order bias.
    let tracer = Tracer::enabled();
    let mut timed =
        |name, tracer: Option<Tracer>| spans.time(name, parent, request, || run_alloc(a, tracer)).0;
    let ((c, r, traced_wall), (c_plain, r_plain, wall)) = if request.is_multiple_of(2) {
        let t = timed("campaign.traced", Some(tracer.clone()));
        (t, timed("campaign.untraced", None))
    } else {
        let u = timed("campaign.untraced", None);
        (timed("campaign.traced", Some(tracer.clone())), u)
    };
    check_report(out, a, &c, &r, &args.workload);
    out.ok_op();
    check_report(out, a, &c_plain, &r_plain, &args.workload);
    out.check(r_plain.ledger == r.ledger, || {
        format!("{}: tracing changed the ledger", a.label)
    });
    out.ok_op();
    sums.wall += wall;
    sums.traced_wall += traced_wall;
    sums.iterations += r.driver_iterations;

    let snapshot = tracer.metrics_snapshot();
    for (name, v) in &snapshot.counters {
        if let Some(key) = COUNTERS.iter().find(|k| **k == name.as_str()) {
            *sums.counters.entry(key).or_default() += v;
        }
    }
    if let Some((_, h)) = snapshot
        .hists
        .iter()
        .find(|(n, _)| n == "sched.visited_per_match")
    {
        sums.visited += h.sum();
        sums.matches += h.count();
    }
    let events = tracer.events();
    sums.events += events.len() as u64;

    // The occupancy series rebuilt from the trace equals the live one.
    let (derived, _) = spans.time("trace.derive_occupancy", parent, request, || {
        trace::derive::occupancy_profiler(&events)
    });
    out.check(derived.samples() == c.profiler().samples(), || {
        format!(
            "{}: trace-derived occupancy ({} samples) differs from the live profile ({})",
            a.label,
            derived.samples().len(),
            c.profiler().samples().len()
        )
    });

    if a.cfg.sched_policy.is_backfill() {
        let fills = snapshot
            .counters
            .iter()
            .find(|(n, _)| n == "sched.backfills")
            .map_or(0, |(_, v)| *v);
        out.check(fills > 0, || {
            format!("{}: no backfilled placements", a.label)
        });
    }

    // Record -> replay: the recorded job stream must parse as a trace.
    let Some(log) = r.job_log.as_deref() else {
        out.check(false, || {
            format!("{}: record_jobs produced no log", a.label)
        });
        spans.end(round);
        return;
    };
    let (parsed, _) = spans.time("workload.parse_csv", parent, request, || {
        TraceFile::parse_csv(log)
    });
    match parsed {
        Ok(_) => out.ok_op(),
        Err(e) => out.failed_op(format!("{}: TraceFile::parse_csv: {e}", a.label)),
    }
    // Replay the lines in their recorded order.
    let jobs = recorded_jobs(log);
    let mut prev = SimTime::ZERO;
    for j in &jobs {
        if j.at < prev {
            sums.out_of_order += 1;
        }
        prev = prev.max(j.at);
    }
    sums.trace_lines += jobs.len() as u64;
    out.check(jobs.len() as u64 == r.ledger.submitted, || {
        format!(
            "{}: {} recorded lines for {} submissions",
            a.label,
            jobs.len(),
            r.ledger.submitted
        )
    });
    let (replayed, replay_s) = spans.time("sched.replay", parent, request, || replay(a, &jobs));
    sums.replay_s += replay_s;
    sums.replay_jobs += jobs.len() as u64;
    out.check(replayed.placed == r.ledger.placed, || {
        format!(
            "{}: replay placed {} jobs, the campaign {}",
            a.label, replayed.placed, r.ledger.placed
        )
    });
    out.ok_op();
    spans.end(round);
}

/// The recorded submissions in file order. Each line is parsed on its
/// own by the program's trace parser, which accepts any single line;
/// the order check is what the whole-file parse above exercises.
fn recorded_jobs(log: &str) -> Vec<workload::WorkloadJob> {
    log.lines()
        .skip(1)
        .filter_map(|line| TraceFile::parse_csv(line).ok())
        .flat_map(|t| t.jobs().to_vec())
        .collect()
}

/// Feeds the recorded stream into a fresh engine with the allocation's
/// machine, matcher, coupling, costs and policy, and drains it to the
/// allocation's end.
fn replay(a: &Alloc, jobs: &[workload::WorkloadJob]) -> sched::SchedStats {
    let mut engine = engine_for(a);
    let mut clock = SimTime::ZERO;
    for j in jobs {
        if j.at > clock {
            clock = j.at;
            let _ = engine.advance(clock);
        }
        engine.submit(j.spec.clone(), j.at);
    }
    let _ = engine.advance(SimTime::from_hours(HOURS));
    engine.stats()
}
