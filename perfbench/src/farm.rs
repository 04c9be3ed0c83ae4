//! The `farm-tenants` workload: the campaign farm behind its JSON-lines
//! server, with two workers, a seeded two-kill plan and two tenants.
//!
//! Set-up is timed from `Farm::new` until a fresh farm has answered a
//! `FarmClient` ping, several times. A round starts a fresh `Farm` and
//! `FarmServer` on 127.0.0.1 with a kill plan over the round's legs. Each
//! tenant runs a closed loop through the program's own `FarmClient`:
//! submit a two-leg campaign, stream it with `FarmClient::stream_until`
//! until it is terminal, check its `status`, then submit the next. The
//! client opens a stream connection per campaign beside the tenant's
//! request connection, so a tenant holds two connections while it
//! streams. Each event's arrival is stamped as the client hands it over,
//! so stage times are what a tenant sees. When both tenants are done the
//! round reads `stats`, checks the kill books, reruns one campaign no
//! kill touched in-process through `Campaign`, and stops the farm.
//! Rounds repeat until `--seconds` have passed and at least
//! [`MIN_CAMPAIGNS`] campaigns have completed.

use std::net::SocketAddr;
use std::time::Instant;

use campaign::Campaign;
use chaos::WorkerKillPlan;
use farm::{Farm, FarmClient, FarmServer};
use trace::Json;

use crate::report::Outcome;
use crate::spans::{now, secs_since, Recorder};
use crate::stats;
use crate::Args;

/// Farm workers.
pub const WORKERS: usize = 2;
/// Tenants: one client thread and one `FarmClient` each.
pub const TENANTS: usize = 2;
/// Campaigns each tenant runs per round.
pub const PER_TENANT: usize = 12;
/// Legs per campaign: the `[[5, 2], [5, 2]]` schedule.
pub const LEGS: u64 = 2;
/// Worker kills planned per round.
pub const KILLS: usize = 2;
/// Campaigns a run completes at least, so that ten fall beyond its p90.
pub const MIN_CAMPAIGNS: usize = 100;
/// Samples timed for `setup_s`.
const SETUP_SAMPLES: usize = 21;
/// Set-ups in one sample.
const SETUP_PER_SAMPLE: usize = 16;

/// The chaos suite's small-but-busy campaign: attrition off, short CG
/// targets so sims turn over (and place) early in a leg.
pub fn submit_line(tenant: usize, seed: u64) -> String {
    format!(
        concat!(
            r#"{{"op": "submit", "tenant": "tenant-{}", "schedule": [[5, 2], [5, 2]], "#,
            r#""config": {{"patches_per_snapshot": 6, "frames_per_sim_per_min": 0.05, "#,
            r#""cg_target_us": 0.2, "aa_target_ns": [5, 8], "queue_cap": 500, "#,
            r#""policy": "first_match", "coupling": "async", "#,
            r#""submit_rate_per_min": 600, "job_timeout_grace": 1.5, "#,
            r#""node_failures_per_day": 0, "job_failure_prob": 0, "seed": {}}}}}"#
        ),
        tenant, seed
    )
}

/// Stage times of one campaign, in milliseconds from the return of its
/// submit call.
#[derive(Debug, Clone, PartialEq)]
pub struct Stages {
    /// Submit return -> first `leg.start`.
    pub admission_wait_ms: f64,
    /// First `leg.start` -> `first_placement` (the `leg.start` that
    /// preceded it, which differs when a kill restarted the first leg).
    pub leg_startup_ms: f64,
    /// Submit return -> `first_placement`.
    pub first_placement_ms: f64,
    /// `leg.start` -> `leg.done`, one per completed leg.
    pub legs_s: Vec<f64>,
    pub completed: bool,
}

/// Splits a campaign's streamed events, `(kind, arrival ms after the
/// submit returned)`, into stages. `None` when an event the split needs
/// never arrived.
pub fn split_stages(events: &[(String, f64)]) -> Option<Stages> {
    let mut first_start = None;
    let mut last_start = None;
    let mut placement = None;
    let mut legs_s = Vec::new();
    let mut completed = false;
    for (kind, t) in events {
        match kind.as_str() {
            "leg.start" => {
                first_start.get_or_insert(*t);
                last_start = Some(*t);
            }
            "first_placement" if placement.is_none() => {
                placement = Some((*t, last_start?));
            }
            "leg.done" => legs_s.push((t - last_start?) / 1e3),
            "completed" => completed = true,
            _ => {}
        }
    }
    let (placed_at, started_at) = placement?;
    Some(Stages {
        admission_wait_ms: first_start?,
        leg_startup_ms: placed_at - started_at,
        first_placement_ms: placed_at,
        legs_s,
        completed,
    })
}

/// What one tenant saw in one round.
#[derive(Debug, Default)]
struct TenantRun {
    submit_rtt_ms: Vec<f64>,
    /// Submit call -> arrival of `first_placement`: the wait a tenant
    /// sees, submit round trip included.
    placement_ms: Vec<f64>,
    stages: Vec<Stages>,
    /// `(submit line, status)` of every completed campaign.
    statuses: Vec<(String, Json)>,
    failures: Vec<String>,
    problems: Vec<String>,
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Runs one campaign through submit, stream and status.
fn one_campaign(
    client: &mut FarmClient,
    line: &str,
    run: &mut TenantRun,
    spans: &mut Recorder,
    request: u64,
) -> Result<(), String> {
    let root = spans.begin("farm.campaign", None, request);
    let parent = Some(root.id);
    let submit = spans.begin("farm.submit", parent, request);
    let start = now();
    let id = client.submit_line(line)?;
    let returned = now();
    spans.end(submit);
    let submit_rtt_ms = ms_since(start, returned);
    run.submit_rtt_ms.push(submit_rtt_ms);

    let stream = spans.begin("farm.stream", parent, request);
    let mut events = Vec::new();
    let (_, done) = client.stream_until(id, 0, |ev| {
        let kind = ev.get("kind").and_then(Json::as_str).unwrap_or("");
        events.push((kind.to_string(), ms_since(returned, now())));
        false
    })?;
    spans.end(stream);
    if !done {
        return Err(format!(
            "stream of campaign {id} ended before it was terminal"
        ));
    }

    let status = spans.begin("farm.status", parent, request);
    let st = client.status(id)?;
    spans.end(status);
    spans.end(root);

    match split_stages(&events) {
        Some(s) => {
            run.placement_ms.push(submit_rtt_ms + s.first_placement_ms);
            if !s.completed {
                run.problems.push(format!("campaign {id} never completed"));
            }
            run.stages.push(s);
        }
        None => run.problems.push(format!(
            "campaign {id}: stream lacks leg.start or first_placement"
        )),
    }
    if st.get("ledger_ok") != Some(&Json::Bool(true)) {
        run.problems
            .push(format!("campaign {id}: ledger does not reconcile"));
    }
    if num(&st, "legs_done") != LEGS as f64 {
        run.problems.push(format!(
            "campaign {id}: {} legs done",
            num(&st, "legs_done")
        ));
    }
    run.statuses.push((line.to_string(), st));
    Ok(())
}

fn ms_since(t0: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(t0).as_secs_f64() * 1e3
}

fn tenant_loop(
    addr: SocketAddr,
    tenant: usize,
    seed: u64,
    round: u64,
    spans: &mut Recorder,
) -> (TenantRun, Option<FarmClient>) {
    let mut run = TenantRun::default();
    let mut client = match FarmClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.failures.push(format!("connect: {e}"));
            return (run, None);
        }
    };
    for i in 0..PER_TENANT {
        let n = (round * TENANTS as u64 + tenant as u64) * PER_TENANT as u64 + i as u64;
        let line = submit_line(tenant, seed.wrapping_mul(1_000_003).wrapping_add(n));
        if let Err(e) = one_campaign(&mut client, &line, &mut run, spans, n) {
            run.failures
                .push(format!("tenant {tenant} campaign {i}: {e}"));
        }
    }
    (run, Some(client))
}

/// Per-run accumulators.
#[derive(Debug, Default)]
struct Totals {
    setups: Vec<f64>,
    rounds: Vec<f64>,
    campaigns: usize,
    submit_rtt_ms: Vec<f64>,
    placement_ms: Vec<f64>,
    stages: Vec<Stages>,
    legs_completed: f64,
    recoveries: f64,
    kills_mid_leg: f64,
    batch_s: Vec<f64>,
}

pub fn run(args: &Args, spans: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    let mut totals = Totals::default();
    for _ in 0..SETUP_SAMPLES {
        match (0..SETUP_PER_SAMPLE)
            .map(|_| setup_once())
            .sum::<Result<f64, _>>()
        {
            Ok(secs) => totals.setups.push(secs / SETUP_PER_SAMPLE as f64),
            Err(e) => {
                out.check(false, || format!("set-up: {e}"));
                return out;
            }
        }
    }
    let t_start = now();
    let mut round = 0u64;
    while round == 0 || secs_since(t_start) < args.seconds || totals.campaigns < MIN_CAMPAIGNS {
        if let Err(e) = farm_round(args, round, &mut out, &mut totals, spans) {
            out.check(false, || format!("round {round}: {e}"));
            break;
        }
        round += 1;
    }
    let window: f64 = totals.rounds.iter().sum();
    let lat = stats::summarize(&totals.placement_ms);
    if args.trace {
        let med = |v: Vec<f64>| stats::median(&v);
        out.set("farm.submit_rtt_ms", med(totals.submit_rtt_ms.clone()));
        out.set(
            "farm.admission_wait_ms",
            med(totals.stages.iter().map(|s| s.admission_wait_ms).collect()),
        );
        out.set(
            "farm.leg_startup_ms",
            med(totals.stages.iter().map(|s| s.leg_startup_ms).collect()),
        );
        out.set(
            "farm.leg_s",
            med(totals
                .stages
                .iter()
                .flat_map(|s| s.legs_s.clone())
                .collect()),
        );
        out.set("farm.legs_completed", totals.legs_completed);
        out.set("farm.recoveries", totals.recoveries);
        out.set("farm.kills_mid_leg", totals.kills_mid_leg);
        out.set("farm.batch_campaign_s", med(totals.batch_s.clone()));
        for name in [
            "farm.submit_rtt_ms",
            "farm.admission_wait_ms",
            "farm.leg_startup_ms",
        ] {
            out.note(name, format!("median, n={}", totals.stages.len()));
        }
    } else {
        out.set("setup_s", stats::median(&totals.setups));
        out.note(
            "setup_s",
            format!(
                "median of {} samples of {SETUP_PER_SAMPLE} Farm::new -> first ping answered",
                totals.setups.len()
            ),
        );
        out.set("wall_s", stats::median(&totals.rounds));
        out.note(
            "wall_s",
            format!("median of {} rounds", totals.rounds.len()),
        );
        out.set("ops_per_s", totals.campaigns as f64 / window);
        out.note("ops_per_s", "completed campaigns per second".into());
        out.set("latency_p50_ms", lat.p50);
        out.set("latency_tail_ms", lat.tail);
        out.note(
            "latency_p50_ms",
            format!("submit call -> first_placement, n={}", lat.count),
        );
        out.note(
            "latency_tail_ms",
            format!(
                "{} of submit call -> first_placement, n={}",
                lat.tail_label, lat.count
            ),
        );
    }
    out
}

/// Times one set-up: from `Farm::new` until the new farm has answered a
/// `FarmClient` ping over the wire. Then stops it.
fn setup_once() -> Result<f64, String> {
    let t0 = now();
    let server = FarmServer::start(Farm::new(WORKERS, WorkerKillPlan::empty()), "127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let pinged = FarmClient::connect(server.addr())
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut c| c.ping());
    let secs = secs_since(t0);
    server.stop();
    pinged.map(|()| secs)
}

fn farm_round(
    args: &Args,
    round: u64,
    out: &mut Outcome,
    totals: &mut Totals,
    spans: &mut Recorder,
) -> Result<(), String> {
    let campaigns = TENANTS * PER_TENANT;
    let plan = WorkerKillPlan::generate(
        args.seed ^ (round << 32),
        WORKERS,
        campaigns as u64 * LEGS,
        KILLS,
    );
    let kills_planned = plan.kills.len();
    let server = FarmServer::start(Farm::new(WORKERS, plan), "127.0.0.1:0")
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();

    let t_round = now();
    let handles: Vec<_> = (0..TENANTS)
        .map(|tenant| {
            let mut tspans = spans.for_thread(1 + tenant as u64);
            let seed = args.seed;
            let body = move || {
                let (run, conn) = tenant_loop(addr, tenant, seed, round, &mut tspans);
                (run, conn, tspans)
            };
            std::thread::spawn(body) // lint: allow(L8: each tenant is one of the workload's two client threads)
        })
        .collect();
    let mut runs = Vec::new();
    let mut conn = None;
    for h in handles {
        let (run, c, tspans) = h.join().map_err(|_| "tenant thread panicked")?;
        spans.absorb(tspans);
        conn = conn.or(c);
        runs.push(run);
    }
    totals.rounds.push(secs_since(t_round));

    let mut statuses = Vec::new();
    for run in runs {
        out.attempted += (run.statuses.len() + run.failures.len()) as u64;
        out.failed += run.failures.len() as u64;
        for f in &run.failures {
            eprintln!("perfbench: operation failed: {f}");
        }
        out.problems.extend(run.problems);
        totals.campaigns += run.statuses.len();
        totals.submit_rtt_ms.extend(run.submit_rtt_ms);
        totals.placement_ms.extend(run.placement_ms);
        totals.stages.extend(run.stages);
        statuses.extend(run.statuses);
    }

    // The kill books, from the farm's own counters.
    let stats = match conn.as_mut() {
        Some(client) => {
            out.ok_op();
            client.stats()
        }
        None => Err("no tenant connection left".to_string()),
    };
    drop(conn);
    server.stop();
    let stats = stats?;
    let (fired, mid, recoveries) = (
        num(&stats, "kills_fired"),
        num(&stats, "kills_mid_leg"),
        num(&stats, "recoveries"),
    );
    out.check(num(&stats, "completed") == campaigns as f64, || {
        format!(
            "round {round}: {} of {campaigns} campaigns completed",
            num(&stats, "completed")
        )
    });
    out.check(fired == kills_planned as f64, || {
        format!("round {round}: {fired} kills fired, {kills_planned} planned")
    });
    out.check(recoveries == mid, || {
        format!("round {round}: {recoveries} recoveries for {mid} mid-leg kills")
    });
    totals.legs_completed += num(&stats, "legs_completed");
    totals.recoveries += recoveries;
    totals.kills_mid_leg += mid;

    // One campaign no kill touched, rerun in-process.
    let untouched = statuses.iter().find(|(_, st)| num(st, "recoveries") == 0.0);
    match untouched {
        Some((line, st)) => {
            let (rerun, secs) = spans.time("campaign.batch_rerun", None, round, || rerun(line));
            let (placed, sims) = rerun?;
            totals.batch_s.push(secs);
            out.check(
                placed as f64 == num(st, "placed") && sims as f64 == num(st, "sims_completed"),
                || {
                    format!(
                        "in-process rerun placed {placed} and completed {sims}, the farm {} and {}",
                        num(st, "placed"),
                        num(st, "sims_completed")
                    )
                },
            );
        }
        None => out.check(false, || {
            format!("round {round}: every campaign was killed")
        }),
    }
    Ok(())
}

/// Runs a submission's campaign in-process through `Campaign`, leg by
/// leg on one warm campaign as a farm worker does; returns its placed
/// and completed-sim totals.
fn rerun(line: &str) -> Result<(u64, u64), String> {
    let farm::Request::Submit(spec) = farm::Request::decode(line)? else {
        return Err("not a submission".to_string());
    };
    let mut c = Campaign::new(spec.cfg.clone());
    let (mut placed, mut sims) = (0, 0);
    for &(nodes, hours) in &spec.schedule {
        let r = c.execute_run(nodes, hours);
        placed += r.placed;
        sims += r.sims_completed;
    }
    Ok((placed, sims))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(list: &[(&str, f64)]) -> Vec<(String, f64)> {
        list.iter().map(|(k, t)| (k.to_string(), *t)).collect()
    }

    #[test]
    fn splits_a_clean_two_leg_campaign() {
        let s = split_stages(&ev(&[
            ("queued", 0.5),
            ("leg.start", 2.0),
            ("first_placement", 30.0),
            ("leg.done", 31.0),
            ("leg.start", 40.0),
            ("leg.done", 70.0),
            ("completed", 70.5),
        ]))
        .expect("splits");
        assert_eq!(s.admission_wait_ms, 2.0);
        assert_eq!(s.leg_startup_ms, 28.0);
        assert_eq!(s.first_placement_ms, 30.0);
        assert_eq!(s.legs_s, vec![0.029, 0.03]);
        assert!(s.completed);
    }

    #[test]
    fn a_killed_first_leg_restarts_the_startup_clock() {
        let s = split_stages(&ev(&[
            ("leg.start", 1.0),
            ("worker.killed", 9.0),
            ("leg.start", 12.0),
            ("first_placement", 20.0),
            ("leg.done", 21.0),
        ]))
        .expect("splits");
        // Admission is the wait for the first start; start-up is timed
        // from the start that led to the placement.
        assert_eq!(s.admission_wait_ms, 1.0);
        assert_eq!(s.leg_startup_ms, 8.0);
        assert_eq!(s.legs_s, vec![0.009]);
        assert!(!s.completed);
    }

    #[test]
    fn missing_stages_are_refused() {
        assert_eq!(
            split_stages(&ev(&[("queued", 0.0), ("completed", 1.0)])),
            None
        );
        assert_eq!(split_stages(&ev(&[("first_placement", 1.0)])), None);
    }

    #[test]
    fn the_submit_line_decodes_to_the_two_leg_schedule() {
        let line = submit_line(1, 42);
        match farm::Request::decode(&line).expect("decodes") {
            farm::Request::Submit(spec) => {
                assert_eq!(spec.tenant, "tenant-1");
                assert_eq!(spec.schedule, vec![(5, 2), (5, 2)]);
                assert_eq!(spec.cfg.seed, 42);
            }
            other => panic!("decoded {other:?}"),
        }
    }
}
