//! Chaos-soak integration: determinism, composed-fault invariants, and
//! "teeth" — every live invariant must demonstrably FAIL when the fix it
//! guards is reverted, otherwise the soak is a green lamp, not a gate.
//!
//! The teeth here take two forms:
//! * `monotone_recovery` is run against a supervision config with the
//!   probation fix effectively reverted (`probation_polls = u32::MAX`
//!   means a served probation never resets re-quarantine escalation), and
//!   must go red where the fixed config goes green on the *same* flap
//!   schedule and seed.
//! * `scan_exactly_once` is fed by the pre-fix scan stitch (archive and
//!   window read under separate lock acquisitions) and must detect the
//!   entries that evict between the two reads; the shipped stitch, which
//!   holds the window read lock across both, loses nothing on the same
//!   interleaving.

use apollo_bench::soak::{self, ScanLedger, SoakConfig};
use apollo_cluster::chaos::ChaosSchedule;
use apollo_cluster::fault::FaultKind;
use apollo_core::health::SupervisorConfig;
use apollo_streams::{Record, Stream, StreamConfig, StreamId};
use std::time::Duration;

fn small_config(seed: u64) -> SoakConfig {
    SoakConfig {
        vertices: 32,
        seed,
        horizon: Duration::from_secs(45),
        checkpoint_every: Duration::from_secs(5),
        scan_topics: 8,
        pump_every: Some(Duration::from_secs(2)),
        pump_stride: 8,
        ..SoakConfig::default()
    }
}

#[test]
fn soak_is_deterministic_per_seed_and_diverges_across_seeds() {
    let config = small_config(11);
    let schedule = soak::standard_schedule(config.vertices, config.seed, config.horizon);
    let first = soak::run(&config, &schedule).unwrap();
    let second = soak::run(&config, &schedule).unwrap();

    assert!(first.all_pass(), "verdicts: {:#?}", first.verdicts);
    assert_eq!(first.digest, second.digest, "same (seed, schedule) must replay bit-identically");
    assert_eq!(first.facts_published, second.facts_published);
    assert_eq!(first.scanned_entries, second.scanned_entries);
    assert_eq!(first.quarantine_recoveries, second.quarantine_recoveries);

    // The composed standard schedule must actually compose: several fault
    // kinds plus the clock-skew perturbation exercising the append clamp.
    assert!(first.fault_kinds.len() >= 3, "kinds: {:?}", first.fault_kinds);
    assert!(first.clock_regressions > 0, "skew must reach Stream::append");

    let other_seed = SoakConfig { seed: 12, ..config.clone() };
    let other_schedule =
        soak::standard_schedule(other_seed.vertices, other_seed.seed, other_seed.horizon);
    let third = soak::run(&other_seed, &other_schedule).unwrap();
    assert!(third.all_pass(), "verdicts: {:#?}", third.verdicts);
    assert_ne!(first.digest, third.digest, "different seeds must diverge");
}

/// The same seeded smoke with every topic window spilling into a
/// temp-dir slab store instead of a private ring per topic: the four
/// verdicts must hold unchanged on the durable store.
#[test]
fn slab_backed_soak_holds_the_same_verdicts() {
    use apollo_streams::{SlabConfig, SlabStore};
    let path = std::env::temp_dir().join(format!("apollo-chaos-spill-{}.slab", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let store =
        SlabStore::create(&path, SlabConfig { slots: 1_024, ..SlabConfig::default() }).unwrap();
    let mut config = small_config(11);
    config.stream = config.stream.with_slab(store.clone());
    let schedule = soak::standard_schedule(config.vertices, config.seed, config.horizon);
    let out = soak::run(&config, &schedule).unwrap();
    let _ = std::fs::remove_file(&path);

    for name in ["scan_exactly_once", "monotone_recovery", "bounded_memory", "no_escaped_panics"] {
        let verdict = out.verdict(name).expect("verdict present");
        assert!(verdict.pass, "{name}: {}", verdict.detail);
    }
    // Teeth against a silently skipped arm: evictions really landed in
    // the store, and none fell back to a private ring.
    let stats = store.stats();
    assert!(stats.appended > 0, "no eviction was recorded into the slab");
    assert_eq!(stats.series_fallbacks, 0, "a topic fell back to a private ring");
}

#[test]
fn churned_soak_gc_is_deterministic_and_holds_the_fixed_point() {
    use apollo_bench::SlabChurnConfig;
    use apollo_streams::{CompactPolicy, SlabConfig, SlabStore};
    let dir = std::env::temp_dir().join(format!("apollo-chaos-churn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |tag: &str| {
        let path = dir.join(format!("{tag}.slab"));
        let _ = std::fs::remove_file(&path);
        let store = SlabStore::create(
            &path,
            SlabConfig { max_series: 64, slots: 64, ..SlabConfig::default() },
        )
        .unwrap();
        let config = SoakConfig {
            slab_churn: Some(SlabChurnConfig {
                store,
                retention: CompactPolicy { retention_ms: 2_000 },
                series_per_checkpoint: 6,
                records_per_series: 12,
                max_live_series: 18,
            }),
            ..small_config(31)
        };
        let schedule = soak::standard_schedule(config.vertices, config.seed, config.horizon);
        let out = soak::run(&config, &schedule).unwrap();
        let _ = std::fs::remove_file(&path);
        out
    };
    let first = run("a");
    let second = run("b");
    assert!(first.all_pass(), "verdicts: {:#?}", first.verdicts);
    let verdict = first.verdict("slab_churn_fixed_point").expect("churn verdict present");
    assert!(verdict.pass, "{}", verdict.detail);
    assert!(first.slab_reclaimed_series > 0, "the lifecycle reclaimed churned series");
    assert!(first.slab_peak_series <= 18, "peak {}", first.slab_peak_series);
    // Series GC runs on the virtual-clock event loop, so a churned soak
    // must still replay bit-identically — including the GC's own work.
    assert_eq!(first.digest, second.digest, "churn must not perturb the replayable surface");
    assert_eq!(first.slab_reclaimed_series, second.slab_reclaimed_series);
    assert_eq!(first.slab_peak_series, second.slab_peak_series);
}

/// The flap schedule and supervision used by both sides of the
/// monotone-recovery teeth: six quarantine episodes per source, with an
/// escalating re-quarantine backoff whose cap (64 s) dwarfs the recovery
/// deadline unless served probation resets the episode count.
fn flap_schedule(seed: u64, horizon: Duration) -> ChaosSchedule {
    ChaosSchedule::new("flap-teeth", seed, horizon).correlated_flaps(
        vec![soak::vertex_name(0), soak::vertex_name(1)],
        FaultKind::ErrorBurst,
        Duration::from_secs(5),
        Duration::from_secs(12),
        Duration::from_secs(4),
        6,
    )
}

fn flap_config(probation_polls: u32) -> SoakConfig {
    SoakConfig {
        vertices: 8,
        seed: 23,
        horizon: Duration::from_secs(95),
        checkpoint_every: Duration::from_secs(5),
        scan_topics: 4,
        supervision: SupervisorConfig {
            poll_timeout: Duration::from_millis(250),
            backoff_base: Duration::from_secs(1),
            backoff_cap: Duration::from_secs(64),
            jitter_frac: 0.1,
            degraded_after: 1,
            quarantine_after: 2,
            probe_interval: Duration::from_secs(2),
            recovery_successes: 2,
            requarantine_backoff: 2.0,
            probation_polls,
            ..SupervisorConfig::default()
        },
        recovery_deadline: Duration::from_secs(10),
        ..SoakConfig::default()
    }
}

#[test]
fn reverted_probation_fix_fails_monotone_recovery_teeth() {
    // Revert: probation can never be served, so every episode escalates
    // the probe interval (2 s · 2^episodes, capped at 64 s). By the sixth
    // flap the next probe lands beyond the horizon and the vertex never
    // leaves Quarantined.
    let broken = flap_config(u32::MAX);
    let outcome = soak::run(&broken, &flap_schedule(broken.seed, broken.horizon)).unwrap();
    let verdict = outcome.verdict("monotone_recovery").expect("verdict present");
    assert!(
        !verdict.pass,
        "reverted probation fix must trip the invariant; detail: {}",
        verdict.detail
    );
}

#[test]
fn served_probation_passes_monotone_recovery_on_the_same_schedule() {
    // Fix in place: three healthy polls between flaps serve probation and
    // reset escalation, so every episode probes at the 2 s base interval
    // and recovers well inside the 10 s deadline.
    let fixed = flap_config(3);
    let outcome = soak::run(&fixed, &flap_schedule(fixed.seed, fixed.horizon)).unwrap();
    let verdict = outcome.verdict("monotone_recovery").expect("verdict present");
    assert!(verdict.pass, "fixed probation must recover in time; detail: {}", verdict.detail);
    assert!(outcome.quarantine_recoveries >= 6, "every flap episode must recover");
}

#[test]
fn pre_fix_scan_stitch_fails_exactly_once_teeth() {
    // Reproduce the pre-fix Query Executor stitch: snapshot the archive,
    // then (while a producer keeps appending and evicting) read the live
    // window under a separate lock acquisition. Entries evicted between
    // the two reads appear in neither half.
    let stream = Stream::new("teeth", StreamConfig::bounded(8));
    for ms in 0..100u64 {
        stream.append(1_000 + ms, Record::measured(ms, ms as f64));
    }

    let mut pre_fix: Vec<StreamId> = stream
        .archive()
        .unwrap()
        .range(StreamId::MIN, StreamId::MAX)
        .iter()
        .map(|e| e.id)
        .collect();
    // Concurrent producer lands 40 more appends; the bounded window
    // evicts 40 older entries into the archive after our snapshot.
    for ms in 100..140u64 {
        stream.append(1_000 + ms, Record::measured(ms, ms as f64));
    }
    // Second half of the pre-fix read: the live window only.
    let full = stream.range(StreamId::MIN, StreamId::MAX);
    let window_now = &full[full.len() - stream.len()..];
    pre_fix.extend(window_now.iter().map(|e| e.id));

    let authority: Vec<StreamId> = full.iter().map(|e| e.id).collect();
    let mut ledger = ScanLedger::new();
    ledger.observe("teeth", pre_fix);
    let (lost, phantom) = ledger.verify("teeth", &authority);
    assert!(lost > 0, "separate-lock stitch must lose entries evicted between its two reads");
    assert_eq!(phantom, 0);
    assert_eq!(ledger.duplicates(), 0);

    // The shipped stitch over the same interleaving is exactly-once.
    let mut fixed = ScanLedger::new();
    fixed.observe("teeth", authority.iter().copied());
    assert_eq!(fixed.verify("teeth", &authority), (0, 0));
    assert_eq!(authority.len(), 140, "every append accounted for");
}
