//! Determinism self-tests of the benchmark, and the match between the
//! metrics it emits and the ones `BENCHMARK.json` declares.
//!
//! The workloads move hundreds of MiB; run these optimised:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::Mutex;

use portus_perfbench::{fleet, hub, layers, recsys, run, zoo, Metrics, Opts, Workload, GATED};

/// The workloads each hold up to ~2 GiB; run them one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Metrics read off the virtual clock or counted: everything but host
/// time and memory.
fn virtual_part(m: &Metrics) -> Vec<(String, f64)> {
    m.0.iter()
        .filter(|x| !Metrics::is_host(&x.name))
        .map(|x| (x.name.clone(), x.value))
        .collect()
}

fn sample_only(seed: u64, trace: bool) -> Opts {
    Opts {
        seed,
        seconds: 0.0,
        trace,
    }
}

#[test]
fn same_seed_repeats_every_virtual_metric_and_count() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let a = run(w, sample_only(7, false));
        let b = run(w, sample_only(7, false));
        assert!(a.correct(), "{}: {:?}", w.name(), a.errors);
        assert_eq!(a.attempted, b.attempted, "{}", w.name());
        let va = virtual_part(&a.e2e);
        assert!(va.len() >= 3, "{}: too few virtual metrics", w.name());
        assert_eq!(va, virtual_part(&b.e2e), "{}", w.name());
    }
}

#[test]
fn same_seed_repeats_the_traced_layers_and_trace() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for w in [Workload::ModelHub, Workload::FleetAsync] {
        let a = run(w, sample_only(3, true));
        let b = run(w, sample_only(3, true));
        assert!(a.correct(), "{}: {:?}", w.name(), a.errors);
        assert_eq!(
            virtual_part(&a.layers),
            virtual_part(&b.layers),
            "{}",
            w.name()
        );
        assert_eq!(a.chrome_trace, b.chrome_trace, "{}", w.name());
    }
}

#[test]
fn another_seed_changes_the_generated_operations() {
    let units = 64;
    let visits = |seed| (0..units).map(|i| zoo::visit(seed, i)).collect::<Vec<_>>();
    let zoo_a = visits(1);
    assert_ne!(zoo_a, visits(2));
    let touched = |seed| {
        (0..units)
            .map(|i| recsys::touched(seed, i))
            .collect::<Vec<_>>()
    };
    assert_ne!(touched(1), touched(2));
    let picks = |seed| (0..units).map(|i| hub::pick(seed, i)).collect::<Vec<_>>();
    assert_ne!(picks(1), picks(2));
    assert_ne!(fleet::config(1, 0), fleet::config(2, 0));
    // Every round of zoo-full still visits each model once.
    for round in zoo_a.chunks(4) {
        let mut r = round.to_vec();
        r.sort_unstable();
        assert_eq!(r, [0, 1, 2, 3]);
    }
}

#[test]
fn benchmark_json_declares_what_the_binary_emits() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    let names: Vec<&str> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(GATED.iter().copied())
        .chain(layers::NAMES.iter().map(|(n, _)| *n))
        .collect();
    for name in &names {
        assert!(declared(name), "{name} missing from BENCHMARK.json");
    }
    assert_eq!(json.matches("\"name\":").count(), names.len());
}
