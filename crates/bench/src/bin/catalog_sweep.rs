//! Catalog sweep: lookup latency and DRAM footprint of the micro-paged
//! PMem model catalog as the model population grows from 10^2 to 10^6.
//!
//! For each population size the harness formats a namespace, mounts
//! the catalog, and bulk-loads synthetic models (`tenant-XXX/model-N`
//! names, so every page of one tenant shares a 16-byte prefix the
//! directory probes must read past; offsets synthetic — the
//! ModelTable's linear create scan would dominate and is not what this
//! sweep measures). It then reports wall-clock
//! latencies (the simulated device does real decode work per page
//! touched, so relative costs track pages probed):
//!
//! - **cold p99**: lookups with the DRAM page cache disabled — every
//!   probe decodes its micro-page from PMem. A cold lookup is a few
//!   tens of µs on a shared host, so one pass's p99 swings by 2x; the
//!   sweep runs [`COLD_PASSES`] passes and reports the median of their
//!   p99s with its quartiles;
//! - **warm p99**: lookups over a working set that fits the clamped
//!   CLOCK cache, measured after one warming pass;
//! - **linear p99**: a page-by-page scan baseline (what a catalog
//!   without its sorted directory would pay), sampled sparsely because
//!   each probe walks half the page list;
//! - **DRAM bytes**: the decoded-page cache footprint, which must stay
//!   under `cache_pages` slots and under the decoded-size bound
//!   `cache_pages * (4 * page_bytes + 64)` at every population size
//!   (a decoded entry costs at most 4x its packed media bytes).
//!
//! At the top of the axis the directory binary search must beat the
//! linear scan by at least 10x on p99 (the linear p99 over the median
//! cold p99) — the acceptance bar for the catalog being O(log pages)
//! rather than O(pages).
//!
//! `--smoke` shrinks the axis for CI.

use std::sync::Arc;
use std::time::Instant;

use portus::{CatalogConfig, Index};
use portus_pmem::{micropage, PmemDevice, PmemMode};
use portus_sim::{SimContext, SimRng};

fn model_name(i: u64) -> String {
    format!("tenant-{:03}/model-{:07}", i % 499, i)
}

/// Formats a namespace sized for `n` models, mounts the catalog with
/// `cache_pages`, and bulk-loads the synthetic population.
fn build_catalog(n: u64, cache_pages: usize) -> portus::PortusResult<Index> {
    // ~35 B/entry packed into 4 KiB pages; leave generous headroom for
    // the allocator table, the root, and the directory.
    let capacity = (n * 128).next_power_of_two().max(1 << 22);
    let slots = ((n / 64).next_power_of_two() as u32).max(1024);
    let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, capacity);
    let index = Index::format(dev, 16, slots)?;
    let cfg = CatalogConfig {
        cache_pages,
        ..CatalogConfig::default()
    };
    index.enable_catalog(&cfg)?;
    let entries: Vec<(String, u64)> = (0..n).map(|i| (model_name(i), 4096 + i * 64)).collect();
    let cat = index.catalog().expect("catalog just enabled");
    cat.bulk_replace(index.allocator(), &entries)?;
    Ok(index)
}

/// Wall-clock nanoseconds one catalog lookup takes.
fn timed_lookup(index: &Index, name: &str) -> u64 {
    let cat = index.catalog().expect("catalog mounted");
    let t0 = Instant::now();
    let got = cat.lookup(name).expect("lookup");
    let dt = t0.elapsed();
    assert!(got.is_some(), "sampled name {name} must resolve");
    dt.as_nanos() as u64
}

/// Wall-clock nanoseconds a linear page-by-page scan takes: the
/// baseline a catalog without its sorted directory would pay.
fn timed_linear_scan(index: &Index, pages: &[u64], name: &str) -> u64 {
    let dev: &Arc<PmemDevice> = index.allocator().device();
    let page_bytes = CatalogConfig::default().page_bytes;
    let t0 = Instant::now();
    let mut found = None;
    for &p in pages {
        if let Some(off) = micropage::search_page(dev, p, page_bytes, name).expect("page probe") {
            found = Some(off);
            break;
        }
    }
    let dt = t0.elapsed();
    assert!(found.is_some(), "linear scan must find {name}");
    dt.as_nanos() as u64
}

/// Cold passes per population size; each pass is its own p99.
const COLD_PASSES: usize = 5;

fn p99(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[((samples.len() * 99) / 100).min(samples.len() - 1)]
}

fn sweep_point(n: u64) -> serde_json::Value {
    let mut rng = SimRng::new(0x9e3779b97f4a7c15 ^ n);
    let samples = 512.min(n as usize);

    // Cold: cache disabled, uniform random names, one p99 per pass;
    // `cold[1..=3]` are the quartiles and median of the sorted p99s.
    let cold_index = build_catalog(n, 0).expect("cold build");
    let mut cold: Vec<u64> = (0..COLD_PASSES)
        .map(|_| {
            let mut pass: Vec<u64> = (0..samples)
                .map(|_| timed_lookup(&cold_index, &model_name(rng.gen_range(n))))
                .collect();
            p99(&mut pass)
        })
        .collect();
    cold.sort_unstable();
    let (cold_q1, cold_p99, cold_q3) = (cold[1], cold[2], cold[3]);

    // Linear baseline on the same (cache-free) catalog: sparse sample,
    // each probe walks the page list from the front.
    let cat = cold_index.catalog().expect("catalog mounted");
    let pages = cat.page_offsets().expect("page offsets");
    let linear_samples = 32.min(n as usize);
    let mut linear: Vec<u64> = (0..linear_samples)
        .map(|_| timed_linear_scan(&cold_index, &pages, &model_name(rng.gen_range(n))))
        .collect();

    // Warm: clamped cache, working set that fits it — one warming pass,
    // then the measured pass. Names sort tenant-first, so "one tenant's
    // models" is a contiguous key range spanning a handful of pages;
    // a contiguous *index* range would scatter across every tenant.
    let warm_index = build_catalog(n, CatalogConfig::default().cache_pages).expect("warm build");
    let tenant = rng.gen_range(499);
    let group = (n / 499) + u64::from(tenant < n % 499);
    let working: Vec<String> = (0..samples)
        .map(|_| {
            if group == 0 {
                model_name(rng.gen_range(n))
            } else {
                model_name(tenant + 499 * (rng.gen_range(group)))
            }
        })
        .collect();
    for name in &working {
        timed_lookup(&warm_index, name);
    }
    let mut warm: Vec<u64> = working
        .iter()
        .map(|name| timed_lookup(&warm_index, name))
        .collect();

    let stats = warm_index.catalog().expect("catalog mounted").stats();
    let cfg = CatalogConfig::default();
    assert!(
        stats.cached_pages <= cfg.cache_pages as u64,
        "CLOCK cache holds {} pages, clamp is {}",
        stats.cached_pages,
        cfg.cache_pages
    );
    let clamp = cfg.cache_pages as u64 * (4 * cfg.page_bytes + 64);
    assert!(
        stats.cache_bytes <= clamp,
        "DRAM cache {} bytes exceeds decoded-size bound {}",
        stats.cache_bytes,
        clamp
    );

    let (warm_p99, linear_p99) = (p99(&mut warm), p99(&mut linear));
    println!(
        "{:>9} {:>7} {:>24} {:>10} {:>12} {:>8.1}x {:>11}",
        n,
        stats.pages,
        format!("{cold_p99} [{cold_q1}-{cold_q3}]"),
        warm_p99,
        linear_p99,
        linear_p99 as f64 / cold_p99.max(1) as f64,
        stats.cache_bytes
    );
    serde_json::json!({
        "models": n,
        "pages": stats.pages,
        "entries": stats.entries,
        "cold_p99_ns": cold_p99,
        "cold_p99_q1_ns": cold_q1,
        "cold_p99_q3_ns": cold_q3,
        "warm_p99_ns": warm_p99,
        "linear_p99_ns": linear_p99,
        "speedup_vs_linear": linear_p99 as f64 / cold_p99.max(1) as f64,
        "cache_bytes": stats.cache_bytes,
        "cache_clamp_bytes": clamp,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let axis: &[u64] = if smoke {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000, 1_000_000]
    };
    println!("Catalog sweep — micro-paged index, lookup p99 vs model count");
    println!(
        "{:>9} {:>7} {:>24} {:>10} {:>12} {:>9} {:>11}",
        "models", "pages", "cold(ns) [q1-q3]", "warm(ns)", "linear(ns)", "vs lin", "cache(B)"
    );
    let rows: Vec<serde_json::Value> = axis.iter().map(|&n| sweep_point(n)).collect();

    let top = rows.last().expect("non-empty axis");
    let speedup = top["speedup_vs_linear"].as_f64().expect("speedup");
    let warm = top["warm_p99_ns"].as_u64().expect("warm");
    let cold = top["cold_p99_ns"].as_u64().expect("cold");
    println!(
        "\ntop of axis ({} models): cold p99 {} ns, warm p99 {} ns, {:.1}x over linear scan",
        top["models"].as_u64().expect("models"),
        cold,
        warm,
        speedup
    );
    assert!(
        speedup >= 10.0,
        "catalog lookup must beat the linear page scan by >= 10x at the top of the axis, got {speedup:.1}x"
    );
    let path = portus_bench::write_experiment("catalog_sweep", &serde_json::json!(rows));
    println!("wrote {}", path.display());
}
