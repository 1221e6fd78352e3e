//! Multi-tenant quality of service: token-bucket admission control and
//! weighted-fair lane arbitration.
//!
//! The daemon serves many tenants over one dispatch pool, one PMem
//! device, and one set of lane-pinned queue pairs. Without policy, a
//! bursty tenant monopolizes all three. This module adds the two
//! mechanisms DESIGN.md §17 describes:
//!
//! * [`TokenBucket`] — per-tenant bytes/sec and ops/sec budgets,
//!   refilled on the **virtual clock** so deterministic runs admit and
//!   shed identically. Over-budget checkpoint requests are shed with a
//!   typed [`crate::PortusError::Throttled`] carrying a `retry_after`
//!   hint computed from the bucket's exact deficit.
//! * `LaneArbiter` (crate-internal) — weighted deficit-round-robin over the striped
//!   datapath's QP lanes: each tenant may claim at most its weighted
//!   share of lanes while other tenants are active, and lane selection
//!   prefers the lanes a tenant has charged the least weighted bytes
//!   to, so a heavy tenant cannot pin every NIC engine.
//!
//! Restores bypass the buckets entirely (they are latency-critical
//! recovery traffic) and ride the dispatch pool's urgent class instead.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use portus_sim::{SimDuration, SimTime};

/// Nanoseconds per second — the fixed-point scale of bucket balances.
const NS_PER_SEC: i128 = 1_000_000_000;

/// Per-tenant QoS parameters. A rate of `0` means *unlimited* for that
/// dimension; a burst of `0` defaults to one second's worth of the
/// rate. Weights steer the lane arbiter and must be at least 1 (a `0`
/// is treated as 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantQos {
    /// Admitted checkpoint payload bytes per virtual second
    /// (`0` = unlimited).
    pub bytes_per_sec: u64,
    /// Admitted checkpoint operations per virtual second
    /// (`0` = unlimited).
    pub ops_per_sec: u64,
    /// Byte-bucket capacity (`0` = one second of `bytes_per_sec`).
    pub burst_bytes: u64,
    /// Op-bucket capacity (`0` = one second of `ops_per_sec`).
    pub burst_ops: u64,
    /// Weighted-fair share of the striped datapath's QP lanes.
    pub weight: u32,
}

impl Default for TenantQos {
    fn default() -> Self {
        TenantQos {
            bytes_per_sec: 0,
            ops_per_sec: 0,
            burst_bytes: 0,
            burst_ops: 0,
            weight: 1,
        }
    }
}

impl TenantQos {
    /// A tenant capped at `bytes_per_sec` checkpoint payload bytes per
    /// virtual second (ops unlimited, default weight).
    pub fn limited_bytes(bytes_per_sec: u64) -> TenantQos {
        TenantQos {
            bytes_per_sec,
            ..TenantQos::default()
        }
    }

    /// The effective (non-zero) lane weight.
    pub fn lane_weight(&self) -> u32 {
        self.weight.max(1)
    }
}

/// Daemon-wide QoS configuration: a default profile plus per-tenant
/// overrides keyed by tenant name. The all-default configuration is
/// policy-free — every tenant is unlimited with weight 1, and the
/// daemon behaves exactly as it did before QoS existed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QosConfig {
    /// Profile applied to tenants without an explicit entry.
    pub default_tenant: TenantQos,
    /// Per-tenant overrides.
    pub tenants: BTreeMap<String, TenantQos>,
}

impl QosConfig {
    /// The profile governing `tenant`.
    pub fn for_tenant(&self, tenant: &str) -> &TenantQos {
        self.tenants.get(tenant).unwrap_or(&self.default_tenant)
    }
}

/// A deterministic token bucket refilled on the virtual clock.
///
/// The balance is kept in fixed-point token-nanoseconds (`tokens ×
/// 10⁹`), so refills of `elapsed_ns × rate` lose no fractional tokens
/// and identical `(amount, instant)` sequences always produce identical
/// admit/shed decisions — the property the determinism test in
/// `tests/multi_tenant.rs` pins.
///
/// Admission is debt-based: a request is admitted whenever the balance
/// is positive and then charged in full, letting the balance go
/// negative. Oversized requests (larger than the burst) therefore still
/// pass eventually, and the *long-run* admitted rate is capped at
/// exactly `rate_per_sec` either way.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: u64,
    burst_scaled: i128,
    balance_scaled: i128,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A bucket admitting `rate_per_sec` tokens per virtual second with
    /// capacity `burst` (`0` = one second of the rate), starting full.
    /// A zero rate means unlimited: every `try_take` succeeds.
    pub fn new(rate_per_sec: u64, burst: u64) -> TokenBucket {
        let burst = if burst == 0 { rate_per_sec } else { burst };
        let burst_scaled = burst as i128 * NS_PER_SEC;
        TokenBucket {
            rate_per_sec,
            burst_scaled,
            balance_scaled: burst_scaled,
            last_refill: SimTime::ZERO,
        }
    }

    /// Refills tokens accrued between `last_refill` and `now`. The
    /// clock is monotone; a stale `now` (possible when two threads race
    /// the shared clock) is simply ignored.
    fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_refill);
        if elapsed.is_zero() {
            return;
        }
        self.balance_scaled = (self.balance_scaled
            + elapsed.as_nanos() as i128 * self.rate_per_sec as i128)
            .min(self.burst_scaled);
        self.last_refill = self.last_refill.max(now);
    }

    /// Takes `amount` tokens at virtual instant `now`, or reports how
    /// long the caller should wait before the bucket turns positive
    /// again.
    ///
    /// # Errors
    ///
    /// The exact virtual duration until the balance becomes positive at
    /// the configured rate (the `retry_after` hint of
    /// [`crate::PortusError::Throttled`]).
    pub fn try_take(&mut self, amount: u64, now: SimTime) -> Result<(), SimDuration> {
        if self.rate_per_sec == 0 {
            return Ok(());
        }
        self.refill(now);
        if self.balance_scaled > 0 {
            self.balance_scaled -= amount as i128 * NS_PER_SEC;
            Ok(())
        } else {
            // Nanoseconds until the balance exceeds zero: the deficit
            // (plus the one fixed-point unit that tips it positive)
            // divided by the refill rate, rounded up.
            let deficit = 1 - self.balance_scaled;
            let rate = self.rate_per_sec as i128;
            let wait_ns = (deficit + rate - 1) / rate;
            Err(SimDuration::from_nanos(wait_ns.min(u64::MAX as i128) as u64))
        }
    }

    /// Whole tokens currently available (clamped at zero while the
    /// bucket is in debt). Diagnostic / test surface.
    pub fn available(&self) -> u64 {
        (self.balance_scaled.max(0) / NS_PER_SEC) as u64
    }
}

/// Both budgets of one tenant, charged atomically: an admitted request
/// debits ops *and* bytes; a shed request debits neither.
#[derive(Debug)]
struct TenantBuckets {
    bytes: TokenBucket,
    ops: TokenBucket,
}

/// The identity a connection's requests are attributed to: the tenant
/// name (shared, never re-allocated per request) and its lane weight.
#[derive(Debug, Clone)]
pub(crate) struct TenantCtx {
    pub(crate) name: Arc<str>,
    pub(crate) weight: u32,
}

/// Daemon-side admission state: lazily created per-tenant bucket pairs
/// plus the shared lane arbiter.
#[derive(Debug)]
pub(crate) struct QosState {
    cfg: QosConfig,
    buckets: Mutex<HashMap<Arc<str>, Arc<Mutex<TenantBuckets>>>>,
    pub(crate) arbiter: LaneArbiter,
}

impl QosState {
    pub(crate) fn new(cfg: QosConfig) -> QosState {
        QosState {
            cfg,
            buckets: Mutex::new(HashMap::new()),
            arbiter: LaneArbiter::default(),
        }
    }

    pub(crate) fn tenant_ctx(&self, tenant: &str) -> TenantCtx {
        TenantCtx {
            name: Arc::from(tenant),
            weight: self.cfg.for_tenant(tenant).lane_weight(),
        }
    }

    /// Admits or sheds one checkpoint request of `bytes` payload bytes
    /// at virtual instant `now`. Both buckets must be positive; an
    /// admitted request is charged against both, a shed request against
    /// neither, and the returned wait is the larger of the two buckets'
    /// own `retry_after` hints.
    pub(crate) fn admit(
        &self,
        tenant: &TenantCtx,
        bytes: u64,
        now: SimTime,
    ) -> Result<(), SimDuration> {
        let q = self.cfg.for_tenant(&tenant.name);
        if q.bytes_per_sec == 0 && q.ops_per_sec == 0 {
            return Ok(());
        }
        let buckets = Arc::clone(
            self.buckets
                .lock()
                .entry(Arc::clone(&tenant.name))
                .or_insert_with(|| {
                    Arc::new(Mutex::new(TenantBuckets {
                        bytes: TokenBucket::new(q.bytes_per_sec, q.burst_bytes),
                        ops: TokenBucket::new(q.ops_per_sec, q.burst_ops),
                    }))
                }),
        );
        let mut b = buckets.lock();
        // Probe both before charging either: a request shed on bytes
        // must not burn an op token.
        let ops_wait = b.ops.try_take(0, now).err();
        let bytes_wait = b.bytes.try_take(0, now).err();
        match (ops_wait, bytes_wait) {
            (None, None) => {
                let _ = b.ops.try_take(1, now);
                let _ = b.bytes.try_take(bytes, now);
                Ok(())
            }
            (o, w) => Err(o
                .unwrap_or(SimDuration::ZERO)
                .max(w.unwrap_or(SimDuration::ZERO))),
        }
    }
}

/// How many active-op registrations and what weight a tenant currently
/// holds on the arbiter.
#[derive(Debug)]
struct ActiveTenant {
    weight: u32,
    ops: u32,
}

#[derive(Debug, Default)]
struct ArbiterInner {
    /// Cumulative weighted-byte charge per lane (the DRR deficit
    /// counters): `bytes × 1024 / weight`, so a weight-2 tenant charges
    /// half as much per byte and earns twice the share before the
    /// arbiter steers it away from a lane.
    lane_charge: Vec<u128>,
    active: HashMap<Arc<str>, ActiveTenant>,
}

/// Weighted deficit-round-robin arbitration over the striped datapath's
/// QP lanes. See the module docs; a lone active tenant is always
/// allowed every lane — which keeps the pre-QoS striping behaviour
/// bit-for-bit — and a one-QP connection only ever has lane 0.
#[derive(Debug, Default)]
pub(crate) struct LaneArbiter {
    inner: Mutex<ArbiterInner>,
}

/// RAII registration of one in-flight datapath operation; dropping it
/// releases the tenant's claim on the arbiter.
pub(crate) struct ActiveOp<'a> {
    arbiter: &'a LaneArbiter,
    tenant: Arc<str>,
}

impl Drop for ActiveOp<'_> {
    fn drop(&mut self) {
        let mut inner = self.arbiter.inner.lock();
        if let Some(a) = inner.active.get_mut(&self.tenant) {
            a.ops -= 1;
            if a.ops == 0 {
                inner.active.remove(&self.tenant);
            }
        }
    }
}

impl LaneArbiter {
    /// Registers one in-flight operation of `tenant` for the guard's
    /// lifetime; concurrent registrations of other tenants shrink each
    /// other's lane quotas.
    pub(crate) fn op_guard<'a>(&'a self, tenant: &TenantCtx) -> ActiveOp<'a> {
        let mut inner = self.inner.lock();
        inner
            .active
            .entry(Arc::clone(&tenant.name))
            .and_modify(|a| a.ops += 1)
            .or_insert(ActiveTenant {
                weight: tenant.weight,
                ops: 1,
            });
        ActiveOp {
            arbiter: self,
            tenant: Arc::clone(&tenant.name),
        }
    }

    /// The lanes `tenant` may stripe across right now, ascending.
    ///
    /// Quota: `max(1, lanes × weight / Σ active weights)` — a lone
    /// tenant gets every lane; concurrent tenants split them by weight.
    /// Within the quota, the lanes this tenant's weighted traffic has
    /// charged the least are picked (ties break on lane index), so
    /// repeated heavy operations rotate across the NIC engines instead
    /// of camping on lane 0.
    pub(crate) fn allowed_lanes(&self, tenant: &TenantCtx, lanes: usize) -> Vec<usize> {
        let mut inner = self.inner.lock();
        if inner.lane_charge.len() < lanes {
            inner.lane_charge.resize(lanes, 0);
        }
        let total: u64 = inner.active.values().map(|a| a.weight as u64).sum();
        let mine = inner
            .active
            .get(&tenant.name)
            .map_or(tenant.weight as u64, |a| a.weight as u64);
        let quota = if total <= mine {
            lanes
        } else {
            ((lanes as u64 * mine / total) as usize).max(1)
        };
        if quota >= lanes {
            return (0..lanes).collect();
        }
        let mut by_charge: Vec<usize> = (0..lanes).collect();
        by_charge.sort_by_key(|&l| (inner.lane_charge[l], l));
        let mut allowed: Vec<usize> = by_charge.into_iter().take(quota).collect();
        allowed.sort_unstable();
        allowed
    }

    /// Charges `bytes` of `tenant` traffic to `lane`'s deficit counter.
    pub(crate) fn charge(&self, tenant: &TenantCtx, lane: usize, bytes: u64) {
        let mut inner = self.inner.lock();
        if inner.lane_charge.len() <= lane {
            inner.lane_charge.resize(lane + 1, 0);
        }
        inner.lane_charge[lane] += bytes as u128 * 1024 / tenant.weight.max(1) as u128;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_bucket_always_admits() {
        let mut b = TokenBucket::new(0, 0);
        for i in 0..100u64 {
            assert!(b.try_take(u64::MAX / 2, SimTime::from_nanos(i)).is_ok());
        }
    }

    #[test]
    fn bucket_caps_rate_and_reports_exact_retry() {
        // 1000 tokens/sec, burst 1000, starting full.
        let mut b = TokenBucket::new(1000, 0);
        assert_eq!(b.available(), 1000);
        assert!(b.try_take(1000, SimTime::ZERO).is_ok());
        // Balance is now exactly 0 — not positive, so the next take is
        // shed and must wait one fixed-point unit: ceil(1 / 1000) ns.
        let wait = b.try_take(1, SimTime::ZERO).unwrap_err();
        assert_eq!(wait.as_nanos(), 1);
        // After the hinted wait the bucket admits again.
        let now = SimTime::ZERO + wait;
        assert!(b.try_take(1, now).is_ok());
    }

    #[test]
    fn debt_admits_oversized_requests_at_the_long_run_rate() {
        // Burst 10, but a 1000-token request arrives: admitted (the
        // balance is positive), then the bucket owes ~1 second at
        // 1000/sec before anything else passes.
        let mut b = TokenBucket::new(1000, 10);
        assert!(b.try_take(1000, SimTime::ZERO).is_ok());
        let wait = b.try_take(1, SimTime::ZERO).unwrap_err();
        // Deficit is 990 tokens → 990ms + one fixed-point tick.
        assert_eq!(wait.as_nanos(), 990_000_001);
        assert!(b.try_take(1, SimTime::ZERO + wait).is_ok());
    }

    #[test]
    fn refill_loses_no_fractional_tokens() {
        // 3 tokens/sec: a 1ns refill is worth 3e-9 tokens — invisible
        // in whole tokens but never lost. A million single-ns refills
        // accrue exactly the same balance as one big refill.
        let mut a = TokenBucket::new(3, 3);
        let mut c = TokenBucket::new(3, 3);
        assert!(a.try_take(3, SimTime::ZERO).is_ok());
        assert!(c.try_take(3, SimTime::ZERO).is_ok());
        for i in 1..=1_000_000u64 {
            a.refill(SimTime::from_nanos(i));
        }
        c.refill(SimTime::from_nanos(1_000_000));
        assert_eq!(a.balance_scaled, c.balance_scaled);
    }

    #[test]
    fn qos_config_resolves_overrides() {
        let mut cfg = QosConfig::default();
        cfg.tenants
            .insert("noisy".into(), TenantQos::limited_bytes(1 << 20));
        assert_eq!(cfg.for_tenant("noisy").bytes_per_sec, 1 << 20);
        assert_eq!(cfg.for_tenant("anyone-else").bytes_per_sec, 0);
        assert_eq!(cfg.for_tenant("noisy").lane_weight(), 1);
    }

    #[test]
    fn admit_charges_both_buckets_or_neither() {
        let mut cfg = QosConfig::default();
        cfg.tenants.insert(
            "t".into(),
            TenantQos {
                bytes_per_sec: 1000,
                ops_per_sec: 2,
                ..TenantQos::default()
            },
        );
        let qos = QosState::new(cfg);
        let t = qos.tenant_ctx("t");
        assert!(qos.admit(&t, 500, SimTime::ZERO).is_ok());
        assert!(qos.admit(&t, 500, SimTime::ZERO).is_ok());
        // Op bucket exhausted: shed, with a non-zero wait hint.
        let wait = qos.admit(&t, 1, SimTime::ZERO).unwrap_err();
        assert!(!wait.is_zero());
        // The shed request burned no byte tokens: after the op bucket
        // refills, the byte bucket still has its remaining budget.
        let later = SimTime::ZERO + wait;
        assert!(qos.admit(&t, 1, later).is_ok());
    }

    #[test]
    fn lone_tenant_gets_every_lane() {
        let arb = LaneArbiter::default();
        let t = TenantCtx {
            name: Arc::from("solo"),
            weight: 1,
        };
        let _op = arb.op_guard(&t);
        assert_eq!(arb.allowed_lanes(&t, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_tenants_split_lanes_by_weight() {
        let arb = LaneArbiter::default();
        let heavy = TenantCtx {
            name: Arc::from("heavy"),
            weight: 3,
        };
        let light = TenantCtx {
            name: Arc::from("light"),
            weight: 1,
        };
        let _h = arb.op_guard(&heavy);
        let _l = arb.op_guard(&light);
        // 8 lanes, weights 3:1 → quotas 6 and 2.
        assert_eq!(arb.allowed_lanes(&heavy, 8).len(), 6);
        assert_eq!(arb.allowed_lanes(&light, 8).len(), 2);
        // Quota never rounds to zero.
        assert_eq!(arb.allowed_lanes(&light, 2).len(), 1);
    }

    #[test]
    fn charge_steers_selection_to_cold_lanes() {
        let arb = LaneArbiter::default();
        let a = TenantCtx {
            name: Arc::from("a"),
            weight: 1,
        };
        let b = TenantCtx {
            name: Arc::from("b"),
            weight: 1,
        };
        let _ga = arb.op_guard(&a);
        let _gb = arb.op_guard(&b);
        // Tenant a has hammered lanes 0 and 1; its half-quota now
        // prefers the cold lanes 2 and 3.
        arb.charge(&a, 0, 1 << 20);
        arb.charge(&a, 1, 1 << 20);
        assert_eq!(arb.allowed_lanes(&a, 4), vec![2, 3]);
    }

    #[test]
    fn dropping_the_guard_releases_the_claim() {
        let arb = LaneArbiter::default();
        let a = TenantCtx {
            name: Arc::from("a"),
            weight: 1,
        };
        let b = TenantCtx {
            name: Arc::from("b"),
            weight: 1,
        };
        let ga = arb.op_guard(&a);
        let _gb = arb.op_guard(&b);
        assert_eq!(arb.allowed_lanes(&b, 4).len(), 2);
        drop(ga);
        assert_eq!(arb.allowed_lanes(&b, 4).len(), 4);
    }
}
