//! Multi-tenant quality of service: token-bucket admission control.
//!
//! The daemon serves many tenants over one dispatch pool and one PMem
//! device. Without policy, a bursty tenant monopolizes both. This
//! module adds the admission side DESIGN.md §17 describes:
//! [`TokenBucket`] — a per-tenant bytes/sec budget, refilled
//! on the **virtual clock** so deterministic runs admit and shed
//! identically. Over-budget checkpoint requests are shed with a typed
//! [`crate::PortusError::Throttled`] carrying a `retry_after` hint
//! computed from the bucket's exact deficit.
//!
//! Restores bypass the buckets entirely (they are latency-critical
//! recovery traffic) and ride the dispatch pool's urgent class instead.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use parking_lot::Mutex;
use portus_sim::{SimDuration, SimTime};

/// Nanoseconds per second — the fixed-point scale of bucket balances.
const NS_PER_SEC: i128 = 1_000_000_000;

/// Per-tenant QoS parameters. A rate of `0` means *unlimited*; a burst
/// of `0` defaults to one second's worth of the rate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantQos {
    /// Admitted checkpoint payload bytes per virtual second
    /// (`0` = unlimited).
    pub bytes_per_sec: u64,
    /// Byte-bucket capacity (`0` = one second of `bytes_per_sec`).
    pub burst_bytes: u64,
}

impl TenantQos {
    /// A tenant capped at `bytes_per_sec` checkpoint payload bytes per
    /// virtual second.
    pub fn limited_bytes(bytes_per_sec: u64) -> TenantQos {
        TenantQos {
            bytes_per_sec,
            ..TenantQos::default()
        }
    }
}

/// Daemon-wide QoS configuration: a default profile plus per-tenant
/// overrides keyed by tenant name. The all-default configuration is
/// policy-free — every tenant is unlimited, and the daemon behaves
/// exactly as it did before QoS existed.
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

/// Daemon-side admission state: lazily created per-tenant byte
/// buckets, keyed by the connection's tenant name (shared, never
/// re-allocated per request).
#[derive(Debug)]
pub(crate) struct QosState {
    cfg: QosConfig,
    buckets: Mutex<HashMap<Arc<str>, Arc<Mutex<TokenBucket>>>>,
}

impl QosState {
    pub(crate) fn new(cfg: QosConfig) -> QosState {
        QosState {
            cfg,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Admits or sheds one checkpoint request of `bytes` payload bytes
    /// at virtual instant `now`: an admitted request is charged in
    /// full, a shed one is charged nothing and gets the bucket's
    /// `retry_after` hint.
    pub(crate) fn admit(
        &self,
        tenant: &Arc<str>,
        bytes: u64,
        now: SimTime,
    ) -> Result<(), SimDuration> {
        let q = self.cfg.for_tenant(tenant);
        if q.bytes_per_sec == 0 {
            return Ok(());
        }
        let bucket = Arc::clone(
            self.buckets
                .lock()
                .entry(Arc::clone(tenant))
                .or_insert_with(|| {
                    Arc::new(Mutex::new(TokenBucket::new(q.bytes_per_sec, q.burst_bytes)))
                }),
        );
        // Bound first: the guard must drop before `bucket` does.
        let result = bucket.lock().try_take(bytes, now);
        result
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
    }

    #[test]
    fn admit_charges_admitted_requests_only() {
        let mut cfg = QosConfig::default();
        cfg.tenants
            .insert("t".into(), TenantQos::limited_bytes(1000));
        let qos = QosState::new(cfg);
        let t: Arc<str> = Arc::from("t");
        assert!(qos.admit(&t, 1000, SimTime::ZERO).is_ok());
        // The bucket is drained: shed, with the exact wait hint.
        let wait = qos.admit(&t, 1, SimTime::ZERO).unwrap_err();
        assert_eq!(wait.as_nanos(), 1);
        // The shed request was charged nothing, so the same hint holds.
        assert_eq!(qos.admit(&t, 1, SimTime::ZERO).unwrap_err(), wait);
        assert!(qos.admit(&t, 1, SimTime::ZERO + wait).is_ok());
        // Unlimited tenants never touch a bucket.
        let free: Arc<str> = Arc::from("free");
        assert!(qos.admit(&free, u64::MAX, SimTime::ZERO).is_ok());
        assert_eq!(qos.buckets.lock().len(), 1);
    }
}
