//! Runtime configuration.

use std::fmt;

use tfm_net::{BackendSpec, FaultPlan, LinkParams, SpecError};

/// Retry/backoff policy the runtime applies to faulted link operations.
///
/// A faulted attempt is detected at the link's drop timeout; the runtime
/// then waits an exponentially growing backoff (`backoff_base << (attempt -
/// 1)`, capped at [`backoff_cap`](Self::backoff_cap)) before reissuing.
/// While the link is degraded (see `LinkHealth`), every backoff is
/// multiplied by [`degraded_backoff_mult`](Self::degraded_backoff_mult) to
/// shed load from a struggling fabric.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Attempts before a *deferrable* operation (writeback) gives up; a
    /// localize must succeed for correctness and keeps retrying past this.
    pub max_attempts: u32,
    /// First retry's backoff in cycles.
    pub backoff_base: u64,
    /// Upper bound on a single backoff in cycles.
    pub backoff_cap: u64,
    /// Per-operation cycle budget; operations that blow through it are
    /// counted (`deadline_exceeded`) but still driven to completion.
    pub deadline: u64,
    /// Backoff multiplier applied while the link is degraded.
    pub degraded_backoff_mult: u64,
    /// Seed of the deterministic per-attempt backoff jitter
    /// ([`backoff_jittered`](Self::backoff_jittered)); 0 disables jitter,
    /// restoring the pure exponential schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 16,
            backoff_base: 4_096,
            backoff_cap: 1 << 20,
            deadline: 8_000_000,
            degraded_backoff_mult: 4,
            jitter_seed: 0x7C15_DA39_6A1B_44E3,
        }
    }
}

/// SplitMix64 finalizer (the workspace's standard seeded mixer), local so
/// the jitter draw needs no cross-crate dependency on `tfm_net` internals.
#[inline]
fn jitter_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// Backoff charged before retry number `attempt` (1-based), before the
    /// degraded multiplier.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1);
        if shift >= self.backoff_base.leading_zeros() {
            return self.backoff_cap; // doubling any further would overflow
        }
        (self.backoff_base << shift).min(self.backoff_cap)
    }

    /// [`backoff`](Self::backoff) plus a deterministic jitter drawn in
    /// `[0, backoff/4]`, keyed on `(jitter_seed, key, attempt)`. Concurrent
    /// operations against the same recovering shard spread their retries
    /// instead of re-arriving in lockstep, yet the same seed, key, and
    /// attempt always draw the same jitter — runs stay bit-identical.
    pub fn backoff_jittered(&self, attempt: u32, key: u64) -> u64 {
        let base = self.backoff(attempt);
        if self.jitter_seed == 0 {
            return base;
        }
        let h = jitter_mix(
            self.jitter_seed ^ key.wrapping_mul(0xA24B_AED4_963E_E407) ^ u64::from(attempt),
        );
        base + h % (base / 4 + 1)
    }

    /// [`backoff_jittered`](Self::backoff_jittered) with the issuing core
    /// folded into the seed: each simulated core draws an independent,
    /// deterministic retry schedule, so two cores backing off from the same
    /// shard never re-arrive in lockstep. Core 0 (and the synchronous
    /// single-core machine, which always passes 0) draws exactly the
    /// un-threaded schedule — the `cores(1)` identity gate depends on it.
    pub fn backoff_jittered_on(&self, attempt: u32, key: u64, core: u32) -> u64 {
        if core == 0 {
            return self.backoff_jittered(attempt, key);
        }
        let base = self.backoff(attempt);
        if self.jitter_seed == 0 {
            return base;
        }
        let seed = self.jitter_seed ^ jitter_mix(u64::from(core));
        let h = jitter_mix(seed ^ key.wrapping_mul(0xA24B_AED4_963E_E407) ^ u64::from(attempt));
        base + h % (base / 4 + 1)
    }
}

/// Prefetcher configuration.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PrefetchConfig {
    /// Master switch. When off, `tfm.prefetch` hints and chunk-stream
    /// prefetching are ignored (the Fig. 11 "no prefetch" arm).
    pub enabled: bool,
    /// How many objects ahead of the current stream position to keep in
    /// flight (AIFM's stride prefetcher look-ahead).
    pub depth: u32,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            enabled: true,
            depth: 8,
        }
    }
}

/// Configuration of the far-memory runtime.
///
/// The two knobs the paper sweeps are [`object_size`](Self::object_size)
/// (Figs. 9/10) and the local-memory budget (the x-axis of most figures,
/// expressed as a fraction of the working set).
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct FarMemoryConfig {
    /// Total far-heap capacity in bytes (multiple of `object_size`).
    pub heap_size: u64,
    /// AIFM object size in bytes; power of two in `[64, 4096]` per §3.2.
    pub object_size: u64,
    /// Local-memory budget in bytes; resident objects above this trigger the
    /// evacuator.
    pub local_budget: u64,
    /// Network backend parameters (TCP for TrackFM/AIFM).
    pub link: LinkParams,
    /// Prefetcher settings.
    pub prefetch: PrefetchConfig,
    /// Fault-injection schedule for the link ([`FaultPlan::none`] = the
    /// flawless fabric of the paper's evaluation).
    pub faults: FaultPlan,
    /// Retry/backoff policy for faulted link operations.
    pub retry: RetryPolicy,
    /// Remote-memory topology: one node (the default) or N sharded nodes.
    pub backend: BackendSpec,
}

/// Why a [`FarMemoryConfig`] is invalid. Returned by
/// [`FarMemoryConfig::validate`]; `Display` gives the message
/// [`FarMemory::new`](crate::FarMemory::new) panics with.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The object size is not a power of two in `[64, 4096]`.
    ObjectSize(u64),
    /// The heap size is zero or not a multiple of the object size.
    HeapSize,
    /// The local budget is zero.
    ZeroBudget,
    /// The backend spec is invalid.
    Backend(SpecError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ObjectSize(size) => write!(
                f,
                "object size must be a power of two in [64, 4096], got {size}"
            ),
            ConfigError::HeapSize => {
                write!(
                    f,
                    "heap size must be a positive multiple of the object size"
                )
            }
            ConfigError::ZeroBudget => write!(f, "local budget must be positive"),
            ConfigError::Backend(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl FarMemoryConfig {
    /// A small default configuration: 64 MiB heap, 4 KiB objects, 16 MiB
    /// local budget, TCP backend.
    pub fn small() -> Self {
        FarMemoryConfig {
            heap_size: 64 << 20,
            object_size: 4096,
            local_budget: 16 << 20,
            link: LinkParams::tcp_25g(),
            prefetch: PrefetchConfig::default(),
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            backend: BackendSpec::default(),
        }
    }

    /// Validates invariants: the object size is a power of two in
    /// `[64, 4096]`, the heap size a positive multiple of it, the budget
    /// non-zero, and the backend spec valid.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.object_size.is_power_of_two() || !(64..=4096).contains(&self.object_size) {
            return Err(ConfigError::ObjectSize(self.object_size));
        }
        if self.heap_size == 0 || !self.heap_size.is_multiple_of(self.object_size) {
            return Err(ConfigError::HeapSize);
        }
        if self.local_budget == 0 {
            return Err(ConfigError::ZeroBudget);
        }
        self.backend.validate().map_err(ConfigError::Backend)
    }

    /// Number of objects in the heap (= state-table entries).
    pub fn num_objects(&self) -> u64 {
        self.heap_size / self.object_size
    }

    /// log2 of the object size — the shift the guards use to derive object
    /// ids from pointers.
    pub fn log2_object_size(&self) -> u32 {
        self.object_size.trailing_zeros()
    }

    /// Returns a copy with a different object size.
    pub fn with_object_size(mut self, object_size: u64) -> Self {
        self.object_size = object_size;
        self
    }

    /// Returns a copy with a different local budget.
    pub fn with_local_budget(mut self, budget: u64) -> Self {
        self.local_budget = budget;
        self
    }

    /// Returns a copy with prefetching toggled.
    pub fn with_prefetch(mut self, enabled: bool) -> Self {
        self.prefetch.enabled = enabled;
        self
    }

    /// Returns a copy with a fault-injection schedule attached.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns a copy with a different remote-memory topology.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy sharded over `n` remote nodes (hashed placement).
    pub fn with_shards(self, n: u32) -> Self {
        self.with_backend(BackendSpec::sharded(n))
    }

    /// Returns a copy with replication factor `r` on the current backend
    /// (`r` may not exceed its shard count; see [`validate`](Self::validate)).
    pub fn with_replicas(mut self, r: u32) -> Self {
        self.backend = self.backend.with_replicas(r);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_config_is_valid() {
        let c = FarMemoryConfig::small();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.num_objects(), (64 << 20) / 4096);
        assert_eq!(c.log2_object_size(), 12);
    }

    #[test]
    fn rejects_non_power_of_two_objects() {
        let err = FarMemoryConfig::small().with_object_size(3000).validate();
        assert_eq!(err, Err(ConfigError::ObjectSize(3000)));
        assert!(err.unwrap_err().to_string().contains("object size"));
    }

    #[test]
    fn rejects_tiny_objects() {
        // §3.2: below a cache line "would saturate the network with many
        // small packets".
        let err = FarMemoryConfig::small().with_object_size(32).validate();
        assert_eq!(err, Err(ConfigError::ObjectSize(32)));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), p.backoff_base);
        assert_eq!(p.backoff(2), 2 * p.backoff_base);
        assert_eq!(p.backoff(3), 4 * p.backoff_base);
        assert_eq!(p.backoff(60), p.backoff_cap);
        // Huge attempt numbers must not overflow the shift.
        assert_eq!(p.backoff(u32::MAX), p.backoff_cap);
    }

    #[test]
    fn jittered_backoff_is_deterministic_bounded_and_spread() {
        let p = RetryPolicy::default();
        for attempt in 1..=20 {
            for key in [0u64, 1, 17, 0xDEAD_BEEF] {
                let a = p.backoff_jittered(attempt, key);
                let b = p.backoff_jittered(attempt, key);
                assert_eq!(a, b, "same (seed, key, attempt) ⇒ same draw");
                let base = p.backoff(attempt);
                assert!(
                    (base..=base + base / 4).contains(&a),
                    "jitter must stay within 25% of the base: {a} vs {base}"
                );
            }
        }
        // Different keys de-synchronize: across many keys the draws are not
        // all equal (that is the whole point).
        let draws: Vec<u64> = (0..64).map(|k| p.backoff_jittered(3, k)).collect();
        let mut uniq = draws.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 8, "keys retry in lockstep: {draws:?}");
        // Two policies with different seeds draw different schedules.
        let other = RetryPolicy {
            jitter_seed: 0x1234,
            ..p
        };
        assert!((0..64).any(|k| p.backoff_jittered(2, k) != other.backoff_jittered(2, k)));
    }

    #[test]
    fn core_zero_jitter_matches_the_unthreaded_schedule() {
        // The synchronous machine passes core 0 everywhere; its schedule
        // must be bit-identical to the pre-multi-core draw.
        let p = RetryPolicy::default();
        for attempt in 1..=12 {
            for key in 0..32 {
                assert_eq!(
                    p.backoff_jittered_on(attempt, key, 0),
                    p.backoff_jittered(attempt, key)
                );
            }
        }
    }

    #[test]
    fn per_core_jitter_is_deterministic_bounded_and_independent() {
        let p = RetryPolicy::default();
        for core in 1..8u32 {
            for attempt in 1..=12 {
                for key in [0u64, 3, 0xFEED] {
                    let a = p.backoff_jittered_on(attempt, key, core);
                    assert_eq!(a, p.backoff_jittered_on(attempt, key, core));
                    let base = p.backoff(attempt);
                    assert!((base..=base + base / 4).contains(&a));
                }
            }
        }
        // Distinct cores draw distinct schedules for the same (key, attempt)
        // somewhere — otherwise threading the core id bought nothing.
        assert!(
            (0..64u64).any(|k| p.backoff_jittered_on(2, k, 1) != p.backoff_jittered_on(2, k, 2))
        );
        // Zero seed still disables jitter on every core.
        let off = RetryPolicy {
            jitter_seed: 0,
            ..p
        };
        for core in 0..4 {
            assert_eq!(off.backoff_jittered_on(3, 9, core), off.backoff(3));
        }
    }

    #[test]
    fn zero_jitter_seed_disables_jitter() {
        let p = RetryPolicy {
            jitter_seed: 0,
            ..RetryPolicy::default()
        };
        for attempt in 1..=10 {
            for key in 0..32 {
                assert_eq!(p.backoff_jittered(attempt, key), p.backoff(attempt));
            }
        }
    }

    #[test]
    fn replicas_builder_updates_the_backend_spec() {
        let c = FarMemoryConfig::small().with_shards(4).with_replicas(2);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.backend.replicas, 2);
    }

    #[test]
    fn rejects_more_replicas_than_shards() {
        // The one-node default included: a second replica needs a node.
        for (shards, replicas) in [(2, 3), (1, 2)] {
            let c = FarMemoryConfig::small()
                .with_shards(shards)
                .with_replicas(replicas);
            assert_eq!(
                c.validate(),
                Err(ConfigError::Backend(SpecError::ReplicasExceedShards {
                    replicas,
                    shards
                }))
            );
        }
        let msg = FarMemoryConfig::small().with_replicas(2).validate();
        assert!(msg.unwrap_err().to_string().contains("replication factor"));
    }

    #[test]
    fn faults_builder_attaches_a_plan() {
        let plan = FaultPlan::drops(11, 5_000);
        let c = FarMemoryConfig::small().with_faults(plan);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.faults, plan);
        assert!(c.faults.is_active());
    }

    #[test]
    fn backend_builder_selects_sharding() {
        let c = FarMemoryConfig::small().with_shards(4);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.backend.shards, 4);
        assert_eq!(FarMemoryConfig::small().backend, BackendSpec::sharded(1));
    }

    #[test]
    fn rejects_fault_shard_out_of_range() {
        let err = FarMemoryConfig::small()
            .with_backend(BackendSpec::sharded(2).with_fault_shard(7))
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("fault shard 7 out of range"));
    }

    #[test]
    fn builder_style_updates() {
        let c = FarMemoryConfig::small()
            .with_object_size(256)
            .with_local_budget(1 << 20)
            .with_prefetch(false);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.object_size, 256);
        assert_eq!(c.local_budget, 1 << 20);
        assert!(!c.prefetch.enabled);
    }
}
