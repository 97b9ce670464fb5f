//! One-call experiment driver: (program, configuration) → [`Metrics`].
//!
//! Sweeps (fig6/fig7/fig8, property tests) run hundreds of
//! (configuration, workload) pairs. Building a [`Cluster`] allocates 16
//! L1s, 32 L2 banks, and re-derives the interconnect's physical models;
//! [`ClusterPool`] amortises all of that by caching one cluster per
//! configuration and [`Cluster::reset`]-ing it between runs. [`run_spec`]
//! uses a thread-local pool, so every caller — including each worker
//! thread of `mot3d-bench`'s parallel harness — gets the reuse for free
//! while staying bit-deterministic.

use crate::cluster::Cluster;
use crate::config::SimConfig;
use crate::error::SimError;
use crate::metrics::Metrics;
use crate::observe::{NullObserver, Observer};
use mot3d_phys::fnv::FnvHashMap;
use mot3d_workloads::{streams, SplashBenchmark, WorkloadSpec};
use std::cell::RefCell;
use std::collections::hash_map::Entry;

/// One cached cluster plus the recency tick of its last run.
#[derive(Debug)]
struct PooledCluster {
    cluster: Cluster,
    last_used: u64,
}

/// A cache of reusable clusters, keyed by configuration, with an
/// optional LRU capacity bound.
///
/// By default the pool is **unbounded**: it caches one cluster per
/// *distinct* [`SimConfig`] it has ever run, and a cluster (16 L1s + 32
/// L2 banks + interconnect state) is megabytes of arrays. The paper's
/// canned sweeps touch at most a handful of configurations per worker
/// thread, so growth is naturally capped there — but a long ad-hoc
/// sweep over many axes (seeds, DRAM options, power states, page
/// policies), and especially a long-running sweep *service* executing
/// arbitrary client plans, accumulates one cluster for *every* grid
/// cell it visits. Such callers either set a capacity
/// ([`ClusterPool::with_capacity`] / [`ClusterPool::set_capacity`], or
/// [`set_local_pool_capacity`] for the thread-local pool behind
/// [`run_spec`]) so the least-recently-used cluster is evicted on
/// overflow, or [`ClusterPool::shrink_to`] between sweeps.
///
/// Eviction never affects results: a dropped configuration is rebuilt
/// bit-identically on its next run. The eviction *order* is
/// deterministic too (strictly increasing run ticks, least recent
/// first), so a capped pool behaves identically run-to-run.
///
/// # Examples
///
/// ```
/// use mot3d_sim::runner::ClusterPool;
/// use mot3d_sim::SimConfig;
/// use mot3d_workloads::SplashBenchmark;
///
/// let mut pool = ClusterPool::new();
/// let cfg = SimConfig::date16();
/// let a = pool.run_spec(&SplashBenchmark::Fft.spec().scaled(0.002), &cfg)?;
/// // Second run reuses (resets) the cached cluster: bit-identical result.
/// let b = pool.run_spec(&SplashBenchmark::Fft.spec().scaled(0.002), &cfg)?;
/// assert_eq!(a.cycles, b.cycles);
/// assert_eq!(pool.len(), 1);
///
/// // Long ad-hoc sweeps bound the cache between phases:
/// pool.shrink_to(0);
/// assert!(pool.is_empty());
///
/// // Long-running services bound it up front instead:
/// let mut capped = ClusterPool::with_capacity(2);
/// assert_eq!(capped.capacity(), Some(2));
/// # Ok::<(), mot3d_sim::SimError>(())
/// ```
#[derive(Debug, Default)]
pub struct ClusterPool {
    clusters: FnvHashMap<SimConfig, PooledCluster>,
    /// Monotonic run counter backing the LRU order.
    tick: u64,
    /// Maximum cached configurations (`None` = unbounded, the default).
    capacity: Option<usize>,
}

impl ClusterPool {
    /// An empty, unbounded pool (today's default behaviour).
    pub fn new() -> Self {
        ClusterPool::default()
    }

    /// An empty pool that caches at most `capacity` configurations,
    /// evicting the least recently used on overflow. A capacity of 0
    /// caches nothing (every run builds a fresh cluster).
    pub fn with_capacity(capacity: usize) -> Self {
        ClusterPool {
            capacity: Some(capacity),
            ..ClusterPool::default()
        }
    }

    /// The current capacity bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Changes the capacity bound, evicting least-recently-used
    /// clusters immediately if the pool already exceeds it. `None`
    /// removes the bound.
    pub fn set_capacity(&mut self, capacity: Option<usize>) {
        self.capacity = capacity;
        if let Some(cap) = capacity {
            self.shrink_to(cap);
        }
    }

    /// Number of distinct configurations currently cached.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether the pool holds no clusters yet.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Whether a cluster for `config` is currently cached (test and
    /// instrumentation hook; a miss is not an error).
    pub fn contains(&self, config: &SimConfig) -> bool {
        self.clusters.contains_key(config)
    }

    /// Drops every cached cluster (frees their cache arrays).
    pub fn clear(&mut self) {
        self.clusters.clear();
    }

    /// Drops least-recently-used clusters until at most `n`
    /// configurations remain.
    ///
    /// Correctness never depends on which clusters survive — a dropped
    /// configuration is simply rebuilt on its next run, bit-identically
    /// — but the order is deterministic: least recent first. Call this
    /// between the phases of a long ad-hoc sweep so the pool does not
    /// hold every configuration it has ever seen alive (see the
    /// type-level docs), or set a capacity once instead.
    pub fn shrink_to(&mut self, n: usize) {
        if n == 0 {
            self.clusters.clear();
            return;
        }
        while self.clusters.len() > n {
            self.evict_lru();
        }
    }

    /// Removes the entry with the smallest recency tick. Ticks are
    /// strictly increasing, so the minimum is unique and the choice is
    /// deterministic whatever the map's iteration order.
    fn evict_lru(&mut self) {
        let lru = self
            .clusters
            .iter()
            .min_by_key(|(_, entry)| entry.last_used)
            .map(|(&key, _)| key);
        if let Some(key) = lru {
            self.clusters.remove(&key);
        }
    }

    /// Runs a workload spec on a cluster configuration to completion,
    /// reusing (or creating) the pooled cluster for that configuration
    /// and marking it most recently used.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from construction, reset, or the run.
    pub fn run_spec(
        &mut self,
        spec: &WorkloadSpec,
        config: &SimConfig,
    ) -> Result<Metrics, SimError> {
        self.run_spec_with(spec, config, &mut NullObserver)
    }

    /// [`ClusterPool::run_spec`] with an [`Observer`] attached to the
    /// run loop. A reset cluster behaves exactly like a new one, so the
    /// observer sees the same timeline either way, and with
    /// [`NullObserver`] every hook compiles away.
    ///
    /// # Errors
    ///
    /// Propagates any [`SimError`] from construction, reset, or the run.
    pub fn run_spec_with<O: Observer>(
        &mut self,
        spec: &WorkloadSpec,
        config: &SimConfig,
        obs: &mut O,
    ) -> Result<Metrics, SimError> {
        let active = config.power_state.active_cores();
        let fresh = streams(spec, active, config.seed);
        self.tick += 1;
        let tick = self.tick;
        if self.capacity == Some(0) {
            // Degenerate bound: never cache, run on a throwaway cluster.
            let mut cluster = Cluster::new(*config, fresh)?;
            return Self::finish_run(&mut cluster, spec, config, obs);
        }
        let cluster = match self.clusters.entry(*config) {
            Entry::Occupied(e) => {
                let entry = e.into_mut();
                entry.cluster.reset(fresh)?;
                entry.last_used = tick;
                &mut entry.cluster
            }
            Entry::Vacant(v) => {
                let entry = v.insert(PooledCluster {
                    cluster: Cluster::new(*config, fresh)?,
                    last_used: tick,
                });
                &mut entry.cluster
            }
        };
        let metrics = Self::finish_run(cluster, spec, config, obs)?;
        if let Some(cap) = self.capacity {
            self.shrink_to(cap);
        }
        Ok(metrics)
    }

    /// Shared tail of a run: drive to completion, verify, label.
    fn finish_run<O: Observer>(
        cluster: &mut Cluster,
        spec: &WorkloadSpec,
        config: &SimConfig,
        obs: &mut O,
    ) -> Result<Metrics, SimError> {
        cluster.run_to_completion_with(obs)?;
        cluster.verify_against_golden();
        Ok(cluster.metrics(format!(
            "{} @ {} @ {} @ {}",
            spec.name, config.interconnect, config.power_state, config.dram
        )))
    }
}

thread_local! {
    static POOL: RefCell<ClusterPool> = RefCell::new(ClusterPool::new());
}

/// Runs a workload spec on a cluster configuration to completion.
///
/// Reuses a thread-local [`ClusterPool`] under the hood: repeated calls
/// with the same configuration reset the cached cluster instead of
/// rebuilding it. Results are bit-identical to a fresh build either way.
///
/// # Errors
///
/// Propagates any [`SimError`] from construction or the run.
///
/// # Examples
///
/// ```
/// use mot3d_sim::{run_spec, SimConfig};
/// use mot3d_workloads::SplashBenchmark;
///
/// let spec = SplashBenchmark::Fft.spec().scaled(0.002); // tiny run
/// let m = run_spec(&spec, &SimConfig::date16())?;
/// assert!(m.cycles > 0);
/// assert!(m.ipc() > 0.0);
/// # Ok::<(), mot3d_sim::SimError>(())
/// ```
pub fn run_spec(spec: &WorkloadSpec, config: &SimConfig) -> Result<Metrics, SimError> {
    POOL.with(|pool| pool.borrow_mut().run_spec(spec, config))
}

/// [`run_spec`] with an [`Observer`] attached to the run loop — the
/// entry point `mot3d_trace` (and any other instrumentation) uses. Runs
/// on the same thread-local [`ClusterPool`] through
/// [`ClusterPool::run_spec_with`], so an observed run reuses the cached
/// cluster and its metrics are bit-identical to [`run_spec`]'s.
///
/// # Errors
///
/// Propagates any [`SimError`] from construction or the run.
pub fn run_spec_observed<O: Observer>(
    spec: &WorkloadSpec,
    config: &SimConfig,
    obs: &mut O,
) -> Result<Metrics, SimError> {
    POOL.with(|pool| pool.borrow_mut().run_spec_with(spec, config, obs))
}

/// Shrinks the calling thread's [`run_spec`] cluster cache to at most
/// `n` configurations (see [`ClusterPool::shrink_to`]). Long-lived
/// threads that drive many distinct configurations — ad-hoc sweeps, REPL
/// sessions — call this between sweeps to bound memory.
pub fn shrink_local_pool(n: usize) {
    POOL.with(|pool| pool.borrow_mut().shrink_to(n));
}

/// Sets an LRU capacity bound on the calling thread's [`run_spec`]
/// cluster cache (see [`ClusterPool::set_capacity`]; `None` restores
/// the unbounded default). Long-running services whose worker threads
/// execute arbitrary client configurations set this once per thread so
/// the cache stays bounded for the life of the thread instead of
/// requiring periodic shrinks.
pub fn set_local_pool_capacity(capacity: Option<usize>) {
    POOL.with(|pool| pool.borrow_mut().set_capacity(capacity));
}

/// Runs one of the eight SPLASH-2-style programs at a given length scale
/// (1.0 = the default experiment length; tests use ≤ 0.01).
///
/// # Errors
///
/// Propagates any [`SimError`].
pub fn run_benchmark(
    bench: SplashBenchmark,
    scale: f64,
    config: &SimConfig,
) -> Result<Metrics, SimError> {
    run_spec(&bench.spec().scaled(scale), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InterconnectChoice;
    use mot3d_mot::PowerState;
    use mot3d_noc::NocTopologyKind;

    fn tiny() -> WorkloadSpec {
        SplashBenchmark::Fmm.spec().scaled(0.002)
    }

    #[test]
    fn shrink_to_bounds_the_cache_without_changing_results() {
        let mut pool = ClusterPool::new();
        let spec = tiny();
        let configs = [
            SimConfig::date16(),
            SimConfig::date16().with_power_state(PowerState::pc16_mb8()),
            SimConfig::date16().with_power_state(PowerState::pc4_mb8()),
        ];
        let fresh: Vec<_> = configs
            .iter()
            .map(|c| pool.run_spec(&spec, c).unwrap())
            .collect();
        assert_eq!(pool.len(), 3);
        pool.shrink_to(1);
        assert_eq!(pool.len(), 1);
        // Evicted configurations are rebuilt bit-identically.
        for (c, want) in configs.iter().zip(&fresh) {
            let again = pool.run_spec(&spec, c).unwrap();
            assert_eq!(again.cycles, want.cycles);
            assert_eq!(again.l2_hits, want.l2_hits);
        }
        pool.shrink_to(0);
        assert!(pool.is_empty());
    }

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let mut pool = ClusterPool::with_capacity(2);
        let spec = tiny();
        let full = SimConfig::date16();
        let pc16 = SimConfig::date16().with_power_state(PowerState::pc16_mb8());
        let pc4 = SimConfig::date16().with_power_state(PowerState::pc4_mb8());
        pool.run_spec(&spec, &full).unwrap();
        pool.run_spec(&spec, &pc16).unwrap();
        assert_eq!(pool.len(), 2);
        // Touch `full` again, then overflow: `pc16` is now the LRU entry.
        pool.run_spec(&spec, &full).unwrap();
        pool.run_spec(&spec, &pc4).unwrap();
        assert_eq!(pool.len(), 2);
        assert!(pool.contains(&full));
        assert!(pool.contains(&pc4));
        assert!(!pool.contains(&pc16));
    }

    #[test]
    fn capacity_changes_apply_immediately_and_zero_caches_nothing() {
        let mut pool = ClusterPool::new();
        assert_eq!(pool.capacity(), None);
        let spec = tiny();
        let configs = [
            SimConfig::date16(),
            SimConfig::date16().with_power_state(PowerState::pc16_mb8()),
            SimConfig::date16().with_power_state(PowerState::pc4_mb8()),
        ];
        for c in &configs {
            pool.run_spec(&spec, c).unwrap();
        }
        assert_eq!(pool.len(), 3);
        pool.set_capacity(Some(1));
        assert_eq!(pool.len(), 1);
        assert!(pool.contains(&configs[2]), "most recent entry survives");
        pool.set_capacity(Some(0));
        assert!(pool.is_empty());
        // Capacity 0 still runs correctly, it just never caches.
        let want = ClusterPool::new().run_spec(&spec, &configs[0]).unwrap();
        let got = pool.run_spec(&spec, &configs[0]).unwrap();
        assert_eq!(got, want);
        assert!(pool.is_empty());
        pool.set_capacity(None);
        pool.run_spec(&spec, &configs[0]).unwrap();
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn capped_runs_are_bit_identical_to_uncapped() {
        let spec = tiny();
        let configs = [
            SimConfig::date16(),
            SimConfig::date16().with_power_state(PowerState::pc16_mb8()),
            SimConfig::date16().with_dram(mot3d_mem::dram::DramKind::Weis3d),
            SimConfig::date16(),
        ];
        let mut unbounded = ClusterPool::new();
        let mut capped = ClusterPool::with_capacity(1);
        for c in &configs {
            let a = unbounded.run_spec(&spec, c).unwrap();
            let b = capped.run_spec(&spec, c).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(capped.len(), 1);
    }

    #[test]
    fn mot_run_completes_and_counts() {
        let m = run_spec(&tiny(), &SimConfig::date16()).unwrap();
        assert!(m.cycles > 0);
        assert!(m.instructions > 0);
        assert!(m.l1_hits + m.l1_misses > 0);
        assert!(m.l2_latency.count() > 0, "some L1 misses must reach L2");
        assert!(m.energy.cluster().value() > 0.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_spec(&tiny(), &SimConfig::date16()).unwrap();
        let b = run_spec(&tiny(), &SimConfig::date16()).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.l2_hits, b.l2_hits);
        assert_eq!(a.dram_accesses, b.dram_accesses);
    }

    #[test]
    fn golden_check_passes_on_mot() {
        let mut cfg = SimConfig::date16();
        cfg.check_golden = true;
        let m = run_spec(&tiny(), &cfg).unwrap();
        assert!(m.cycles > 0);
    }

    #[test]
    fn golden_check_passes_on_every_noc() {
        for kind in NocTopologyKind::all() {
            let mut cfg = SimConfig::date16().with_interconnect(InterconnectChoice::Noc(kind));
            cfg.check_golden = true;
            let m = run_spec(&tiny(), &cfg).unwrap();
            assert!(m.cycles > 0, "{kind}");
        }
    }

    #[test]
    fn golden_check_passes_on_gated_states() {
        for state in [
            PowerState::pc16_mb8(),
            PowerState::pc4_mb32(),
            PowerState::pc4_mb8(),
        ] {
            let mut cfg = SimConfig::date16().with_power_state(state);
            cfg.check_golden = true;
            let m = run_spec(&tiny(), &cfg).unwrap();
            assert!(m.cycles > 0, "{state}");
        }
    }

    #[test]
    fn noc_rejects_gated_states() {
        let cfg = SimConfig::date16()
            .with_interconnect(InterconnectChoice::Noc(NocTopologyKind::Mesh3d))
            .with_power_state(PowerState::pc16_mb8());
        assert!(matches!(
            run_spec(&tiny(), &cfg),
            Err(SimError::NocNeedsFullState(_))
        ));
    }

    #[test]
    fn mot_beats_the_mesh_on_l2_latency() {
        // Fig. 6(a) shape: circuit-switched MoT < packet-switched mesh.
        let spec = SplashBenchmark::Radix.spec().scaled(0.003);
        let mot = run_spec(&spec, &SimConfig::date16()).unwrap();
        let mesh = run_spec(
            &spec,
            &SimConfig::date16()
                .with_interconnect(InterconnectChoice::Noc(NocTopologyKind::Mesh3d)),
        )
        .unwrap();
        assert!(
            mot.l2_latency.mean() < mesh.l2_latency.mean(),
            "MoT {} vs mesh {}",
            mot.l2_latency.mean(),
            mesh.l2_latency.mean()
        );
        assert!(mot.cycles < mesh.cycles, "and on execution time");
    }

    #[test]
    fn resident_workload_l2_latency_approaches_table1() {
        // A small, heavily-reused working set: after warm-up, nearly all
        // L1 misses hit in L2, so the mean round trip approaches the
        // derived 12-cycle Full-connection latency (plus light
        // arbitration contention and the cold-miss tail).
        let mut spec = SplashBenchmark::Fmm.spec().scaled(0.02);
        spec.working_set_bytes = 16 * 1024; // heavy reuse: cold misses only
        spec.locality = 0.5; // plenty of L1 misses, all L2-resident
        spec.hot_fraction = 0.0; // all traffic hits the small working set
        spec.mem_ratio = 0.3;
        let m = run_spec(&spec, &SimConfig::date16()).unwrap();
        assert!(
            m.l2_miss_ratio() < 0.3,
            "l2 miss ratio {}",
            m.l2_miss_ratio()
        );
        // Table I: 12-cycle round trips land in the [8, 16) bucket, which
        // must dominate (the mean still carries the cold-miss DRAM tail).
        let buckets = m.l2_latency.buckets();
        let modal = buckets
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .unwrap()
            .0;
        assert_eq!(modal, 1, "modal L2 latency bucket {buckets:?}");
        assert!(m.l2_latency.mean() >= 12.0, "mean {}", m.l2_latency.mean());
    }

    #[test]
    fn faster_dram_shortens_runs() {
        let spec = SplashBenchmark::Radix.spec().scaled(0.002);
        let slow = run_spec(&spec, &SimConfig::date16()).unwrap();
        let fast = run_spec(
            &spec,
            &SimConfig::date16().with_dram(mot3d_mem::dram::DramKind::Weis3d),
        )
        .unwrap();
        assert!(fast.cycles < slow.cycles);
    }
}
