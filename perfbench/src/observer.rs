//! A counting [`Observer`]: executed steps and time-weighted occupancy
//! means, sampled through the cluster's read-only probes.
//!
//! The cluster samples once before the run and once after every executed
//! step, before `now` jumps to the next event. The state seen at a
//! sample therefore holds for every cycle up to the next sample, so each
//! sample is weighted by the cycle gap to the next executed step (the
//! last one by the gap to the end of the run). The weights sum to the
//! run's cycle count; [`Counting::finish`] checks that.

use mot3d_sim::observe::InterconnectProbe;
use mot3d_sim::{Cluster, Observer};

/// Occupancy seen at one sample.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    inflight: u64,
    wheel_depth: u64,
    busy_bank_frac: f64,
    bus_depth: u64,
    active_switches: u64,
    busy_ports: u64,
}

/// Time-weighted sums over a run (each term is `Σ weight × value`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Weighted {
    /// Σ weights — equals the run's cycles once finished.
    pub cycles: u64,
    /// In-flight memory transactions.
    pub inflight: f64,
    /// Timing-wheel event-queue depth.
    pub wheel_depth: f64,
    /// Busy share of the powered L2 banks.
    pub bank_busy: f64,
    /// Miss-bus queue depth.
    pub bus_depth: f64,
    /// MoT switches whose subtree carries traffic (all levels).
    pub active_switches: f64,
    /// NoC router ports serialising a packet.
    pub busy_ports: f64,
}

impl Weighted {
    fn add(&mut self, s: &Snapshot, w: u64) {
        let wf = w as f64;
        self.cycles += w;
        self.inflight += wf * s.inflight as f64;
        self.wheel_depth += wf * s.wheel_depth as f64;
        self.bank_busy += wf * s.busy_bank_frac;
        self.bus_depth += wf * s.bus_depth as f64;
        self.active_switches += wf * s.active_switches as f64;
        self.busy_ports += wf * s.busy_ports as f64;
    }

    /// Adds another run's sums.
    pub fn merge(&mut self, o: &Weighted) {
        self.cycles += o.cycles;
        self.inflight += o.inflight;
        self.wheel_depth += o.wheel_depth;
        self.bank_busy += o.bank_busy;
        self.bus_depth += o.bus_depth;
        self.active_switches += o.active_switches;
        self.busy_ports += o.busy_ports;
    }

    /// `Σ weight × value / Σ weight` for one of the sums.
    pub fn mean(&self, sum: f64) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            sum / self.cycles as f64
        }
    }
}

/// Counts executed steps and accumulates [`Weighted`] sums.
#[derive(Debug, Default)]
pub struct Counting {
    samples: u64,
    last_at: Option<u64>,
    last: Snapshot,
    /// Σ over samples of increases in the event-queue depth since the
    /// previous sample — a lower bound on the wheel schedules the run
    /// made.
    pub depth_rises: u64,
    /// The time-weighted sums.
    pub sums: Weighted,
}

impl Counting {
    /// Executed steps (every sample but the pre-run one).
    pub fn steps(&self) -> u64 {
        self.samples.saturating_sub(1)
    }

    /// Weights the last sample up to `cycles` (the run's final cycle).
    ///
    /// # Errors
    ///
    /// Reports weights that do not sum to `cycles`.
    pub fn finish(&mut self, cycles: u64) -> Result<(), String> {
        if let Some(at) = self.last_at.take() {
            let last = self.last;
            self.sums.add(&last, cycles.saturating_sub(at));
        }
        if self.sums.cycles == cycles {
            Ok(())
        } else {
            Err(format!(
                "observer weights sum to {} cycles, the run took {cycles}",
                self.sums.cycles
            ))
        }
    }
}

impl Observer for Counting {
    const ENABLED: bool = true;

    fn sample(&mut self, cluster: &Cluster) {
        let now = cluster.now();
        if let Some(at) = self.last_at {
            let last = self.last;
            self.sums.add(&last, now - at);
        }
        let banks = cluster.bank_count();
        let (mut powered, mut busy) = (0u32, 0u32);
        for b in 0..banks {
            if cluster.bank_powered(b) {
                powered += 1;
                busy += u32::from(cluster.bank_busy(b));
            }
        }
        let (active_switches, busy_ports) = match cluster.interconnect_probe() {
            InterconnectProbe::Mot(p) => (
                (1..=p.routing_levels)
                    .map(|l| p.level_occupancy(l) as u64)
                    .sum(),
                0,
            ),
            InterconnectProbe::Noc(p) => (0, p.busy_ports as u64),
        };
        let wheel_depth = cluster.event_queue_depth() as u64;
        self.depth_rises += wheel_depth.saturating_sub(self.last.wheel_depth);
        self.last = Snapshot {
            inflight: cluster.in_flight_transactions() as u64,
            wheel_depth,
            busy_bank_frac: if powered == 0 {
                0.0
            } else {
                f64::from(busy) / f64::from(powered)
            },
            bus_depth: cluster.bus_queue_depth() as u64,
            active_switches,
            busy_ports,
        };
        self.last_at = Some(now);
        self.samples += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_mot::PowerState;
    use mot3d_sim::{run_spec, run_spec_observed, SimConfig};
    use mot3d_workloads::SplashBenchmark;

    #[test]
    fn weights_sum_to_the_run_and_counts_repeat_exactly() {
        let spec = SplashBenchmark::Radix.spec().scaled(0.002);
        let config = SimConfig::date16().with_power_state(PowerState::pc4_mb8());
        let mut a = Counting::default();
        let ma = run_spec_observed(&spec, &config, &mut a).unwrap();
        a.finish(ma.cycles).unwrap();
        let mut b = Counting::default();
        let mb = run_spec_observed(&spec, &config, &mut b).unwrap();
        b.finish(mb.cycles).unwrap();
        assert_eq!(ma, mb);
        assert_eq!(
            ma,
            run_spec(&spec, &config).unwrap(),
            "observing changes nothing"
        );
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.sums, b.sums);
        assert!(a.steps() > 0 && a.steps() <= ma.cycles);
        assert!(a.sums.mean(a.sums.inflight) > 0.0);
    }

    #[test]
    fn mismatched_weights_are_reported() {
        let mut c = Counting {
            last_at: Some(5),
            ..Counting::default()
        };
        assert!(c.finish(3).is_err());
    }
}
