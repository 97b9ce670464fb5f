//! Per-component cost replays.
//!
//! The simulator's hot loop interleaves every component on each step,
//! so its own spans cannot separate them. Instead, each traced point's
//! own generated operations are replayed through the component crates'
//! public APIs, one layer at a time, and timed:
//!
//! 1. the `CoreStream` addresses drive one L1 [`SetAssocCache`] per core;
//! 2. their misses (and dirty evictions), visited round-robin across
//!    cores and mapped to serving banks, drive the L2 banks;
//! 3. the L2 misses, dirty L2 victims and instruction refills drive
//!    [`Dram::access`] and the [`MissBus`];
//! 4. the L1 miss sequence drives the point's [`Interconnect`] with one
//!    outstanding request per core;
//! 5. a [`TimingWheel`] runs at the event-queue depth the observer saw.
//!
//! The replays are functional approximations (no coherence traffic, no
//! timing feedback into the order of accesses), so their operation
//! counts are printed beside the run's own to make any divergence
//! visible.

use mot3d_mem::addr::{AddressMap, LineAddr};
use mot3d_mem::bus::{MissBus, Transfer};
use mot3d_mem::cache::{CacheConfig, SetAssocCache};
use mot3d_mem::dram::{Dram, DramTiming};
use mot3d_mot::traits::{Interconnect, MemRequest, MemResponse, ReqKind};
use mot3d_phys::wheel::TimingWheel;
use mot3d_sim::SimConfig;
use mot3d_workloads::{Op, StreamOp};
use std::hint::black_box;
use std::time::Instant;

/// Physical L2 banks of the cluster (Table I).
pub const BANKS: usize = 32;
/// Miss-bus requesters: every bank, then every core.
const BUS_REQUESTERS: usize = BANKS + 16;

/// Operations replayed and the host time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Operations replayed.
    pub ops: u64,
    /// Host nanoseconds.
    pub ns: u64,
}

impl Cost {
    fn timed(ops: u64, start: Instant) -> Cost {
        Cost {
            ops,
            ns: u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        }
    }

    /// Adds another replay's cost.
    pub fn merge(&mut self, o: Cost) {
        self.ops += o.ops;
        self.ns += o.ns;
    }

    /// Host ns per operation.
    pub fn ns_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

/// One line-granular access leaving a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineAccess {
    /// The line.
    pub line: LineAddr,
    /// A write (dirty victim or store miss) rather than a read.
    pub write: bool,
}

/// Replays every core's loads and stores through a private L1.
/// Returns the cost (one op per access) and each core's miss sequence
/// (misses plus dirty victims); instruction refills go to `ifetch` as
/// `(core rank, line)`.
pub fn l1(
    streams: &[Vec<StreamOp>],
    map: &AddressMap,
    ifetch: &mut Vec<(usize, LineAddr)>,
) -> (Cost, Vec<Vec<LineAccess>>) {
    let start = Instant::now();
    let mut ops = 0;
    let mut misses = Vec::with_capacity(streams.len());
    for (rank, stream) in streams.iter().enumerate() {
        let mut cache: SetAssocCache<()> =
            SetAssocCache::new(CacheConfig::l1_date16()).expect("the paper's L1 geometry is valid");
        let mut out = Vec::new();
        for op in stream {
            let (addr, write) = match *op {
                StreamOp::Op(Op::Load(a)) => (a, false),
                StreamOp::Op(Op::Store(a)) => (a, true),
                StreamOp::IFetchMiss(a) => {
                    ifetch.push((rank, map.line_of(a)));
                    continue;
                }
                StreamOp::Op(Op::Compute(_) | Op::Barrier(_)) => continue,
            };
            ops += 1;
            let line = map.line_of(addr);
            let hit = if write {
                cache.write(line, ops)
            } else {
                cache.read(line).is_some()
            };
            if !hit {
                out.push(LineAccess { line, write });
                if let Some(victim) = cache.fill(line, ops, write) {
                    if victim.dirty {
                        out.push(LineAccess {
                            line: victim.addr,
                            write: true,
                        });
                    }
                }
            }
        }
        misses.push(out);
    }
    (Cost::timed(ops, start), misses)
}

/// Visits per-core sequences round-robin (first element of every core,
/// then every second, …) — the order concurrent cores would reach the
/// shared level in.
pub fn interleave(per_core: &[Vec<LineAccess>]) -> Vec<(usize, LineAccess)> {
    let longest = per_core.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::with_capacity(per_core.iter().map(Vec::len).sum());
    for i in 0..longest {
        for (core, seq) in per_core.iter().enumerate() {
            if let Some(&a) = seq.get(i) {
                out.push((core, a));
            }
        }
    }
    out
}

/// Replays the interleaved L1 miss stream through the 32 L2 banks,
/// each access going to `serving_bank(home bank)`. Returns the cost and
/// the DRAM traffic as `(bus requester, access)`: L2 misses and dirty
/// L2 victims from their bank.
pub fn l2(
    accesses: &[(usize, LineAccess)],
    map: &AddressMap,
    serving_bank: impl Fn(usize) -> usize,
) -> (Cost, Vec<(usize, LineAccess)>) {
    let start = Instant::now();
    let mut banks: Vec<SetAssocCache<()>> = (0..BANKS)
        .map(|_| {
            SetAssocCache::new(CacheConfig::l2_bank_date16())
                .expect("the paper's L2 bank geometry is valid")
        })
        .collect();
    let mut dram = Vec::new();
    for (i, &(_, a)) in accesses.iter().enumerate() {
        let bank = serving_bank(map.home_bank(a.line));
        let cache = &mut banks[bank];
        let hit = if a.write {
            cache.write(a.line, i as u64)
        } else {
            cache.read(a.line).is_some()
        };
        if !hit {
            if !a.write {
                dram.push((
                    bank,
                    LineAccess {
                        line: a.line,
                        write: false,
                    },
                ));
            }
            if let Some(victim) = cache.fill(a.line, i as u64, a.write) {
                if victim.dirty {
                    dram.push((
                        bank,
                        LineAccess {
                            line: victim.addr,
                            write: true,
                        },
                    ));
                }
            }
        }
    }
    (Cost::timed(accesses.len() as u64, start), dram)
}

/// The point's DRAM timing, as the cluster derives it.
pub fn dram_timing(config: &SimConfig) -> DramTiming {
    if config.dram_open_page {
        DramTiming::open_page(config.dram.latency_cycles())
    } else {
        DramTiming::fixed(config.dram.latency_cycles())
    }
}

/// Replays DRAM traffic through [`Dram::access`], one access per cycle.
pub fn dram(traffic: &[(usize, LineAccess)], config: &SimConfig, map: AddressMap) -> Cost {
    let start = Instant::now();
    let mut dram = Dram::new(dram_timing(config), map);
    for (now, &(_, a)) in traffic.iter().enumerate() {
        black_box(dram.access(now as u64, a.line, a.write));
    }
    Cost::timed(traffic.len() as u64, start)
}

/// Replays DRAM traffic over the Miss bus in batches of `depth` queued
/// transfers (the mean queue depth the observer saw), ticking until each
/// batch has been granted and completed.
pub fn bus(traffic: &[(usize, LineAccess)], occupancy: u64, depth: usize) -> Cost {
    let start = Instant::now();
    let mut bus = MissBus::new(BUS_REQUESTERS, occupancy);
    let mut now = 0u64;
    for batch in traffic.chunks(depth.max(1)) {
        for (tag, &(requester, _)) in batch.iter().enumerate() {
            bus.enqueue(Transfer {
                requester,
                tag: tag as u64,
            });
        }
        let mut done = 0;
        while done < batch.len() {
            done += usize::from(bus.tick(now).is_some());
            now += 1;
        }
    }
    Cost::timed(traffic.len() as u64, start)
}

/// Replays each core's L1 miss sequence through `net` with one
/// outstanding request per core; banks answer in the cycle a request
/// arrives. `physical[rank]` is the grid id of active core `rank`.
pub fn interconnect(
    net: &mut impl Interconnect,
    per_core: &[Vec<LineAccess>],
    physical: &[usize],
    map: &AddressMap,
) -> Cost {
    let start = Instant::now();
    let mut next = vec![0usize; per_core.len()];
    let mut outstanding = 0usize;
    let mut requests = 0u64;
    let kind = |write: bool| {
        if write {
            ReqKind::WriteLine
        } else {
            ReqKind::ReadLine
        }
    };
    let mut send = |net: &mut dyn Interconnect, rank: usize, now: u64| -> bool {
        let Some(a) = per_core[rank].get(next[rank]) else {
            return false;
        };
        next[rank] += 1;
        net.inject_request(
            now,
            MemRequest {
                core: physical[rank],
                home_bank: map.home_bank(a.line),
                kind: kind(a.write),
                tag: rank as u64,
            },
        );
        true
    };
    let mut now = 0u64;
    for rank in 0..per_core.len() {
        if send(net, rank, now) {
            outstanding += 1;
            requests += 1;
        }
    }
    while outstanding > 0 {
        net.tick(now);
        while let Some(arrival) = net.pop_arrival() {
            net.inject_response(
                now,
                MemResponse {
                    core: arrival.request.core,
                    bank: arrival.bank,
                    kind: arrival.request.kind,
                    tag: arrival.request.tag,
                },
            );
        }
        while let Some(delivery) = net.pop_delivery() {
            outstanding -= 1;
            let rank = delivery.response.tag as usize;
            if send(net, rank, now) {
                outstanding += 1;
                requests += 1;
            }
        }
        now = net
            .next_activity(now + 1)
            .map_or(now + 1, |t| t.max(now + 1));
    }
    Cost::timed(requests, start)
}

/// Runs a timing wheel held at `depth` live events for `pairs`
/// pop-then-reschedule pairs, with delays cycling through `delays`.
/// One op is one `schedule` or one `pop_due`.
pub fn wheel(depth: usize, pairs: u64, delays: &[u64]) -> Cost {
    let start = Instant::now();
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let mut k = 0usize;
    let mut delay = || {
        k = (k + 1) % delays.len();
        delays[k]
    };
    for i in 0..depth.max(1) {
        wheel.schedule(delay(), i as u64);
    }
    for _ in 0..pairs {
        let t = wheel.next_time().expect("the wheel is never empty");
        let (at, item) = wheel.pop_due(t).expect("an event is due at next_time");
        wheel.schedule(at + delay(), black_box(item));
    }
    Cost::timed(2 * pairs + depth.max(1) as u64, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mot3d_mot::{MotNetwork, PowerState};
    use mot3d_noc::{NocNetwork, NocTopologyKind};
    use mot3d_workloads::{streams, SplashBenchmark};

    fn ops() -> Vec<Vec<StreamOp>> {
        let spec = SplashBenchmark::OceanContiguous.spec().scaled(0.002);
        streams(&spec, 16, 7)
            .into_iter()
            .map(Iterator::collect)
            .collect()
    }

    #[test]
    fn replays_account_for_every_access() {
        let map = AddressMap::date16();
        let ops = ops();
        let mut ifetch = Vec::new();
        let (l1_cost, misses) = l1(&ops, &map, &mut ifetch);
        let mem_ops = ops
            .iter()
            .flatten()
            .filter(|op| matches!(op, StreamOp::Op(Op::Load(_) | Op::Store(_))))
            .count() as u64;
        assert_eq!(l1_cost.ops, mem_ops);
        let order = interleave(&misses);
        assert_eq!(order.len(), misses.iter().map(Vec::len).sum::<usize>());
        let (l2_cost, traffic) = l2(&order, &map, |b| b);
        assert_eq!(l2_cost.ops, order.len() as u64);
        assert!(!traffic.is_empty(), "cold caches miss to DRAM");
        let config = SimConfig::date16();
        assert_eq!(dram(&traffic, &config, map).ops, traffic.len() as u64);
        assert_eq!(bus(&traffic, 4, 3).ops, traffic.len() as u64);

        let physical: Vec<usize> = (0..16).collect();
        let mut mot = MotNetwork::date16(PowerState::full()).unwrap();
        let mot_cost = interconnect(&mut mot, &misses, &physical, &map);
        assert_eq!(mot_cost.ops, order.len() as u64);
        assert_eq!(mot.stats().requests, mot_cost.ops);
        let mut noc = NocNetwork::date16(NocTopologyKind::Mesh3d);
        assert_eq!(
            interconnect(&mut noc, &misses, &physical, &map).ops,
            order.len() as u64
        );

        assert_eq!(wheel(5, 100, &[4, 200, 12]).ops, 205);
    }
}
