//! Property-based tests for the partitioned memory system: address
//! slicing totality/balance and the FR-FCFS scheduler's starvation bound
//! and FCFS-degeneration, on the in-repo `vksim-testkit` harness
//! (offline, deterministic, replayable via the seed printed on failure);
//! plus the MSHR retry-storm schedule, pinned per seed in a golden.

use std::collections::BTreeMap;
use std::path::PathBuf;
use vksim_mem::{
    AccessKind, AddrMap, CacheConfig, Dram, DramConfig, DramIssue, DramSched, MemRequest, MemSink,
    RequestQueue, SharedMemSystem, SystemConfig,
};
use vksim_snapshot::{fnv1a, fnv1a_init, Dec, Enc, Snap};
use vksim_testkit::prop::{check, u32_in, u64_in, vec_of};
use vksim_testkit::{assert_matches_golden, prop_assert, prop_assert_eq, Pcg32};

/// Interleave granularity of the partitions.
const LINE: u64 = AddrMap::PARTITION_BYTES;

/// The address map of an `n`-partition backend with one DRAM channel per
/// partition; `log2_n` in `0..=3` draws n from {1, 2, 4, 8}.
fn partition_map(log2_n: u32) -> (u32, AddrMap) {
    let n = 1 << log2_n;
    let config = SystemConfig {
        num_partitions: n,
        dram: DramConfig {
            channels: n,
            ..DramConfig::default()
        },
        ..SystemConfig::default()
    };
    (n, AddrMap::new(&config))
}

/// The address map of a one-partition backend over `dram`.
fn dram_map(dram: &DramConfig) -> AddrMap {
    AddrMap::new(&SystemConfig {
        dram: dram.clone(),
        ..SystemConfig::default()
    })
}

/// Every address maps to exactly one partition (totality), all addresses
/// within one 128 B line map to the same partition, and consecutive lines
/// rotate through all partitions (perfect deterministic balance).
#[test]
fn partition_slicing_is_total_and_line_stable() {
    let strat = (u32_in(0, 3), vec_of(u64_in(0, 1 << 40), 16, 64));
    check(&strat, |(log2_n, addrs)| {
        let (n, map) = partition_map(*log2_n);
        for &addr in addrs {
            let p = map.partition(addr);
            prop_assert!(p < n, "partition {} out of range for n={}", p, n);
            // Line stability: every byte of the 128 B line agrees.
            let line = addr / LINE * LINE;
            prop_assert_eq!(map.partition(line), p);
            prop_assert_eq!(map.partition(line + LINE - 1), p);
            // Rotation: the next line lands on the next partition.
            prop_assert_eq!(map.partition(line + LINE), (p + 1) % n);
        }
        // Any window of n consecutive lines covers each partition once.
        let base = addrs[0] / LINE * LINE;
        let mut seen = vec![false; n as usize];
        for i in 0..n as u64 {
            seen[map.partition(base + i * LINE) as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s), "window missed a partition");
        Ok(())
    });
}

/// A uniform random address stream occupies every partition within ±20%
/// of the uniform share.
#[test]
fn partition_slicing_balances_uniform_streams() {
    // 4096 samples: at n=8 the expected share is 512 with σ ≈ 21, so the
    // ±20% band is ≈ 4.9σ wide — deterministic under the suite seed and
    // comfortably stable under reasonable seed replay.
    let strat = (u32_in(0, 3), vec_of(u64_in(0, 1 << 30), 4096, 4096));
    check(&strat, |(log2_n, addrs)| {
        let (n, map) = partition_map(*log2_n);
        let mut occupancy = vec![0u64; n as usize];
        for &addr in addrs {
            occupancy[map.partition(addr) as usize] += 1;
        }
        let expected = addrs.len() as f64 / n as f64;
        for (i, &c) in occupancy.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            prop_assert!(
                dev <= 0.20,
                "partition {} occupancy {} deviates {:.1}% from uniform {}",
                i,
                c,
                dev * 100.0,
                expected
            );
        }
        Ok(())
    });
}

/// Drives a load stream through the SM-side [`RequestQueue`] into a
/// backend, one drain per cycle, collecting completions until the backend
/// is idle and the queue drained (or `horizon` cycles pass). Returns
/// `(completions, cycles_used)`; asserts the ingress-occupancy bound every
/// cycle when `depth` is finite.
fn drive_backpressured(
    sys: &mut SharedMemSystem,
    queue: &mut RequestQueue,
    depth: u32,
    horizon: u64,
) -> (Vec<(u64, u64)>, u64) {
    let mut completions = Vec::new();
    let mut cycle = 0u64;
    while cycle < horizon {
        cycle += 1;
        completions.extend(sys.advance_to(cycle));
        queue.drain_into(sys);
        if depth > 0 {
            for p in 0..sys.num_partitions() {
                assert!(
                    sys.ingress_occupancy(p) <= depth,
                    "partition {p} occupancy {} exceeds depth {depth} at cycle {cycle}",
                    sys.ingress_occupancy(p)
                );
            }
        }
        if queue.is_empty() && sys.is_idle() {
            break;
        }
    }
    // Late completions already scheduled past `cycle`.
    completions.extend(sys.advance_to(u64::MAX));
    (completions, cycle)
}

/// Bounded ingress is really bounded and never deadlocks: under a random
/// load stream pushed through a depth-1..4 interconnect, per-partition
/// occupancy never exceeds the configured depth, every request completes,
/// and at least one refusal is observed when the stream is long enough to
/// overrun the bound.
#[test]
fn bounded_ingress_occupancy_is_bounded_and_deadlock_free() {
    let strat = (
        u32_in(1, 4),                       // icnt_queue_depth
        u32_in(1, 3),                       // num_partitions
        vec_of(u64_in(0, 1 << 16), 16, 64), // chunk addresses
    );
    check(&strat, |(depth, parts, addrs)| {
        let config = SystemConfig {
            num_partitions: *parts,
            icnt_queue_depth: *depth,
            icnt_return_credits: 2,
            ..SystemConfig::default()
        };
        let mut sys = SharedMemSystem::new(config);
        let mut queue = RequestQueue::new();
        for (i, &addr) in addrs.iter().enumerate() {
            queue.submit(
                MemRequest {
                    id: i as u64 + 1,
                    addr: addr & !31,
                    kind: AccessKind::ShaderLoad,
                    is_store: false,
                },
                0,
            );
        }
        let (completions, cycles) = drive_backpressured(&mut sys, &mut queue, *depth, 1_000_000);
        prop_assert!(
            queue.is_empty(),
            "queue still holds {} requests after {} cycles: backpressure deadlock",
            queue.len(),
            cycles
        );
        prop_assert_eq!(completions.len(), addrs.len());
        let mut ids: Vec<u64> = completions.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), addrs.len(), "every load completed exactly once");
        // Acceptance counting: accepted offers == requests, and refusals
        // (if any) were counted separately rather than inflating traffic.
        prop_assert_eq!(sys.stats.get("icnt.to_l2"), addrs.len() as u64);
        Ok(())
    });
}

/// `icnt_queue_depth = 0` (unbounded, the historical model) and a finite
/// depth too large to ever fill produce byte-identical completion
/// schedules and statistics: the bounded machinery is pure overhead-free
/// bookkeeping until a queue actually fills.
#[test]
fn unbounded_and_unreachable_depth_schedules_match() {
    let strat = (
        u32_in(1, 4),                      // num_partitions
        vec_of(u64_in(0, 1 << 16), 8, 48), // chunk addresses
    );
    check(&strat, |(parts, addrs)| {
        let run = |depth: u32| {
            let config = SystemConfig {
                num_partitions: *parts,
                icnt_queue_depth: depth,
                // Divisible by every partition count drawn.
                dram: DramConfig {
                    channels: 12,
                    ..DramConfig::default()
                },
                ..SystemConfig::default()
            };
            let mut sys = SharedMemSystem::new(config);
            let mut queue = RequestQueue::new();
            for (i, &addr) in addrs.iter().enumerate() {
                queue.submit(
                    MemRequest {
                        id: i as u64 + 1,
                        addr: addr & !31,
                        kind: AccessKind::ShaderLoad,
                        is_store: false,
                    },
                    i as u64, // staggered submit times
                );
            }
            let (completions, _) = drive_backpressured(&mut sys, &mut queue, depth, 1_000_000);
            (
                completions,
                sys.stats.clone(),
                sys.l2_stats(),
                sys.dram_stats(),
            )
        };
        let unbounded = run(0);
        let huge = run(1 << 20);
        prop_assert_eq!(&unbounded.0, &huge.0, "completion schedules diverged");
        prop_assert_eq!(&unbounded.1, &huge.1, "icnt stats diverged");
        prop_assert_eq!(&unbounded.2, &huge.2, "L2 stats diverged");
        prop_assert_eq!(&unbounded.3, &huge.3, "DRAM stats diverged");
        Ok(())
    });
}

/// A depth-1 interconnect in front of a single partition must refuse
/// offers while the lone slot is occupied — the head-of-line blocking the
/// SM issue stage keys its stall accounting from.
#[test]
fn depth_one_ingress_refuses_concurrent_offers() {
    let config = SystemConfig {
        num_partitions: 1,
        icnt_queue_depth: 1,
        ..SystemConfig::default()
    };
    let mut sys = SharedMemSystem::new(config);
    let req = |id: u64, addr: u64| MemRequest {
        id,
        addr,
        kind: AccessKind::ShaderLoad,
        is_store: false,
    };
    assert!(sys.try_submit(req(1, 0), 0), "empty queue accepts");
    assert!(!sys.try_submit(req(2, 32), 0), "full queue refuses");
    assert_eq!(sys.stats.get("icnt.refused"), 1);
    assert_eq!(sys.stats.get("icnt.to_l2"), 1, "refusals are not traffic");
    // Drain the slot; the refused request must be accepted on re-offer.
    sys.advance_to(100_000);
    assert!(sys.try_submit(req(2, 32), 100_000), "freed queue accepts");
}

/// FR-FCFS never starves: every request completes within the documented
/// deterministic bound `age_cap + 2 * max_access * (k + 1)` of its
/// arrival, where `k` counts older same-channel requests pending when it
/// arrived.
#[test]
fn fr_fcfs_completes_within_starvation_bound() {
    let strat = (
        u32_in(1, 8),                                      // queue_depth
        u64_in(0, 200),                                    // age_cap
        vec_of((u64_in(0, 1 << 14), u64_in(0, 8)), 4, 48), // (addr, gap)
    );
    check(&strat, |(depth, age_cap, stream)| {
        let config = DramConfig {
            channels: 2,
            banks_per_channel: 4,
            row_bytes: 512,
            sched: DramSched::FrFcfs {
                queue_depth: *depth,
                age_cap: *age_cap,
            },
            ..DramConfig::default()
        };
        let max_access = config.max_access_cycles();
        let map = dram_map(&config);
        let mut d = Dram::new(config);

        // Submit everything up front: k for request i is then simply the
        // number of earlier submissions to the same channel.
        let mut now = 0u64;
        let mut meta = Vec::new(); // ticket -> (arrival, k)
        let mut per_channel = [0u64; 2];
        for &(addr, gap) in stream {
            now += gap;
            let loc = map.dram(addr);
            let ch = loc.channel as usize;
            let DramIssue::Queued(ticket) = d.submit(loc, now) else {
                prop_assert!(false, "FR-FCFS config must queue");
                unreachable!()
            };
            meta.push((ticket, now, per_channel[ch]));
            per_channel[ch] += 1;
        }

        let completions = d.run_schedule(u64::MAX);
        prop_assert!(!d.has_queued(), "full-horizon schedule must drain");
        prop_assert_eq!(completions.len(), stream.len());
        for &(ticket, arrival, k) in &meta {
            let done = completions
                .iter()
                .find(|&&(t, _)| t == ticket)
                .map(|&(_, done)| done);
            prop_assert!(done.is_some(), "ticket {} never completed", ticket);
            let bound = arrival + age_cap + 2 * max_access * (k + 1);
            prop_assert!(
                done.unwrap() <= bound,
                "ticket {} done {} exceeds bound {} (arrival {}, k {})",
                ticket,
                done.unwrap(),
                bound,
                arrival,
                k
            );
        }
        Ok(())
    });
}

/// With `age_cap = 0` the FR-FCFS schedule degenerates to FCFS
/// cycle-for-cycle: identical per-request completion times and identical
/// counters, regardless of queue depth and of how the scheduling horizon
/// advances.
#[test]
fn fr_fcfs_age_cap_zero_matches_fcfs_schedule() {
    let strat = (
        u32_in(1, 8),                                      // queue_depth
        vec_of((u64_in(0, 1 << 14), u64_in(0, 8)), 1, 48), // (addr, gap)
    );
    check(&strat, |(depth, stream)| {
        let base = DramConfig {
            channels: 2,
            banks_per_channel: 4,
            row_bytes: 512,
            ..DramConfig::default()
        };
        let map = dram_map(&base);

        // Reference: the in-order path services at submit.
        let mut fcfs = Dram::new(DramConfig {
            sched: DramSched::Fcfs,
            ..base.clone()
        });
        let mut now = 0u64;
        let mut expected = Vec::new();
        for &(addr, gap) in stream {
            now += gap;
            match fcfs.submit(map.dram(addr), now) {
                DramIssue::Done(done) => expected.push(done),
                DramIssue::Queued(_) => {
                    prop_assert!(false, "FCFS never queues");
                }
            }
        }

        // FR-FCFS at cap 0, scheduled incrementally at each arrival and
        // drained at the end (exercises the nondecreasing-horizon safety).
        let mut fr = Dram::new(DramConfig {
            sched: DramSched::FrFcfs {
                queue_depth: *depth,
                age_cap: 0,
            },
            ..base
        });
        let mut now = 0u64;
        let mut got = std::collections::HashMap::new();
        for &(addr, gap) in stream {
            now += gap;
            let DramIssue::Queued(ticket) = fr.submit(map.dram(addr), now) else {
                prop_assert!(false, "FR-FCFS config must queue");
                unreachable!()
            };
            let _ = ticket;
            for (t, done) in fr.run_schedule(now) {
                got.insert(t, done);
            }
        }
        for (t, done) in fr.run_schedule(u64::MAX) {
            got.insert(t, done);
        }

        prop_assert_eq!(got.len(), expected.len());
        for (i, &want) in expected.iter().enumerate() {
            // Tickets are 1-based in submission order.
            prop_assert_eq!(
                got.get(&(i as u64 + 1)).copied(),
                Some(want),
                "request {} diverged from the FCFS schedule",
                i
            );
        }
        prop_assert_eq!(&fr.stats, &fcfs.stats);
        Ok(())
    });
}

// ---------------------------------------------------------------------
// MSHR retry storms: starved L2 slices under every back-off source.
// ---------------------------------------------------------------------

/// Cycle bound on one storm case; the longest of the pinned seeds drains
/// in a small fraction of it.
const STORM_HORIZON: u64 = 2_000_000;
/// Seeds pinned in `tests/goldens/mem_retry_storm.json`.
const STORM_SEEDS: u64 = 48;

/// One retry-storm case drawn from `seed`: a backend whose L2 slices hold
/// 1–4 MSHR entries with 1–2 merge slots — under FCFS, FR-FCFS, or the
/// bounded interconnect (finite ingress, return credits and 1–2-entry
/// FR-FCFS bank queues, so DRAM back-offs interleave with the L2 ones) —
/// and a bursty load/store stream over a small pool of lines. The L2 is
/// sometimes only a few lines large, so the classification shadow evicts
/// while requests are backed off.
fn storm_case(seed: u64) -> (SystemConfig, Vec<(MemRequest, u64)>) {
    let mut rng = Pcg32::new(0x5708_0000_0000_0000 | seed);
    let parts = rng.u64_range(1, 3) as u32;
    let slice_lines = *rng.choose(&[8u64, 64, 4096]).expect("nonempty");
    let sched = match rng.u64_below(3) {
        0 => DramSched::Fcfs,
        _ => DramSched::FrFcfs {
            queue_depth: rng.u64_range(1, 4) as u32,
            age_cap: rng.u64_range(0, 200),
        },
    };
    let mut config = SystemConfig {
        l2: CacheConfig {
            size_bytes: slice_lines * 32 * parts as u64,
            assoc: 2,
            hit_latency: *rng.choose(&[4u32, 40, 160]).expect("nonempty"),
            mshr_entries: rng.usize_range(1, 4) * parts as usize,
            mshr_merge: rng.usize_range(1, 2),
            ..CacheConfig::l2_baseline()
        },
        dram: DramConfig {
            channels: parts * rng.u64_range(1, 2) as u32,
            banks_per_channel: rng.u64_range(1, 4) as u32,
            row_bytes: 512,
            sched,
            ..DramConfig::default()
        },
        num_partitions: parts,
        ..SystemConfig::default()
    };
    if rng.bool_with(1.0 / 3.0) {
        config.icnt_queue_depth = rng.u64_range(2, 8) as u32;
        config.icnt_return_credits = rng.u64_range(0, 2) as u32;
        config.dram.sched = DramSched::FrFcfs {
            queue_depth: rng.u64_range(1, 2) as u32,
            age_cap: rng.u64_range(0, 64),
        };
    }
    let pool: Vec<u64> = (0..rng.usize_range(4, 48))
        .map(|_| rng.u64_below(1 << 12) * 32)
        .collect();
    let mut at = 0u64;
    let stream = (0..rng.u64_range(64, 256))
        .map(|id| {
            if rng.bool_with(0.3) {
                at += rng.u64_range(1, 6);
            }
            let is_store = rng.bool_with(0.15);
            let kind = if is_store {
                AccessKind::ShaderStore
            } else if rng.bool_with(0.5) {
                AccessKind::RtUnit
            } else {
                AccessKind::ShaderLoad
            };
            let addr = *rng.choose(&pool).expect("nonempty");
            (
                MemRequest {
                    id,
                    addr,
                    kind,
                    is_store,
                },
                at,
            )
        })
        .collect();
    (config, stream)
}

fn encode(sys: &SharedMemSystem) -> Vec<u8> {
    let mut e = Enc::new();
    sys.save(&mut e);
    e.into_bytes()
}

/// What one storm run leaves behind.
struct StormRun {
    done: Vec<(u64, u64)>,
    sys: SharedMemSystem,
    /// Cycles in which `l2.retry` advanced: a refused access was re-offered,
    /// so requests were sitting in a back-off then.
    storm_cycles: Vec<u64>,
}

/// Drives `stream` through a backend built from `config` — one
/// `advance_to` and one queue drain per cycle — until everything is
/// submitted, accepted and drained. `observe` sees the backend right after
/// each cycle's `advance_to`. At `pause_at` the backend is saved and
/// replaced by one rebuilt from those bytes (which must re-encode
/// identically).
fn run_storm(
    config: &SystemConfig,
    stream: &[(MemRequest, u64)],
    pause_at: Option<u64>,
    observe: &mut dyn FnMut(u64, &SharedMemSystem),
) -> Result<StormRun, String> {
    let mut sys = SharedMemSystem::new(config.clone());
    let mut queue = RequestQueue::new();
    let (mut done, mut storm_cycles) = (Vec::new(), Vec::new());
    let (mut next, mut retries) = (0, 0);
    let mut cycle = 0u64;
    while next < stream.len() || !queue.is_empty() || !sys.is_idle() {
        cycle += 1;
        if cycle > STORM_HORIZON {
            return Err(format!(
                "backend did not drain: {} of {} completions after {cycle} cycles",
                done.len(),
                stream.len()
            ));
        }
        done.extend(sys.advance_to(cycle));
        observe(cycle, &sys);
        while next < stream.len() && stream[next].1 <= cycle {
            queue.submit(stream[next].0, cycle);
            next += 1;
        }
        queue.drain_into(&mut sys);
        let now = sys.stats.get("l2.retry");
        if now != retries {
            retries = now;
            storm_cycles.push(cycle);
        }
        if pause_at == Some(cycle) {
            let bytes = encode(&sys);
            let mut d = Dec::new(&bytes);
            sys = SharedMemSystem::load(config.clone(), &mut d).map_err(|e| e.to_string())?;
            d.finish().map_err(|e| e.to_string())?;
            if encode(&sys) != bytes {
                return Err(format!("re-encode at cycle {cycle} is not byte-identical"));
            }
        }
    }
    Ok(StormRun {
        done,
        sys,
        storm_cycles,
    })
}

/// Starved L2 slices retry refused accesses every few cycles until a fill
/// frees an MSHR; the backend must do so identically however it stores the
/// backed-off requests. Over fixed seeds of [`storm_case`]: the run drains,
/// every request completes exactly once, `l2.retry` equals the refusals the
/// slices counted, pausing mid-storm → `save` → `load` → continue yields
/// the identical completion list and a byte-identical final snapshot, and
/// the completion list plus every merged statistic matches the fingerprint
/// pinned in `tests/goldens/mem_retry_storm.json`.
#[test]
fn mshr_retry_storms_are_exact_and_survive_snapshots() {
    let mut fingerprints = BTreeMap::new();
    for seed in 0..STORM_SEEDS {
        let (config, stream) = storm_case(seed);
        let reference = run_storm(&config, &stream, None, &mut |_, _| {})
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{config:?}"));
        let mut ids: Vec<u64> = reference.done.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        assert!(
            ids.iter().copied().eq(0..stream.len() as u64),
            "seed {seed}: every request completes exactly once"
        );
        let l2 = reference.sys.l2_stats();
        assert_eq!(
            reference.sys.stats.get("l2.retry"),
            l2.get("mshr.full") + l2.get("mshr.merge_fail"),
            "seed {seed}: every refusal is retried exactly once"
        );

        // Pause in a cycle that re-offered a refused access: requests are
        // sitting in their back-off then.
        let pause = *Pcg32::new(seed)
            .choose(&reference.storm_cycles)
            .unwrap_or_else(|| panic!("seed {seed}: the generator lost its storm"));
        let paused = run_storm(&config, &stream, Some(pause), &mut |_, _| {})
            .unwrap_or_else(|e| panic!("seed {seed} paused at {pause}: {e}"));
        assert_eq!(
            paused.done, reference.done,
            "seed {seed}: pause at {pause} changed the completion list"
        );
        assert!(
            encode(&paused.sys) == encode(&reference.sys),
            "seed {seed}: pause at {pause} changed the final snapshot"
        );

        // Saving after every cycle observes the backend mid-storm; it must
        // not perturb it.
        let observed = run_storm(&config, &stream, None, &mut |_, sys| drop(encode(sys)))
            .unwrap_or_else(|e| panic!("seed {seed} saving every cycle: {e}"));
        assert_eq!(
            observed.done, reference.done,
            "seed {seed}: saving every cycle changed the completion list"
        );
        assert!(
            encode(&observed.sys) == encode(&reference.sys),
            "seed {seed}: saving every cycle changed the final snapshot"
        );

        let mut e = Enc::new();
        e.seq(reference.done.len());
        for &(id, at) in &reference.done {
            e.u64(id);
            e.u64(at);
        }
        l2.save(&mut e);
        reference.sys.dram_stats().save(&mut e);
        reference.sys.stats.save(&mut e);
        fingerprints.insert(
            format!("seed_{seed:02}"),
            fnv1a(fnv1a_init(), &e.into_bytes()),
        );
    }
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/goldens/mem_retry_storm.json");
    assert_matches_golden(golden, &fingerprints);
}

/// What a storm looks like from outside while it runs: over the seeds of
/// [`storm_case`], an FNV over every cycle's `l2.retry`, `mshr.full` and
/// `mshr.merge_fail` (read right after `advance_to`) and over the `save`
/// bytes at eight cycles spread over the cycles that re-offered a refused
/// access, pinned in `tests/goldens/mem_retry_storm_saves.json`.
#[test]
fn mshr_retry_storm_observations_are_pinned() {
    let mut fingerprints = BTreeMap::new();
    for seed in 0..STORM_SEEDS {
        let (config, stream) = storm_case(seed);
        let reference = run_storm(&config, &stream, None, &mut |_, _| {})
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let cycles = &reference.storm_cycles;
        let picks: Vec<u64> = (0..8).map(|i| cycles[i * cycles.len() / 8]).collect();
        let mut h = fnv1a_init();
        run_storm(&config, &stream, None, &mut |cycle, sys| {
            let l2 = sys.l2_stats();
            for n in [
                sys.stats.get("l2.retry"),
                l2.get("mshr.full"),
                l2.get("mshr.merge_fail"),
            ] {
                h = fnv1a(h, &n.to_le_bytes());
            }
            if picks.contains(&cycle) {
                h = fnv1a(h, &encode(sys));
            }
        })
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        fingerprints.insert(format!("seed_{seed:02}"), h);
    }
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens/mem_retry_storm_saves.json");
    assert_matches_golden(golden, &fingerprints);
}
