//! The one seam between an SM and its observers.

use crate::accounting::{CycleAccounting, CycleCategory};
use crate::config::TraceConfig;
use crate::event::{Event, EventKind};
use crate::recorder::{SmTracer, TraceCollector};
use crate::rt_analytics::WarpCoherence;
use vksim_snapshot::{restore_opt, save_opt, Dec, Enc, Snap, SnapError};

/// What the observers need to know about one SM cycle.
#[derive(Clone, Copy, Debug, Default)]
pub struct CycleState {
    /// The RT unit held at least one warp at the end of the cycle.
    pub rt_busy: bool,
    /// The stall class sampled at tick start: `(category, resident warps,
    /// eligible warps)`. `None` unless [`SmObservers::wants_stall_class`].
    pub stall: Option<(CycleCategory, u64, u64)>,
    /// The SM issued: the cycle counts as `Issued` whatever its stall class.
    pub issued: bool,
}

/// One SM's observers — the event tracer, cycle accounting and warp
/// traversal coherence (rt analytics) — each present exactly when its
/// [`TraceConfig`] switch is on, so a hook costs one branch per observer
/// that is off.
///
/// The idle-span rule: [`SmObservers::on_idle_span`]`(from, n, s)` leaves
/// every recorder exactly as `n` calls of [`SmObservers::on_cycle`]
/// `(from + i, s)` would. The tracer's edges record at most once, on the
/// first cycle, and the accounting attributes all `n`.
#[derive(Clone, Debug, Default)]
pub struct SmObservers {
    tracer: Option<Box<SmTracer>>,
    accounting: Option<Box<CycleAccounting>>,
    rt_analytics: Option<Box<WarpCoherence>>,
}

impl SmObservers {
    /// The observers `config` switches on.
    pub fn new(config: &TraceConfig) -> Self {
        SmObservers {
            tracer: config.enabled.then(|| Box::new(SmTracer::new(config))),
            accounting: config.accounting.then(Box::default),
            rt_analytics: config.rt_analytics.then(Box::default),
        }
    }

    /// `true` when events are recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// `true` when [`CycleState::stall`] must be sampled.
    #[inline]
    pub fn wants_stall_class(&self) -> bool {
        self.accounting.is_some()
    }

    /// The cycle-accounting recorder, when enabled.
    pub fn accounting(&self) -> Option<&CycleAccounting> {
        self.accounting.as_deref()
    }

    /// The warp-coherence recorder, when rt analytics is enabled.
    pub fn rt_analytics(&self) -> Option<&WarpCoherence> {
        self.rt_analytics.as_deref()
    }

    /// Records a trace event (see [`SmTracer::record`]).
    #[inline]
    pub fn event(&mut self, now: u64, warp: u32, kind: EventKind) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.record(now, warp, kind);
        }
    }

    /// Edge-detects interconnect backpressure sampled at tick start, before
    /// the cycle's other events.
    #[inline]
    pub fn icnt_edge(&mut self, now: u64, blocked: bool) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.icnt_stall_edge(now, blocked);
        }
    }

    /// Closes one ticked cycle.
    #[inline]
    pub fn on_cycle(&mut self, now: u64, state: CycleState) {
        self.on_idle_span(now, 1, state);
    }

    /// Closes `n` skipped cycles starting at `from`, each in `state`.
    #[inline]
    pub fn on_idle_span(&mut self, from: u64, n: u64, state: CycleState) {
        if n == 0 {
            return;
        }
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.rt_busy_edge(from, state.rt_busy);
        }
        if let Some(acc) = self.accounting.as_deref_mut() {
            let (cat, resident, eligible) = state.stall.expect("accounting samples the stall");
            let cat = if state.issued {
                CycleCategory::Issued
            } else {
                cat
            };
            acc.record_span(cat, resident, eligible, n);
        }
    }

    /// Tallies a `traceRay` warp job from its per-lane scripts: lane `l` is
    /// active at step `s` while its script still has a step to run, so lane
    /// counts per step give the integer-exact warp·step integral.
    pub fn trace_ray<S>(&mut self, scripts: &[Vec<S>]) {
        if let Some(rec) = self.rt_analytics.as_deref_mut() {
            let steps = scripts.iter().map(Vec::len).max().unwrap_or(0);
            rec.record_job(
                (0..steps).map(|s| scripts.iter().filter(|l| l.len() > s).count() as u32),
            );
        }
    }

    /// The flight-recorder ring, oldest first; empty when not tracing.
    pub fn flight(&self) -> impl Iterator<Item = &Event> {
        self.tracer.iter().flat_map(|tr| tr.flight())
    }

    /// Moves the staged events into `col` under SM `sm`.
    pub fn drain_into(&mut self, col: &mut TraceCollector, sm: u32) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            col.drain_sm(sm, tr);
        }
    }

    /// End of run: closes every open span at `cycle`, drains the residue
    /// and folds the summary aggregates into `col`.
    pub fn finish_into(&mut self, col: &mut TraceCollector, sm: u32, cycle: u64) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.finalize(cycle);
            col.drain_sm(sm, tr);
            col.absorb_aggregates(sm, tr);
        }
    }
}

fn save_boxed<T: Snap>(slot: &Option<Box<T>>, e: &mut Enc) {
    save_opt(slot, e, Snap::save);
}

fn restore_boxed<T: Snap>(slot: &mut Option<Box<T>>, d: &mut Dec<'_>) -> Result<(), SnapError> {
    restore_opt(slot, d, |v, d| Snap::load(d).map(|loaded| *v = loaded))
}

// Each observer as its presence byte, then its state. A snapshot whose
// presence disagrees with the configuration is refused, naming the type.
vksim_snapshot::snap_state!(SmObservers {
    tracer: with(save_boxed, restore_boxed),
    accounting: with(save_boxed, restore_boxed),
    rt_analytics: with(save_boxed, restore_boxed),
} skip {});

#[cfg(test)]
mod tests {
    use super::*;
    use vksim_testkit::prop::{self, u32_in, u64_in};
    use vksim_testkit::{prop_assert, prop_assert_eq};

    fn all_on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            accounting: true,
            rt_analytics: true,
            ..TraceConfig::default()
        }
    }

    fn bytes(obs: &SmObservers) -> Vec<u8> {
        let mut e = Enc::new();
        obs.save(&mut e);
        e.into_bytes()
    }

    // The acceptance property of the idle-span rule, from random prior
    // spans (RT busy, interconnect stall, an open memory stall) and random
    // stall classes, occupancies and span lengths, zero included.
    #[test]
    fn idle_span_equals_that_many_idle_cycles() {
        let cases = (
            u32_in(0, 6),
            u64_in(0, 48),
            u64_in(0, 48),
            u64_in(0, 40),
            u64_in(1, 1 << 40),
            u32_in(0, 31),
        );
        prop::check(&cases, |&(code, resident, eligible, n, from, flags)| {
            let bit = |i: u32| flags & (1 << i) != 0;
            let mut before = SmObservers::new(&all_on());
            before.event(from - 1, 3, EventKind::Issue { pc: 8, lanes: 32 });
            before.icnt_edge(from - 1, bit(0));
            if bit(1) {
                before.event(from - 1, 3, EventKind::StallBegin);
            }
            let drained = Some((CycleCategory::Drained, 0, 0));
            before.on_cycle(
                from - 1,
                CycleState {
                    rt_busy: bit(2),
                    stall: drained,
                    issued: false,
                },
            );
            let state = CycleState {
                rt_busy: bit(3),
                stall: Some((
                    CycleCategory::from_code(code as u8).expect("code in range"),
                    resident,
                    eligible % (resident + 1),
                )),
                issued: bit(4),
            };
            let mut span = before.clone();
            span.on_idle_span(from, n, state);
            let mut ticks = before.clone();
            for i in 0..n {
                ticks.on_cycle(from + i, state);
            }
            prop_assert_eq!(bytes(&span), bytes(&ticks));
            let acc = span.accounting().expect("on");
            prop_assert!(acc.total() == n + 1, "{} cycles attributed", acc.total());
            Ok(())
        });
    }

    #[test]
    fn disabled_observers_record_nothing() {
        let mut obs = SmObservers::new(&TraceConfig::default());
        obs.event(1, 0, EventKind::Retire);
        obs.icnt_edge(1, true);
        obs.on_idle_span(1, 5, CycleState::default());
        obs.trace_ray(&[vec![0u8; 3]]);
        assert!(!obs.tracing() && obs.accounting().is_none());
        assert!(obs.rt_analytics().is_none() && obs.flight().next().is_none());
        assert_eq!(bytes(&obs), [0, 0, 0], "three absent observers");
    }
}
