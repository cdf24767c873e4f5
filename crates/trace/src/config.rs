//! Trace configuration.

/// Default interval-sampler period in cycles.
pub const DEFAULT_INTERVAL: u64 = 1024;

/// Default flight-recorder depth (events kept per SM for post-mortems).
pub const DEFAULT_FLIGHT_DEPTH: usize = 64;

/// Default cap on total collected timeline events; once reached, further
/// events are counted in `dropped` instead of growing memory unboundedly.
pub const DEFAULT_MAX_EVENTS: usize = 1 << 20;

/// What to trace and where to write it. Everything defaults to off so a
/// default-configured run records nothing and pays one branch per hook.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch: when `false`, no tracer is allocated at all.
    pub enabled: bool,
    /// Chrome trace-event JSON output path (Perfetto-loadable).
    pub out: Option<String>,
    /// Interval-series CSV output path.
    pub csv: Option<String>,
    /// Top-N hotspot summary output path.
    pub summary: Option<String>,
    /// Interval-sampler period in cycles (0 is treated as the default).
    pub interval: u64,
    /// Flight-recorder ring depth per SM.
    pub flight_depth: usize,
    /// Cap on total collected timeline events.
    pub max_events: usize,
    /// Cycle-accounting switch, independent of `enabled`: when `true`,
    /// every SM carries a `CycleAccounting` recorder and attributes each
    /// cycle to one taxonomy category.
    pub accounting: bool,
    /// Flat-JSON cycle-breakdown output path (`-` writes to stderr).
    pub prof: Option<String>,
    /// Ray-traversal analytics switch, independent of `enabled`: when
    /// `true`, the runtime records per-node visit heatmaps and per-ray
    /// histograms, and every SM carries a warp-coherence recorder.
    pub rt_analytics: bool,
    /// Flat-JSON rt-analytics breakdown output path (`-` writes to stderr).
    pub rt: Option<String>,
    /// Per-node heatmap CSV output path.
    pub rt_heatmap: Option<String>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            out: None,
            csv: None,
            summary: None,
            interval: DEFAULT_INTERVAL,
            flight_depth: DEFAULT_FLIGHT_DEPTH,
            max_events: DEFAULT_MAX_EVENTS,
            accounting: false,
            prof: None,
            rt_analytics: false,
            rt: None,
            rt_heatmap: None,
        }
    }
}

impl TraceConfig {
    /// This config with every output path cleared: what a run records,
    /// not where it writes it.
    pub fn without_outputs(&self) -> TraceConfig {
        TraceConfig {
            out: None,
            csv: None,
            summary: None,
            prof: None,
            rt: None,
            rt_heatmap: None,
            ..self.clone()
        }
    }

    /// The sampler period with the zero-means-default rule applied.
    pub fn effective_interval(&self) -> u64 {
        if self.interval == 0 {
            DEFAULT_INTERVAL
        } else {
            self.interval
        }
    }

    /// The flight depth with the zero-means-default rule applied.
    pub fn effective_flight_depth(&self) -> usize {
        if self.flight_depth == 0 {
            DEFAULT_FLIGHT_DEPTH
        } else {
            self.flight_depth
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_off() {
        let c = TraceConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.effective_interval(), DEFAULT_INTERVAL);
    }

    #[test]
    fn zero_fields_fall_back_to_defaults() {
        let c = TraceConfig {
            interval: 0,
            flight_depth: 0,
            ..Default::default()
        };
        assert_eq!(c.effective_interval(), DEFAULT_INTERVAL);
        assert_eq!(c.effective_flight_depth(), DEFAULT_FLIGHT_DEPTH);
    }
}
