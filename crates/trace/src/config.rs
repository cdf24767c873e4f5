//! Trace configuration and environment-variable plumbing.

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
    /// Returns this config with environment overrides applied:
    ///
    /// * `VKSIM_TRACE=out.json` — enable tracing and write the Chrome
    ///   trace there;
    /// * `VKSIM_TRACE_INTERVAL=N` — interval-sampler period;
    /// * `VKSIM_TRACE_CSV=path` — interval series CSV;
    /// * `VKSIM_TRACE_SUMMARY=path` — hotspot summary;
    /// * `VKSIM_PROF=out.json` — enable cycle accounting and write the
    ///   flat-JSON breakdown there (`-` for stderr). Does **not** enable
    ///   event tracing.
    /// * `VKSIM_RT_ANALYTICS=out.json` — enable ray-traversal analytics
    ///   and write the flat-JSON breakdown there (`-` for stderr). Does
    ///   **not** enable event tracing.
    /// * `VKSIM_RT_HEATMAP=path.csv` — enable ray-traversal analytics and
    ///   write the per-node heatmap CSV there.
    ///
    /// Unset or unparsable variables leave the config field untouched, so
    /// explicitly-built configs keep working under a clean environment.
    pub fn with_env_overrides(&self) -> TraceConfig {
        let mut cfg = self.clone();
        if let Ok(path) = std::env::var("VKSIM_TRACE") {
            if !path.is_empty() {
                cfg.enabled = true;
                cfg.out = Some(path);
            }
        }
        if let Some(n) = parse_env_u64("VKSIM_TRACE_INTERVAL") {
            cfg.enabled = true;
            cfg.interval = n;
        }
        if let Ok(path) = std::env::var("VKSIM_TRACE_CSV") {
            if !path.is_empty() {
                cfg.enabled = true;
                cfg.csv = Some(path);
            }
        }
        if let Ok(path) = std::env::var("VKSIM_TRACE_SUMMARY") {
            if !path.is_empty() {
                cfg.enabled = true;
                cfg.summary = Some(path);
            }
        }
        if let Ok(path) = std::env::var("VKSIM_PROF") {
            if !path.is_empty() {
                cfg.accounting = true;
                cfg.prof = Some(path);
            }
        }
        if let Ok(path) = std::env::var("VKSIM_RT_ANALYTICS") {
            if !path.is_empty() {
                cfg.rt_analytics = true;
                cfg.rt = Some(path);
            }
        }
        if let Ok(path) = std::env::var("VKSIM_RT_HEATMAP") {
            if !path.is_empty() {
                cfg.rt_analytics = true;
                cfg.rt_heatmap = Some(path);
            }
        }
        cfg
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

fn parse_env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
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

    /// Single test touching the process environment — split tests would
    /// race each other through the shared environment.
    #[test]
    fn env_overrides_apply_and_clean_env_is_inert() {
        let base = TraceConfig::default();
        std::env::remove_var("VKSIM_TRACE");
        std::env::remove_var("VKSIM_TRACE_INTERVAL");
        std::env::remove_var("VKSIM_TRACE_CSV");
        std::env::remove_var("VKSIM_TRACE_SUMMARY");
        std::env::remove_var("VKSIM_PROF");
        std::env::remove_var("VKSIM_RT_ANALYTICS");
        std::env::remove_var("VKSIM_RT_HEATMAP");
        assert_eq!(base.with_env_overrides(), base);

        std::env::set_var("VKSIM_TRACE", "/tmp/t.json");
        std::env::set_var("VKSIM_TRACE_INTERVAL", "512");
        std::env::set_var("VKSIM_TRACE_CSV", "/tmp/t.csv");
        std::env::set_var("VKSIM_TRACE_SUMMARY", "/tmp/t.txt");
        let c = base.with_env_overrides();
        assert!(c.enabled);
        assert_eq!(c.out.as_deref(), Some("/tmp/t.json"));
        assert_eq!(c.interval, 512);
        assert_eq!(c.csv.as_deref(), Some("/tmp/t.csv"));
        assert_eq!(c.summary.as_deref(), Some("/tmp/t.txt"));
        assert!(!c.accounting, "tracing alone does not enable accounting");
        std::env::remove_var("VKSIM_TRACE");
        std::env::remove_var("VKSIM_TRACE_INTERVAL");
        std::env::remove_var("VKSIM_TRACE_CSV");
        std::env::remove_var("VKSIM_TRACE_SUMMARY");

        // VKSIM_PROF enables accounting without enabling event tracing.
        std::env::set_var("VKSIM_PROF", "/tmp/p.json");
        let c = base.with_env_overrides();
        assert!(!c.enabled);
        assert!(c.accounting);
        assert_eq!(c.prof.as_deref(), Some("/tmp/p.json"));
        std::env::remove_var("VKSIM_PROF");

        // Either RT knob enables rt analytics, never event tracing.
        std::env::set_var("VKSIM_RT_ANALYTICS", "/tmp/rt.json");
        std::env::set_var("VKSIM_RT_HEATMAP", "/tmp/rt.csv");
        let c = base.with_env_overrides();
        assert!(!c.enabled && !c.accounting);
        assert!(c.rt_analytics);
        assert_eq!(c.rt.as_deref(), Some("/tmp/rt.json"));
        assert_eq!(c.rt_heatmap.as_deref(), Some("/tmp/rt.csv"));
        std::env::remove_var("VKSIM_RT_ANALYTICS");
        std::env::set_var("VKSIM_RT_HEATMAP", "/tmp/rt2.csv");
        let c = base.with_env_overrides();
        assert!(c.rt_analytics && c.rt.is_none());
        assert_eq!(c.rt_heatmap.as_deref(), Some("/tmp/rt2.csv"));
        std::env::remove_var("VKSIM_RT_HEATMAP");
    }
}
