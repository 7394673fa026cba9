//! GLR protocol configuration.

use crate::decision::CopyPolicy;
use crate::spanner::SpannerMode;

/// How much destination-location knowledge nodes have (Table 2 scenarios).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocationMode {
    /// Every node always knows the destination's true location (oracle).
    AllKnow,
    /// Only the source stamps the true location at creation; relays rely
    /// on the carried estimate plus location diffusion (the default and
    /// the paper's headline assumption).
    #[default]
    SourceKnows,
    /// Nobody knows: the source stamps a random location and diffusion has
    /// to correct it en route.
    NoneKnow,
}

/// Tunables of the GLR protocol (paper defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct GlrConfig {
    /// Store-and-forward route check interval in seconds (paper: 0.9 s
    /// default, swept 0.6–1.6 s in Figure 3).
    pub check_interval: f64,
    /// Copy-count decision (Algorithm 1).
    pub copy_policy: CopyPolicy,
    /// Whether custody transfer (hop acks + retransmission) is enabled
    /// (Table 3 ablates this).
    pub custody: bool,
    /// Local spanner construction.
    pub spanner: SpannerMode,
    /// Destination-location knowledge scenario.
    pub location_mode: LocationMode,
    /// When `true` (default), perturbed destination estimates are stamped
    /// with the current time and allowed into location tables and gossip,
    /// acting as a shared rendezvous that genuinely fresh sightings still
    /// override. When `false`, perturbations stay message-local guesses
    /// that only observations newer than their base can override (the
    /// conservative variant; measurably slower at paper densities — see
    /// the `ablation-perturb` experiment).
    pub perturb_gossip: bool,
}

impl Default for GlrConfig {
    fn default() -> Self {
        GlrConfig {
            check_interval: 0.9,
            copy_policy: CopyPolicy::PAPER,
            custody: true,
            spanner: SpannerMode::LocalDelaunay,
            location_mode: LocationMode::SourceKnows,
            perturb_gossip: true,
        }
    }
}

impl GlrConfig {
    /// Paper defaults.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Returns the config with a different route check interval (Figure 3).
    pub fn with_check_interval(mut self, secs: f64) -> Self {
        assert!(secs > 0.0, "check interval must be positive");
        self.check_interval = secs;
        self
    }

    /// Returns the config with custody transfer switched on or off
    /// (Table 3).
    pub fn with_custody(mut self, on: bool) -> Self {
        self.custody = on;
        self
    }

    /// Returns the config with a different copy policy.
    pub fn with_copy_policy(mut self, policy: CopyPolicy) -> Self {
        self.copy_policy = policy;
        self
    }

    /// Returns the config with a different location-knowledge scenario
    /// (Table 2).
    pub fn with_location_mode(mut self, mode: LocationMode) -> Self {
        self.location_mode = mode;
        self
    }

    /// Returns the config with a different spanner construction.
    pub fn with_spanner(mut self, mode: SpannerMode) -> Self {
        self.spanner = mode;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values.
    pub fn validate(&self) {
        assert!(self.check_interval > 0.0, "check interval must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GlrConfig::paper();
        assert_eq!(c.check_interval, 0.9);
        assert!(c.custody);
        assert_eq!(c.location_mode, LocationMode::SourceKnows);
        c.validate();
    }

    #[test]
    fn builders() {
        let c = GlrConfig::paper()
            .with_check_interval(1.4)
            .with_custody(false)
            .with_location_mode(LocationMode::NoneKnow);
        assert_eq!(c.check_interval, 1.4);
        assert!(!c.custody);
        assert_eq!(c.location_mode, LocationMode::NoneKnow);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "check interval")]
    fn zero_interval_rejected() {
        GlrConfig::paper().with_check_interval(0.0);
    }
}
