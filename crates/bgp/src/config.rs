//! Protocol and timing configuration.

use bgpscale_simkernel::SimDuration;

use crate::rfd::RfdConfig;

/// The Minimum Route Advertisement Interval (§2 of the paper: 30 s,
/// applied per neighbor interface as vendors implement it). Each arm
/// scales it by a factor drawn from [`MRAI_JITTER`].
pub const MRAI: SimDuration = SimDuration::from_secs(30);

/// The range each timer arming draws its [`MRAI`] factor from, uniformly:
/// the BGP-4 standard's `[0.75, 1.0]`.
pub const MRAI_JITTER: (f64, f64) = (0.75, 1.0);

/// Upper bound of the per-message processing time (§2 of the paper:
/// 100 ms). Service times are uniform over `(0, PROC_DELAY_MAX]`.
pub const PROC_DELAY_MAX: SimDuration = SimDuration::from_millis(100);

/// Constant link propagation delay. The paper models only queueing and
/// processing delay; 2 ms is negligible against both the 100 ms
/// processing bound and the 30 s MRAI, and merely breaks simultaneity.
pub const LINK_DELAY: SimDuration = SimDuration::from_millis(2);

/// How the MRAI timer treats explicit withdrawals (§2 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MraiMode {
    /// RFC 1771 behavior (and Quagga's): explicit withdrawals are **not**
    /// rate-limited — they are sent the moment they are generated, and do
    /// not start the MRAI timer. This largely suppresses path exploration.
    NoWrate,
    /// RFC 4271 behavior: explicit withdrawals are rate-limited just like
    /// announcements. The paper shows this roughly doubles churn at tier-1
    /// nodes at n = 10000 and worse in dense cores.
    Wrate,
}

impl MraiMode {
    /// True when withdrawals are subject to the MRAI timer.
    pub fn rate_limits_withdrawals(self) -> bool {
        matches!(self, MraiMode::Wrate)
    }

    /// The paper's label for this mode.
    pub fn label(self) -> &'static str {
        match self {
            MraiMode::NoWrate => "NO-WRATE",
            MraiMode::Wrate => "WRATE",
        }
    }
}

/// The granularity at which the MRAI timer is applied (§2 of the paper:
/// *"According to the BGP-4 standard, the MRAI timer should be
/// implemented on a per-prefix basis. However, for efficiency reasons,
/// router vendors typically implement it on a per-interface basis. We
/// adopt this approach in our model."* — both are available here; the
/// paper's configuration is the default).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MraiScope {
    /// One timer per neighbor session, governing all prefixes (vendor
    /// practice; the paper's model).
    PerInterface,
    /// One timer per (neighbor session, prefix) — the RFC's intent.
    /// Updates for different prefixes never rate-limit each other.
    PerPrefix,
}

impl MraiScope {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MraiScope::PerInterface => "per-interface",
            MraiScope::PerPrefix => "per-prefix",
        }
    }
}

/// The protocol knobs an experiment varies, with defaults matching §2 of
/// the paper. What no experiment varies is a constant: [`MRAI`],
/// [`MRAI_JITTER`], [`PROC_DELAY_MAX`] and [`LINK_DELAY`] here, and the
/// damping parameters in [`crate::rfd`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BgpConfig {
    /// Withdrawal treatment; default [`MraiMode::NoWrate`] (the paper's
    /// configuration for everything except §6).
    pub mrai_mode: MraiMode,
    /// Timer granularity; default [`MraiScope::PerInterface`] (the
    /// paper's model, matching vendor practice).
    pub mrai_scope: MraiScope,
    /// Route Flap Damping (RFC 2439) with the vendor parameters of
    /// [`crate::rfd`]; `None` (the default and the paper's configuration)
    /// disables it.
    pub rfd: Option<RfdConfig>,
}

impl Default for BgpConfig {
    fn default() -> Self {
        BgpConfig {
            mrai_mode: MraiMode::NoWrate,
            mrai_scope: MraiScope::PerInterface,
            rfd: None,
        }
    }
}

impl BgpConfig {
    /// The paper's NO-WRATE configuration (also [`Default`]).
    pub fn no_wrate() -> Self {
        BgpConfig::default()
    }

    /// The paper's WRATE configuration (§6).
    pub fn wrate() -> Self {
        BgpConfig {
            mrai_mode: MraiMode::Wrate,
            ..BgpConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = BgpConfig::default();
        assert_eq!(MRAI, SimDuration::from_secs(30));
        assert_eq!(c.mrai_mode, MraiMode::NoWrate);
        assert_eq!(PROC_DELAY_MAX, SimDuration::from_millis(100));
        assert_eq!(MRAI_JITTER, (0.75, 1.0));
        assert_eq!(LINK_DELAY, SimDuration::from_millis(2));
    }

    #[test]
    fn wrate_constructor_flips_only_the_mode() {
        let c = BgpConfig::wrate();
        assert_eq!(c.mrai_mode, MraiMode::Wrate);
        assert_eq!(c.mrai_scope, BgpConfig::default().mrai_scope);
        assert!(c.mrai_mode.rate_limits_withdrawals());
        assert!(!MraiMode::NoWrate.rate_limits_withdrawals());
    }

    #[test]
    fn labels() {
        assert_eq!(MraiMode::Wrate.label(), "WRATE");
        assert_eq!(MraiMode::NoWrate.label(), "NO-WRATE");
        assert_eq!(MraiScope::PerInterface.label(), "per-interface");
        assert_eq!(MraiScope::PerPrefix.label(), "per-prefix");
    }

    #[test]
    fn default_scope_is_the_papers() {
        assert_eq!(BgpConfig::default().mrai_scope, MraiScope::PerInterface);
    }
}
