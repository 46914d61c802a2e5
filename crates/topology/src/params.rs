//! Topology parameters — the "knobs" of Table 1.
//!
//! A [`TopologyParams`] value fully describes one topology *instance* size:
//! the population mix, the mean multihoming and peering degrees, and the
//! provider-preference probabilities. The Baseline growth model of the paper
//! is a family of such values parameterized by the total node count `n`;
//! the deviations of §5 are transforms of the Baseline (see
//! [`crate::scenario::GrowthScenario`]).

/// All generator knobs, following Table 1 of the paper.
///
/// Population counts must satisfy `n_t + n_m + n_cp + n_c == n`.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyParams {
    /// Total number of nodes `n`.
    pub n: usize,
    /// Number of tier-1 (T) nodes.
    pub n_t: usize,
    /// Number of mid-level (M) nodes.
    pub n_m: usize,
    /// Number of content-provider (CP) stub nodes.
    pub n_cp: usize,
    /// Number of customer (C) stub nodes.
    pub n_c: usize,

    /// Mean multihoming degree of M nodes (`dM`).
    pub d_m: f64,
    /// Mean multihoming degree of CP nodes (`dCP`).
    pub d_cp: f64,
    /// Mean multihoming degree of C nodes (`dC`).
    pub d_c: f64,

    /// Mean number of M–M peering links added per M node (`pM`).
    pub p_m: f64,
    /// Mean number of CP–M peering links added per CP node (`pCP−M`).
    pub p_cp_m: f64,
    /// Mean number of CP–CP peering links added per CP node (`pCP−CP`).
    pub p_cp_cp: f64,

    /// Probability that an M node's provider slot is filled by a T node
    /// (`tM`); otherwise an M node is chosen.
    pub t_m: f64,
    /// Probability that a CP node's provider slot is filled by a T node
    /// (`tCP`).
    pub t_cp: f64,
    /// Probability that a C node's provider slot is filled by a T node
    /// (`tC`).
    pub t_c: f64,

    /// Number of geographic regions (5 in the Baseline model).
    pub regions: usize,
    /// Fraction of M nodes present in two regions (0.20 in the paper).
    pub m_two_region_frac: f64,
    /// Fraction of CP nodes present in two regions (0.05 in the paper).
    pub cp_two_region_frac: f64,

    /// Optional cap on the number of T providers an M node may have
    /// (PREFER-MIDDLE uses `Some(1)`).
    pub max_t_providers_for_m: Option<usize>,
    /// Optional cap on the number of M providers any node may have
    /// (PREFER-TOP uses `Some(1)`); further slots fall back to T nodes.
    pub max_m_providers: Option<usize>,
}

impl TopologyParams {
    /// The Baseline growth model of Table 1, evaluated at size `n`.
    ///
    /// Table 1 values:
    /// - `nT = 4–6` (grows slowly: 4 at n=1000, 6 at n=10000)
    /// - `nM = 0.15 n`, `nCP = 0.05 n`, `nC = 0.80 n`
    /// - `dM = 2 + 2.5 n / 10000`
    /// - `dCP = 2 + 1.5 n / 10000`
    /// - `dC = 1 + 5 n / 100000`
    /// - `pM = 1 + 2 n / 10000`
    /// - `pCP−M = 0.2 + 2 n / 10000`
    /// - `pCP−CP = 0.05 + 5 n / 100000`
    /// - `tM = tCP = 0.375`, `tC = 0.125`
    /// - 5 regions; 20% of M and 5% of CP nodes span two regions.
    ///
    /// # Panics
    /// Panics if `n` is too small to accommodate the minimum population
    /// (fewer than ~20 nodes).
    pub fn baseline(n: usize) -> TopologyParams {
        let nf = n as f64;
        let n_t = baseline_tier1_count(n);
        let n_m = (0.15 * nf).round() as usize;
        let n_cp = (0.05 * nf).round() as usize;
        assert!(
            n >= 20 && n_t + n_m + n_cp < n,
            "n = {n} too small for the Baseline population mix"
        );
        let n_c = n - n_t - n_m - n_cp;
        TopologyParams {
            n,
            n_t,
            n_m,
            n_cp,
            n_c,
            d_m: 2.0 + 2.5 * nf / 10_000.0,
            d_cp: 2.0 + 1.5 * nf / 10_000.0,
            d_c: 1.0 + 5.0 * nf / 100_000.0,
            p_m: 1.0 + 2.0 * nf / 10_000.0,
            p_cp_m: 0.2 + 2.0 * nf / 10_000.0,
            p_cp_cp: 0.05 + 5.0 * nf / 100_000.0,
            t_m: 0.375,
            t_cp: 0.375,
            t_c: 0.125,
            regions: 5,
            m_two_region_frac: 0.20,
            cp_two_region_frac: 0.05,
            max_t_providers_for_m: None,
            max_m_providers: None,
        }
    }

    /// Redistributes the stub population so that `n_cp + n_c` fills
    /// everything not taken by `n_t + n_m`, preserving the Baseline
    /// CP:C ratio (0.05 : 0.80).
    ///
    /// Used by the population-mix deviations of §5.1.
    pub fn rebalance_stubs(&mut self) {
        let stubs = self
            .n
            .checked_sub(self.n_t + self.n_m)
            .expect("transit population exceeds n");
        // Baseline CP share among stubs: 0.05 / 0.85.
        let cp_share = 0.05 / 0.85;
        self.n_cp = (stubs as f64 * cp_share).round() as usize;
        self.n_c = stubs - self.n_cp;
    }

    /// Checks internal consistency; called by the generator before use.
    ///
    /// # Errors
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn check(&self) -> Result<(), String> {
        if self.n_t + self.n_m + self.n_cp + self.n_c != self.n {
            return Err(format!(
                "population mix {}+{}+{}+{} != n = {}",
                self.n_t, self.n_m, self.n_cp, self.n_c, self.n
            ));
        }
        if self.n_t < 2 {
            return Err(format!("need at least 2 tier-1 nodes, got {}", self.n_t));
        }
        if self.regions == 0 || self.regions > crate::types::RegionSet::MAX_REGIONS {
            return Err(format!("region count {} out of range", self.regions));
        }
        for (name, v) in [
            ("dM", self.d_m),
            ("dCP", self.d_cp),
            ("dC", self.d_c),
        ] {
            if !v.is_finite() || v < 1.0 {
                return Err(format!("{name} = {v} must be ≥ 1 (every non-T node needs a provider)"));
            }
        }
        for (name, v) in [
            ("pM", self.p_m),
            ("pCP-M", self.p_cp_m),
            ("pCP-CP", self.p_cp_cp),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!("{name} = {v} must be ≥ 0"));
            }
        }
        for (name, v) in [
            ("tM", self.t_m),
            ("tCP", self.t_cp),
            ("tC", self.t_c),
            ("m_two_region_frac", self.m_two_region_frac),
            ("cp_two_region_frac", self.cp_two_region_frac),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} = {v} must be a probability"));
            }
        }
        // The T pool spans all regions and is every node's provider of last
        // resort: the first M node has no M candidate, whatever the M cap.
        if self.max_t_providers_for_m == Some(0) && self.n_m > 0 {
            return Err("max_t_providers_for_m = 0 leaves M nodes without a provider".to_string());
        }
        Ok(())
    }
}

/// The Baseline tier-1 population: "4–6", growing from 4 at n = 1000 to 6
/// at n = 10000 so that the peer count `mp,T = nT − 1` grows by the ≈1.7×
/// factor reported in §4.2.
pub fn baseline_tier1_count(n: usize) -> usize {
    4 + (2.0 * n as f64 / 10_000.0).round() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_one_at_n10000() {
        let p = TopologyParams::baseline(10_000);
        assert_eq!(p.n_t, 6);
        assert_eq!(p.n_m, 1_500);
        assert_eq!(p.n_cp, 500);
        assert_eq!(p.n_c, 10_000 - 6 - 1_500 - 500);
        assert!((p.d_m - 4.5).abs() < 1e-12);
        assert!((p.d_cp - 3.5).abs() < 1e-12);
        assert!((p.d_c - 1.5).abs() < 1e-12);
        assert!((p.p_m - 3.0).abs() < 1e-12);
        assert!((p.p_cp_m - 2.2).abs() < 1e-12);
        assert!((p.p_cp_cp - 0.55).abs() < 1e-12);
        assert_eq!(p.regions, 5);
        p.check().unwrap();
    }

    #[test]
    fn baseline_matches_table_one_at_n1000() {
        let p = TopologyParams::baseline(1_000);
        assert_eq!(p.n_t, 4);
        assert_eq!(p.n_m, 150);
        assert_eq!(p.n_cp, 50);
        assert!((p.d_m - 2.25).abs() < 1e-12);
        assert!((p.d_c - 1.05).abs() < 1e-12);
        p.check().unwrap();
    }

    #[test]
    fn tier1_count_grows_from_4_to_6() {
        assert_eq!(baseline_tier1_count(1_000), 4);
        assert_eq!(baseline_tier1_count(5_000), 5);
        assert_eq!(baseline_tier1_count(10_000), 6);
    }

    #[test]
    fn population_mix_sums_to_n_across_sizes() {
        for n in (1_000..=10_000).step_by(500) {
            let p = TopologyParams::baseline(n);
            assert_eq!(p.n_t + p.n_m + p.n_cp + p.n_c, n, "mismatch at n={n}");
            p.check().unwrap();
        }
    }

    #[test]
    fn rebalance_preserves_total_and_ratio() {
        let mut p = TopologyParams::baseline(2_000);
        p.n_m = 0;
        p.rebalance_stubs();
        assert_eq!(p.n_t + p.n_m + p.n_cp + p.n_c, 2_000);
        let ratio = p.n_cp as f64 / (p.n_cp + p.n_c) as f64;
        assert!((ratio - 0.05 / 0.85).abs() < 0.01, "CP share {ratio}");
        p.check().unwrap();
    }

    #[test]
    fn check_rejects_bad_mix() {
        let mut p = TopologyParams::baseline(1_000);
        p.n_c += 1;
        assert!(p.check().unwrap_err().contains("population mix"));
    }

    #[test]
    fn check_rejects_sub_one_multihoming() {
        let mut p = TopologyParams::baseline(1_000);
        p.d_c = 0.5;
        assert!(p.check().unwrap_err().contains("dC"));
    }

    #[test]
    fn check_rejects_bad_probability() {
        let mut p = TopologyParams::baseline(1_000);
        p.t_m = 1.5;
        assert!(p.check().unwrap_err().contains("tM"));
    }

    #[test]
    fn check_rejects_caps_that_orphan_m_nodes() {
        let mut p = TopologyParams::baseline(1_000);
        p.max_t_providers_for_m = Some(0);
        assert!(p.check().unwrap_err().contains("without a provider"));
        p.max_m_providers = Some(0);
        assert!(p.check().unwrap_err().contains("without a provider"));
        // Stubs are not T-capped, so capping only the M pool is fine.
        p.max_t_providers_for_m = None;
        assert_eq!(p.check(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_n_rejected() {
        let _ = TopologyParams::baseline(10);
    }
}
