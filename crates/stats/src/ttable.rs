//! Student-t quantiles for confidence intervals.
//!
//! The paper reports 90% confidence intervals from ~20 batch means, so we
//! need the 0.95 one-sided quantile of the t distribution (two-sided 90%).
//! A table covers 1–30 degrees of freedom; beyond that we use the normal
//! approximation with a 1/df correction, which is accurate to <0.1% there.

/// One-sided 0.95 quantiles of Student's t for df = 1..=30.
const T_95: [f64; 30] = [
    6.313752, 2.919986, 2.353363, 2.131847, 2.015048, 1.943180, 1.894579, 1.859548, 1.833113,
    1.812461, 1.795885, 1.782288, 1.770933, 1.761310, 1.753050, 1.745884, 1.739607, 1.734064,
    1.729133, 1.724718, 1.720743, 1.717144, 1.713872, 1.710882, 1.708141, 1.705618, 1.703288,
    1.701131, 1.699127, 1.697261,
];

/// t quantile for a **two-sided 90%** confidence interval with `df` degrees
/// of freedom (i.e. the one-sided 0.95 quantile).
#[must_use]
pub fn t_quantile_90(df: u64) -> f64 {
    match df {
        0 => f64::INFINITY,
        1..=30 => T_95[(df - 1) as usize],
        _ => {
            // Cornish-Fisher-style first-order correction to the normal
            // quantile: t_p(df) ~ z_p + (z_p^3 + z_p) / (4 df).
            let z = 1.6448536269514722;
            z + (z * z * z + z) / (4.0 * df as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_values_match_references() {
        assert!((t_quantile_90(1) - 6.313752).abs() < 1e-5);
        assert!((t_quantile_90(19) - 1.729133).abs() < 1e-5);
        assert!((t_quantile_90(30) - 1.697261).abs() < 1e-5);
    }

    #[test]
    fn zero_df_is_infinite() {
        assert!(t_quantile_90(0).is_infinite());
    }

    #[test]
    fn large_df_approaches_normal() {
        assert!((t_quantile_90(1_000_000) - 1.6448536).abs() < 1e-4);
    }

    #[test]
    fn approximation_is_close_at_switchover() {
        // The correction formula at df=31 should be near the df=30 table value
        // and monotonically between it and the asymptote.
        let t31 = t_quantile_90(31);
        assert!(t31 < t_quantile_90(30));
        assert!(t31 > 1.6448536);
        assert!((t31 - 1.6955).abs() < 2e-3, "t31 = {t31}");
    }

    #[test]
    fn monotone_decreasing_in_df() {
        let mut prev = f64::INFINITY;
        for df in 1..200 {
            let t = t_quantile_90(df);
            assert!(t <= prev + 1e-12, "df {df}: {t} > {prev}");
            prev = t;
        }
    }
}
