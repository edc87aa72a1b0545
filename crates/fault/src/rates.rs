//! Per-site fault-rate configuration.

use ftnoc_types::error::ConfigError;

/// Mixture of single- vs multi-bit upsets within one link error event.
///
/// Crosstalk makes adjacent-wire double flips non-negligible (§3.1); the
/// paper treats single upsets as the common case. The default sends 90 %
/// of error events through the correctable single-bit path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorMix {
    single_bit: f64,
}

impl ErrorMix {
    /// Creates a mixture; `single_bit` is clamped into `[0, 1]`.
    pub fn new(single_bit: f64) -> Self {
        ErrorMix {
            single_bit: single_bit.clamp(0.0, 1.0),
        }
    }

    /// Probability that an error event flips exactly one bit.
    pub(crate) fn single_bit(&self) -> f64 {
        self.single_bit
    }
}

impl Default for ErrorMix {
    fn default() -> Self {
        ErrorMix { single_bit: 0.9 }
    }
}

/// Per-event fault probabilities for the six fault sites of §3–§4 the
/// simulator draws at. (§4.5's retransmission-buffer upset is not one:
/// under the single-event model a corrupted copy only matters if a
/// second fault forces its replay, so the paper dismisses it.)
///
/// All rates are probabilities per *opportunity*: per flit-link-traversal
/// for `link`, per route computation for `rt`, per VC allocation for
/// `va`, per switch grant for `sa`, per crossbar flit traversal for
/// `crossbar`, and per handshake transfer for `handshake`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Link (inter-router wire) soft-error rate.
    pub link: f64,
    /// Routing-unit logic soft-error rate (§4.2).
    pub rt: f64,
    /// VC-allocator logic soft-error rate (§4.1).
    pub va: f64,
    /// Switch-allocator logic soft-error rate (§4.3).
    pub sa: f64,
    /// Crossbar single-bit upset rate (§4.4).
    pub crossbar: f64,
    /// Handshake-wire upset rate (§4.6).
    pub handshake: f64,
    /// Single- vs multi-bit mixture for link upsets.
    pub mix: ErrorMix,
}

impl FaultRates {
    /// No faults anywhere (baseline runs).
    pub fn none() -> Self {
        FaultRates::default()
    }

    /// Link errors only, as in Figures 5–7.
    pub fn link_only(rate: f64) -> Self {
        FaultRates {
            link: rate,
            ..FaultRates::default()
        }
    }

    /// Routing-logic errors only (Figure 13, "RT-Logic").
    pub fn rt_only(rate: f64) -> Self {
        FaultRates {
            rt: rate,
            ..FaultRates::default()
        }
    }

    /// VC-allocator errors only (§4.1 analysis).
    pub fn va_only(rate: f64) -> Self {
        FaultRates {
            va: rate,
            ..FaultRates::default()
        }
    }

    /// Switch-allocator errors only (Figure 13, "SA-Logic").
    pub fn sa_only(rate: f64) -> Self {
        FaultRates {
            sa: rate,
            ..FaultRates::default()
        }
    }

    /// Checks that every rate is a probability (NaN is not).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (site, rate) in [
            ("link", self.link),
            ("rt", self.rt),
            ("va", self.va),
            ("sa", self.sa),
            ("crossbar", self.crossbar),
            ("handshake", self.handshake),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(ConfigError::InvalidFaultRate { site, rate });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mix_is_ninety_ten() {
        assert!((ErrorMix::default().single_bit() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn mix_clamps_out_of_range() {
        assert_eq!(ErrorMix::new(1.5).single_bit(), 1.0);
        assert_eq!(ErrorMix::new(-0.3).single_bit(), 0.0);
    }

    #[test]
    fn scenario_constructors_set_one_site() {
        assert_eq!(FaultRates::none(), FaultRates::default());
        let r = FaultRates::link_only(0.01);
        assert_eq!(r.link, 0.01);
        assert_eq!(r.sa, 0.0);
        assert_eq!(FaultRates::rt_only(0.5).rt, 0.5);
        assert_eq!(FaultRates::va_only(0.5).va, 0.5);
        assert_eq!(FaultRates::sa_only(0.5).sa, 0.5);
    }

    #[test]
    fn validate_names_the_site_and_rejects_nan() {
        type Set = fn(&mut FaultRates, f64);
        let sites: [(&str, Set); 6] = [
            ("link", |r, v| r.link = v),
            ("rt", |r, v| r.rt = v),
            ("va", |r, v| r.va = v),
            ("sa", |r, v| r.sa = v),
            ("crossbar", |r, v| r.crossbar = v),
            ("handshake", |r, v| r.handshake = v),
        ];
        for (site, set) in sites {
            for bad in [1.5, -0.1, f64::NAN, f64::INFINITY] {
                let mut rates = FaultRates::none();
                set(&mut rates, bad);
                match rates.validate() {
                    Err(ConfigError::InvalidFaultRate { site: s, rate }) => {
                        assert_eq!(s, site);
                        assert!(rate == bad || (rate.is_nan() && bad.is_nan()));
                    }
                    other => panic!("{site}={bad}: {other:?}"),
                }
            }
            for good in [0.0, 1.0] {
                let mut rates = FaultRates::none();
                set(&mut rates, good);
                assert_eq!(rates.validate(), Ok(()));
            }
        }
    }
}
