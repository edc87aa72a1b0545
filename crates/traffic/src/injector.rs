//! Open-loop packet injection processes.

use ftnoc_rng::Rng;
use ftnoc_types::error::ConfigError;

/// How injection instants are spaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InjectionProcess {
    /// Fixed period: one packet every `flits_per_packet / rate` cycles
    /// (the paper's "regular intervals", §2.2). Fractional periods are
    /// handled with an accumulator, so any rate is representable.
    #[default]
    Regular,
    /// Independent coin flip each cycle with matching mean rate.
    Bernoulli,
}

impl InjectionProcess {
    /// Text names for [`ftnoc_types::lookup`] / [`ftnoc_types::name`].
    pub const NAMES: &'static [(&'static str, InjectionProcess)] = &[
        ("reg", InjectionProcess::Regular),
        ("bern", InjectionProcess::Bernoulli),
    ];
}

/// Per-node open-loop packet injector.
///
/// Rates are expressed in **flits/node/cycle** as in the paper; the
/// injector divides by the packet length internally.
#[derive(Debug, Clone)]
pub struct Injector {
    packets_per_cycle: f64,
    process: InjectionProcess,
    accumulator: f64,
}

impl Injector {
    /// Creates an injector.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidInjectionRate`] unless
    /// `0 < rate_flits_per_cycle <= 1`, and
    /// [`ConfigError::InvalidPacketLength`] for a zero packet length.
    pub fn new(
        rate_flits_per_cycle: f64,
        flits_per_packet: usize,
        process: InjectionProcess,
    ) -> Result<Self, ConfigError> {
        if !(rate_flits_per_cycle > 0.0 && rate_flits_per_cycle <= 1.0) {
            return Err(ConfigError::InvalidInjectionRate(rate_flits_per_cycle));
        }
        if flits_per_packet == 0 {
            return Err(ConfigError::InvalidPacketLength(flits_per_packet));
        }
        Ok(Injector {
            packets_per_cycle: rate_flits_per_cycle / flits_per_packet as f64,
            process,
            accumulator: 0.0,
        })
    }

    /// Advances one cycle and returns how many packets to inject now
    /// (0 or 1 for all rates ≤ 1 flit/cycle).
    pub fn packets_this_cycle(&mut self, rng: &mut Rng) -> u32 {
        match self.process {
            InjectionProcess::Regular => {
                self.accumulator += self.packets_per_cycle;
                let mut count = 0;
                while self.accumulator >= 1.0 {
                    self.accumulator -= 1.0;
                    count += 1;
                }
                count
            }
            InjectionProcess::Bernoulli => u32::from(rng.gen_bool(self.packets_per_cycle)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(1)
    }

    #[test]
    fn regular_rate_is_exact_over_long_windows() {
        let mut rng = rng();
        for &rate in &[0.1, 0.25, 0.33, 0.5, 1.0] {
            let mut inj = Injector::new(rate, 4, InjectionProcess::Regular).unwrap();
            let cycles = 40_000u64;
            let total: u32 = (0..cycles).map(|_| inj.packets_this_cycle(&mut rng)).sum();
            let expect = rate / 4.0 * cycles as f64;
            let got = total as f64;
            assert!(
                (got - expect).abs() <= 1.0,
                "rate {rate}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn regular_period_is_even() {
        let mut rng = rng();
        // 0.25 flits/cycle, 4-flit packets: exactly every 16th cycle.
        let mut inj = Injector::new(0.25, 4, InjectionProcess::Regular).unwrap();
        let mut last = None;
        for cycle in 0..200u64 {
            if inj.packets_this_cycle(&mut rng) > 0 {
                if let Some(prev) = last {
                    assert_eq!(cycle - prev, 16);
                }
                last = Some(cycle);
            }
        }
        assert!(last.is_some());
    }

    #[test]
    fn bernoulli_rate_converges() {
        let mut rng = rng();
        let mut inj = Injector::new(0.4, 4, InjectionProcess::Bernoulli).unwrap();
        let cycles = 100_000u64;
        let total: u32 = (0..cycles).map(|_| inj.packets_this_cycle(&mut rng)).sum();
        let expect = 0.1 * cycles as f64;
        assert!(
            (total as f64 - expect).abs() < expect * 0.05,
            "got {total}, expected ~{expect}"
        );
    }

    #[test]
    fn invalid_rates_are_rejected() {
        assert!(Injector::new(0.0, 4, InjectionProcess::Regular).is_err());
        assert!(Injector::new(-0.5, 4, InjectionProcess::Regular).is_err());
        assert!(Injector::new(1.5, 4, InjectionProcess::Regular).is_err());
        assert!(Injector::new(f64::NAN, 4, InjectionProcess::Regular).is_err());
        assert!(Injector::new(0.5, 0, InjectionProcess::Regular).is_err());
    }

    #[test]
    fn full_rate_single_flit_packets_inject_every_cycle() {
        let mut rng = rng();
        let mut inj = Injector::new(1.0, 1, InjectionProcess::Regular).unwrap();
        for _ in 0..10 {
            assert_eq!(inj.packets_this_cycle(&mut rng), 1);
        }
    }
}
