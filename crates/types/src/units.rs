//! Unit newtypes for time, energy, power and area.
//!
//! These keep the simulator's bookkeeping honest: a cycle count can never
//! be added to a joule figure by accident ([C-NEWTYPE]).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A number of clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The raw count.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cyc", self.0)
    }
}

/// Energy in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Picojoules(pub f64);

impl Picojoules {
    /// The raw value in pJ.
    pub const fn raw(self) -> f64 {
        self.0
    }

    /// Converts to nanojoules.
    pub fn to_nanojoules(self) -> Nanojoules {
        Nanojoules(self.0 / 1000.0)
    }
}

impl Add for Picojoules {
    type Output = Picojoules;
    fn add(self, rhs: Picojoules) -> Picojoules {
        Picojoules(self.0 + rhs.0)
    }
}

impl AddAssign for Picojoules {
    fn add_assign(&mut self, rhs: Picojoules) {
        self.0 += rhs.0;
    }
}

impl Sub for Picojoules {
    type Output = Picojoules;
    fn sub(self, rhs: Picojoules) -> Picojoules {
        Picojoules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Picojoules {
    type Output = Picojoules;
    fn mul(self, rhs: f64) -> Picojoules {
        Picojoules(self.0 * rhs)
    }
}

impl Div<f64> for Picojoules {
    type Output = Picojoules;
    fn div(self, rhs: f64) -> Picojoules {
        Picojoules(self.0 / rhs)
    }
}

impl Sum for Picojoules {
    fn sum<I: Iterator<Item = Picojoules>>(iter: I) -> Picojoules {
        Picojoules(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Picojoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} pJ", self.0)
    }
}

/// Energy in nanojoules (the unit of the paper's Figures 7 and 13b).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Nanojoules(pub f64);

impl Nanojoules {
    /// The raw value in nJ.
    pub const fn raw(self) -> f64 {
        self.0
    }
}

impl Add for Nanojoules {
    type Output = Nanojoules;
    fn add(self, rhs: Nanojoules) -> Nanojoules {
        Nanojoules(self.0 + rhs.0)
    }
}

impl fmt::Display for Nanojoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} nJ", self.0)
    }
}

/// Power in milliwatts (the unit of the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Milliwatts(pub f64);

impl Milliwatts {
    /// The raw value in mW.
    pub const fn raw(self) -> f64 {
        self.0
    }
}

impl Add for Milliwatts {
    type Output = Milliwatts;
    fn add(self, rhs: Milliwatts) -> Milliwatts {
        Milliwatts(self.0 + rhs.0)
    }
}

impl AddAssign for Milliwatts {
    fn add_assign(&mut self, rhs: Milliwatts) {
        self.0 += rhs.0;
    }
}

impl Sum for Milliwatts {
    fn sum<I: Iterator<Item = Milliwatts>>(iter: I) -> Milliwatts {
        Milliwatts(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Milliwatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} mW", self.0)
    }
}

/// Area in square millimetres (the unit of the paper's Table 1).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Millimeters2(pub f64);

impl Millimeters2 {
    /// The raw value in mm².
    pub const fn raw(self) -> f64 {
        self.0
    }
}

impl Add for Millimeters2 {
    type Output = Millimeters2;
    fn add(self, rhs: Millimeters2) -> Millimeters2 {
        Millimeters2(self.0 + rhs.0)
    }
}

impl AddAssign for Millimeters2 {
    fn add_assign(&mut self, rhs: Millimeters2) {
        self.0 += rhs.0;
    }
}

impl Sum for Millimeters2 {
    fn sum<I: Iterator<Item = Millimeters2>>(iter: I) -> Millimeters2 {
        Millimeters2(iter.map(|a| a.0).sum())
    }
}

impl fmt::Display for Millimeters2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} mm2", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        assert_eq!(Cycles(3) + Cycles(4), Cycles(7));
        assert_eq!(Cycles(3) - Cycles(4), Cycles(0));
        let mut c = Cycles(1);
        c += Cycles(2);
        assert_eq!(c, Cycles(3));
        assert_eq!(
            vec![Cycles(1), Cycles(2)].into_iter().sum::<Cycles>(),
            Cycles(3)
        );
    }

    #[test]
    fn picojoules_convert_to_nanojoules() {
        let e = Picojoules(1500.0).to_nanojoules();
        assert!((e.raw() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn energy_arithmetic() {
        let e = Picojoules(2.0) * 3.0 + Picojoules(1.0);
        assert!((e.raw() - 7.0).abs() < 1e-12);
        assert!(((Picojoules(9.0) / 3.0).raw() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Cycles(10).to_string(), "10 cyc");
        assert_eq!(Milliwatts(119.55).to_string(), "119.55 mW");
        assert_eq!(Millimeters2(0.374862).to_string(), "0.374862 mm2");
        assert_eq!(Nanojoules(0.25).to_string(), "0.2500 nJ");
    }
}
