//! Seeded input generation and open-loop schedules.
//!
//! Everything the benchmark feeds the program derives from the `--seed`
//! argument through [`SplitMix64`], so equal seeds give equal inputs on
//! every host.

/// SplitMix64: a small, fast, fully specified generator, so the inputs do
/// not depend on any library's stream definition.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets, in seconds from the start of a phase, of `count`
/// requests from a Poisson process of `rate` per second: exponential
/// inter-arrival gaps, the first request after one gap.
pub fn poisson_arrivals(rate: f64, count: usize, rng: &mut SplitMix64) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            // 1 - u lies in (0, 1], so the logarithm is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect()
}

/// How late an open-loop sender ran against its schedule.
///
/// Each recorded event carries the time it was due and the time the
/// sender actually performed it, both in seconds on one clock. Lag is the
/// lateness, never negative: an event performed early (the sender waits
/// for due times, so only clock granularity makes this happen) counts as
/// on time.
#[derive(Debug, Clone, Default)]
pub struct LagLog {
    events: Vec<(f64, f64)>,
}

impl LagLog {
    /// Records one event that was due at `due` and ran at `actual`.
    pub fn record(&mut self, due: f64, actual: f64) {
        self.events.push((due, actual));
    }

    /// Every event's lag in milliseconds, in recording order.
    pub fn lags_ms(&self) -> Vec<f64> {
        self.events
            .iter()
            .map(|&(due, actual)| ((actual - due) * 1e3).max(0.0))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4)
            .scan(SplitMix64::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(SplitMix64::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(SplitMix64::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = SplitMix64::new(1);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn poisson_schedule_is_deterministic_per_seed() {
        let a = poisson_arrivals(40.0, 200, &mut SplitMix64::new(11));
        let b = poisson_arrivals(40.0, 200, &mut SplitMix64::new(11));
        let c = poisson_arrivals(40.0, 200, &mut SplitMix64::new(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_schedule_is_increasing_at_the_offered_rate() {
        let count = 20_000;
        let a = poisson_arrivals(40.0, count, &mut SplitMix64::new(3));
        assert!(a.windows(2).all(|w| w[1] > w[0]));
        assert!(a[0] > 0.0);
        let rate = count as f64 / a[count - 1];
        assert!((rate - 40.0).abs() < 1.0, "measured rate {rate}");
    }

    #[test]
    fn lag_is_lateness_against_the_due_time() {
        let mut log = LagLog::default();
        log.record(1.0, 1.002);
        log.record(1.01, 1.005); // early: on time
        log.record(1.02, 1.07);
        let lags = log.lags_ms();
        assert_eq!(lags.len(), 3);
        assert!((lags[0] - 2.0).abs() < 1e-9);
        assert_eq!(lags[1], 0.0);
        assert!((lags[2] - 50.0).abs() < 1e-9);
    }
}
