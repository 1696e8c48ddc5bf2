//! Seeded randomness, latency samples and the process's peak memory.

/// SplitMix64: a tiny deterministic generator, so one `--seed` always
/// yields the same inputs and the same request sequence.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    /// Index drawn from a Zipf(`s`) law over `n` ranks (rank 0 most likely).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
        let mut x = self.unit() * weights.iter().sum::<f64>();
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        n - 1
    }
}

/// A set of measurements in one unit.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
    /// statistics; NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return f64::NAN;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if v[lo] == v[hi] || v[hi].is_infinite() {
            // A failed operation is recorded as an infinite latency: it
            // misses every percentile it lands on.
            return v[hi];
        }
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Measurements bucketed by the one-second window of the run they fall
/// in. Figures are taken from the quietest quarter of the windows: other
/// tenants of a shared machine slow whole stretches of a run, and those
/// windows would otherwise set the figure.
#[derive(Default)]
pub struct Windowed(Vec<Samples>);

impl Windowed {
    pub fn push(&mut self, at_s: f64, v: f64) {
        let w = at_s as usize;
        if self.0.len() <= w {
            self.0.resize_with(w + 1, Samples::default);
        }
        self.0[w].push(v);
    }

    pub fn merge(&mut self, other: Windowed) {
        for (w, samples) in other.0.into_iter().enumerate() {
            if self.0.len() <= w {
                self.0.resize_with(w + 1, Samples::default);
            }
            self.0[w].extend(&samples);
        }
    }

    /// The windows that lie wholly inside a run of `seconds`.
    fn full(&self, seconds: f64) -> &[Samples] {
        &self.0[..(seconds as usize).min(self.0.len())]
    }

    /// Each full window's `q`-quantile, taken at the first quartile over
    /// windows (the quieter windows have the lower values).
    pub fn quiet_quantile(&self, seconds: f64, q: f64) -> f64 {
        let mut per_window = Samples::default();
        for w in self.full(seconds).iter().filter(|w| w.len() > 0) {
            per_window.push(w.quantile(q));
        }
        per_window.quantile(0.25)
    }

    /// Measurements per second in each full window, taken at the third
    /// quartile over windows (the quieter windows have the higher rates).
    pub fn quiet_rate(&self, seconds: f64) -> f64 {
        let mut per_window = Samples::default();
        for w in self.full(seconds) {
            per_window.push(w.len() as f64);
        }
        per_window.quantile(0.75)
    }

    /// Every measurement, whatever its window.
    pub fn all(&self) -> Samples {
        let mut all = Samples::default();
        for w in &self.0 {
            all.extend(w);
        }
        all
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
