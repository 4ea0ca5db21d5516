//! Host fingerprint and resident-memory sampling, read from the kernel's
//! process interfaces at run time.

/// Cores, CPU model and executor lanes: recorded with every result, since
/// every timing depends on them.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Cores available to this process.
    pub cores: usize,
    /// The CPU model string, or `unknown`.
    pub cpu_model: String,
    /// Executor lanes the runtime under test used.
    pub lanes: usize,
}

impl Fingerprint {
    /// Fingerprints this host for a runtime of `lanes` lanes.
    pub fn probe(lanes: usize) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            lanes,
        }
    }

    /// The fingerprint as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"cpu_model\":\"{}\",\"lanes\":{}}}",
            self.cores,
            self.cpu_model.replace(['"', '\\'], "_"),
            self.lanes
        )
    }
}

/// The process's current resident set, in MB (0 where the kernel does not
/// report it).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmRSS:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The program's resident memory, from samples of [`rss_mb`].
///
/// The process's resident set before the program is set up, and whatever
/// the benchmark's own inputs and references add to it, are subtracted
/// from the highest sample; the trace buffer is left out of the samples
/// that stand for untraced operations.
#[derive(Debug, Clone, Copy)]
pub struct ProgramRss {
    base: f64,
    inputs: f64,
    peak: f64,
}

impl ProgramRss {
    /// Starts accounting; call before the program is set up.
    pub fn start() -> Self {
        let base = rss_mb();
        Self {
            base,
            inputs: 0.0,
            peak: base,
        }
    }

    /// Takes one sample.
    pub fn sample(&mut self) {
        self.sample_less(0);
    }

    /// Takes one sample, less `bytes` the benchmark holds for itself.
    pub fn sample_less(&mut self, bytes: usize) {
        self.peak = self.peak.max(rss_mb() - bytes as f64 / (1024.0 * 1024.0));
    }

    /// Runs `build`, which makes the benchmark's own inputs or references,
    /// and leaves what it adds to the resident set out of the program's.
    pub fn exclude<T>(&mut self, build: impl FnOnce() -> T) -> T {
        self.sample();
        let before = rss_mb();
        let built = build();
        self.inputs += (rss_mb() - before).max(0.0);
        built
    }

    /// The program's peak resident memory, in MB.
    pub fn mb(&self) -> f64 {
        self.peak - self.base - self.inputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_rss_leaves_out_the_inputs_and_the_held_bytes() {
        const MB64: usize = 64 << 20;
        let mut rss = ProgramRss::start();
        let inputs = rss.exclude(|| vec![1u8; MB64]);
        rss.sample();
        assert!(rss.mb() < 32.0, "inputs counted: {} MB", rss.mb());
        let held = vec![2u8; MB64];
        rss.sample_less(held.len());
        assert!(rss.mb() < 32.0, "held bytes counted: {} MB", rss.mb());
        let program = vec![3u8; MB64];
        rss.sample_less(held.len());
        assert!(rss.mb() > 48.0, "program missed: {} MB", rss.mb());
        std::hint::black_box((inputs, held, program));
    }
}
