//! The benchmark's own statistics: percentiles under the "ten samples
//! beyond" rule, open-loop latency and generator lateness.

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `(0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `q` percentile of `n`
/// samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil().max(1.0) as usize;
    n.saturating_sub(rank.min(n))
}

/// The highest of `candidates` that has at least [`MIN_SAMPLES_BEYOND`]
/// samples beyond it in a sample of `n`, if any.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&q| samples_beyond(n, q) >= MIN_SAMPLES_BEYOND)
        .fold(None, |best: Option<f64>, q| {
            Some(best.map_or(q, |b| b.max(q)))
        })
}

/// Median of an unsorted sample (upper median for even counts, matching
/// [`percentile`] at 0.5 on the sorted data).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// The median over consecutive blocks of `block` samples (a short last
/// block is dropped) of `f` applied to each block; `None` without a full
/// block. Host slowdowns come in stretches that cover neighbouring samples,
/// so they lift the few blocks they fall in and the median block reads the
/// code rather than the stretch.
pub fn block_median(values: &[f64], block: usize, f: impl Fn(&[f64]) -> f64) -> Option<f64> {
    let per_block: Vec<f64> = values.chunks_exact(block.max(1)).map(f).collect();
    (!per_block.is_empty()).then(|| median(&per_block))
}

/// Operations per second over a block of latencies in ms: the count over
/// the summed time.
pub fn rate_per_s(latencies_ms: &[f64]) -> f64 {
    1e3 * latencies_ms.len() as f64 / latencies_ms.iter().sum::<f64>()
}

/// Median and one tail percentile of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median of all samples.
    pub p50: f64,
    /// The tail percentile asked for (e.g. 0.95).
    pub tail_q: f64,
    /// Its value: the median over the blocks of each block's percentile.
    pub tail: f64,
    /// Samples per block.
    pub block: usize,
    /// Full blocks.
    pub blocks: usize,
}

/// Summarises `values`, in the order they were measured: the median of all
/// of them, and the `tail_q` percentile by [`block_median`] over blocks of
/// `block` samples.
///
/// # Errors
///
/// When a block has fewer than [`MIN_SAMPLES_BEYOND`] samples beyond
/// `tail_q`, or there is no full block.
pub fn summarize(values: &[f64], tail_q: f64, block: usize) -> Result<Summary, String> {
    let n = values.len();
    if highest_reportable(block, &[tail_q]).is_none() {
        return Err(format!(
            "p{} needs {MIN_SAMPLES_BEYOND} samples beyond it, blocks of {block} give {}",
            tail_q * 100.0,
            samples_beyond(block, tail_q)
        ));
    }
    let tail = block_median(values, block, |b| {
        let mut sorted = b.to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, tail_q)
    })
    .ok_or_else(|| format!("{n} samples do not fill one block of {block}"))?;
    Ok(Summary {
        n,
        p50: median(values),
        tail_q,
        tail,
        block,
        blocks: n / block,
    })
}

/// Timestamps of one open-loop request, in seconds from a common origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoopSample {
    /// When the schedule says the request is due.
    pub due: f64,
    /// When the generator actually wrote it.
    pub sent: f64,
    /// When the connection became free for it: the previous response on the
    /// same connection arrived (0 for the first request).
    pub conn_free: f64,
    /// When its response arrived.
    pub done: f64,
}

impl OpenLoopSample {
    /// Latency timed from the due time, so a stall also counts against
    /// every request scheduled behind it.
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator itself ran: the send time past the moment the
    /// request could first have gone out (its due time, or the previous
    /// response on a busy connection). Waiting behind an earlier request is
    /// queueing, which [`OpenLoopSample::latency`] already counts.
    pub fn lateness(&self) -> f64 {
        (self.sent - self.due.max(self.conn_free)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&sorted, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 200 samples: p95 leaves exactly 10 beyond, p99 only 2.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(200, 0.99), 2);
        assert_eq!(highest_reportable(200, &[0.5, 0.9, 0.95, 0.99]), Some(0.95));
        // 199 samples: p95 leaves 9, so p90 is the highest reportable.
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(highest_reportable(199, &[0.5, 0.9, 0.95, 0.99]), Some(0.9));
        // 1000 samples reach p99.
        assert_eq!(
            highest_reportable(1000, &[0.5, 0.9, 0.95, 0.99]),
            Some(0.99)
        );
        assert_eq!(highest_reportable(15, &[0.5, 0.9]), None);
        assert_eq!(highest_reportable(20, &[0.5, 0.9]), Some(0.5));

        let values: Vec<f64> = (0..200).map(f64::from).collect();
        let summary = summarize(&values, 0.95, 200).unwrap();
        assert_eq!((summary.n, summary.p50, summary.tail), (200, 99.0, 189.0));
        assert!(summarize(&values, 0.95, 199).is_err());
        assert!(summarize(&values[..199], 0.95, 200).is_err());
        assert!(summarize(&[], 0.5, 20).is_err());
    }

    #[test]
    fn block_tail_ignores_a_slow_stretch() {
        // Five blocks of 100 samples, 1..=100 ms each; a slow stretch
        // multiplies the second half of block 1 and the first half of
        // block 2 tenfold.
        let mut values: Vec<f64> = (0..500).map(|i| f64::from(i % 100 + 1)).collect();
        for v in &mut values[150..250] {
            *v *= 10.0;
        }
        let summary = summarize(&values, 0.9, 100).unwrap();
        assert_eq!((summary.blocks, summary.tail), (5, 90.0));
        // One p90 over all 500 samples reads the stretch.
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        assert!(percentile(&sorted, 0.9) > 400.0);
        // A short last block is dropped; no full block is no answer.
        assert_eq!(
            block_median(&values[..120], 100, |b| b.len() as f64),
            Some(100.0)
        );
        assert_eq!(block_median(&values[..99], 100, |b| b.len() as f64), None);
        // Rates: 4 operations in 20 ms is 200 per second.
        assert_eq!(rate_per_s(&[5.0, 5.0, 5.0, 5.0]), 200.0);
    }

    #[test]
    fn open_loop_latency_counts_from_due_time() {
        // On time on an idle connection.
        let idle = OpenLoopSample {
            due: 1.0,
            sent: 1.0001,
            conn_free: 0.5,
            done: 1.0004,
        };
        assert!((idle.latency() - 0.0004).abs() < 1e-12);
        assert!((idle.lateness() - 0.0001).abs() < 1e-12);
        // Queued behind a slow response: the wait counts as latency, not as
        // generator lateness.
        let queued = OpenLoopSample {
            due: 2.0,
            sent: 2.020,
            conn_free: 2.020,
            done: 2.021,
        };
        assert!((queued.latency() - 0.021).abs() < 1e-12);
        assert_eq!(queued.lateness(), 0.0);
        // The generator overslept past a free connection.
        let late = OpenLoopSample {
            due: 3.0,
            sent: 3.005,
            conn_free: 2.9,
            done: 3.006,
        };
        assert!((late.lateness() - 0.005).abs() < 1e-12);
        assert!((late.latency() - 0.006).abs() < 1e-12);
    }
}
