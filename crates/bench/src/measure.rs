//! Repeated, summarized query measurements.

use sip_common::trace::{TraceLevel, N_PHASES};
use sip_common::Result;
use sip_core::{run_query, AipConfig, QuerySpec, Strategy};
use sip_data::Catalog;
use sip_engine::{DelayModel, ExecOptions};

/// Global experiment parameters.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Scale factor for generated data (1.0 = classic 1 GB row counts).
    pub scale_factor: f64,
    /// Data-generation seed.
    pub seed: u64,
    /// Repetitions per measurement (the paper uses ≥5).
    pub repeats: usize,
    /// Batch size for the engine (`--batch-size` on the repro CLI).
    pub batch_size: usize,
    /// Bounded-channel capacity in batches — the backpressure window
    /// (`--channel-capacity` on the repro CLI).
    pub channel_capacity: usize,
    /// Degree of partition parallelism for the `recovery` figure and the
    /// profiles (`--dop` on the repro CLI): recovery and the Zipf profile
    /// run at `max(dop, 2)`, the Q4A profile at 1, 2, 4 up to `dop`.
    pub dop: u32,
    /// Per-query deadline in milliseconds (`--timeout-ms`); `None` = no
    /// deadline. A run past the deadline fails with `deadline exceeded`
    /// plus its per-phase time shares.
    pub timeout_ms: Option<u64>,
    /// Retry budget (`--retries`): total attempts of the whole-run retry
    /// loop. 0 disables recovery (fail-fast).
    pub retries: u32,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale_factor: 0.05,
            seed: 0xC0FFEE,
            repeats: 3,
            batch_size: 1024,
            channel_capacity: 16,
            dop: 4,
            timeout_ms: None,
            retries: 0,
        }
    }
}

impl ExperimentConfig {
    /// Engine options for one run: the validated sizing knobs, rows not
    /// collected (pure timing).
    pub fn exec_options(&self) -> Result<ExecOptions> {
        let mut opts = ExecOptions::validated(self.batch_size, self.channel_capacity)?;
        opts.collect_rows = false;
        if let Some(ms) = self.timeout_ms {
            opts = opts.with_deadline(std::time::Duration::from_millis(ms));
        }
        if self.retries > 0 {
            opts = opts.with_retry(sip_common::retry::RetryPolicy::with_attempts(self.retries));
        }
        opts.validate()?;
        Ok(opts)
    }
}

/// Summary of repeated runs of one (query, strategy) cell.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Mean wall-clock seconds.
    pub secs_mean: f64,
    /// Half-width of a 95% confidence interval over the repeats.
    pub secs_ci95: f64,
    /// Mean peak intermediate state, MB.
    pub state_mb: f64,
    /// Result rows (identical across repeats by the correctness gate).
    pub rows: u64,
    /// AIP filters injected (mean).
    pub filters: f64,
    /// Rows dropped by AIP filters (mean).
    pub dropped: f64,
    /// Mean seconds attributed to each execution phase by `sip-trace`
    /// (order: [`sip_common::trace::Phase::ALL`]). Measurements always run
    /// at [`TraceLevel::Ops`]; the overhead of that level is itself bounded
    /// by the `kernels` trace-gate cells.
    pub phase_secs: [f64; N_PHASES],
}

/// Run one cell `repeats` times and summarize.
pub fn measure(
    spec: &QuerySpec,
    catalog: &Catalog,
    strategy: Strategy,
    config: &ExperimentConfig,
    aip: &AipConfig,
    delays: &[(&str, DelayModel)],
) -> Result<Measurement> {
    let mut secs = Vec::with_capacity(config.repeats);
    let mut state = Vec::with_capacity(config.repeats);
    let mut filters = Vec::with_capacity(config.repeats);
    let mut dropped = Vec::with_capacity(config.repeats);
    let mut rows = 0u64;
    let mut phase_secs = [0.0f64; N_PHASES];
    for _ in 0..config.repeats {
        let mut opts = config.exec_options()?.with_trace(TraceLevel::Ops);
        for (name, model) in delays {
            opts = opts.with_delay(*name, model.clone());
        }
        let out = run_query(spec, catalog, strategy, opts, aip)?;
        secs.push(out.metrics.wall_time.as_secs_f64());
        state.push(out.metrics.peak_state_mb());
        filters.push(out.metrics.filters_injected as f64);
        dropped.push(out.metrics.aip_dropped_total as f64);
        rows = out.metrics.rows_out;
        accumulate_phases(&mut phase_secs, &out.metrics);
    }
    for p in phase_secs.iter_mut() {
        *p /= config.repeats.max(1) as f64;
    }
    Ok(Measurement {
        secs_mean: mean(&secs),
        secs_ci95: ci95(&secs),
        state_mb: mean(&state),
        rows,
        filters: mean(&filters),
        dropped: mean(&dropped),
        phase_secs,
    })
}

/// Add one run's traced per-phase nanoseconds to a running total, in
/// seconds.
fn accumulate_phases(acc: &mut [f64; N_PHASES], metrics: &sip_engine::ExecMetrics) {
    for (a, n) in acc.iter_mut().zip(metrics.phase_totals()) {
        *a += n as f64 / 1e9;
    }
}

pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// 95% CI half-width with the small-sample t factor (df ≤ 9 table).
pub(crate) fn ci95(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
    let se = (var / n as f64).sqrt();
    const T: [f64; 9] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
    ];
    let t = T.get(n - 2).copied().unwrap_or(1.96);
    t * se
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_ci() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(ci95(&[5.0]), 0.0);
        let tight = ci95(&[1.0, 1.0, 1.0]);
        assert_eq!(tight, 0.0);
        let loose = ci95(&[1.0, 3.0, 5.0]);
        assert!(loose > 0.0);
    }

    #[test]
    fn measure_runs_a_cell() {
        // Use the Fig. 1 running example: its value-based predicates keep
        // rows at any scale, unlike Q2A's ~1/1000 categorical part filter,
        // which selects zero parts at tiny scale factors.
        let config = ExperimentConfig {
            scale_factor: 0.01,
            repeats: 2,
            ..Default::default()
        };
        let catalog = sip_data::generate(&sip_data::TpchConfig {
            scale_factor: config.scale_factor,
            seed: config.seed,
            zipf_z: 0.0,
        })
        .unwrap();
        let spec = sip_queries::build_query("EX", &catalog).unwrap();
        let m = measure(
            &spec,
            &catalog,
            sip_core::Strategy::FeedForward,
            &config,
            &sip_core::AipConfig::paper(),
            &[],
        )
        .unwrap();
        assert!(m.secs_mean > 0.0);
        assert!(m.rows >= 1);
    }
}
