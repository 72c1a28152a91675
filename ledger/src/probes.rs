//! The timing loop behind every probe: direct calls into one layer's
//! public function, from one thread, on inputs taken from the workload's
//! own environment (the calls themselves live in `adapter.rs`).

use std::time::{Duration, Instant};

/// How long one probe measures: it stops after `min_time` of measured
/// time or `min_calls` calls, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    min_time: Duration,
    min_calls: u32,
}

impl Budget {
    pub const FULL: Budget = Budget {
        min_time: Duration::from_millis(200),
        min_calls: 200,
    };
    /// A tenth of [`Budget::FULL`], for `--smoke`.
    pub const SMOKE: Budget = Budget {
        min_time: Duration::from_millis(20),
        min_calls: 20,
    };

    /// Seconds per call of `f`: one untimed warm-up call (buffers, panels
    /// and caches fill), then calls until the budget is used.
    pub fn secs_per_call(&self, mut f: impl FnMut()) -> f64 {
        f();
        let start = Instant::now();
        let mut calls = 0u32;
        loop {
            f();
            calls += 1;
            // One clock reading per call, shared by stop rule and result,
            // so nanosecond-scale calls are not dominated by the clock.
            let elapsed = start.elapsed();
            if elapsed >= self.min_time || calls >= self.min_calls {
                return elapsed.as_secs_f64() / calls as f64;
            }
        }
    }

    /// Like [`Budget::secs_per_call`] for a step whose stages are timed
    /// apart: `f` returns the seconds each of its `N` stages took; the
    /// result is the per-call mean of each stage.
    pub fn stage_secs_per_call<const N: usize>(&self, mut f: impl FnMut() -> [f64; N]) -> [f64; N] {
        f();
        let start = Instant::now();
        let mut calls = 0u32;
        let mut total = [0.0; N];
        loop {
            let stages = f();
            for (t, s) in total.iter_mut().zip(stages) {
                *t += s;
            }
            calls += 1;
            if start.elapsed() >= self.min_time || calls >= self.min_calls {
                return total.map(|t| t / calls as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_budget_bounds_a_cheap_probe() {
        let mut calls = 0u32;
        let per_call = Budget::FULL.secs_per_call(|| calls += 1);
        // Warm-up + at most `min_calls` timed calls.
        assert_eq!(calls, 201);
        assert!((0.0..1e-3).contains(&per_call));
    }

    #[test]
    fn time_budget_bounds_a_slow_probe() {
        let mut calls = 0u32;
        let per_call = Budget::FULL.secs_per_call(|| {
            calls += 1;
            std::thread::sleep(Duration::from_millis(120));
        });
        assert_eq!(calls, 3, "warm-up plus two timed calls reach 200 ms");
        assert!(per_call >= 0.12);
    }

    #[test]
    fn stages_are_averaged_apart() {
        let means = Budget::FULL.stage_secs_per_call(|| [1.0, 3.0]);
        assert_eq!(means, [1.0, 3.0]);
        let mut calls = 0u32;
        Budget::SMOKE.secs_per_call(|| calls += 1);
        assert_eq!(calls, 21);
    }
}
