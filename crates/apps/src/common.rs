//! Shared plumbing for the application proxies.

use std::cell::RefCell;
use std::rc::Rc;

use xtsim_machine::{fit_dims, ExecMode, MachineSpec};
use xtsim_mpi::{CollectiveMode, WorldConfig};
use xtsim_net::{ContentionModel, PlatformConfig};

/// Seconds in a simulated calendar year (365.25 days).
pub const SECS_PER_YEAR: f64 = 365.25 * 86400.0;

/// Build a job world for an app run: compact partition, modeled collectives
/// above 128 ranks, counting contention above 256.
pub fn app_job(machine: &MachineSpec, mode: ExecMode, ranks: usize) -> WorldConfig {
    let mut spec = machine.clone();
    let nodes = ranks.div_ceil(spec.ranks_per_node(mode));
    spec.torus_dims = fit_dims(nodes);
    let mut platform = PlatformConfig::new(spec, mode, ranks);
    if ranks > 256 {
        platform.contention = ContentionModel::Counting;
    }
    let mut cfg = WorldConfig::new(platform);
    if ranks > 128 {
        cfg.collectives = CollectiveMode::Modeled;
    }
    cfg
}

/// Phase stopwatch shared by all ranks: records the *latest* end of each
/// phase index (the job-level phase boundary).
#[derive(Clone, Default)]
pub struct PhaseMarks {
    marks: Rc<RefCell<Vec<f64>>>,
}

impl PhaseMarks {
    /// Fresh stopwatch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that this rank finished phase `idx` at `now` seconds.
    pub fn mark(&self, idx: usize, now: f64) {
        let mut m = self.marks.borrow_mut();
        if m.len() <= idx {
            m.resize(idx + 1, 0.0);
        }
        m[idx] = m[idx].max(now);
    }

    /// Duration of phase `idx` (between consecutive phase boundaries).
    pub fn phase(&self, idx: usize) -> f64 {
        let m = self.marks.borrow();
        if idx == 0 {
            m.first().copied().unwrap_or(0.0)
        } else {
            m[idx] - m[idx - 1]
        }
    }

    /// All boundaries.
    pub fn boundaries(&self) -> Vec<f64> {
        self.marks.borrow().clone()
    }
}

/// Near-square 2-D factorization of `p` (prefers px ≥ py, px/py small).
pub fn grid_2d(p: usize) -> (usize, usize) {
    let mut best = (p, 1);
    let mut i = 1;
    while i * i <= p {
        if p.is_multiple_of(i) {
            best = (p / i, i);
        }
        i += 1;
    }
    best
}

/// Near-cubic 3-D factorization of `p`.
pub fn grid_3d(p: usize) -> (usize, usize, usize) {
    let mut best = (p, 1, 1);
    let mut score = f64::INFINITY;
    let mut a = 1;
    while a * a * a <= p {
        if p.is_multiple_of(a) {
            let rest = p / a;
            let (b, c) = grid_2d(rest);
            let dims = [a, b, c];
            let max = *dims.iter().max().unwrap() as f64;
            let min = *dims.iter().min().unwrap() as f64;
            if max / min < score {
                score = max / min;
                best = (a, c, b);
            }
        }
        a += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_2d_factors() {
        assert_eq!(grid_2d(12), (4, 3));
        assert_eq!(grid_2d(16), (4, 4));
        assert_eq!(grid_2d(7), (7, 1));
        assert_eq!(grid_2d(1), (1, 1));
    }

    #[test]
    fn grid_3d_factors() {
        let (a, b, c) = grid_3d(64);
        assert_eq!(a * b * c, 64);
        assert_eq!((a, b, c), (4, 4, 4));
        let (a, b, c) = grid_3d(100);
        assert_eq!(a * b * c, 100);
    }

    #[test]
    fn phase_marks_take_max() {
        let m = PhaseMarks::new();
        m.mark(0, 1.0);
        m.mark(0, 2.0);
        m.mark(1, 5.0);
        assert_eq!(m.phase(0), 2.0);
        assert_eq!(m.phase(1), 3.0);
    }
}

/// Application compute priced by the balance model: a flop phase plus a
/// memory phase split into a non-contended (single-stream) part and a
/// contended (shared-controller) part. The two phases are *additive* — the
/// dependence-limited sweeps of real science codes do not hide their DRAM
/// time under their flops — which is what lets VN-mode memory contention
/// show through at the measured magnitude rather than all-or-nothing.
#[derive(Debug, Clone, Copy)]
pub struct BalancedWork {
    /// Flop-phase packet.
    pub flop: xtsim_machine::WorkPacket,
    /// Memory-phase packet (serial + contended traffic).
    pub mem: xtsim_machine::WorkPacket,
}

impl BalancedWork {
    /// Price `flops` of application work on `machine`.
    ///
    /// * `intensity` — effective DRAM bytes per flop (an application balance
    ///   constant, calibrated once per app against the paper);
    /// * `contended` — fraction of that traffic that contends on the shared
    ///   memory controller in VN mode;
    /// * `eff_scale` — multiplier on the machine's sustained fraction for
    ///   the flop phase (the sustained fraction folds in memory stalls that
    ///   this model prices separately).
    pub fn new(
        machine: &MachineSpec,
        flops: f64,
        intensity: f64,
        contended: f64,
        eff_scale: f64,
    ) -> BalancedWork {
        let eff = (machine.app.sustained_fraction * eff_scale).min(0.95);
        let bytes = flops * intensity;
        BalancedWork {
            flop: xtsim_machine::WorkPacket {
                flops,
                flop_efficiency: eff,
                ..Default::default()
            },
            mem: xtsim_machine::WorkPacket {
                flop_efficiency: 1.0,
                serial_dram_bytes: bytes * (1.0 - contended),
                shared_dram_bytes: bytes * contended,
                ..Default::default()
            },
        }
    }

    /// Scale the flop phase efficiency (vector-length penalties, OpenMP).
    pub fn scale_rate(mut self, factor: f64) -> BalancedWork {
        self.flop.flop_efficiency = (self.flop.flop_efficiency * factor).clamp(1e-3, 0.95);
        self
    }

    /// Execute both phases on this rank.
    pub async fn run(&self, mpi: &xtsim_mpi::Mpi) {
        mpi.compute(self.flop).await;
        mpi.compute(self.mem).await;
    }

    /// Uncontended seconds (for tests).
    pub fn uncontended_time(&self, machine: &MachineSpec) -> f64 {
        self.flop.uncontended_time(machine) + self.mem.uncontended_time(machine)
    }
}
