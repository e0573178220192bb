//! Two-processor simulation timeline.
//!
//! The runtime in `edgenn-core` decides *what* happens (which kernels on
//! which processor, which copies, which syncs); this timeline tracks
//! *when*: per-processor clocks, busy-time accounting (for utilization and
//! power), and the full event trace. When a recorder is attached, every
//! scheduled activity — and every contention stall in front of one — is
//! counted into it as a span.

use edgenn_obs::Recorder;

use crate::processor::ProcessorKind;
use crate::trace::{TraceEvent, TraceKind, TraceSummary};

/// Per-processor clock and busy-time accumulator.
#[derive(Debug, Clone, Copy, Default)]
struct ProcState {
    /// Time at which the processor becomes free (us).
    free_at: f64,
    /// Accumulated busy time (us).
    busy: f64,
}

/// Stalls shorter than this are scheduling noise, not contention worth
/// reporting (us).
const STALL_EPSILON_US: f64 = 1e-9;

fn category_name(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::Kernel => "kernel",
        TraceKind::Copy => "copy",
        TraceKind::Migration => "migration",
        TraceKind::Thrash => "thrash",
        TraceKind::Sync => "sync",
        TraceKind::Idle => "idle",
    }
}

/// A simulated execution timeline over one CPU and one GPU.
///
/// All times are in microseconds from simulation start. Activities are
/// scheduled explicitly by the caller: `schedule` places work on one
/// processor no earlier than both the processor's free time and a
/// data-dependency `ready_at` time; `schedule_bus` places interconnect
/// work (copies/migrations) that occupies *both* processors' memory path
/// logically but is attributed to the bus.
#[derive(Debug, Default)]
pub struct Timeline {
    cpu: ProcState,
    gpu: ProcState,
    events: Vec<TraceEvent>,
    recorder: Option<Recorder>,
}

impl Timeline {
    /// Fresh timeline at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh timeline counting every activity and stall into `recorder`.
    pub fn with_recorder(recorder: Recorder) -> Self {
        Self {
            recorder: Some(recorder),
            ..Self::default()
        }
    }

    fn span(&self, category: &str, start_us: f64, end_us: f64, bytes: u64) {
        if let Some(rec) = &self.recorder {
            rec.span(category, start_us, end_us, bytes);
        }
    }

    fn state_mut(&mut self, proc: ProcessorKind) -> &mut ProcState {
        match proc {
            ProcessorKind::Cpu => &mut self.cpu,
            ProcessorKind::Gpu => &mut self.gpu,
        }
    }

    fn state(&self, proc: ProcessorKind) -> &ProcState {
        match proc {
            ProcessorKind::Cpu => &self.cpu,
            ProcessorKind::Gpu => &self.gpu,
        }
    }

    /// Time at which `proc` becomes free.
    pub fn free_at(&self, proc: ProcessorKind) -> f64 {
        self.state(proc).free_at
    }

    /// Current makespan: when the later processor becomes free.
    pub fn makespan_us(&self) -> f64 {
        self.cpu.free_at.max(self.gpu.free_at)
    }

    /// Schedules `duration_us` of work on `proc`, starting no earlier than
    /// `ready_at` and the processor's own availability. Returns the end time.
    pub fn schedule(
        &mut self,
        proc: ProcessorKind,
        kind: TraceKind,
        ready_at: f64,
        duration_us: f64,
        label: impl Into<String>,
    ) -> f64 {
        debug_assert!(duration_us >= 0.0, "negative duration");
        let label = label.into();
        let free_at = self.state(proc).free_at;
        let start = free_at.max(ready_at);
        // Data was ready but the processor was occupied: contention stall.
        if free_at > ready_at + STALL_EPSILON_US {
            self.span("stall", ready_at, free_at, 0);
        }
        let end = start + duration_us;
        let state = self.state_mut(proc);
        state.free_at = end;
        state.busy += duration_us;
        self.span(category_name(kind), start, end, 0);
        self.events.push(TraceEvent {
            kind,
            processor: Some(proc),
            start_us: start,
            end_us: end,
            label,
            bytes: 0,
        });
        end
    }

    /// Schedules interconnect work (an explicit copy or page migration)
    /// moving `bytes` that must wait for both processors' pending work
    /// touching the data; the caller passes the dependency time. The bus
    /// activity advances *both* processors' availability (a `cudaMemcpy`
    /// is synchronous with respect to the stream on integrated devices)
    /// and counts as busy time on `attributed_to` if given.
    pub fn schedule_bus(
        &mut self,
        kind: TraceKind,
        ready_at: f64,
        duration_us: f64,
        bytes: u64,
        attributed_to: Option<ProcessorKind>,
        label: impl Into<String>,
    ) -> f64 {
        debug_assert!(duration_us >= 0.0, "negative duration");
        let label = label.into();
        let start = ready_at.max(self.cpu.free_at.min(self.gpu.free_at));
        let end = start + duration_us;
        if let Some(proc) = attributed_to {
            let state = self.state_mut(proc);
            state.free_at = state.free_at.max(end);
            state.busy += duration_us;
        }
        self.span(category_name(kind), start, end, bytes);
        self.events.push(TraceEvent {
            kind,
            processor: attributed_to,
            start_us: start,
            end_us: end,
            label,
            bytes,
        });
        end
    }

    /// Aligns both processors to the same time (a synchronization point),
    /// returning it.
    pub fn sync_all(&mut self, label: impl Into<String>) -> f64 {
        let t = self.makespan_us();
        if (self.cpu.free_at - self.gpu.free_at).abs() > f64::EPSILON {
            let label = label.into();
            let start = self.cpu.free_at.min(self.gpu.free_at);
            self.span("sync", start, t, 0);
            self.events.push(TraceEvent {
                kind: TraceKind::Sync,
                processor: None,
                start_us: start,
                end_us: t,
                label,
                bytes: 0,
            });
        }
        self.cpu.free_at = t;
        self.gpu.free_at = t;
        t
    }

    /// Lifts both processors' clocks to at least `t` (used for fixed
    /// synchronization overheads that occupy neither compute unit).
    pub fn advance_to(&mut self, t: f64) {
        self.cpu.free_at = self.cpu.free_at.max(t);
        self.gpu.free_at = self.gpu.free_at.max(t);
    }

    /// Fraction of the makespan `proc` spent busy (0 when nothing ran).
    pub fn busy_fraction(&self, proc: ProcessorKind) -> f64 {
        let total = self.makespan_us();
        if total <= 0.0 {
            0.0
        } else {
            (self.state(proc).busy / total).min(1.0)
        }
    }

    /// Total busy time of `proc` in microseconds.
    pub fn busy_us(&self, proc: ProcessorKind) -> f64 {
        self.state(proc).busy
    }

    /// The recorded events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Aggregated summary of the recorded events.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary::from_events(&self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_scheduling_advances_one_clock() {
        let mut t = Timeline::new();
        let e1 = t.schedule(ProcessorKind::Gpu, TraceKind::Kernel, 0.0, 10.0, "k1");
        let e2 = t.schedule(ProcessorKind::Gpu, TraceKind::Kernel, 0.0, 5.0, "k2");
        assert_eq!(e1, 10.0);
        assert_eq!(e2, 15.0, "k2 waits for the GPU to free up");
        assert_eq!(t.free_at(ProcessorKind::Cpu), 0.0);
        assert_eq!(t.makespan_us(), 15.0);
    }

    #[test]
    fn co_running_overlaps_processors() {
        let mut t = Timeline::new();
        t.schedule(ProcessorKind::Gpu, TraceKind::Kernel, 0.0, 10.0, "gpu part");
        t.schedule(ProcessorKind::Cpu, TraceKind::Kernel, 0.0, 8.0, "cpu part");
        assert_eq!(t.makespan_us(), 10.0, "co-run time is the max, not the sum");
        assert_eq!(t.busy_us(ProcessorKind::Cpu), 8.0);
        assert!((t.busy_fraction(ProcessorKind::Cpu) - 0.8).abs() < 1e-9);
        assert!((t.busy_fraction(ProcessorKind::Gpu) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ready_at_defers_start() {
        let mut t = Timeline::new();
        let end = t.schedule(ProcessorKind::Cpu, TraceKind::Kernel, 100.0, 5.0, "late");
        assert_eq!(end, 105.0);
        // Busy time only counts the 5us of work, not the idle wait.
        assert_eq!(t.busy_us(ProcessorKind::Cpu), 5.0);
    }

    #[test]
    fn sync_aligns_clocks_and_records_event() {
        let mut t = Timeline::new();
        t.schedule(ProcessorKind::Gpu, TraceKind::Kernel, 0.0, 10.0, "g");
        t.schedule(ProcessorKind::Cpu, TraceKind::Kernel, 0.0, 4.0, "c");
        let at = t.sync_all("barrier");
        assert_eq!(at, 10.0);
        assert_eq!(t.free_at(ProcessorKind::Cpu), 10.0);
        assert_eq!(t.events().last().unwrap().kind, TraceKind::Sync);
    }

    #[test]
    fn sync_on_aligned_clocks_is_silent() {
        let mut t = Timeline::new();
        t.schedule(ProcessorKind::Gpu, TraceKind::Kernel, 0.0, 10.0, "g");
        t.schedule(ProcessorKind::Cpu, TraceKind::Kernel, 0.0, 10.0, "c");
        let before = t.events().len();
        t.sync_all("noop");
        assert_eq!(t.events().len(), before, "no event for a zero-width sync");
    }

    #[test]
    fn bus_copy_attributed_to_processor_advances_it() {
        let mut t = Timeline::new();
        t.schedule(ProcessorKind::Gpu, TraceKind::Kernel, 0.0, 10.0, "k");
        let end = t.schedule_bus(
            TraceKind::Copy,
            10.0,
            3.0,
            4096,
            Some(ProcessorKind::Gpu),
            "d2h",
        );
        assert_eq!(end, 13.0);
        assert_eq!(t.free_at(ProcessorKind::Gpu), 13.0);
        assert_eq!(t.free_at(ProcessorKind::Cpu), 0.0);
        assert_eq!(t.summary().copy_us, 3.0);
        assert_eq!(t.events().last().unwrap().bytes, 4096);
    }

    #[test]
    fn summary_reflects_all_events() {
        let mut t = Timeline::new();
        t.schedule(ProcessorKind::Gpu, TraceKind::Kernel, 0.0, 7.0, "k");
        t.schedule_bus(
            TraceKind::Migration,
            7.0,
            2.0,
            8192,
            Some(ProcessorKind::Gpu),
            "fault",
        );
        t.schedule_bus(TraceKind::Thrash, 9.0, 1.0, 4096, None, "shared write");
        let s = t.summary();
        assert_eq!(s.kernel_us, 7.0);
        assert_eq!(s.migration_us, 2.0);
        assert_eq!(s.thrash_us, 1.0);
        assert_eq!(s.memory_us(), 3.0);
        assert_eq!(s.bytes_moved, 12288);
    }

    #[test]
    fn sink_mirrors_activities_and_reports_stalls() {
        let recorder = Recorder::new();
        let mut t = Timeline::with_recorder(recorder.clone());
        t.schedule(ProcessorKind::Gpu, TraceKind::Kernel, 0.0, 10.0, "k1");
        // Ready at t=2 but the GPU is busy until t=10: an 8us stall.
        t.schedule(ProcessorKind::Gpu, TraceKind::Kernel, 2.0, 5.0, "k2");
        t.schedule_bus(
            TraceKind::Copy,
            15.0,
            3.0,
            1 << 20,
            Some(ProcessorKind::Gpu),
            "d2h",
        );
        let m = recorder.metrics();
        assert_eq!(m.counter_value("edgenn_kernel_total"), Some(2.0));
        assert_eq!(m.counter_value("edgenn_stall_total"), Some(1.0));
        assert_eq!(m.counter_value("edgenn_stall_us_total"), Some(8.0));
        assert_eq!(
            m.counter_value("edgenn_copy_bytes_total"),
            Some((1 << 20) as f64)
        );
    }
}
