//! Tier C over *recorded* flight spans: the same happens-before
//! discipline [`trace`](crate::trace) enforces on simulated event
//! traces, applied to what the functional engine actually did.
//!
//! The flight recorder ([`edgenn_obs::flight`]) writes fixed-size span
//! records from the execution hot paths; this module replays a drained
//! (and usually causally-sliced) batch of those records and verifies
//! three invariants, reusing the tier-C diagnostic codes so downstream
//! tooling does not care whether a finding came from a simulated or a
//! measured timeline:
//!
//! - **`EC021` — malformed record**: an interval that ends before it
//!   starts, an instant-kind record with a nonzero duration, or a
//!   record that names itself as its own causal parent.
//! - **`EC023` — causal ordering violation**: a span that starts
//!   before the parent it claims descends from (or, on the same
//!   worker, was allocated before it), or a queue-wait that extends
//!   past the start of the task run it measured the wait for.
//! - **`EC020` — occupancy overlap**: on one worker thread, execution
//!   spans (`node`, `task_run`, `pack`, `compute`, `merge`) must form
//!   a laminar family — properly nested or disjoint. A *partial*
//!   crossing means two records claim the same thread was inside two
//!   unrelated scopes at once: a torn record or a broken causal chain.
//!
//! Nesting across unrelated causal chains is deliberately legal: under
//! help-first joins a thread that blocks on a task handle picks up
//! other queued tasks, so a `task_run` parented elsewhere can sit
//! *inside* the joiner's open span. Only crossings are violations.
//! Queue-wait spans are exempt from the occupancy check entirely —
//! they measure time on the queue, which legitimately overlaps
//! whatever the destination worker was running when the task was
//! submitted.
//!
//! Diagnostic [`Span::Event`] indices point into the slice passed to
//! [`check_flight_records`].

use std::collections::HashMap;

use edgenn_obs::flight::{SpanKind, SpanRecord};

use crate::{codes, Diagnostic, Span};

/// Span kinds that represent a worker thread actually executing (as
/// opposed to waiting or marking an event): these must nest cleanly
/// per worker.
fn occupies_worker(kind: SpanKind) -> bool {
    matches!(
        kind,
        SpanKind::Node | SpanKind::TaskRun | SpanKind::Pack | SpanKind::Compute | SpanKind::Merge
    )
}

/// Verifies a batch of recorded flight spans; see the module docs for
/// the invariants. Returns one diagnostic per violation, in check
/// order (malformed, causal, occupancy).
#[must_use]
pub fn check_flight_records(records: &[SpanRecord]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_malformed(records, &mut out);
    let by_id: HashMap<u64, usize> = records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    check_causal_order(records, &by_id, &mut out);
    check_queue_handoff(records, &mut out);
    check_worker_occupancy(records, &mut out);
    out
}

fn check_malformed(records: &[SpanRecord], out: &mut Vec<Diagnostic>) {
    for (i, r) in records.iter().enumerate() {
        if r.end_ns < r.start_ns {
            out.push(Diagnostic::new(
                codes::MALFORMED_EVENT,
                Span::Event(i),
                format!(
                    "{} span {} ends at {} ns, before its start {} ns",
                    r.kind.name(),
                    r.id,
                    r.end_ns,
                    r.start_ns
                ),
            ));
        }
        if r.kind.is_instant() && r.end_ns != r.start_ns {
            out.push(Diagnostic::new(
                codes::MALFORMED_EVENT,
                Span::Event(i),
                format!(
                    "instant-kind {} record {} spans {} ns instead of zero",
                    r.kind.name(),
                    r.id,
                    r.end_ns.saturating_sub(r.start_ns)
                ),
            ));
        }
        if r.parent == r.id && r.id != 0 {
            out.push(Diagnostic::new(
                codes::MALFORMED_EVENT,
                Span::Event(i),
                format!("{} span {} is its own causal parent", r.kind.name(), r.id),
            ));
        }
    }
}

fn check_causal_order(
    records: &[SpanRecord],
    by_id: &HashMap<u64, usize>,
    out: &mut Vec<Diagnostic>,
) {
    for (i, r) in records.iter().enumerate() {
        if r.parent == 0 || r.parent == r.id {
            continue;
        }
        // Parents outside the drained window (earlier requests, ring
        // overwrite) are not checkable; skip rather than guess.
        let Some(&pi) = by_id.get(&r.parent) else {
            continue;
        };
        let parent = &records[pi];
        // Ids are allocated from per-thread blocks: numeric order
        // implies allocation order only within one worker.
        if r.worker == parent.worker && r.id <= parent.id {
            out.push(Diagnostic::new(
                codes::ORDERING_HAZARD,
                Span::Events(pi, i),
                format!(
                    "{} span {} was allocated before its parent {} span {}",
                    r.kind.name(),
                    r.id,
                    parent.kind.name(),
                    parent.id
                ),
            ));
        }
        if r.start_ns < parent.start_ns {
            out.push(Diagnostic::new(
                codes::ORDERING_HAZARD,
                Span::Events(pi, i),
                format!(
                    "{} span {} starts {} ns before its parent {} span {}",
                    r.kind.name(),
                    r.id,
                    parent.start_ns - r.start_ns,
                    parent.kind.name(),
                    parent.id
                ),
            ));
        }
    }
}

/// A queue-wait span measures submit-to-pickup for exactly one task
/// run: the sibling (same parent, same worker) whose id is the next
/// one allocated after the wait was recorded. The wait must end at or
/// before that run starts — a wait that extends into the run means the
/// pickup timestamp and the run's own clock disagree about causality.
fn check_queue_handoff(records: &[SpanRecord], out: &mut Vec<Diagnostic>) {
    for (qi, q) in records.iter().enumerate() {
        if q.kind != SpanKind::QueueWait {
            continue;
        }
        let run = records
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.kind == SpanKind::TaskRun
                    && r.parent == q.parent
                    && r.worker == q.worker
                    && r.id > q.id
            })
            .min_by_key(|(_, r)| r.id);
        let Some((ri, r)) = run else {
            continue;
        };
        if q.end_ns > r.start_ns {
            out.push(Diagnostic::new(
                codes::ORDERING_HAZARD,
                Span::Events(qi, ri),
                format!(
                    "queue wait {} ends {} ns after task run {} starts",
                    q.id,
                    q.end_ns - r.start_ns,
                    r.id
                ),
            ));
        }
    }
}

/// Per-worker laminar check: sort that worker's execution spans by
/// (start ascending, end descending) and sweep with a nesting stack.
/// Every span must be disjoint from, or fully contained in, the
/// enclosing open span. A partial crossing is an `EC020`.
fn check_worker_occupancy(records: &[SpanRecord], out: &mut Vec<Diagnostic>) {
    let mut per_worker: HashMap<u16, Vec<usize>> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        if occupies_worker(r.kind) && r.end_ns >= r.start_ns {
            per_worker.entry(r.worker).or_default().push(i);
        }
    }
    for (worker, mut idxs) in per_worker {
        idxs.sort_by(|&a, &b| {
            let (ra, rb) = (&records[a], &records[b]);
            ra.start_ns
                .cmp(&rb.start_ns)
                .then(rb.end_ns.cmp(&ra.end_ns))
        });
        let mut stack: Vec<usize> = Vec::new();
        for &i in &idxs {
            let r = &records[i];
            // Close every enclosing span that ended before this one
            // starts (half-open intervals: touching ends are disjoint).
            while let Some(&top) = stack.last() {
                if records[top].end_ns <= r.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                let t = &records[top];
                if t.end_ns < r.end_ns {
                    out.push(Diagnostic::new(
                        codes::KERNEL_OVERLAP,
                        Span::Events(top, i),
                        format!(
                            "worker {} spans cross: {} {} [{}, {}) vs {} {} [{}, {})",
                            worker,
                            t.kind.name(),
                            t.id,
                            t.start_ns,
                            t.end_ns,
                            r.kind.name(),
                            r.id,
                            r.start_ns,
                            r.end_ns
                        ),
                    ));
                }
            }
            stack.push(i);
        }
    }
    // HashMap iteration order is arbitrary; keep the report stable.
    out.sort_by_key(|d| match d.span {
        Span::Events(a, b) => (a, b),
        Span::Event(e) => (e, e),
        _ => (usize::MAX, usize::MAX),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgenn_core::plan::ExecutionConfig;
    use edgenn_core::prelude::*;
    use edgenn_obs::flight;
    use edgenn_sim::platforms::jetson_agx_xavier;
    use edgenn_tensor::Tensor;

    fn rec(
        id: u64,
        parent: u64,
        kind: SpanKind,
        worker: u16,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind,
            node: 7,
            worker,
            start_ns,
            end_ns,
            arg: 0,
        }
    }

    #[test]
    fn clean_nested_trace_passes() {
        let records = vec![
            rec(1, 0, SpanKind::Request, 0, 0, 100),
            rec(2, 1, SpanKind::Node, 0, 10, 90),
            rec(5, 2, SpanKind::Pack, 0, 20, 40),
            rec(6, 2, SpanKind::Compute, 0, 40, 80),
            rec(3, 2, SpanKind::QueueWait, 1, 12, 30),
            rec(4, 2, SpanKind::TaskRun, 1, 30, 60),
            rec(7, 2, SpanKind::Merge, 0, 80, 88),
            rec(8, 2, SpanKind::ArenaMiss, 0, 21, 21),
        ];
        let diags = check_flight_records(&records);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn malformed_intervals_and_self_parents_flag_ec021() {
        let records = vec![
            rec(1, 0, SpanKind::Node, 0, 50, 40),
            rec(2, 2, SpanKind::Compute, 0, 60, 70),
            rec(3, 0, SpanKind::Retry, 0, 80, 85),
        ];
        let diags = check_flight_records(&records);
        assert_eq!(diags.len(), 3);
        assert!(diags.iter().all(|d| d.code == codes::MALFORMED_EVENT));
        assert!(diags[0].message.contains("before its start"));
        assert!(diags
            .iter()
            .any(|d| d.message.contains("own causal parent")));
        assert!(diags.iter().any(|d| d.message.contains("instant-kind")));
    }

    #[test]
    fn crossing_spans_on_one_worker_flag_ec020() {
        let records = vec![
            rec(1, 0, SpanKind::Node, 3, 10, 50),
            rec(2, 0, SpanKind::Node, 3, 30, 70),
        ];
        let diags = check_flight_records(&records);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::KERNEL_OVERLAP);
        assert_eq!(diags[0].span, Span::Events(0, 1));
        assert!(diags[0].message.contains("worker 3 spans cross"));
    }

    #[test]
    fn helped_task_nested_in_an_unrelated_scope_is_legal() {
        // Help-first join: worker 0's node span contains a task run
        // whose causal parent is elsewhere. Containment is fine;
        // different workers never conflict; touching ends are disjoint.
        let records = vec![
            rec(1, 0, SpanKind::Request, 0, 0, 100),
            rec(2, 1, SpanKind::Node, 0, 10, 90),
            rec(3, 1, SpanKind::TaskRun, 0, 20, 40),
            rec(4, 1, SpanKind::TaskRun, 1, 20, 40),
            rec(5, 1, SpanKind::Node, 0, 90, 95),
        ];
        let diags = check_flight_records(&records);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn child_starting_before_its_parent_flags_ec023() {
        let records = vec![
            rec(5, 0, SpanKind::Node, 0, 50, 90),
            rec(6, 5, SpanKind::Compute, 0, 40, 45),
            rec(3, 5, SpanKind::Merge, 0, 60, 70),
        ];
        let diags = check_flight_records(&records);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == codes::ORDERING_HAZARD));
        assert!(diags.iter().any(|d| d.message.contains("starts")));
        assert!(diags.iter().any(|d| d.message.contains("allocated before")));
    }

    #[test]
    fn queue_wait_extending_past_its_task_run_flags_ec023() {
        let records = vec![
            rec(1, 0, SpanKind::Request, 0, 0, 100),
            rec(2, 1, SpanKind::QueueWait, 1, 5, 45),
            rec(3, 1, SpanKind::TaskRun, 1, 40, 60),
        ];
        let diags = check_flight_records(&records);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, codes::ORDERING_HAZARD);
        assert!(diags[0].message.contains("queue wait"));
    }

    #[test]
    fn unknown_parents_outside_the_window_are_skipped() {
        let records = vec![rec(9, 4, SpanKind::Node, 0, 10, 20)];
        assert!(check_flight_records(&records).is_empty());
    }

    #[test]
    fn recorded_real_run_is_causally_clean() {
        flight::enable();
        let graph = build(ModelKind::SqueezeNet, ModelScale::Tiny);
        let platform = jetson_agx_xavier();
        let runtime = Runtime::new(&platform);
        let tuner = Tuner::new(&graph, &runtime).unwrap();
        let plan = tuner
            .plan(&graph, &runtime, ExecutionConfig::edgenn())
            .unwrap();
        let input = Tensor::random(graph.input_shape().dims(), 1.0, 11);
        let outcome = edgenn_core::runtime::functional::execute(&graph, &plan, &input).unwrap();
        // Other tests' runs record into the same process-wide rings; the
        // run's own window keeps only its causal tree.
        let records = outcome
            .engine
            .profile
            .expect("flight enabled => profile present")
            .records();
        assert!(
            records.iter().any(|r| r.kind == SpanKind::Request),
            "the run records a request root span"
        );
        assert!(
            records.len() > 10,
            "real run produced {} spans",
            records.len()
        );
        let diags = check_flight_records(&records);
        assert!(diags.is_empty(), "measured timeline must verify: {diags:?}");
    }
}
