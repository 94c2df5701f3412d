//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark around calls into the program's
//! public functions; the program itself is not instrumented further.
//! Each span has a name, a start and end on one shared clock, the span
//! that caused it, and a key: the plan index of the request (or the
//! combo, job or bucket) it belongs to. Spans stay in memory until the
//! run ends and are then written out as CSV.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    pub key: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store shared by every thread of the run.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id (for a span whose children close before it does).
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under a reserved `id`.
    pub fn record_as(
        &self,
        id: u64,
        parent: u64,
        key: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.lock().expect("span store poisoned").push(Span {
            id,
            parent,
            key,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Records a closed span; returns its id.
    pub fn record(
        &self,
        parent: u64,
        key: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, parent, key, name, start_ns, end_ns);
        id
    }

    /// Times `f` as a span and returns its result.
    pub fn time<R>(&self, parent: u64, key: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = self.now_ns();
        let out = f();
        self.record(parent, key, name, start, self.now_ns());
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Self time of every span named `name`: its duration minus the part of
/// its interval its child spans cover (overlapping children counted
/// once).
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cursor) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.dur_ns() - covered) as f64
        })
        .collect()
}

/// Writes `spans` as CSV (`id,parent,key,name,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,key,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.key, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            key: 0,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, 0, "root", 0, 100),
            span(2, 1, "a", 10, 40),
            span(3, 1, "b", 30, 50),
            span(4, 1, "c", 90, 120),
        ];
        // Children cover [10, 50) and [90, 100): 50 of 100 ns.
        assert_eq!(self_times(&spans, "root"), vec![50.0]);
        assert_eq!(self_times(&spans, "a"), vec![30.0]);
    }
}
