//! The traced run: one thread drives a pass's chunk sequence through the
//! program's public per-layer calls, recording a span around each call.
//!
//! Spans are kept in memory and written out when the run ends. A layer's
//! self time is its spans' duration minus what their child spans cover.
//! Tracing inside the program is out of scope: every span here wraps a
//! public call made from the benchmark's own code.

use crate::procfs;
use crate::workload::{Engine, Input};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;
use vprofile::{EdgeSetExtractor, ScratchArena};
use vprofile_ids::StreamFramer;

/// A span with no parent, or not tied to one frame.
const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the parent span, or `u32::MAX`.
    pub parent: u32,
    /// Index of the frame within the pass, or `u32::MAX`.
    pub frame: u32,
}

/// An in-memory span log.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty log with room for `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: u32, frame: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per layer name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<i128> = self
            .spans
            .iter()
            .map(|s| i128::from(s.end_ns - s.start_ns))
            .collect();
        for span in &self.spans {
            if let Some(parent) = own.get_mut(span.parent as usize) {
                *parent -= i128::from(span.end_ns - span.start_ns);
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            *by_name.entry(span.name).or_insert(0u64) += u64::try_from(own).unwrap_or(0);
        }
        by_name
    }

    /// Writes the spans as tab-separated `name start end parent frame`
    /// lines, with `-` for an absent parent or frame.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tframe")?;
        let opt = |v: u32| {
            if v == NONE {
                "-".to_string()
            } else {
                v.to_string()
            }
        };
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.frame)
            )?;
        }
        out.flush()
    }
}

/// What a single-threaded pass measured.
pub struct StPass {
    /// Frames processed.
    pub frames: u64,
    /// Wall time over the pass's calls, in seconds.
    pub wall_s: f64,
    /// The driving thread's CPU, in seconds.
    pub cpu_s: f64,
    /// SAs the engine holds in quarantine at the end of the pass.
    pub quarantined: usize,
}

/// How a single-threaded pass drives the program.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The plain job: framing plus the engine's `process_window`.
    Plain,
    /// Every layer call the traced run makes, without recording spans.
    Layered,
    /// [`Mode::Layered`] with spans recorded.
    Traced,
}

/// Drives one pass's chunk sequence through a fresh copy of `engine` on
/// this thread. Chunks are borrowed from the replay; only the few that
/// wrap around its end are copied.
pub fn st_pass(input: &Input, engine: &Engine, mode: Mode, recorder: &mut Recorder) -> StPass {
    let config = input.config();
    let mut framer = StreamFramer::new(config.bit_width_samples, config.bit_threshold);
    let extractor = EdgeSetExtractor::new(config);
    let mut scratch = ScratchArena::new();
    let mut engine = engine.clone();
    let mut windows = Vec::new();
    let mut frames = 0u32;
    let traced = mode == Mode::Traced;
    let layered = mode != Mode::Plain;
    // Untraced modes pay a branch per call site and nothing else.
    let open = |rec: &mut Recorder, name, parent, frame| {
        if traced {
            rec.open(name, parent, frame)
        } else {
            NONE
        }
    };
    let cpu_before = procfs::thread_cpu().ok();
    let started = Instant::now();
    for index in 0..input.chunk_count() {
        let chunk = input.chunk_view(index);
        let chunk_span = open(recorder, "chunk", NONE, NONE);
        let framer_span = open(recorder, "framer", chunk_span, NONE);
        framer.push_into(&chunk, &mut windows);
        recorder.close(framer_span);
        for (pos, window) in windows.drain(..) {
            let frame_span = open(recorder, "frame", chunk_span, frames);
            if layered {
                let span = open(recorder, "peek", frame_span, frames);
                let _ = std::hint::black_box(extractor.peek_sa(&window));
                recorder.close(span);
            }
            match &mut engine {
                Engine::Single(engine) => {
                    if layered {
                        let span = open(recorder, "extract", frame_span, frames);
                        let _ = std::hint::black_box(extractor.extract_into(&window, &mut scratch));
                        recorder.close(span);
                    }
                    let span = open(recorder, "engine", frame_span, frames);
                    std::hint::black_box(engine.process_window(pos, &window));
                    recorder.close(span);
                }
                Engine::Fused(engine) if layered => {
                    let span = open(recorder, "extract", frame_span, frames);
                    let extracted = extractor.extract_into(&window, &mut scratch);
                    recorder.close(span);
                    if let Ok(sa) = extracted {
                        let span = open(recorder, "fusion", frame_span, frames);
                        std::hint::black_box(engine.classify_extracted(sa, &scratch.edge_set));
                        recorder.close(span);
                    }
                }
                Engine::Fused(engine) => {
                    std::hint::black_box(engine.process_window(pos, &window));
                }
            }
            recorder.close(frame_span);
            frames += 1;
        }
        recorder.close(chunk_span);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = match (cpu_before, procfs::thread_cpu().ok()) {
        (Some(before), Some(after)) => after.since(before).seconds(),
        _ => 0.0,
    };
    let quarantined = match &engine {
        Engine::Single(engine) => engine.quarantined().len(),
        Engine::Fused(engine) => engine.quarantined().len(),
    };
    StPass {
        frames: u64::from(frames),
        wall_s,
        cpu_s,
        quarantined,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::with_capacity(4);
        rec.spans.push(Span {
            name: "chunk",
            start_ns: 0,
            end_ns: 100,
            parent: NONE,
            frame: NONE,
        });
        rec.spans.push(Span {
            name: "framer",
            start_ns: 5,
            end_ns: 35,
            parent: 0,
            frame: NONE,
        });
        rec.spans.push(Span {
            name: "frame",
            start_ns: 40,
            end_ns: 90,
            parent: 0,
            frame: 0,
        });
        rec.spans.push(Span {
            name: "extract",
            start_ns: 45,
            end_ns: 85,
            parent: 2,
            frame: 0,
        });
        let own = rec.self_ns();
        assert_eq!(own["chunk"], 20);
        assert_eq!(own["framer"], 30);
        assert_eq!(own["frame"], 10);
        assert_eq!(own["extract"], 40);
    }
}
