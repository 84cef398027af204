//! Trace sinks: where JSONL records stream while a campaign runs.

use std::io::Write;
use std::sync::{Arc, Mutex};

/// Receives complete JSONL records (no trailing newline).
///
/// The collector holds the sink behind a lock and calls
/// [`TraceSink::enabled`] first, so a disabled sink costs one branch
/// and no formatting.
pub trait TraceSink: Send {
    /// Whether records should be formatted and delivered at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Delivers one record.
    fn write_line(&mut self, line: &str);
}

/// Discards everything; the default sink.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn write_line(&mut self, _line: &str) {}
}

/// A sink over a shared writer, for fanning several collectors (one
/// per pool task) into one trace file. Each record is written under
/// the lock, so lines from concurrent campaigns interleave but never
/// tear; the per-record `task` field keeps them attributable. The
/// writer's owner flushes it once the campaigns are done.
pub struct SharedSink<W: Write + Send + ?Sized> {
    out: Arc<Mutex<W>>,
}

impl<W: Write + Send + ?Sized> SharedSink<W> {
    /// Wraps a shared writer.
    pub fn new(out: Arc<Mutex<W>>) -> SharedSink<W> {
        SharedSink { out }
    }
}

impl<W: Write + Send + ?Sized> TraceSink for SharedSink<W> {
    fn write_line(&mut self, line: &str) {
        if let Ok(mut w) = self.out.lock() {
            let _ = writeln!(w, "{line}");
        }
    }
}

/// Collects records into a shared in-memory vector (tests).
#[derive(Debug, Default, Clone)]
pub struct BufferSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> BufferSink {
        BufferSink::default()
    }

    /// A handle reading the same buffer this sink appends to.
    pub fn handle(&self) -> BufferSink {
        self.clone()
    }

    /// Copies the captured lines out.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().map(|l| l.clone()).unwrap_or_default()
    }
}

impl TraceSink for BufferSink {
    fn write_line(&mut self, line: &str) {
        if let Ok(mut l) = self.lines.lock() {
            l.push(line.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_sink_captures_lines() {
        let sink = BufferSink::new();
        let handle = sink.handle();
        let mut boxed: Box<dyn TraceSink> = Box::new(sink);
        boxed.write_line("{\"a\":1}");
        boxed.write_line("{\"b\":2}");
        assert_eq!(handle.lines(), vec!["{\"a\":1}", "{\"b\":2}"]);
    }

    #[test]
    fn null_sink_reports_disabled() {
        assert!(!NullSink.enabled());
        assert!(BufferSink::new().enabled());
    }

    #[test]
    fn shared_sink_appends_newlines() {
        let buf = Arc::new(Mutex::new(Vec::<u8>::new()));
        let mut sink = SharedSink::new(Arc::clone(&buf));
        sink.write_line("x");
        sink.write_line("y");
        assert_eq!(&*buf.lock().unwrap(), b"x\ny\n");
    }
}
