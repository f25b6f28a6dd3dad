//! The framing layer: the only code in this crate that writes to a socket.
//!
//! A [`Frame`] owns one reusable buffer and the sink behind it. Whoever
//! answers a peer — a command handler, the acceptor's shed refusal, the
//! metrics listener — renders the *whole* reply into the frame through
//! [`io::Write`] and never sees the sink; [`Frame::finish`] then hands the
//! reply to the sink in **one** `write_all`. With `TCP_NODELAY` on, that is
//! one `send` and one segment per reply instead of one per format fragment
//! (`writeln!(sock, "bind {name} = {term}")` alone was five).
//!
//! The buffer is a fixed [`FRAME_BYTES`]: a reply that outgrows it streams
//! out in buffer-sized writes as it is rendered, so a connection never
//! holds more than one buffer of reply however many answers a query has.
//!
//! Every frame is counted in the server's registry —
//! `granlog_reply_frames_total`, `granlog_reply_writes_total`,
//! `granlog_reply_bytes_total` — so "one reply, one write" is a count that
//! repeats exactly (writes == frames while every reply fits the buffer),
//! not only a latency.

use crate::obs::ServeObs;
use std::io::{self, Write};

/// Reply buffer per connection, in bytes. Larger replies stream in writes
/// of exactly this size (the last one shorter).
pub(crate) const FRAME_BYTES: usize = 16 * 1024;

/// One connection's reply buffer in front of its sink.
pub(crate) struct Frame<'o, W: Write> {
    sink: W,
    buf: Vec<u8>,
    /// Part of the reply being rendered has already left (it outgrew the
    /// buffer), so the frame is counted.
    streaming: bool,
    obs: &'o ServeObs,
}

impl<'o, W: Write> Frame<'o, W> {
    pub(crate) fn new(sink: W, obs: &'o ServeObs) -> Self {
        Frame {
            sink,
            buf: Vec::with_capacity(FRAME_BYTES),
            streaming: false,
            obs,
        }
    }

    /// The one place bytes leave for the sink. Counted *before* they leave,
    /// so a peer that has read a reply finds it in the registry. A buffer
    /// whose write failed is dropped, never retried: part of it may have
    /// left already.
    fn write_out(&mut self) -> io::Result<()> {
        if !std::mem::replace(&mut self.streaming, true) {
            self.obs.reply_frames.inc();
        }
        self.obs.reply_writes.inc();
        self.obs.reply_bytes.add(self.buf.len() as u64);
        let sent = self.sink.write_all(&self.buf);
        self.buf.clear();
        sent
    }

    /// Ends the reply: whatever is buffered leaves in one write. A command
    /// that rendered nothing (a blank line) writes nothing and counts
    /// nothing.
    pub(crate) fn finish(&mut self) -> io::Result<()> {
        let sent = if self.buf.is_empty() {
            Ok(())
        } else {
            self.write_out()
        };
        self.streaming = false;
        sent
    }
}

impl<W: Write> Write for Frame<'_, W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        // A full buffer leaves only once more reply arrives, so a reply of
        // exactly one buffer is still one write.
        if self.buf.len() == FRAME_BYTES {
            self.write_out()?;
        }
        let take = data.len().min(FRAME_BYTES - self.buf.len());
        self.buf.extend_from_slice(&data[..take]);
        Ok(take)
    }

    /// Rendering never flushes: only [`Frame::finish`] ends a reply.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
