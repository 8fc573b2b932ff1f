//! Line framing with a hard length cap, shared by every path that reads the
//! wire: the threaded connection loop, the event-loop reactor, and the
//! blocking [`crate::Client`].
//!
//! The protocol is newline-delimited, which makes an uncapped reader a
//! memory-DoS: a peer that streams bytes without ever sending `\n` grows
//! the line buffer without bound. Both directions therefore enforce a cap —
//! [`MAX_REQUEST_LINE_BYTES`] on request lines read by the server (an
//! oversized line earns `ERR\tline too long …` and the connection closes)
//! and [`MAX_REPLY_LINE_BYTES`] on reply lines read by the client (much
//! larger, because a legitimate `SELECT` over millions of rows is one long
//! line; overflow is an [`std::io::ErrorKind::InvalidData`] error).
//!
//! Two consumers, two shapes:
//!
//! * [`read_line_capped`] — pull framing over a blocking [`BufRead`]
//!   (threaded server path and client).
//! * [`LineSplitter`] — push framing over an append-only byte buffer fed by
//!   nonblocking reads (event-loop path). Complete lines come out as they
//!   arrive; the unconsumed tail is bounded by the cap.
//!
//! Both strip one trailing `\r`, decode lossily (hostile bytes become
//! `U+FFFD` and earn a parse error downstream instead of killing the
//! connection), and report empty lines so callers can skip them — matching
//! the framing rules in `docs/PROTOCOL.md` byte for byte on both paths.

use std::io::BufRead;

/// Hard cap on one request line read by the server, in bytes (newline
/// excluded). Oversized lines are answered with `ERR\tline too long …` and
/// the connection is closed.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

/// Hard cap on one reply line read by [`crate::Client`]. Generous — id-list
/// replies are legitimately megabytes — but finite, so a misbehaving server
/// cannot grow client memory without bound.
pub const MAX_REPLY_LINE_BYTES: usize = 64 << 20;

/// Outcome of one capped line read.
#[derive(Debug, PartialEq, Eq)]
pub enum LineRead {
    /// A complete line (without its `\n`, one trailing `\r` stripped,
    /// decoded lossily). May be empty — the protocol skips empty lines.
    Line(String),
    /// The peer exceeded the cap without sending a newline.
    TooLong,
    /// Clean end of stream before any byte of a new line.
    Eof,
}

/// Read one `\n`-terminated line from `reader`, enforcing `cap` bytes.
///
/// On [`LineRead::TooLong`] the overlong prefix has been consumed from the
/// reader but the stream is mid-line; the caller is expected to close the
/// connection. EOF in the middle of a non-empty line yields the partial
/// line (matching `BufRead::lines`).
pub fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> std::io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let available = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            if line.is_empty() {
                return Ok(LineRead::Eof);
            }
            return Ok(LineRead::Line(finish_line(line)));
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if line.len() + pos > cap {
                    reader.consume(pos + 1);
                    return Ok(LineRead::TooLong);
                }
                line.extend_from_slice(&available[..pos]);
                reader.consume(pos + 1);
                return Ok(LineRead::Line(finish_line(line)));
            }
            None => {
                let n = available.len();
                if line.len() + n > cap {
                    reader.consume(n);
                    return Ok(LineRead::TooLong);
                }
                line.extend_from_slice(available);
                reader.consume(n);
            }
        }
    }
}

fn finish_line(mut bytes: Vec<u8>) -> String {
    if bytes.last() == Some(&b'\r') {
        bytes.pop();
    }
    match String::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    }
}

/// Incremental push-mode line framing over bytes arriving from nonblocking
/// reads. Feed chunks with [`LineSplitter::extend`], pull complete lines
/// with [`LineSplitter::next_line`]; the buffered partial line never
/// exceeds the cap (overflow reports [`LineRead::TooLong`] once, after
/// which the splitter refuses further input).
#[derive(Debug)]
pub struct LineSplitter {
    buf: Vec<u8>,
    /// Bytes of `buf` already returned as lines (drained lazily).
    consumed: usize,
    cap: usize,
    overflowed: bool,
}

impl LineSplitter {
    /// A splitter enforcing `cap` bytes per line.
    pub fn new(cap: usize) -> Self {
        LineSplitter {
            buf: Vec::new(),
            consumed: 0,
            cap,
            overflowed: false,
        }
    }

    /// Append freshly read bytes.
    pub fn extend(&mut self, chunk: &[u8]) {
        if !self.overflowed {
            self.buf.extend_from_slice(chunk);
        }
    }

    /// Bytes buffered but not yet returned as a complete line.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Consume the buffered tail once the peer has half-closed. A non-empty
    /// partial final line comes back as [`LineRead::Line`] — the blocking
    /// path's `BufRead` framing yields an unterminated final line the same
    /// way — and `None` means nothing was pending.
    pub fn finish_eof(&mut self) -> Option<LineRead> {
        if self.overflowed {
            return None;
        }
        let tail = &self.buf[self.consumed..];
        if tail.is_empty() {
            return None;
        }
        if tail.len() > self.cap {
            self.overflowed = true;
            return Some(LineRead::TooLong);
        }
        let line = tail.to_vec();
        self.consumed = self.buf.len();
        Some(LineRead::Line(finish_line(line)))
    }

    /// The next complete line, if one is buffered. `None` means more bytes
    /// are needed; [`LineRead::Eof`] is never produced (the caller owns the
    /// socket and sees EOF itself).
    pub fn next_line(&mut self) -> Option<LineRead> {
        if self.overflowed {
            return None;
        }
        let tail = &self.buf[self.consumed..];
        match tail.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if pos > self.cap {
                    self.overflowed = true;
                    return Some(LineRead::TooLong);
                }
                let line = tail[..pos].to_vec();
                self.consumed += pos + 1;
                // Reclaim the consumed prefix once it dominates the buffer.
                if self.consumed > 4096 && self.consumed * 2 >= self.buf.len() {
                    self.buf.drain(..self.consumed);
                    self.consumed = 0;
                }
                Some(LineRead::Line(finish_line(line)))
            }
            None => {
                if tail.len() > self.cap {
                    self.overflowed = true;
                    return Some(LineRead::TooLong);
                }
                None
            }
        }
    }
}

/// The typed reply sent before closing a connection whose request line
/// exceeded the cap.
pub fn line_too_long_reply(cap: usize) -> String {
    format!("ERR\tline too long (the request line cap is {cap} bytes)")
}

/// The typed reply sent before evicting a connection idle longer than the
/// configured timeout.
pub fn idle_timeout_reply(ms: u64) -> String {
    format!("ERR\tidle timeout ({ms} ms with no request)")
}

/// The typed reply for a request rejected by admission control (the global
/// dispatch queue is full).
pub const BUSY_REPLY: &str = "ERR\tbusy (server request queue is full, retry later)";

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn capped_reader_splits_and_strips_like_buf_read_lines() {
        let data = b"PING\r\nINFO\n\npartial";
        let mut r = BufReader::new(&data[..]);
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("PING".into())
        );
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("INFO".into())
        );
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line(String::new())
        );
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("partial".into()),
            "EOF mid-line yields the partial line"
        );
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::Eof);
    }

    #[test]
    fn capped_reader_rejects_overlong_lines() {
        let long = [b'a'; 100];
        let mut r = BufReader::new(&long[..]);
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::TooLong);
        // Exactly at the cap (newline excluded) is accepted.
        let mut exact = vec![b'b'; 64];
        exact.push(b'\n');
        let mut r = BufReader::new(&exact[..]);
        assert!(matches!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line(s) if s.len() == 64
        ));
        // One byte over, newline present: still rejected.
        let mut over = vec![b'c'; 65];
        over.push(b'\n');
        let mut r = BufReader::new(&over[..]);
        assert_eq!(read_line_capped(&mut r, 64).unwrap(), LineRead::TooLong);
    }

    #[test]
    fn capped_reader_survives_hostile_bytes() {
        let data = b"\xff\xfe garbage \x00\nPING\n";
        let mut r = BufReader::new(&data[..]);
        let LineRead::Line(garbled) = read_line_capped(&mut r, 64).unwrap() else {
            panic!("lossy decode expected");
        };
        assert!(garbled.contains('\u{FFFD}'));
        assert_eq!(
            read_line_capped(&mut r, 64).unwrap(),
            LineRead::Line("PING".into())
        );
    }

    #[test]
    fn splitter_frames_incrementally_across_chunk_boundaries() {
        let mut s = LineSplitter::new(64);
        s.extend(b"PI");
        assert_eq!(s.next_line(), None);
        s.extend(b"NG\r\nIN");
        assert_eq!(s.next_line(), Some(LineRead::Line("PING".into())));
        assert_eq!(s.next_line(), None);
        s.extend(b"FO\n\nQUIT\n");
        assert_eq!(s.next_line(), Some(LineRead::Line("INFO".into())));
        assert_eq!(s.next_line(), Some(LineRead::Line(String::new())));
        assert_eq!(s.next_line(), Some(LineRead::Line("QUIT".into())));
        assert_eq!(s.next_line(), None);
        assert_eq!(s.pending_bytes(), 0);
    }

    #[test]
    fn splitter_yields_partial_final_line_on_eof() {
        let mut s = LineSplitter::new(64);
        s.extend(b"PING\npartial");
        assert_eq!(s.next_line(), Some(LineRead::Line("PING".into())));
        assert_eq!(s.next_line(), None);
        assert_eq!(s.finish_eof(), Some(LineRead::Line("partial".into())));
        assert_eq!(s.finish_eof(), None, "tail consumed");
        let mut empty = LineSplitter::new(64);
        assert_eq!(empty.finish_eof(), None);
    }

    #[test]
    fn splitter_overflow_is_sticky() {
        let mut s = LineSplitter::new(8);
        s.extend(&[b'x'; 9]);
        assert_eq!(s.next_line(), Some(LineRead::TooLong));
        // Further input is discarded; the splitter stays closed.
        s.extend(b"\nPING\n");
        assert_eq!(s.next_line(), None);
    }

    #[test]
    fn splitter_compacts_its_consumed_prefix() {
        let mut s = LineSplitter::new(1024);
        for _ in 0..100 {
            s.extend(&[b'y'; 100]);
            s.extend(b"\n");
            assert!(matches!(s.next_line(), Some(LineRead::Line(_))));
        }
        assert!(
            s.buf.len() < 10_000,
            "buffer should compact, holds {} bytes",
            s.buf.len()
        );
    }
}
