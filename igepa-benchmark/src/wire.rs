//! The client's wire layer: request envelopes out through `write_frame`,
//! response frames in through a reassembler that survives frames split
//! across socket reads, decoded with `decode_response_envelope`.

use igepa_engine::transport::{read_frame, write_frame};
use igepa_engine::{
    decode_response_envelope, encode_request_envelope, EngineError, EngineRequest, EngineResponse,
    Framing, RequestEnvelope, PROTOCOL_VERSION,
};
use std::io::{self, Read};
use std::net::TcpStream;
use std::time::Duration;

/// How long any single read may block before the run counts the
/// outstanding requests as lost. Far above any latency a healthy server
/// shows; it only bounds a hung run.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Reassembles line frames from arbitrary socket reads. `read_frame` on a
/// timed-out socket would drop a partly read line, so the bytes are
/// buffered here and only complete lines are handed to `read_frame`.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    pending: Vec<u8>,
}

impl FrameAssembler {
    /// Appends freshly read bytes and returns every frame they complete.
    pub fn push(&mut self, bytes: &[u8]) -> io::Result<Vec<String>> {
        self.pending.extend_from_slice(bytes);
        let Some(last_newline) = self.pending.iter().rposition(|&b| b == b'\n') else {
            return Ok(Vec::new());
        };
        let rest = self.pending.split_off(last_newline + 1);
        let complete = std::mem::replace(&mut self.pending, rest);
        let mut cursor = complete.as_slice();
        let mut frames = Vec::new();
        while let Some(frame) = read_frame(&mut cursor, Framing::Lines)? {
            frames.push(frame);
        }
        Ok(frames)
    }

    /// Reads once from `stream` and returns the frames completed. Fails
    /// with `UnexpectedEof` when the peer closed the stream.
    pub fn read_from(&mut self, stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<Vec<String>> {
        let n = stream.read(buf)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.push(&buf[..n])
    }
}

/// The correlation id of a response frame, read from the `{"id":N,`
/// prefix the server writes, without decoding the body. `None` if the
/// frame does not start that way.
pub fn frame_id(frame: &str) -> Option<u64> {
    let digits = frame.strip_prefix("{\"id\":")?;
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// Encodes one request under correlation id `id`.
pub fn encode(id: u64, body: &EngineRequest) -> String {
    encode_request_envelope(&RequestEnvelope::new(id, PROTOCOL_VERSION, body.clone()))
}

/// Sends one encoded request frame.
pub fn send(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    write_frame(stream, Framing::Lines, line)
}

/// Decodes a response frame into its id and typed result.
pub fn decode(frame: &str) -> Result<(u64, Result<EngineResponse, EngineError>), String> {
    decode_response_envelope(frame)
        .map(|envelope| (envelope.id, envelope.result))
        .map_err(|e| e.to_string())
}

/// One client connection: a socket, its frame reassembler and the next
/// correlation id. Open-loop phases split it into a sending and a
/// receiving thread; the closing queries use it synchronously.
pub struct Conn {
    /// The socket.
    pub stream: TcpStream,
    /// Bytes of a frame not yet complete.
    pub frames: FrameAssembler,
    /// Next correlation id to send.
    pub next_id: u64,
}

impl Conn {
    /// Connects with Nagle off and the safety read timeout set; the first
    /// request will carry correlation id `first_id`.
    pub fn connect(addr: &str, first_id: u64) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            frames: FrameAssembler::default(),
            next_id: first_id,
        })
    }

    /// Sends one request and waits for its response.
    pub fn call(&mut self, body: &EngineRequest) -> Result<EngineResponse, String> {
        let id = self.next_id;
        self.next_id += 1;
        send(&mut self.stream, &encode(id, body)).map_err(|e| format!("send: {e}"))?;
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            let frames = self
                .frames
                .read_from(&mut self.stream, &mut buf)
                .map_err(|e| format!("receive: {e}"))?;
            // Synchronous: at most this one response is outstanding.
            if let Some(frame) = frames.first() {
                let (got, result) = decode(frame)?;
                if got != id || frames.len() > 1 {
                    return Err(format!("expected one response for id {id}, got id {got}"));
                }
                return result.map_err(|e| format!("server error: {e}"));
            }
        }
    }

    /// Shorthand for a query.
    pub fn query(&mut self, query: igepa_engine::EngineQuery) -> Result<EngineResponse, String> {
        self.call(&EngineRequest::Query { query })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_frame_split_across_reads_is_reassembled() {
        let mut frames = FrameAssembler::default();
        assert!(frames.push(b"{\"id\":1,\"res").unwrap().is_empty());
        assert!(frames.push(b"ult\":{}").unwrap().is_empty());
        let done = frames.push(b"}\n{\"id\":2,").unwrap();
        assert_eq!(done, vec!["{\"id\":1,\"result\":{}}".to_string()]);
        let done = frames.push(b"\"result\":{}}\n\n").unwrap();
        assert_eq!(done, vec!["{\"id\":2,\"result\":{}}".to_string()]);
        assert!(frames.pending.is_empty());
    }

    #[test]
    fn frame_ids_come_from_the_prefix() {
        assert_eq!(
            frame_id("{\"id\":417,\"result\":{\"Ok\":\"x\"}}"),
            Some(417)
        );
        assert_eq!(frame_id("{\"result\":{},\"id\":3}"), None);
    }
}
