//! Coordinator ⇄ worker wire protocol: length-prefixed JSON frames over
//! the worker's stdin/stdout pipes.
//!
//! Each frame is a 4-byte big-endian length followed by exactly that many
//! bytes of UTF-8 JSON. Framing (rather than line-delimited JSON) keeps
//! the channel binary-safe and makes a torn write unambiguous: a reader
//! that hits EOF mid-frame knows the peer died, full stop — there is no
//! "maybe the rest is coming" state, which is exactly the property the
//! coordinator's death detection builds on. A clean EOF *between* frames
//! is the normal shutdown signal.
//!
//! The JSON payloads are the derived-serde forms of [`ToWorker`] and
//! [`FromWorker`]. Every message carries enough identity (worker id,
//! lease id) for the coordinator to discard stale frames from a worker it
//! has already declared dead.

use serde::{json, Deserialize, Serialize};
use std::io::{self, Read, Write};
use tb_machine::journal::StoredOutcome;
use tb_machine::CellKey;

/// Upper bound on a single frame's payload, in bytes. A legitimate frame
/// is a few KiB (one cell outcome); anything near this limit means the
/// stream desynchronized and the length word is garbage.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Everything a worker needs to start serving: sent once, first frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloInfo {
    /// The worker's fleet-unique id; echoed in every frame it sends.
    pub worker: u64,
    /// In-worker transient-failure retry budget per cell.
    pub retries: u32,
    /// In-worker per-attempt deadline, milliseconds; `0` disables.
    pub timeout_ms: u64,
    /// Heartbeat period the coordinator expects, milliseconds. The worker
    /// beats at twice this rate; the coordinator kills a worker silent for
    /// three periods.
    pub heartbeat_ms: u64,
}

/// One cell lease.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Fleet-unique lease id; a `Done` must echo it exactly or the result
    /// is discarded as stale.
    pub lease: u64,
    /// The cell's index in the coordinator's sweep order (echoed back so
    /// the coordinator never has to reverse-map the key).
    pub cell: u64,
    /// The content key identifying the cell's full inputs.
    pub key: CellKey,
}

/// Coordinator → worker frames.
// Like `FromWorker`: the size skew (Assign's key vs the small frames)
// never reaches a collection; frames go out one at a time.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ToWorker {
    /// Handshake; always the first frame.
    Hello {
        /// The handshake payload.
        info: HelloInfo,
    },
    /// Lease one cell to the worker.
    Assign {
        /// The lease.
        work: Assignment,
    },
    /// Drain and exit cleanly (the sweep is complete).
    Shutdown {
        /// Unused; serde-friendly placeholder.
        reason: String,
    },
}

/// Worker → coordinator frames. (No `PartialEq`: [`StoredOutcome`]
/// carries float statistics that deliberately do not implement it.)
// The size skew (Done vs the id-only frames) never reaches a collection:
// frames are decoded, dispatched, and dropped one at a time.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FromWorker {
    /// The worker processed `Hello` and wants its first assignment (also
    /// sent after every `Done` implicitly — a `Done` worker is idle).
    Ready {
        /// The sender's worker id.
        worker: u64,
    },
    /// Liveness beacon from the worker's dedicated heartbeat thread;
    /// flows even while a long cell is simulating.
    Heartbeat {
        /// The sender's worker id.
        worker: u64,
    },
    /// A leased cell finished (successfully or with a typed error).
    Done {
        /// The sender's worker id.
        worker: u64,
        /// The lease being fulfilled.
        lease: u64,
        /// The cell index from the assignment.
        cell: u64,
        /// The cell's outcome, in journal form.
        outcome: StoredOutcome,
    },
}

/// Writes one frame: length word, payload, flush. The flush matters — the
/// payload must reach the pipe before the sender blocks on anything else,
/// or heartbeats would sit in userspace buffers while the coordinator
/// counts down to a kill.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    let len = u32::try_from(bytes.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF at a frame boundary (peer
/// shut down); an EOF *inside* a frame, a length word over
/// [`MAX_FRAME_BYTES`], or invalid UTF-8 are errors (peer died mid-write
/// or the stream desynchronized).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds limit {MAX_FRAME_BYTES}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Serializes and writes one coordinator → worker frame.
pub fn send_to_worker(w: &mut impl Write, msg: &ToWorker) -> io::Result<()> {
    write_frame(w, &json::to_string(msg))
}

/// Serializes and writes one worker → coordinator frame.
pub fn send_from_worker(w: &mut impl Write, msg: &FromWorker) -> io::Result<()> {
    write_frame(w, &json::to_string(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> CellKey {
        CellKey {
            app: "FMM".into(),
            config: "Thrifty".into(),
            nodes: 8,
            seed: 3,
            faults: tb_core::FaultPlan::by_name("storm", 3),
            variant: tb_machine::Variant::default(),
        }
    }

    #[test]
    fn frames_round_trip() {
        let msgs = [
            ToWorker::Hello {
                info: HelloInfo {
                    worker: 7,
                    retries: 2,
                    timeout_ms: 0,
                    heartbeat_ms: 100,
                },
            },
            ToWorker::Assign {
                work: Assignment {
                    lease: 41,
                    cell: 5,
                    key: key(),
                },
            },
            ToWorker::Shutdown {
                reason: "complete".into(),
            },
        ];
        let mut buf = Vec::new();
        for msg in &msgs {
            send_to_worker(&mut buf, msg).unwrap();
        }
        let mut cursor = &buf[..];
        for msg in &msgs {
            let text = read_frame(&mut cursor).unwrap().unwrap();
            let back: ToWorker = json::from_str(&text).unwrap();
            assert_eq!(&back, msg);
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn eof_mid_frame_is_an_error_not_a_clean_close() {
        let mut buf = Vec::new();
        send_from_worker(&mut buf, &FromWorker::Ready { worker: 1 }).unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = &buf[..];
        assert!(read_frame(&mut cursor).is_err(), "torn frame must not read");
    }

    #[test]
    fn oversized_length_word_is_rejected() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"junk");
        assert!(read_frame(&mut &buf[..]).is_err());
    }
}
