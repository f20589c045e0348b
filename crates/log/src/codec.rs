//! Binary segment payloads: one fixed little-endian layout for every
//! [`LogRecord`] kind.
//!
//! Segment frames ([`crate::segment`]) carry one encoded record each. The
//! layout is hand-written and std-only; every integer is a `u64`, every
//! float is its IEEE-754 bit pattern, so a record decodes to exactly the
//! bits it was encoded from (NaN payloads, `-0.0` and subnormals
//! included):
//!
//! | field    | bytes     | encoding                                      |
//! |----------|-----------|-----------------------------------------------|
//! | `tag`    | 1         | `0x01` decision, `0x02` outcome, `0x03` batch |
//! | `u64`    | 8         | little-endian (ids, stamps, counts, lengths)  |
//! | `f64`    | 8         | `f64::to_bits` as a `u64`                     |
//! | `opt<T>` | 1 or 1 + T | `0x00` for `None`; `0x01` then `T` for `Some` |
//! | `vec<T>` | 8 + n × T | `u64` element count `n`, then the elements    |
//! | `str`    | 8 + n     | `u64` byte length `n`, then UTF-8             |
//!
//! ```text
//! payload  := tag body
//! 0x01 decision := request_id timestamp_ns component:str decided
//! 0x02 outcome  := request_id timestamp_ns reward:f64
//! 0x03 batch    := component:str n:u64 (request_id timestamp_ns decided){n}
//! decided  := shared_features:vec<f64> action_features:opt<vec<vec<f64>>>
//!             num_actions:u64 action:u64 propensity:opt<f64> reward:opt<f64>
//! ```
//!
//! Decoding is strict: an unknown tag, an option byte other than 0/1, a
//! length prefix larger than the bytes left (rejected before anything is
//! allocated), invalid UTF-8, a short payload, and trailing bytes are all
//! errors. No frame written by the earlier JSON payload format starts with
//! a valid tag (`{` is `0x7B`), so such a frame is rejected, never
//! misread.

use std::fmt;

use crate::record::{BatchDecision, BatchRecord, LogRecord, OutcomeRecord};

const TAG_DECISION: u8 = 0x01;
const TAG_OUTCOME: u8 = 0x02;
const TAG_BATCH: u8 = 0x03;

/// Fewest bytes one batched decision can occupy: id, stamp, an empty
/// feature vector's length, the two action counts, and three `None`
/// option flags. Bounds a batch's declared count before its decisions are
/// allocated.
const MIN_BATCH_DECISION_LEN: usize = 8 + 8 + 8 + 1 + 8 + 8 + 1 + 1;

/// Why a payload did not decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The leading byte names no record kind.
    UnknownTag(u8),
    /// The payload ended inside a field.
    Truncated,
    /// A length prefix claims more elements than the remaining bytes hold.
    LengthOverrun,
    /// An option flag byte other than 0 or 1.
    BadOption(u8),
    /// A string field is not UTF-8.
    BadUtf8,
    /// A count does not fit this platform's `usize`.
    Overflow,
    /// Bytes remain after the record.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnknownTag(t) => write!(f, "unknown record tag 0x{t:02x}"),
            DecodeError::Truncated => f.write_str("payload truncated"),
            DecodeError::LengthOverrun => f.write_str("length prefix overruns the payload"),
            DecodeError::BadOption(b) => write!(f, "option flag 0x{b:02x} is not 0 or 1"),
            DecodeError::BadUtf8 => f.write_str("string field is not UTF-8"),
            DecodeError::Overflow => f.write_str("count overflows usize"),
            DecodeError::TrailingBytes => f.write_str("trailing bytes after the record"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends the payload encoding of `record` to `out`.
pub fn encode(record: &LogRecord, out: &mut Vec<u8>) {
    match record {
        LogRecord::Decision(d) => {
            out.push(TAG_DECISION);
            put_u64(out, d.request_id);
            put_u64(out, d.timestamp_ns);
            put_str(out, &d.component);
            put_decided(
                out,
                &d.shared_features,
                d.action_features.as_deref(),
                d.num_actions,
                d.action,
                d.propensity,
                d.reward,
            );
        }
        LogRecord::Outcome(o) => {
            out.push(TAG_OUTCOME);
            put_u64(out, o.request_id);
            put_u64(out, o.timestamp_ns);
            put_f64(out, o.reward);
        }
        LogRecord::Batch(b) => {
            out.push(TAG_BATCH);
            put_str(out, &b.component);
            put_u64(out, b.decisions.len() as u64);
            for d in &b.decisions {
                put_u64(out, d.request_id);
                put_u64(out, d.timestamp_ns);
                put_decided(
                    out,
                    &d.shared_features,
                    d.action_features.as_deref(),
                    d.num_actions,
                    d.action,
                    d.propensity,
                    d.reward,
                );
            }
        }
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    put_u64(out, xs.len() as u64);
    out.reserve(xs.len() * 8);
    for &x in xs {
        put_f64(out, x);
    }
}

fn put_opt_f64(out: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_f64(out, x);
        }
    }
}

fn put_decided(
    out: &mut Vec<u8>,
    shared: &[f64],
    per_action: Option<&[Vec<f64>]>,
    num_actions: usize,
    action: usize,
    propensity: Option<f64>,
    reward: Option<f64>,
) {
    put_f64s(out, shared);
    match per_action {
        None => out.push(0),
        Some(rows) => {
            out.push(1);
            put_u64(out, rows.len() as u64);
            for row in rows {
                put_f64s(out, row);
            }
        }
    }
    put_u64(out, num_actions as u64);
    put_u64(out, action as u64);
    put_opt_f64(out, propensity);
    put_opt_f64(out, reward);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decodes one payload, which must hold exactly one record.
pub fn decode(payload: &[u8]) -> Result<LogRecord, DecodeError> {
    let mut r = Reader { rest: payload };
    let record = match r.u8()? {
        TAG_DECISION => {
            let request_id = r.u64()?;
            let timestamp_ns = r.u64()?;
            let component = r.string()?;
            LogRecord::Decision(
                r.decided(request_id, timestamp_ns)?
                    .into_decision(&component),
            )
        }
        TAG_OUTCOME => LogRecord::Outcome(OutcomeRecord {
            request_id: r.u64()?,
            timestamp_ns: r.u64()?,
            reward: r.f64()?,
        }),
        TAG_BATCH => {
            let component = r.string()?;
            let n = r.len(MIN_BATCH_DECISION_LEN)?;
            let mut decisions = Vec::with_capacity(n);
            for _ in 0..n {
                let request_id = r.u64()?;
                let timestamp_ns = r.u64()?;
                decisions.push(r.decided(request_id, timestamp_ns)?);
            }
            LogRecord::Batch(BatchRecord {
                component,
                decisions,
            })
        }
        tag => return Err(DecodeError::UnknownTag(tag)),
    };
    if r.rest.is_empty() {
        Ok(record)
    } else {
        Err(DecodeError::TrailingBytes)
    }
}

/// A cursor over the unread tail of a payload.
struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.rest.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        let bytes = self.take(8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Overflow)
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix whose elements take at least `min_elem` bytes each,
    /// checked against the remaining bytes before the caller allocates.
    fn len(&mut self, min_elem: usize) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        if n > (self.rest.len() / min_elem) as u64 {
            return Err(DecodeError::LengthOverrun);
        }
        Ok(n as usize)
    }

    fn flag(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(DecodeError::BadOption(b)),
        }
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| DecodeError::BadUtf8)
    }

    fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.len(8)?;
        let bytes = self.take(n * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, DecodeError> {
        Ok(if self.flag()? {
            Some(self.f64()?)
        } else {
            None
        })
    }

    fn decided(
        &mut self,
        request_id: u64,
        timestamp_ns: u64,
    ) -> Result<BatchDecision, DecodeError> {
        let shared_features = self.f64s()?;
        let action_features = if self.flag()? {
            let rows = self.len(8)?;
            let mut out = Vec::with_capacity(rows);
            for _ in 0..rows {
                out.push(self.f64s()?);
            }
            Some(out)
        } else {
            None
        };
        Ok(BatchDecision {
            request_id,
            timestamp_ns,
            shared_features,
            action_features,
            num_actions: self.usize()?,
            action: self.usize()?,
            propensity: self.opt_f64()?,
            reward: self.opt_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DecisionRecord;

    fn sample_batch() -> LogRecord {
        LogRecord::Batch(BatchRecord {
            component: "serve".to_string(),
            decisions: (0..3)
                .map(|i| BatchDecision {
                    request_id: i,
                    timestamp_ns: 10 * i,
                    shared_features: vec![i as f64, -0.0],
                    action_features: (i == 1).then(|| vec![vec![], vec![f64::NAN]]),
                    num_actions: 4,
                    action: i as usize,
                    propensity: Some(0.25),
                    reward: None,
                })
                .collect(),
        })
    }

    #[test]
    fn decision_layout_matches_the_table() {
        let d = LogRecord::Decision(DecisionRecord {
            request_id: 7,
            timestamp_ns: 9,
            component: "lb".to_string(),
            shared_features: vec![1.5],
            action_features: None,
            num_actions: 2,
            action: 1,
            propensity: Some(0.5),
            reward: None,
        });
        let mut out = Vec::new();
        encode(&d, &mut out);
        let mut want = vec![TAG_DECISION];
        want.extend_from_slice(&7u64.to_le_bytes());
        want.extend_from_slice(&9u64.to_le_bytes());
        want.extend_from_slice(&2u64.to_le_bytes());
        want.extend_from_slice(b"lb");
        want.extend_from_slice(&1u64.to_le_bytes());
        want.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        want.push(0);
        want.extend_from_slice(&2u64.to_le_bytes());
        want.extend_from_slice(&1u64.to_le_bytes());
        want.push(1);
        want.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        want.push(0);
        assert_eq!(out, want);
        assert_eq!(decode(&out).unwrap(), d);
    }

    #[test]
    fn batch_round_trips_bit_for_bit() {
        let rec = sample_batch();
        let mut out = Vec::new();
        encode(&rec, &mut out);
        let back = decode(&out).unwrap();
        let mut again = Vec::new();
        encode(&back, &mut again);
        // NaN != NaN, so compare the re-encoding rather than the values.
        assert_eq!(again, out);
    }

    #[test]
    fn structural_damage_is_named() {
        let mut out = Vec::new();
        encode(&sample_batch(), &mut out);
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
        assert_eq!(decode(b"{\"kind\":1}"), Err(DecodeError::UnknownTag(b'{')));
        let mut long = out.clone();
        long.push(0);
        assert_eq!(decode(&long), Err(DecodeError::TrailingBytes));
        // Batch count (after tag + "serve") claims far more than is left.
        let mut huge = out.clone();
        huge[1 + 8 + 5..1 + 8 + 5 + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode(&huge), Err(DecodeError::LengthOverrun));
        // First decision's action_features flag: tag, "serve", count, id,
        // stamp, and two shared features precede it.
        let flag_at = 1 + 8 + 5 + 8 + 8 + 8 + 8 + 2 * 8;
        assert_eq!(out[flag_at], 0);
        let mut flag = out.clone();
        flag[flag_at] = 2;
        assert_eq!(decode(&flag), Err(DecodeError::BadOption(2)));
        let mut utf8 = out.clone();
        utf8[1 + 8] = 0xFF;
        assert_eq!(decode(&utf8), Err(DecodeError::BadUtf8));
    }
}
