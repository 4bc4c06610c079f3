//! Trace import/export.
//!
//! The paper drives everything from recorded head-movement logs
//! (Corbillon et al.'s dataset stores one quaternion sample per line).
//! This module reads and writes traces in two plain-text formats so the
//! real dataset — or any other recording — can be dropped into this
//! reproduction in place of the synthetic behaviour model:
//!
//! * **Euler CSV**: `t,yaw_deg,pitch_deg,roll_deg`
//! * **Quaternion CSV**: `t,qw,qx,qy,qz` (the dataset's convention)
//!
//! The reader auto-detects the format from the column count. Lines
//! starting with `#` and blank lines are skipped. Windows line endings
//! (CRLF) and a UTF-8 byte-order mark on the first line — both common in
//! spreadsheet-exported recordings — are accepted transparently.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use evr_math::{EulerAngles, Quat, Radians};

use crate::sample::{HeadTrace, PoseSample};

/// On-disk trace formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// `t,yaw_deg,pitch_deg,roll_deg`.
    EulerDegrees,
    /// `t,qw,qx,qy,qz`.
    Quaternion,
}

/// Errors produced while parsing a trace file.
#[derive(Debug)]
pub struct ReadTraceError {
    /// 1-based line number of the offending line. For a file with no
    /// samples this is where scanning stopped: one past the last line
    /// read, or 1 for a zero-byte file.
    pub line: usize,
    /// What went wrong.
    pub kind: ReadTraceErrorKind,
}

/// The failure modes of [`read_csv`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ReadTraceErrorKind {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line had neither 4 nor 5 columns.
    BadColumnCount(usize),
    /// A field failed to parse as a number.
    BadNumber(String),
    /// A field parsed as NaN or an infinity.
    NonFinite(String),
    /// Timestamps were not strictly increasing.
    NonMonotonicTime,
    /// The file contained no samples.
    Empty,
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ReadTraceErrorKind::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceErrorKind::BadColumnCount(n) => {
                write!(f, "line {}: expected 4 or 5 columns, found {n}", self.line)
            }
            ReadTraceErrorKind::BadNumber(s) => {
                write!(f, "line {}: not a number: {s:?}", self.line)
            }
            ReadTraceErrorKind::NonFinite(s) => {
                write!(f, "line {}: not a finite number: {s:?}", self.line)
            }
            ReadTraceErrorKind::NonMonotonicTime => {
                write!(f, "line {}: timestamps must be strictly increasing", self.line)
            }
            ReadTraceErrorKind::Empty => {
                write!(f, "line {}: trace file contains no samples", self.line)
            }
        }
    }
}

impl Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match &self.kind {
            ReadTraceErrorKind::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Writes a trace as CSV. A `&mut` writer works too (`W: Write` is taken
/// by value per the standard reader/writer convention).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Example
///
/// ```
/// use evr_trace::io::{read_csv, write_csv, TraceFormat};
/// use evr_trace::{HeadTrace, PoseSample};
/// use evr_math::EulerAngles;
///
/// let trace = HeadTrace::from_samples(vec![
///     PoseSample { t: 0.0, pose: EulerAngles::from_degrees(10.0, 0.0, 0.0) },
///     PoseSample { t: 0.5, pose: EulerAngles::from_degrees(12.0, -1.0, 0.0) },
/// ]);
/// let mut buf = Vec::new();
/// write_csv(&trace, &mut buf, TraceFormat::Quaternion)?;
/// let back = read_csv(&buf[..])?;
/// assert_eq!(back.len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_csv<W: Write>(
    trace: &HeadTrace,
    mut writer: W,
    format: TraceFormat,
) -> std::io::Result<()> {
    match format {
        TraceFormat::EulerDegrees => {
            writeln!(writer, "# t,yaw_deg,pitch_deg,roll_deg")?;
            for s in trace.samples() {
                writeln!(
                    writer,
                    "{:.6},{:.6},{:.6},{:.6}",
                    s.t,
                    s.pose.yaw.to_degrees().0,
                    s.pose.pitch.to_degrees().0,
                    s.pose.roll.to_degrees().0
                )?;
            }
        }
        TraceFormat::Quaternion => {
            writeln!(writer, "# t,qw,qx,qy,qz")?;
            for s in trace.samples() {
                let q = Quat::from_euler(s.pose);
                writeln!(writer, "{:.6},{:.8},{:.8},{:.8},{:.8}", s.t, q.w, q.x, q.y, q.z)?;
            }
        }
    }
    Ok(())
}

/// Reads a trace from CSV, auto-detecting the format per line (4 columns
/// = Euler degrees, 5 = quaternion). CRLF line endings and a UTF-8 BOM
/// on the first line are accepted.
///
/// # Errors
///
/// Returns [`ReadTraceError`] with the offending line number for malformed
/// input, a NaN or infinite field, non-monotonic timestamps, or an empty
/// file.
pub fn read_csv<R: Read>(reader: R) -> Result<HeadTrace, ReadTraceError> {
    let reader = BufReader::new(reader);
    let mut samples: Vec<PoseSample> = Vec::new();
    let mut line_no = 0;
    for (idx, line) in reader.lines().enumerate() {
        line_no = idx + 1;
        let line =
            line.map_err(|e| ReadTraceError { line: line_no, kind: ReadTraceErrorKind::Io(e) })?;
        // A UTF-8 byte-order mark (spreadsheet exports) would otherwise
        // glue itself to the first field or hide a leading `#`.
        let line = if idx == 0 { line.trim_start_matches('\u{feff}') } else { line.as_str() };
        // `trim` also strips the `\r` a CRLF file leaves on every line.
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
        let nums: Vec<f64> = fields
            .iter()
            .map(|f| {
                // `parse` accepts "nan" and "inf", which would poison every
                // pose and time comparison downstream.
                let kind = match f.parse::<f64>() {
                    Ok(x) if x.is_finite() => return Ok(x),
                    Ok(_) => ReadTraceErrorKind::NonFinite((*f).to_string()),
                    Err(_) => ReadTraceErrorKind::BadNumber((*f).to_string()),
                };
                Err(ReadTraceError { line: line_no, kind })
            })
            .collect::<Result<_, _>>()?;
        let pose = match nums.len() {
            4 => EulerAngles::from_degrees(nums[1], nums[2], nums[3]),
            5 => Quat::new(nums[1], nums[2], nums[3], nums[4]).normalized().to_euler(),
            n => {
                return Err(ReadTraceError {
                    line: line_no,
                    kind: ReadTraceErrorKind::BadColumnCount(n),
                })
            }
        };
        let t = nums[0];
        if let Some(last) = samples.last() {
            if t <= last.t {
                return Err(ReadTraceError {
                    line: line_no,
                    kind: ReadTraceErrorKind::NonMonotonicTime,
                });
            }
        }
        samples.push(PoseSample {
            t,
            pose: EulerAngles::new(pose.yaw, pose.pitch, Radians(pose.roll.0)).normalized(),
        });
    }
    if samples.is_empty() {
        return Err(ReadTraceError { line: line_no + 1, kind: ReadTraceErrorKind::Empty });
    }
    Ok(HeadTrace::from_samples(samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{generate_user_trace, params_for};
    use evr_video::library::{scene_for, VideoId};

    fn sample_trace() -> HeadTrace {
        let scene = scene_for(VideoId::Rs);
        generate_user_trace(&scene, &params_for(VideoId::Rs), 3, 2.0, 30.0)
    }

    #[test]
    fn euler_roundtrip_preserves_poses() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf, TraceFormat::EulerDegrees).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.samples().iter().zip(back.samples()) {
            assert!((a.t - b.t).abs() < 1e-6);
            assert!(a.pose.view_angle_to(b.pose).to_degrees().0 < 0.001);
        }
    }

    #[test]
    fn quaternion_roundtrip_preserves_poses() {
        let trace = sample_trace();
        let mut buf = Vec::new();
        write_csv(&trace, &mut buf, TraceFormat::Quaternion).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        for (a, b) in trace.samples().iter().zip(back.samples()) {
            assert!(
                a.pose.view_angle_to(b.pose).to_degrees().0 < 0.001,
                "{} vs {}",
                a.pose,
                b.pose
            );
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let data = "# header\n\n0.0,10.0,0.0,0.0\n# mid comment\n1.0,20.0,0.0,0.0\n";
        let trace = read_csv(data.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert!((trace.samples()[1].pose.yaw.to_degrees().0 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_formats_in_one_file_are_accepted() {
        // Line-wise auto-detection: 4-column and 5-column rows can mix.
        let data = "0.0,90.0,0.0,0.0\n1.0,1.0,0.0,0.0,0.0\n";
        let trace = read_csv(data.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        // The quaternion row is the identity rotation.
        assert!(trace.samples()[1].pose.yaw.0.abs() < 1e-9);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = read_csv("0.0,1.0,2.0\n".as_bytes()).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, ReadTraceErrorKind::BadColumnCount(3)));

        let err = read_csv("0.0,a,2.0,3.0\n".as_bytes()).unwrap_err();
        assert!(matches!(err.kind, ReadTraceErrorKind::BadNumber(_)));
        assert!(err.to_string().contains("line 1"));

        let err = read_csv("1.0,0,0,0\n0.5,0,0,0\n".as_bytes()).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ReadTraceErrorKind::NonMonotonicTime));

        let err = read_csv("# only comments\n".as_bytes()).unwrap_err();
        assert!(matches!(err.kind, ReadTraceErrorKind::Empty));
        assert_eq!(err.line, 2, "empty error points one past the last line read");
        assert!(err.to_string().contains("line 2"));

        let err = read_csv("".as_bytes()).unwrap_err();
        assert!(matches!(err.kind, ReadTraceErrorKind::Empty));
        assert_eq!(err.line, 1, "zero-byte file reports line 1");
    }

    #[test]
    fn non_finite_fields_are_rejected_with_their_line() {
        for (data, line) in [
            ("nan,0,0,0\n1.0,0,0,0\n", 1),
            ("0.0,0,0,0\nnan,0,0,0\n2.0,0,0,0\n", 2),
            ("nan,0,0,0\n", 1),
            ("0.0,nan,0,0\n1.0,0,0,0\n", 1),
            ("0.0,0,0,0\ninf,0,0,0\n", 2),
            ("0.0,1,0,-inf,0\n", 1),
        ] {
            let err = read_csv(data.as_bytes()).unwrap_err();
            assert_eq!(err.line, line, "{data:?}");
            assert!(matches!(err.kind, ReadTraceErrorKind::NonFinite(_)), "{data:?}: {err}");
            assert!(err.to_string().contains(&format!("line {line}")), "{err}");
        }
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        let data = "# header\r\n0.0,10.0,0.0,0.0\r\n1.0,20.0,0.0,0.0\r\n";
        let trace = read_csv(data.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        assert!((trace.samples()[1].pose.yaw.to_degrees().0 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn utf8_bom_on_the_first_line_is_stripped() {
        // BOM before a data row: the first field must still parse.
        let data = "\u{feff}0.0,10.0,0.0,0.0\n1.0,20.0,0.0,0.0\n";
        let trace = read_csv(data.as_bytes()).unwrap();
        assert_eq!(trace.len(), 2);
        // BOM before a comment marker: the `#` must still be recognised.
        let data = "\u{feff}# header\r\n0.5,5.0,0.0,0.0\r\n";
        let trace = read_csv(data.as_bytes()).unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn written_files_start_with_a_header_comment() {
        let mut buf = Vec::new();
        write_csv(&sample_trace(), &mut buf, TraceFormat::EulerDegrees).unwrap();
        assert!(String::from_utf8(buf).unwrap().starts_with("# t,yaw_deg"));
    }
}
