//! The one durable, checksummed file format every on-disk artifact uses
//! (cache entries, search checkpoints, serve result files).
//!
//! A file is its body followed by one footer line holding the body's
//! CRC32 in hex:
//!
//! ```text
//! <body bytes>
//! <crc32 of body, 8 hex digits>
//! ```
//!
//! [`write_checksummed`] replaces the target atomically — write a sibling
//! temp file, fsync it, rename it over the target, then fsync the parent
//! directory (best effort) so the rename itself survives a crash. A
//! reader therefore sees either the previous complete file or the new
//! one, never a torn mix, and [`parse_checksummed`] rejects a truncated
//! or bit-flipped file instead of handing back garbage.

use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

// ---- CRC32 (IEEE 802.3, reflected) -----------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of a byte slice — the footer checksum of every durable
/// file, and of each line of the serve daemon's append-only journal.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---- write -----------------------------------------------------------------

/// A failed [`write_checksummed`]: the file the failing step touched (the
/// temp file, or the target for the rename) and the OS error.
#[derive(Debug)]
pub struct WriteError {
    /// Path the failing operation targeted.
    pub path: PathBuf,
    /// The OS error.
    pub source: std::io::Error,
}

/// Tags an OS error with the path it happened at.
fn at(path: &Path) -> impl FnOnce(std::io::Error) -> WriteError + '_ {
    move |source| WriteError {
        path: path.to_path_buf(),
        source,
    }
}

/// Atomically replaces `path` with `body` plus its CRC32 footer line:
/// writes `<path>.tmp<pid>`, fsyncs it, renames it over `path`, then
/// fsyncs the parent directory (best effort — directory fsync is
/// advisory on some platforms). Returns the byte length of the committed
/// file.
///
/// # Errors
///
/// On any filesystem failure before the rename completes; the target is
/// then untouched, so a previous version (if any) is still intact.
pub fn write_checksummed(path: &Path, body: &[u8]) -> Result<u64, WriteError> {
    let mut content = Vec::with_capacity(body.len() + 10);
    content.extend_from_slice(body);
    content.extend_from_slice(format!("\n{:08x}\n", crc32(body)).as_bytes());

    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    {
        let mut file = fs::File::create(&tmp).map_err(at(&tmp))?;
        file.write_all(&content).map_err(at(&tmp))?;
        file.sync_all().map_err(at(&tmp))?;
    }
    fs::rename(&tmp, path).map_err(at(path))?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(content.len() as u64)
}

// ---- parse -----------------------------------------------------------------

/// Why a file's checksum footer did not verify.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FooterError {
    /// The file does not end in a newline: the write was cut short.
    MissingNewline,
    /// There is no footer line before the final newline.
    MissingFooter,
    /// The footer line is not a hex CRC32 (the offending text).
    Unparseable(String),
    /// The body's CRC32 disagrees with the footer.
    Mismatch {
        /// CRC32 of the body as read.
        body: u32,
        /// CRC32 the footer records.
        footer: u32,
    },
}

impl fmt::Display for FooterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FooterError::MissingNewline => write!(f, "missing trailing newline (truncated write)"),
            FooterError::MissingFooter => write!(f, "missing checksum footer"),
            FooterError::Unparseable(footer) => {
                write!(f, "unparseable checksum footer {footer:?}")
            }
            FooterError::Mismatch { body, footer } => {
                write!(
                    f,
                    "checksum mismatch: body {body:08x} != footer {footer:08x}"
                )
            }
        }
    }
}

impl std::error::Error for FooterError {}

/// Splits the CRC32 footer off a file written by [`write_checksummed`]
/// and verifies it, returning the body.
///
/// # Errors
///
/// [`FooterError`] if the footer is missing, malformed, or disagrees
/// with the body.
pub fn parse_checksummed(bytes: &[u8]) -> Result<&[u8], FooterError> {
    let stripped = bytes
        .strip_suffix(b"\n")
        .ok_or(FooterError::MissingNewline)?;
    let footer_at = stripped
        .iter()
        .rposition(|&b| b == b'\n')
        .ok_or(FooterError::MissingFooter)?;
    let (body, footer) = (&stripped[..footer_at], &stripped[footer_at + 1..]);
    let footer = String::from_utf8_lossy(footer);
    let expected = u32::from_str_radix(footer.trim(), 16)
        .map_err(|_| FooterError::Unparseable(footer.into_owned()))?;
    let actual = crc32(body);
    if actual != expected {
        return Err(FooterError::Mismatch {
            body: actual,
            footer: expected,
        });
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn write_then_parse_roundtrips_and_footer_is_exact() {
        let path =
            std::env::temp_dir().join(format!("elivagar-durable-{}.bin", std::process::id()));
        let len = write_checksummed(&path, b"hello\nworld").unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(len, bytes.len() as u64);
        assert_eq!(
            bytes,
            format!("hello\nworld\n{:08x}\n", crc32(b"hello\nworld")).as_bytes()
        );
        assert_eq!(parse_checksummed(&bytes).unwrap(), b"hello\nworld");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_footer_failure_is_typed() {
        let good = format!("body\n{:08x}\n", crc32(b"body"));
        assert_eq!(
            parse_checksummed(&good.as_bytes()[..good.len() - 1]),
            Err(FooterError::MissingNewline)
        );
        assert_eq!(
            parse_checksummed(b"body\n"),
            Err(FooterError::MissingFooter)
        );
        assert_eq!(
            parse_checksummed(b"body\nzz\n"),
            Err(FooterError::Unparseable("zz".into()))
        );
        let flipped = good.replacen("body", "bodz", 1);
        assert!(matches!(
            parse_checksummed(flipped.as_bytes()),
            Err(FooterError::Mismatch { .. })
        ));
    }
}
