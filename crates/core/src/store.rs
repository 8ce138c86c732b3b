//! Crash-safe artifact persistence: one digest-guarded envelope for
//! every on-disk artifact, and atomic file replacement.
//!
//! Lifetime checkpoints, fleet shards, flight records and campaign
//! checkpoints are all sealed envelopes:
//!
//! ```text
//! {"format":"<tag>-v2","body":<body>,"digest":"<FNV-1a of the body bytes>"}
//! ```
//!
//! The format tag carries the version. Opening one checks the tag, hashes
//! the exact body bytes and compares them with the digest, and only then
//! parses the body, once. Any single-byte change to an envelope (a bit
//! flip, an edited number) therefore fails before a field validator sees
//! it, and a truncated one fails on its missing tail. Identity checks
//! inside bodies (config, golden-network and pattern digests) are the
//! artifact owner's business, not the envelope's.
//!
//! Every writer routes through [`write_atomic`]: the payload is written
//! to a sibling temp file, fsynced, and renamed over the destination, so
//! a kill at any instant leaves either the old complete file or the new
//! complete file — never a torn half-write. Artifacts saved and loaded
//! by path report any failure as
//! [`HealthmonError::CheckpointCorrupt`] carrying the offending path.

use crate::error::HealthmonError;
use healthmon_serdes::{parse, Json, JsonError};
use std::fs::{self, File};
use std::io::Write;
use std::path::Path;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a hash state.
pub(crate) fn fnv1a(mut hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Everything an envelope of `format` renders before its body.
fn head(format: &str) -> String {
    format!("{{\"format\":\"{format}\",\"body\":")
}

const DIGEST_FIELD: &str = ",\"digest\":\"";

/// Renders `body` as an envelope of `format`, digest over the rendered
/// body bytes.
pub(crate) fn seal(format: &str, body: Json) -> String {
    let mut out = head(format);
    let start = out.len();
    body.render_into(&mut out);
    let digest = fnv1a(FNV_OFFSET, out[start..].bytes());
    out.push_str(&format!("{DIGEST_FIELD}{digest}\"}}"));
    out
}

/// Checks that `text` is an intact envelope of `format` and returns its
/// parsed body.
///
/// # Errors
///
/// [`HealthmonError::Json`] on any other format tag (v1 artifacts
/// included), a digest that does not match the body bytes, or a body
/// that is not JSON.
pub(crate) fn open(format: &str, text: &str) -> Result<Json, HealthmonError> {
    let Some(rest) = text.strip_prefix(&head(format)) else {
        let found = parse(text)?;
        let found = found.field("format")?.as_str()?;
        return Err(invalid(if found == format {
            format!("malformed `{format}` envelope")
        } else {
            format!("unknown format `{found}` (expected `{format}`)")
        }));
    };
    let (body, claimed) = rest
        .rsplit_once(DIGEST_FIELD)
        .and_then(|(body, tail)| Some((body, tail.strip_suffix("\"}")?)))
        .ok_or_else(|| invalid(format!("`{format}` envelope has no trailing digest")))?;
    let actual = fnv1a(FNV_OFFSET, body.bytes()).to_string();
    if claimed != actual {
        return Err(invalid(format!(
            "digest mismatch: artifact says {claimed}, body hashes to {actual}"
        )));
    }
    Ok(parse(body)?)
}

fn invalid(message: String) -> HealthmonError {
    JsonError::invalid(message).into()
}

/// [`seal`]s `body` and writes it to `path` with [`write_atomic`].
///
/// # Errors
///
/// [`HealthmonError::CheckpointCorrupt`] carrying the path on any I/O
/// failure.
pub(crate) fn save(path: &Path, format: &str, body: Json) -> Result<(), HealthmonError> {
    write_atomic(path, seal(format, body).as_bytes()).map_err(|e| HealthmonError::CheckpointCorrupt {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Reads and [`open`]s the envelope of `format` at `path`.
///
/// # Errors
///
/// [`HealthmonError::CheckpointCorrupt`] carrying the path when the file
/// is missing, unreadable, or not an intact envelope of `format`.
pub(crate) fn load(path: &Path, format: &str) -> Result<Json, HealthmonError> {
    let text = read_checkpoint(path)?;
    open(format, &text).map_err(|e| mark_corrupt(path, e))
}

/// Atomically replaces `path` with `contents`: temp file in the same
/// directory + fsync + rename, then a best-effort directory fsync so the
/// rename itself is durable. After a crash the destination holds either
/// the previous complete contents or the new complete contents.
///
/// # Errors
///
/// Any I/O error from creating, writing, syncing, or renaming the temp
/// file. The temp file is removed on failure when possible.
pub fn write_atomic(path: impl AsRef<Path>, contents: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = File::create(&tmp)?;
        file.write_all(contents)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // Durability of the rename needs the directory entry flushed too;
    // platforms that cannot fsync a directory just skip this.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Reads a checkpoint file to a string, mapping any I/O failure to
/// [`HealthmonError::CheckpointCorrupt`] with the offending path.
///
/// # Errors
///
/// [`HealthmonError::CheckpointCorrupt`] when the file is missing or
/// unreadable.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<String, HealthmonError> {
    let path = path.as_ref();
    fs::read_to_string(path).map_err(|e| HealthmonError::CheckpointCorrupt {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Rewraps parse-level failures of a checkpoint load as
/// [`HealthmonError::CheckpointCorrupt`] at `path`. Semantic mismatches
/// ([`HealthmonError::CheckpointMismatch`]) pass through untouched: a
/// well-formed checkpoint for different inputs is not a damaged file.
pub fn mark_corrupt(path: impl AsRef<Path>, e: HealthmonError) -> HealthmonError {
    match e {
        HealthmonError::Json(parse) => HealthmonError::CheckpointCorrupt {
            path: path.as_ref().display().to_string(),
            detail: parse.to_string(),
        },
        other => other,
    }
}

/// Replaces `from` with `to` inside the body of a sealed envelope and
/// seals the result again, so a test reaches the body's own validators
/// instead of the envelope digest.
#[cfg(test)]
pub(crate) fn reseal_replacing(format: &str, text: &str, from: &str, to: &str) -> String {
    let body = open(format, text).expect("an intact envelope").render();
    assert!(body.contains(from), "`{from}` must appear in the body");
    seal(format, parse(&body.replace(from, to)).expect("the edit keeps the body JSON"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("healthmon_store_{name}"));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_names_a_foreign_format() {
        let sealed = seal("test-v2", Json::Array(Vec::new()));
        assert_eq!(open("test-v2", &sealed).unwrap(), Json::Array(Vec::new()));
        let v1 = "{\"format\":\"test-v1\",\"rows\":[]}";
        let err = open("test-v2", v1).unwrap_err().to_string();
        assert!(err.contains("unknown format `test-v1`"), "{err}");
        let err = open("other-v2", &sealed).unwrap_err().to_string();
        assert!(err.contains("unknown format `test-v2`"), "{err}");
    }

    #[test]
    fn write_atomic_round_trips() {
        let dir = temp_dir("round_trip");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"{\"v\":1}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        // Overwrite replaces the whole file, never appends.
        write_atomic(&path, b"{}").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "{}");
        // No temp file left behind.
        assert!(!dir.join("artifact.json.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_into_missing_directory_fails_cleanly() {
        let dir = temp_dir("missing").join("no_such_subdir");
        assert!(write_atomic(dir.join("x.json"), b"x").is_err());
    }

    #[test]
    fn read_checkpoint_reports_the_path() {
        let err = read_checkpoint("/definitely/not/a/real/checkpoint.json").unwrap_err();
        match err {
            HealthmonError::CheckpointCorrupt { path, .. } => {
                assert!(path.contains("checkpoint.json"));
            }
            other => panic!("expected CheckpointCorrupt, got {other}"),
        }
    }

    #[test]
    fn mark_corrupt_rewraps_parse_errors_only() {
        let parse: HealthmonError = healthmon_serdes::JsonError::invalid("bad token").into();
        match mark_corrupt("cp.json", parse) {
            HealthmonError::CheckpointCorrupt { path, detail } => {
                assert_eq!(path, "cp.json");
                assert!(detail.contains("bad token"));
            }
            other => panic!("expected CheckpointCorrupt, got {other}"),
        }
        let mismatch = HealthmonError::CheckpointMismatch("different seed".into());
        assert!(matches!(
            mark_corrupt("cp.json", mismatch),
            HealthmonError::CheckpointMismatch(_)
        ));
    }
}
