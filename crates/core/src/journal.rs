//! The CRC-checked JSON envelope shared by the build manifest
//! ([`crate::manifest`]) and the ingest journal ([`crate::delta`]).
//!
//! A journal file is the pretty-printed object
//! `{"crc32": c, "manifest": {…}}`, where `c` is the CRC32 of the inner
//! object's compact encoding. It is replaced atomically
//! ([`cure_storage::atomic_write`]: temp file + fsync + rename + directory
//! fsync), so after a crash it is absent, a complete old version, or a
//! complete new version. A missing file loads as `None`; so does a
//! damaged one, with a warning — only external corruption can damage an
//! atomically replaced file, and the safe answer to that is "no journal".

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;
use std::path::Path;

use cure_storage::checksum::crc32;
use cure_storage::{atomic_write, Catalog};
use serde_json::Value;

use crate::error::{CubeError, Result};

/// One kind of journal, named by `label` in error text and warnings
/// (e.g. `"build manifest"`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Journal {
    pub(crate) label: &'static str,
}

impl Journal {
    /// A typed error about this journal.
    pub(crate) fn err(self, msg: impl std::fmt::Display) -> CubeError {
        CubeError::Config(format!("{}: {msg}", self.label))
    }

    /// Field `key` of the object `v`.
    pub(crate) fn get<'v>(self, v: &'v Value, key: &str) -> Result<&'v Value> {
        v.get(key).ok_or_else(|| self.err(format!("missing field '{key}'")))
    }

    /// Integer field `key` of `v`.
    pub(crate) fn u64(self, v: &Value, key: &str) -> Result<u64> {
        self.get(v, key)?
            .as_u64()
            .ok_or_else(|| self.err(format!("field '{key}' is not an integer")))
    }

    /// String field `key` of `v`.
    pub(crate) fn str<'v>(self, v: &'v Value, key: &str) -> Result<&'v str> {
        self.get(v, key)?.as_str().ok_or_else(|| self.err(format!("field '{key}' is not a string")))
    }

    /// Boolean field `key` of `v`.
    pub(crate) fn bool(self, v: &Value, key: &str) -> Result<bool> {
        self.get(v, key)?.as_bool().ok_or_else(|| self.err(format!("field '{key}' is not a bool")))
    }

    /// Atomically replace the file at `path` with `inner` in its envelope.
    pub(crate) fn save(self, catalog: &Catalog, path: &Path, inner: Value) -> Result<()> {
        let crc = crc32(inner.to_string().as_bytes());
        let mut root = BTreeMap::new();
        root.insert("crc32".to_string(), Value::from(crc));
        root.insert("manifest".to_string(), inner);
        let text = serde_json::to_string_pretty(&Value::Object(root))
            .map_err(|e| self.err(format!("serialize: {e}")))?;
        atomic_write(catalog.policy().as_ref(), path, text.as_bytes())
            .map_err(|e| CubeError::Storage(e.into()))?;
        Ok(())
    }

    /// Parse raw file bytes: check the envelope's CRC, then hand the inner
    /// object to `from_json`.
    pub(crate) fn parse<T>(
        self,
        bytes: &[u8],
        from_json: impl FnOnce(&Value) -> Result<T>,
    ) -> Result<T> {
        let root: Value =
            serde_json::from_slice(bytes).map_err(|e| self.err(format!("unparseable: {e}")))?;
        let crc = self.u64(&root, "crc32")? as u32;
        let inner = self.get(&root, "manifest")?;
        let actual = crc32(inner.to_string().as_bytes());
        if actual != crc {
            return Err(
                self.err(format!("CRC mismatch (stored {crc:#010x}, actual {actual:#010x})"))
            );
        }
        from_json(inner)
    }

    /// Load the file at `path` through `parse`: `None` when it is absent,
    /// and `None` with a warning when it fails to parse.
    pub(crate) fn load<T>(
        self,
        path: &Path,
        parse: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<Option<T>> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(CubeError::Storage(e.into())),
        };
        match parse(&bytes) {
            Ok(v) => Ok(Some(v)),
            Err(e) => {
                eprintln!(
                    "cure-core: warning: ignoring damaged {} {}: {e}",
                    self.label,
                    path.display()
                );
                Ok(None)
            }
        }
    }

    /// Delete the file at `path` if present.
    pub(crate) fn remove(path: &Path) -> Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(CubeError::Storage(e.into())),
        }
    }
}
