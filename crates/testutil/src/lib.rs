//! Test support shared by the workspace's tests and benches.
//!
//! [`TempDir`] is the one way a test gets a scratch directory: unique per
//! call, so parallel tests (and twin processes of one test binary) never
//! share a path, and removed on drop, so passing tests leave nothing
//! behind.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, empty directory under [`std::env::temp_dir`], named
/// `synctime-<tag>-<pid>-<n>` with `n` a process-wide counter, and
/// removed with its contents when dropped. It derefs to its [`Path`].
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates the directory.
    ///
    /// # Panics
    ///
    /// When the directory cannot be created: the caller is a test or a
    /// bench that cannot run without it.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "synctime-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A leftover from a killed run with a recycled pid.
        let _ = std::fs::remove_dir_all(&path);
        if let Err(e) = std::fs::create_dir_all(&path) {
            panic!("create temp dir {}: {e}", path.display());
        }
        TempDir { path }
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_call_gets_its_own_directory_removed_on_drop() {
        let a = TempDir::new("testutil");
        let b = TempDir::new("testutil");
        assert_ne!(&*a, &*b);
        assert!(a.is_dir() && b.is_dir());
        std::fs::write(a.join("f"), b"x").unwrap();
        let path = a.to_path_buf();
        drop(a);
        assert!(!path.exists());
        assert!(b.is_dir());
    }
}
