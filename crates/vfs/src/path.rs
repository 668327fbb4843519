//! Absolute path parsing and normalization.
//!
//! The file system uses plain `str` paths in UNIX syntax. Only absolute
//! paths are accepted (the simulated processes have no working directory —
//! the workload generator always addresses files by full path). `.` and `..`
//! components are resolved lexically.

use crate::FsError;

/// Maximum length of a single path component, as in classic UNIX.
pub const NAME_MAX: usize = 255;

/// Splits an absolute path into normalized components.
///
/// # Errors
///
/// Returns [`FsError::InvalidArgument`] for empty or relative paths and
/// [`FsError::NameTooLong`] for components longer than [`NAME_MAX`].
pub fn components(path: &str) -> Result<Vec<&str>, FsError> {
    if path.is_empty() || !path.starts_with('/') {
        return Err(FsError::InvalidArgument);
    }
    let mut out: Vec<&str> = Vec::new();
    for comp in path.split('/') {
        match comp {
            "" | "." => {}
            ".." => {
                // Lexical parent; `..` at the root stays at the root.
                out.pop();
            }
            name => {
                if name.len() > NAME_MAX {
                    return Err(FsError::NameTooLong);
                }
                out.push(name);
            }
        }
    }
    Ok(out)
}

/// The components of `path` when it has nothing to resolve — absolute, no
/// `.` or `..`, no name too long — as [`components`] would return them,
/// without collecting them; `None` otherwise.
pub fn plain(path: &str) -> Option<impl Iterator<Item = &str> + Clone> {
    let comps = path.strip_prefix('/')?.split('/').filter(|c| !c.is_empty());
    let simple = |c: &str| !matches!(c, "." | "..") && c.len() <= NAME_MAX;
    comps.clone().all(simple).then_some(comps)
}

/// [`split_parent`] of a path [`plain`] accepts, without collecting the
/// parent's components.
pub fn plain_parent(path: &str) -> Option<(impl Iterator<Item = &str> + Clone, &str)> {
    let (parent, name) = path.trim_end_matches('/').rsplit_once('/')?;
    let parent = plain(if parent.is_empty() { "/" } else { parent })?;
    (!matches!(name, "." | "..") && name.len() <= NAME_MAX).then_some((parent, name))
}

/// Validates a single directory-entry name, as the by-handle calls take it:
/// what [`components`] would yield as exactly one component.
///
/// # Errors
///
/// Returns [`FsError::InvalidArgument`] for an empty name, `.`, `..` or a
/// name containing `/`, and [`FsError::NameTooLong`] beyond [`NAME_MAX`].
pub fn check_name(name: &str) -> Result<(), FsError> {
    if matches!(name, "" | "." | "..") || name.contains('/') {
        return Err(FsError::InvalidArgument);
    }
    if name.len() > NAME_MAX {
        return Err(FsError::NameTooLong);
    }
    Ok(())
}

/// Splits a path into `(parent_components, final_name)`.
///
/// # Errors
///
/// Returns [`FsError::InvalidArgument`] when the path resolves to the root
/// (which has no parent) plus the errors of [`components`].
pub fn split_parent(path: &str) -> Result<(Vec<&str>, &str), FsError> {
    let mut comps = components(path)?;
    let name = comps.pop().ok_or(FsError::InvalidArgument)?;
    Ok((comps, name))
}

/// Joins components back into an absolute path string.
#[cfg(test)]
pub(crate) fn join(comps: &[&str]) -> String {
    if comps.is_empty() {
        "/".to_string()
    } else {
        let mut s = String::new();
        for c in comps {
            s.push('/');
            s.push_str(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_paths() {
        assert_eq!(components("/").unwrap(), Vec::<&str>::new());
        assert_eq!(components("/a/b/c").unwrap(), vec!["a", "b", "c"]);
        assert_eq!(components("/a//b/").unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn plain_paths_split_as_components_does() {
        let long = format!("/a/{}", "x".repeat(NAME_MAX + 1));
        for path in [
            "/", "/a/b/c", "/a//b/", "//a", "/a/./b", "/a/../b", "/..", &long, "a/b",
        ] {
            let collected = plain(path).map(|comps| comps.collect::<Vec<_>>());
            let simple = !path.contains("/.") && path.starts_with('/') && path != long;
            assert_eq!(
                collected,
                simple.then(|| components(path).unwrap()),
                "{path:?}"
            );
            let parent = plain_parent(path).map(|(comps, name)| (comps.collect(), name));
            let split = split_parent(path).ok();
            assert_eq!(parent, split.filter(|_| simple), "{path:?}");
        }
    }

    #[test]
    fn resolves_dots() {
        assert_eq!(components("/a/./b").unwrap(), vec!["a", "b"]);
        assert_eq!(components("/a/../b").unwrap(), vec!["b"]);
        assert_eq!(components("/../..").unwrap(), Vec::<&str>::new());
        assert_eq!(components("/a/b/../../c").unwrap(), vec!["c"]);
    }

    #[test]
    fn rejects_relative_and_empty() {
        assert_eq!(components(""), Err(FsError::InvalidArgument));
        assert_eq!(components("a/b"), Err(FsError::InvalidArgument));
    }

    #[test]
    fn rejects_long_names() {
        let long = format!("/{}", "x".repeat(NAME_MAX + 1));
        assert_eq!(components(&long), Err(FsError::NameTooLong));
        let ok = format!("/{}", "x".repeat(NAME_MAX));
        assert!(components(&ok).is_ok());
    }

    #[test]
    fn check_name_accepts_exactly_one_component() {
        assert_eq!(check_name("a.txt"), Ok(()));
        assert_eq!(check_name("...").and(check_name(".hidden")), Ok(()));
        for bad in ["", ".", "..", "a/b", "/a", "a/"] {
            assert_eq!(check_name(bad), Err(FsError::InvalidArgument), "{bad:?}");
        }
        assert_eq!(check_name(&"x".repeat(NAME_MAX)), Ok(()));
        assert_eq!(
            check_name(&"x".repeat(NAME_MAX + 1)),
            Err(FsError::NameTooLong)
        );
    }

    #[test]
    fn split_parent_works() {
        let (parent, name) = split_parent("/a/b/c").unwrap();
        assert_eq!(parent, vec!["a", "b"]);
        assert_eq!(name, "c");
        assert_eq!(split_parent("/"), Err(FsError::InvalidArgument));
        let (parent, name) = split_parent("/top").unwrap();
        assert!(parent.is_empty());
        assert_eq!(name, "top");
    }

    #[test]
    fn join_round_trips() {
        for p in ["/", "/a", "/a/b/c"] {
            let comps = components(p).unwrap();
            assert_eq!(join(&comps), p);
        }
    }
}
