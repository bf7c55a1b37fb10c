//! Hierarchical named-object tree (AIDA `ITree`).
//!
//! Analysis code books objects under absolute paths (`/higgs/mass`), and the
//! whole tree is the unit of result exchange: each analysis engine ships its
//! tree to the AIDA manager, which merges trees path-by-path. Paths are
//! `/`-separated, directories are implicit, and iteration order is
//! deterministic (sorted) so merged output is stable.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

use crate::object::{AidaObject, MergeError, Mergeable, ObjectDelta};

/// Errors from tree operations.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeError {
    /// Path is syntactically invalid (empty, relative, empty segment).
    BadPath(String),
    /// No object stored at the path.
    NotFound(String),
    /// An object already exists at the path.
    AlreadyExists(String),
    /// Merging the object at a path failed.
    Merge {
        /// The path whose objects could not be combined.
        path: String,
        /// The underlying merge error.
        source: MergeError,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::BadPath(p) => write!(f, "bad object path '{p}'"),
            TreeError::NotFound(p) => write!(f, "no object at '{p}'"),
            TreeError::AlreadyExists(p) => write!(f, "object already exists at '{p}'"),
            TreeError::Merge { path, source } => write!(f, "merging '{path}': {source}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Validate an absolute object path and return the key it is stored under.
///
/// Rules: must start with `/`, must have at least one segment, no empty
/// segments, no trailing slash. A valid path is its own normal form, so
/// paths are validated, never rewritten: the result is always byte-equal
/// to `path`.
pub fn normalize_path(path: &str) -> Result<String, TreeError> {
    let valid = path
        .strip_prefix('/')
        .is_some_and(|rest| rest.split('/').all(|seg| !seg.is_empty()));
    if valid {
        Ok(path.to_string())
    } else {
        Err(TreeError::BadPath(path.to_string()))
    }
}

/// Why a lookup of `path` found nothing. Lookups go to the map with the
/// caller's `&str` and validate only here, on a miss, so a hit — every
/// `fill()` of a booked histogram — allocates nothing.
fn miss(path: &str) -> TreeError {
    normalize_path(path).map_or_else(|bad| bad, TreeError::NotFound)
}

/// A sorted map from absolute path to [`AidaObject`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    objects: BTreeMap<String, AidaObject>,
}

impl Tree {
    /// New empty tree.
    pub fn new() -> Self {
        Tree::default()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Store an object, failing if the path is taken.
    pub fn put(&mut self, path: &str, obj: impl Into<AidaObject>) -> Result<(), TreeError> {
        let p = normalize_path(path)?;
        if self.objects.contains_key(&p) {
            return Err(TreeError::AlreadyExists(p));
        }
        self.objects.insert(p, obj.into());
        Ok(())
    }

    /// Store an object, replacing any existing one at the path.
    pub fn put_replace(&mut self, path: &str, obj: impl Into<AidaObject>) -> Result<(), TreeError> {
        let p = normalize_path(path)?;
        self.objects.insert(p, obj.into());
        Ok(())
    }

    /// Borrow the object at `path`.
    pub fn get(&self, path: &str) -> Result<&AidaObject, TreeError> {
        self.objects.get(path).ok_or_else(|| miss(path))
    }

    /// Mutably borrow the object at `path`.
    pub fn get_mut(&mut self, path: &str) -> Result<&mut AidaObject, TreeError> {
        self.objects.get_mut(path).ok_or_else(|| miss(path))
    }

    /// Remove and return the object at `path`.
    pub fn remove(&mut self, path: &str) -> Result<AidaObject, TreeError> {
        self.objects.remove(path).ok_or_else(|| miss(path))
    }

    /// True if an object exists at `path`.
    pub fn contains(&self, path: &str) -> bool {
        self.objects.contains_key(path)
    }

    /// All object paths, sorted.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.objects.keys().map(String::as_str)
    }

    /// Iterate `(path, object)` pairs in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &AidaObject)> {
        self.objects.iter().map(|(p, o)| (p.as_str(), o))
    }

    /// Direct children of directory `dir`: object names and sub-directory
    /// names (each sub-directory listed once, with a trailing `/`).
    pub fn ls(&self, dir: &str) -> Result<Vec<String>, TreeError> {
        let prefix = if dir == "/" {
            "/".to_string()
        } else {
            format!("{}/", normalize_path(dir)?)
        };
        let mut out: Vec<String> = Vec::new();
        for path in self.objects.keys() {
            if let Some(rest) = path.strip_prefix(&prefix) {
                let entry = match rest.find('/') {
                    Some(i) => format!("{}/", &rest[..i]),
                    None => rest.to_string(),
                };
                if out.last() != Some(&entry) && !out.contains(&entry) {
                    out.push(entry);
                }
            }
        }
        Ok(out)
    }

    /// All paths under a directory prefix (recursive).
    pub fn find(&self, dir: &str) -> Vec<&str> {
        let prefix = if dir == "/" {
            "/".to_string()
        } else {
            match normalize_path(dir) {
                Ok(p) => format!("{p}/"),
                Err(_) => return Vec::new(),
            }
        };
        self.objects
            .keys()
            .filter(|p| p.starts_with(&prefix))
            .map(String::as_str)
            .collect()
    }

    /// Total entries across all objects (used as a progress heartbeat).
    pub fn total_entries(&self) -> u64 {
        self.objects.values().map(AidaObject::entries).sum()
    }

    /// Reset every object's contents (booked structure survives).
    pub fn reset_all(&mut self) {
        for obj in self.objects.values_mut() {
            match obj {
                AidaObject::H1(h) => h.reset(),
                AidaObject::H2(h) => h.reset(),
                AidaObject::P1(p) => p.reset(),
                AidaObject::C1(c) => c.reset(),
                AidaObject::C2(c) => c.reset(),
                AidaObject::Dps(d) => d.clear(),
                AidaObject::Tup(t) => t.reset(),
            }
        }
    }
}

impl Mergeable for Tree {
    /// Merge another tree path-by-path: common paths merge their objects,
    /// paths only in `other` are copied in.
    fn merge(&mut self, other: &Self) -> Result<(), MergeError> {
        for (path, theirs) in &other.objects {
            match self.objects.get_mut(path) {
                Some(ours) => ours.merge(theirs)?,
                None => {
                    self.objects.insert(path.clone(), theirs.clone());
                }
            }
        }
        Ok(())
    }
}

/// What changed in a [`Tree`] since an earlier snapshot of the same tree.
///
/// Produced by [`Tree::diff_since`] and consumed by [`Tree::apply_delta`];
/// the contract is exact reconstruction: `apply(baseline, delta) ==
/// current`, bit-for-bit, including floating-point bin contents. Engines ship
/// these instead of full tree clones on every publish.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TreeDelta {
    /// Per-path changes (replace or append), sorted by path.
    changes: BTreeMap<String, ObjectDelta>,
    /// Paths present in the baseline but gone from the current tree.
    removed: Vec<String>,
}

impl TreeDelta {
    /// True when the delta carries no changes at all.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty() && self.removed.is_empty()
    }

    /// Number of changed (replaced/appended/removed) paths.
    pub fn len(&self) -> usize {
        self.changes.len() + self.removed.len()
    }
}

impl Tree {
    /// Delta that transforms `baseline` (an earlier snapshot of this tree)
    /// into `self`. Unchanged objects are skipped entirely; append-only
    /// objects ship just their new suffix.
    pub fn diff_since(&self, baseline: &Tree) -> TreeDelta {
        let mut delta = TreeDelta::default();
        for (path, obj) in &self.objects {
            match baseline.objects.get(path) {
                Some(old) => {
                    if let Some(change) = obj.diff_from(old) {
                        delta.changes.insert(path.clone(), change);
                    }
                }
                None => {
                    delta
                        .changes
                        .insert(path.clone(), ObjectDelta::Replace(obj.clone()));
                }
            }
        }
        for path in baseline.objects.keys() {
            if !self.objects.contains_key(path) {
                delta.removed.push(path.clone());
            }
        }
        delta
    }

    /// Apply a delta produced by [`Tree::diff_since`] against the same
    /// baseline this tree currently equals. An `Append` for a missing path
    /// is an error (the caller's baseline has drifted — it must resync from
    /// a checkpoint); removals of already-absent paths are harmless because
    /// the end state is identical.
    pub fn apply_delta(&mut self, delta: &TreeDelta) -> Result<(), TreeError> {
        for path in &delta.removed {
            self.objects.remove(path);
        }
        for (path, change) in &delta.changes {
            match change {
                ObjectDelta::Replace(obj) => {
                    self.objects.insert(path.clone(), obj.clone());
                }
                ObjectDelta::Append(suffix) => {
                    let ours = self
                        .objects
                        .get_mut(path)
                        .ok_or_else(|| TreeError::NotFound(path.clone()))?;
                    ours.merge(suffix).map_err(|source| TreeError::Merge {
                        path: path.clone(),
                        source,
                    })?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist1d::Histogram1D;
    use crate::profile::Profile1D;

    fn h(title: &str) -> Histogram1D {
        Histogram1D::new(title, 10, 0.0, 1.0)
    }

    #[test]
    fn put_get_remove() {
        let mut t = Tree::new();
        t.put("/a/b/mass", h("m")).unwrap();
        assert!(t.contains("/a/b/mass"));
        assert_eq!(t.get("/a/b/mass").unwrap().title(), "m");
        assert_eq!(t.len(), 1);
        t.remove("/a/b/mass").unwrap();
        assert!(t.is_empty());
        assert!(matches!(t.get("/a/b/mass"), Err(TreeError::NotFound(_))));
    }

    #[test]
    fn duplicate_put_is_rejected_but_replace_works() {
        let mut t = Tree::new();
        t.put("/x", h("1")).unwrap();
        assert!(matches!(
            t.put("/x", h("2")),
            Err(TreeError::AlreadyExists(_))
        ));
        t.put_replace("/x", h("2")).unwrap();
        assert_eq!(t.get("/x").unwrap().title(), "2");
    }

    #[test]
    fn bad_paths_rejected() {
        let mut t = Tree::new();
        assert!(matches!(
            t.put("relative", h("x")),
            Err(TreeError::BadPath(_))
        ));
        assert!(matches!(t.put("/a//b", h("x")), Err(TreeError::BadPath(_))));
        assert!(matches!(t.put("/", h("x")), Err(TreeError::BadPath(_))));
        assert!(matches!(t.put("/a/", h("x")), Err(TreeError::BadPath(_))));
    }

    /// What every lookup did before lookups stopped rebuilding the path:
    /// split, reject empty segments, re-join, then ask the map.
    fn rebuilt(path: &str) -> Result<String, TreeError> {
        let bad = || TreeError::BadPath(path.to_string());
        let segs: Vec<&str> = path.strip_prefix('/').ok_or_else(bad)?.split('/').collect();
        if segs.iter().any(|s| s.is_empty()) {
            return Err(bad());
        }
        Ok(format!("/{}", segs.join("/")))
    }

    /// `get`/`get_mut`/`contains`/`remove` on `path` against the reference:
    /// same verdict, same error payload.
    fn assert_lookups_match_reference(t: &Tree, path: &str) {
        let want = match rebuilt(path) {
            Ok(p) if t.objects.contains_key(&p) => Ok(()),
            Ok(p) => Err(TreeError::NotFound(p)),
            Err(e) => Err(e),
        };
        assert_eq!(t.get(path).map(|_| ()), want, "get({path:?})");
        let mut scratch = t.clone();
        assert_eq!(scratch.get_mut(path).map(|_| ()), want, "get_mut({path:?})");
        assert_eq!(t.contains(path), want.is_ok(), "contains({path:?})");
        assert_eq!(scratch.remove(path).map(|_| ()), want, "remove({path:?})");
        assert_eq!(scratch.len(), t.len() - usize::from(want.is_ok()));
        assert_eq!(normalize_path(path), rebuilt(path), "normalize({path:?})");
    }

    fn booked() -> Tree {
        let mut t = Tree::new();
        for p in ["/a", "/a/b", "/ab/c", "/z/y/x"] {
            t.put(p, h(p)).unwrap();
        }
        t
    }

    #[test]
    fn lookups_validate_but_never_rewrite() {
        let t = booked();
        for path in [
            "/a", "/a/b", "/ab/c", "/z/y/x", // hits
            "/b", "/a/c", "/z/y", "/a/b/c", // valid misses
            "", "/", "a", "a/b", "//", "/a/", "/a//b", "//a", "/a/b/", " /a", // invalid
        ] {
            assert_lookups_match_reference(&t, path);
        }
        assert_eq!(
            t.get("/a//b").unwrap_err(),
            TreeError::BadPath("/a//b".into())
        );
        assert_eq!(
            t.get("/nope").unwrap_err().to_string(),
            "no object at '/nope'"
        );
    }

    proptest::proptest! {
        #[test]
        fn lookups_match_reference_on_any_string(path in "[/a-z]{0,12}") {
            assert_lookups_match_reference(&booked(), &path);
        }

        #[test]
        fn lookups_find_what_put_stored(path in "[/a-c]{0,6}") {
            let mut t = booked();
            let stored = t.put_replace(&path, h("p")).is_ok();
            assert_eq!(stored, rebuilt(&path).is_ok());
            assert_lookups_match_reference(&t, &path);
        }
    }

    #[test]
    fn ls_lists_direct_children_only() {
        let mut t = Tree::new();
        t.put("/top/h1", h("a")).unwrap();
        t.put("/top/sub/h2", h("b")).unwrap();
        t.put("/top/sub/h3", h("c")).unwrap();
        t.put("/other", h("d")).unwrap();
        let ls = t.ls("/top").unwrap();
        assert_eq!(ls, vec!["h1".to_string(), "sub/".to_string()]);
        let root = t.ls("/").unwrap();
        assert_eq!(root, vec!["other".to_string(), "top/".to_string()]);
    }

    #[test]
    fn find_is_recursive() {
        let mut t = Tree::new();
        t.put("/a/x", h("1")).unwrap();
        t.put("/a/b/y", h("2")).unwrap();
        t.put("/c/z", h("3")).unwrap();
        assert_eq!(t.find("/a"), vec!["/a/b/y", "/a/x"]);
        assert_eq!(t.find("/").len(), 3);
        assert!(t.find("/nope").is_empty());
    }

    #[test]
    fn merge_combines_and_copies() {
        let mut ours = Tree::new();
        let mut h1 = h("m");
        h1.fill1(0.5);
        ours.put("/m", h1).unwrap();

        let mut theirs = Tree::new();
        let mut h2 = h("m");
        h2.fill1(0.6);
        theirs.put("/m", h2).unwrap();
        let mut p = Profile1D::new("p", 10, 0.0, 1.0);
        p.fill1(0.5, 2.0);
        theirs.put("/only/theirs", p).unwrap();

        ours.merge(&theirs).unwrap();
        assert_eq!(ours.get("/m").unwrap().entries(), 2);
        assert!(ours.contains("/only/theirs"));
        assert_eq!(ours.total_entries(), 3);
    }

    #[test]
    fn merge_kind_conflict_fails() {
        let mut a = Tree::new();
        a.put("/x", h("h")).unwrap();
        let mut b = Tree::new();
        b.put("/x", Profile1D::new("p", 10, 0.0, 1.0)).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn reset_all_keeps_structure() {
        let mut t = Tree::new();
        let mut h1 = h("m");
        h1.fill1(0.5);
        t.put("/m", h1).unwrap();
        t.reset_all();
        assert!(t.contains("/m"));
        assert_eq!(t.total_entries(), 0);
    }

    #[test]
    fn diff_empty_when_unchanged() {
        let mut t = Tree::new();
        let mut h1 = h("m");
        h1.fill1(0.5);
        t.put("/m", h1).unwrap();
        let d = t.diff_since(&t.clone());
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn diff_apply_round_trips_replace_append_and_remove() {
        use crate::dps::DataPointSet;
        use crate::tuple::{ColumnType, Tuple, Value};

        let mut base = Tree::new();
        let mut h1 = h("m");
        h1.fill1(0.5);
        base.put("/h", h1).unwrap();
        let mut d0 = DataPointSet::new("pts", 2);
        d0.add_xy(1.0, 2.0, 0.1);
        base.put("/d", d0).unwrap();
        let mut t0 = Tuple::new("rows", &[("x", ColumnType::Float)]);
        t0.fill_row(&[Value::Float(1.0)]).unwrap();
        base.put("/t", t0).unwrap();
        base.put("/gone", h("old")).unwrap();

        // Evolve: histogram refilled (replace), dps/tuple appended, one path
        // removed, one path added.
        let mut cur = base.clone();
        cur.remove("/gone").unwrap();
        if let AidaObject::H1(h) = cur.get_mut("/h").unwrap() {
            h.fill1(0.7);
        }
        if let AidaObject::Dps(d) = cur.get_mut("/d").unwrap() {
            d.add_xy(3.0, 4.0, 0.2);
        }
        if let AidaObject::Tup(t) = cur.get_mut("/t").unwrap() {
            t.fill_row(&[Value::Float(2.0)]).unwrap();
        }
        cur.put("/new", h("fresh")).unwrap();

        let delta = cur.diff_since(&base);
        assert_eq!(delta.len(), 5); // /h, /d, /t, /new changed + /gone removed
                                    // Append-only paths ship suffixes, not full objects.
        assert!(matches!(
            delta.changes.get("/d"),
            Some(ObjectDelta::Append(o)) if o.entries() == 1
        ));
        assert!(matches!(
            delta.changes.get("/t"),
            Some(ObjectDelta::Append(o)) if o.entries() == 1
        ));
        assert!(matches!(
            delta.changes.get("/h"),
            Some(ObjectDelta::Replace(_))
        ));

        let mut rebuilt = base.clone();
        rebuilt.apply_delta(&delta).unwrap();
        assert_eq!(rebuilt, cur);

        // Serde round-trip of the delta itself (it crosses thread channels).
        let s = serde_json::to_string(&delta).unwrap();
        let back: TreeDelta = serde_json::from_str(&s).unwrap();
        assert_eq!(delta, back);
    }

    #[test]
    fn append_for_missing_path_is_a_desync_error() {
        use crate::dps::DataPointSet;
        let mut base = Tree::new();
        let mut d0 = DataPointSet::new("pts", 2);
        d0.add_xy(1.0, 2.0, 0.1);
        base.put("/d", d0).unwrap();
        let mut cur = base.clone();
        if let AidaObject::Dps(d) = cur.get_mut("/d").unwrap() {
            d.add_xy(3.0, 4.0, 0.2);
        }
        let delta = cur.diff_since(&base);
        let mut drifted = Tree::new(); // lost the baseline object
        assert!(matches!(
            drifted.apply_delta(&delta),
            Err(TreeError::NotFound(_))
        ));
    }

    #[test]
    fn serde_round_trip() {
        let mut t = Tree::new();
        let mut h1 = h("m");
        h1.fill1(0.25);
        t.put("/dir/m", h1).unwrap();
        let s = serde_json::to_string(&t).unwrap();
        let back: Tree = serde_json::from_str(&s).unwrap();
        assert_eq!(t, back);
    }
}
